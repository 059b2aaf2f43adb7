"""Tests of the benchmark itself: tracer transparency, repeatable counts,
declared metric names, independent oracles and the no-source exit."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import meroimm  # noqa: E402
import meroimm.cli  # noqa: E402,F401
import oracles as orc  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in DECLARED["end_to_end"]]
PER_LAYER = [m["name"] for m in DECLARED["per_layer"]]


def _traced(wl, ops):
    run = getattr(wl, "run_inprocess", wl.run)
    tracer = Tracer()
    tracer.install()
    try:
        out = []
        for i, op in enumerate(ops):
            tracer.op = i
            out.append(wl.digest(run(op)))
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    counts = {k: v for k, v in m.items() if not k.endswith("self_ms")}
    return out, counts


@pytest.mark.parametrize("name,n", [("certify", 12), ("extend", 4), ("family", 1), ("cli", 3)])
def test_tracing_keeps_results_and_counts_repeat(tmp_path, name, n):
    wl = workloads.WORKLOADS[name](meroimm, 5, tmp_path)
    ops = wl.build()[:n]
    plain = [wl.digest(wl.run(op)) for op in ops]
    first, counts1 = _traced(wl, ops)
    second, counts2 = _traced(wl, ops)
    assert first == plain and second == plain
    assert counts1 == counts2
    assert counts1["poly.roots.calls"] > 0


def test_wrappers_reach_every_importing_module_and_come_off():
    orig_roots = meroimm.poly.roots
    orig_eval = meroimm.IntegralImmersion.__dict__["evaluate"]
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (meroimm.poly, meroimm.rational, meroimm.extension, meroimm):
            assert mod.roots is not orig_roots
            assert mod.roots.__wrapped__ is orig_roots
        assert meroimm.cli.verify_immersion is meroimm.immersions.verify_immersion
    finally:
        tracer.uninstall()
    for mod in (meroimm.poly, meroimm.rational, meroimm.extension, meroimm):
        assert mod.roots is orig_roots
    assert meroimm.IntegralImmersion.__dict__["evaluate"] is orig_eval


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    wl = workloads.WORKLOADS["certify"](meroimm, 5, tmp_path)
    op = wl.build()[0]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        wl.run(op)
    finally:
        tracer.uninstall()
    top = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in top] == ["immersions.verify_immersion"]
    total = top[0][2] - top[0][1]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-9)
    for name, t0, t1, parent, _ in tracer.spans:
        if parent >= 0:
            assert tracer.spans[parent][1] <= t0 <= t1 <= tracer.spans[parent][2]


def _run(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def test_printed_names_are_declared():
    for trace, names in (("0", E2E), ("1", PER_LAYER)):
        proc = _run(["--workload", "certify", "--seed", "5", "--seconds", "0.1", "--trace", trace], ROOT)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == names
        table = [ln.split()[0] for ln in lines[1:-1] if len(ln.split()) == 3]
        assert set(table) <= set(E2E) | set(PER_LAYER)
        if trace == "0":
            assert {"fail_rate", "wrong_rate"} <= set(table) and set(E2E) <= set(table)


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracles_share_no_code_with_the_package():
    for name in ("oracles.py", "workloads.py"):
        text = (HERE / name).read_text()
        assert "import meroimm" not in text and "from meroimm" not in text


def test_oracle_counts_on_closed_forms():
    z3 = np.array([0, 0, 0, 1], dtype=complex)  # z^3: f' = 3 z^2
    one = np.array([1], dtype=complex)
    assert orc.derivative_winding(z3, one, 0, 1.0) == 2
    assert orc.derivative_zero_count(z3, one, [], 0, 1.0) == 2
    # 1/(z - a)^2: a double pole of f, no zeros of f'
    a = 0.3 + 0.1j
    den = np.poly([a, a])[::-1]
    assert orc.derivative_zero_count(one, den, [(a, 2)], 0, 1.0) == 0
    assert orc.derivative_winding(one, den, 0, 1.0) == -3


def test_primitive_matches_a_closed_form():
    # scale exp(0)/1 integrates to f0 + scale (z - z0)
    prim = orc.Primitive([0j], 2.0, 0.1, 1.0, [])
    pts = 1.5 * np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.allclose(prim.at(pts), 1.0 + 2.0 * (pts - 0.1), atol=1e-12)
    ring, vals, closure = prim.on_circle(0, 1.0, 16)
    assert np.allclose(vals, 1.0 + 2.0 * (ring - 0.1), atol=1e-12) and closure < 1e-12
