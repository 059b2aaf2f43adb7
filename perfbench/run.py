"""meroimm benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {certify,extend,family,cli} \
        --seed N --seconds S --trace {0,1}

--trace 0 times the workload's op in a closed loop (one client, one
process, no worker threads) over the seed's pool of inputs, in whole passes,
until S seconds, ``min_ops`` ops and ``min_passes`` passes are done, so
that every run times each input of its pool equally often.  It checks every
result against an oracle that shares no code with meroimm, and prints the
end-to-end metrics.  Set-up time is the median over fresh processes, each
timed from launch to the end of one warm-up op.

Times are reported at a reference host speed.  On a shared host the CPU
speed can drift by half within seconds, so one run of a fixed calibration
kernel (plain Python and numpy, no meroimm code) precedes every op and one
follows the last; an op's time is divided by the median of the
2 * KERNEL_WINDOW kernel times nearest it and multiplied by REF_KERNEL_S,
and set-up probes are scaled by kernel bursts run around them.  An input's
latency is the median of its scaled times over the passes; ops_per_s is the
pool size over the sum of those latencies.  The latency percentiles are
taken over all scaled op times of the run.  The header line of the output
gives the raw kernel time, so raw figures can be recovered.  The process
and its children keep to one core, so the kernel sees the speed the ops
see.

--trace 1 runs each of the first ``trace_ops`` inputs of the pool untraced
and then traced, checks that both give identical results, and prints the
per-layer metrics (see tracer.py) over the traced pass, unscaled.  The cli
op is traced through meroimm.cli.main in this process; cli.startup_ms is the
child process latency minus the untraced in-process time of the same
command.  The spans go to .perfbench_out/ in the checkout.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; ``correct`` is true only when no op
raised and the oracles accepted every result.  The metric names, units and
bounds are declared in BENCHMARK.json; workload parameters live in spec.json.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

# one client, no worker threads: numpy's BLAS stays single-threaded here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
MAX_LOOP_S = 120.0
# reported times are scaled to the host speed at which one kernel run takes this long
REF_KERNEL_S = 1e-3
KERNEL_WINDOW = 4  # an op is scaled by the median of the 2 * KERNEL_WINDOW kernel runs nearest it
_KERNEL_POLY = np.array([1, 2 - 1j, 0.5, 3j, -1, 0.25, 2], dtype=complex)


def _kernel() -> float:
    """Seconds taken by one run of the calibration kernel: fixed pure-Python
    arithmetic and small numpy root solves, like the package's work, but
    sharing no code with it."""
    t0 = time.perf_counter()
    acc = 0j
    for k in range(300):
        acc = acc * 0.5 + complex(k % 7, k % 3)
    for _ in range(20):
        np.roots(_KERNEL_POLY)
    return time.perf_counter() - t0


def _host_speed(samples: int = 25) -> float:
    """Median kernel time over a burst of kernel runs."""
    return statistics.median(_kernel() for _ in range(samples))


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "extend", "family", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _layer(tb) -> str:
    """module.function of the innermost meroimm frame of a traceback."""
    layer = "harness"
    for frame, _ in traceback.walk_tb(tb):
        path = Path(frame.f_code.co_filename)
        if path.parent.name == "meroimm":
            layer = f"{path.stem}.{frame.f_code.co_name}"
    return layer


def _setup(args, workdir: Path):
    """Import meroimm, build the inputs and run one warm-up op."""
    import meroimm
    import meroimm.cli  # noqa: F401  (the cli workload calls it in process)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](meroimm, args.seed, workdir)
    ops = wl.build()
    try:
        wl.run(ops[0])
    except Exception:
        pass  # the warm-up's outcome is counted when the loop reaches this op
    return wl, ops


def _time_op(run, op):
    """Run one op; an exception is the op's failure, kept as (type, layer)."""
    from workloads import CliExit

    t0 = time.perf_counter()
    try:
        res, err = run(op), None
    except CliExit as exc:
        res, err = None, (f"exit code {exc.code}", "cli.main")
    except Exception as exc:
        res, err = None, (type(exc).__name__, _layer(exc.__traceback__))
    return res, err, time.perf_counter() - t0


def _judge(wl, ops, records):
    """Oracle verdicts: counts of raised, wrong and unchecked ops, and the
    failures by (type, layer); a wrong answer's layer is its op kind."""
    from workloads import Unjudged

    cache = {}
    raised = wrong = unchecked = 0
    errors = Counter()
    for i, res, err, _ in records:
        if err is not None:
            raised += 1
            errors[("raised " + err[0], err[1])] += 1
            continue
        key = (i, wl.digest(res))
        if key not in cache:
            try:
                cache[key] = bool(wl.check(i, ops[i], res))
            except Exception as exc:
                cache[key] = None
                why = str(exc) if isinstance(exc, Unjudged) else f"oracle raised {type(exc).__name__}"
                errors[(f"unchecked ({why})", _kind(ops[i]))] += 1
        if cache[key] is None:
            unchecked += 1
        elif not cache[key]:
            wrong += 1
            errors[("wrong answer", f"{_kind(ops[i])}")] += 1
    return raised, wrong, unchecked, errors


def _kind(op) -> str:
    return f"op kind {op['kind']}"


def _measure_setup(args) -> list[float]:
    """Set-up times of fresh processes, each scaled by the kernel time measured
    right before and after it."""
    out = []
    for _ in range(SETUP_PROBES):
        before = _host_speed()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            stdout=subprocess.PIPE, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError("set-up probe failed")
        speed = statistics.median([before, _host_speed()])
        out.append((t1 - t0) * REF_KERNEL_S / speed)
    return out


def _declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _pct(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def _print(args, values: dict, units: dict, in_json, correct, attempted, failed, errors, extra=""):
    """A readable table of every metric, then the JSON line with the ones in in_json."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {extra}")
    for name, v in values.items():
        print(f"  {name:<52} {v:>14.6g} {units[name]}")
    for (etype, layer), n in sorted(errors.items()):
        print(f"  {etype} at {layer}: {n}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in in_json}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def run_timed(args, workdir: Path) -> int:
    e2e_units, layer_units = _declared()
    setups = _measure_setup(args)
    wl, ops = _setup(args, workdir)
    spec = json.loads((HERE / "spec.json").read_text())
    records = []
    kernel = [_kernel()]  # kernel[k] and kernel[k + 1] bracket op k
    passes = 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            records.append((i, *_time_op(wl.run, op)))
            kernel.append(_kernel())
        passes += 1
        elapsed = time.perf_counter() - start
        # whole passes only, so every run times each input of its pool equally often
        done = elapsed >= args.seconds and len(records) >= spec["min_ops"] and passes >= spec["min_passes"]
        if done or elapsed >= MAX_LOOP_S:
            break
    if args.workload == "cli":
        rss_kb = wl.max_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raised, wrong, unchecked, errors = _judge(wl, ops, records)
    n, size = len(records), len(ops)
    scaled = [
        1e3 * REF_KERNEL_S * r[3] / statistics.median(kernel[max(0, k - KERNEL_WINDOW + 1):k + KERNEL_WINDOW + 1])
        for k, r in enumerate(records)
    ]
    # ops_per_s uses each input's median over the passes, which keeps a one-off stall out of it
    per_input = [statistics.median(scaled[i::size]) for i in range(size)]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": 1e3 * size / sum(per_input),
        "latency_p50_ms": statistics.median(scaled),
        "latency_p90_ms": _pct(scaled, 90),
        "peak_rss_mb": rss_kb / 1024.0,
        "fail_rate": (raised + wrong) / n,
        "wrong_rate": wrong / n,
    }
    units = {**e2e_units, "fail_rate": layer_units["fail_rate"], "wrong_rate": layer_units["wrong_rate"]}
    _print(args, values, units, list(e2e_units), raised == 0 and wrong == 0 and unchecked == 0,
           n, raised + wrong, errors,
           extra=f"ops {n} in {passes} passes over {size} inputs, {elapsed:.2f} s, unchecked {unchecked}, "
                 f"closed loop with one client, kernel {1e3 * statistics.median(kernel):.3f} ms")
    return 0


def run_traced(args, workdir: Path) -> int:
    from tracer import Tracer

    _, layer_units = _declared()
    wl, ops = _setup(args, workdir)
    ops = ops[:json.loads((HERE / "spec.json").read_text())["workloads"][args.workload]["trace_ops"]]
    # the cli op is traced through meroimm.cli.main in this process
    run = getattr(wl, "run_inprocess", wl.run)
    _time_op(run, ops[0])  # warm-up
    tracer = Tracer()
    plain, traced = [], []
    # untraced and traced runs of each op back to back, so both see the same host load
    for i, op in enumerate(ops):
        plain.append((i, *_time_op(run, op)))
        tracer.op = i
        tracer.install()
        try:
            traced.append((i, *_time_op(run, op)))
        finally:
            tracer.uninstall()
    identical = all(
        (a[2] == b[2]) and (a[2] is not None or wl.digest(a[1]) == wl.digest(b[1]))
        for a, b in zip(plain, traced)
    )
    raised, wrong, unchecked, errors = _judge(wl, ops, traced)
    n = len(ops)
    walls = [r[3] for r in traced]
    values = {k: v for k, v in tracer.metrics().items() if k in layer_units}
    values["cli.startup_ms"] = 0.0
    if args.workload == "cli":
        # child process latency minus the untraced in-process cli.main time of the same command
        child = [_time_op(wl.run, op)[2] for op in ops]
        values["cli.startup_ms"] = statistics.median(1e3 * (c - p[3]) for c, p in zip(child, plain))
    values["trace.overhead"] = sum(r[3] for r in plain) / sum(walls)
    values["trace.coverage"] = min(tracer.top_level_time(i) / walls[i] for i in range(n))
    values["fail_rate"] = (raised + wrong) / n
    values["wrong_rate"] = wrong / n
    missing = set(layer_units) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {sorted(missing)}")
    out_dir = ROOT / ".perfbench_out"
    tracer.dump(out_dir / f"spans-{args.workload}-{args.seed}.json")
    _print(args, {k: values[k] for k in layer_units}, layer_units, list(layer_units),
           identical and raised == 0 and wrong == 0 and unchecked == 0, n, raised + wrong, errors,
           extra=f"ops {n} (the first trace_ops inputs), traced and untraced results identical: {identical}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "meroimm" / "__init__.py").is_file():
        print(f"no meroimm source tree under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # the kernel, the ops and every child process share one core, so the
    # kernel sees the speed the ops see
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            _setup(args, workdir)
            print("ready", flush=True)
            return 0
        return run_traced(args, workdir) if args.trace else run_timed(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
