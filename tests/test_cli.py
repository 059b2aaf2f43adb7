import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import meroimm
from meroimm import Disc, RunConfig, extension_boundary_error
from meroimm.cli import main
from meroimm.serialize import immersion_from_json, rational_from_json


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def zpow_json(d):
    if d > 0:
        return {"num": [[0.0, 0.0]] * d + [[1.0, 0.0]], "den": [[1.0, 0.0]]}
    return {"num": [[1.0, 0.0]], "den": [[0.0, 0.0]] * (-d) + [[1.0, 0.0]]}


ANNULUS = {
    "outer": {"center": [0.0, 0.0], "radius": 2.0},
    "holes": [{"center": [0.0, 0.0], "radius": 0.5}],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_valid(tmp_path, capsys):
    path = write(tmp_path, "in.json", {
        "map": zpow_json(1),
        "domain": {"center": [0.0, 0.0], "radius": 1.0},
        "target": "C",
    })
    code, out, _ = run(capsys, "verify", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["certificate"]["valid"] is True
    # eps is the one setting; the report lists the fixed tolerances with it
    assert report["config"] == {
        "clearance_factor": 1e-6, "degree_budget": 256, "eps": 1e-3,
        "tol_quad": 1e-10, "tol_residue": 1e-9, "tol_root": 1e-8,
    }
    assert type(report["config"]["degree_budget"]) is int


def test_verify_false_verdict_is_ok_exit(tmp_path, capsys):
    path = write(tmp_path, "in.json", {
        "map": zpow_json(2),
        "domain": {"center": [0.0, 0.0], "radius": 1.0},
        "target": "C",
    })
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert "valid=False" in out


def test_classify_z3(tmp_path, capsys):
    path = write(tmp_path, "in.json", {
        "map": zpow_json(3), "domain": ANNULUS, "target": "C",
    })
    code, out, _ = run(capsys, "classify", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["classification"]["z_class"] == [2]
    assert report["result"]["classification"]["mod2_class"] == [0]


def test_same_component(tmp_path, capsys):
    base = {"map1": zpow_json(1), "map2": zpow_json(3), "domain": ANNULUS}
    p1 = write(tmp_path, "cp1.json", {**base, "target": "CP1"})
    code, out, _ = run(capsys, "same-component", p1, "--json")
    assert code == 0 and json.loads(out)["result"]["same_component"] is True
    p2 = write(tmp_path, "c.json", {**base, "target": "C"})
    code, out, _ = run(capsys, "same-component", p2, "--json")
    assert code == 0 and json.loads(out)["result"]["same_component"] is False


def test_wind_and_chart_check(tmp_path, capsys):
    circ = {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0}
    p = write(tmp_path, "w.json", {"map": zpow_json(3), "contour": circ,
                                   "of": "derivative"})
    code, out, _ = run(capsys, "wind", p, "--json")
    assert code == 0 and json.loads(out)["result"]["winding"] == 2
    p = write(tmp_path, "c.json", {"contour": circ})
    code, out, _ = run(capsys, "chart-check", p, "--json")
    assert code == 0 and json.loads(out)["result"]["transition_winding"] == -2


def test_seed(tmp_path, capsys):
    p = write(tmp_path, "s.json", {"seed": {
        "base_point": [0.0, 0.0], "target": [2.0, 1.0],
        "fiber": [3.0, 0.0], "frame": [1.0, 0.0]}})
    code, out, _ = run(capsys, "seed", p, "--json")
    assert code == 0
    r = json.loads(out)["result"]
    assert r["map"]["num"] == [[2.0, 1.0], [3.0, 0.0]]
    assert r["value_at_base"] == [2.0, 1.0]
    p = write(tmp_path, "sinf.json", {"seed": {
        "base_point": [0.0, 0.0], "target": "inf",
        "fiber": [1.0, 0.0], "frame": [1.0, 0.0]}})
    code, out, _ = run(capsys, "seed", p, "--json")
    assert code == 0
    assert json.loads(out)["result"]["value_at_base"] == "inf"


def test_extend_artifacts_and_determinism(tmp_path, capsys):
    p = write(tmp_path, "e.json", {
        "map": {"num": [[0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [0.1, 0]],
                "den": [[1, 0]]},
        "disc0": {"center": [0.0, 0.0], "radius": 1.0},
        "disc1": {"center": [0.0, 0.0], "radius": 2.0},
    })
    out1 = tmp_path / "a1"
    out2 = tmp_path / "a2"
    code, _, _ = run(capsys, "extend", p, "--eps", "1e-3", "--out", str(out1))
    assert code == 0
    code, _, _ = run(capsys, "extend", p, "--eps", "1e-3", "--out", str(out2))
    assert code == 0
    r1 = (out1 / "report.json").read_bytes()
    r2 = (out2 / "report.json").read_bytes()
    assert r1 == r2  # byte-identical reports
    assert (out1 / "extend_samples.csv").exists()
    assert (out1 / "immersion.json").exists()
    report = json.loads(r1)
    assert report["result"]["achieved_eps"] < 1e-3
    # artifact JSON re-parses into an equal value
    art = json.loads((out1 / "immersion.json").read_text())
    F = immersion_from_json(art)
    assert complex(F.evaluate(0.5)).real == pytest.approx(0.5 + 0.1 * 0.5 ** 5, abs=1e-8)
    # the reported error is the boundary error of the reported immersion
    f = rational_from_json(json.loads(Path(p).read_text())["map"])
    assert report["result"]["achieved_eps"] == extension_boundary_error(f, F, Disc(0, 1.0))


def test_extend_samples_are_the_values_achieved_eps_was_measured_on(tmp_path, capsys, monkeypatch):
    # cli extend --out writes the 256 boundary values that extend_immersion
    # measured achieved_eps on, without sampling the circle again; the file
    # is the one values_on_circle gives
    from meroimm.contours import circle_samples
    from meroimm.extension import IntegralImmersion, extend_immersion
    from meroimm.serialize import write_map_samples_csv

    m = {"num": [[0.2, 0.0], [1.0, 0.0]], "den": [[-1.4, 0.3], [1.0, 0.0]]}
    p = write(tmp_path, "e.json", {"map": m, "disc0": {"center": [0.0, 0.0], "radius": 1.0},
                                   "disc1": {"center": [0.0, 0.0], "radius": 2.0}})
    f = rational_from_json(m)
    want = tmp_path / "want.csv"
    vals = extend_immersion(f, Disc(0, 1.0), Disc(0, 2.0), 1e-3).values_on_circle(0j, 1.0, 256)
    write_map_samples_csv(want, circle_samples(0j, 1.0, 256), list(vals))
    calls = []
    values_on_circle = IntegralImmersion.values_on_circle

    def counted(self, *args):
        calls.append(args)
        return values_on_circle(self, *args)

    monkeypatch.setattr(IntegralImmersion, "values_on_circle", counted)
    code, _, _ = run(capsys, "extend", p, "--out", str(tmp_path / "out"))
    assert code == 0 and calls == []
    assert (tmp_path / "out" / "extend_samples.csv").read_bytes() == want.read_bytes()


def test_extend_family_out_writes_every_member_from_one_block(tmp_path, capsys, monkeypatch):
    # each member's CSV holds the bits of its own values_on_circle at 64
    # samples, though the CLI samples all members as one block and calls none
    from meroimm.contours import circle_samples
    from meroimm.extension import IntegralImmersion
    from meroimm.serialize import write_map_samples_csv

    maps = [{"num": [[1.0, 0.0]], "den": [[-(0.3 + 0.05 * i), 0.1 * i], [1.0, 0.0]]}
            for i in range(4)]
    p = write(tmp_path, "fam.json", {
        "maps": maps, "grid": {"shape": [4], "q": [0]},
        "disc0": {"center": [0.0, 0.0], "radius": 1.0},
        "disc1": {"center": [0.0, 0.0], "radius": 2.0},
    })
    calls = []
    values_on_circle = IntegralImmersion.values_on_circle

    def counted(self, *args):
        calls.append(args)
        return values_on_circle(self, *args)

    monkeypatch.setattr(IntegralImmersion, "values_on_circle", counted)
    code, out, _ = run(capsys, "extend-family", p, "--json", "--out", str(tmp_path / "out"))
    assert code == 0 and calls == []
    for i, imm in enumerate(json.loads(out)["result"]["immersions"]):
        want = tmp_path / f"want{i}.csv"
        vals = values_on_circle(immersion_from_json(imm), 0j, 1.0, 64)
        write_map_samples_csv(want, circle_samples(0j, 1.0, 64), list(vals))
        got = tmp_path / "out" / f"extend_family_node{i:03d}.csv"
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_text().splitlines()) == 65


def test_extend_family_cli(tmp_path, capsys):
    maps = [
        {"num": [[1.0, 0.0]],
         "den": [[-(0.3 + 0.2 * (i / 4)), 0.0], [1.0, 0.0]]}
        for i in range(5)
    ]
    p = write(tmp_path, "fam.json", {
        "maps": maps,
        "grid": {"shape": [5], "q": [0, 4]},
        "disc0": {"center": [0.0, 0.0], "radius": 1.0},
        "disc1": {"center": [0.0, 0.0], "radius": 2.0},
    })
    outdir = tmp_path / "fam_art"
    code, out, _ = run(capsys, "extend-family", p, "--json", "--out", str(outdir))
    assert code == 0
    report = json.loads(out)
    assert len(report["result"]["immersions"]) == 5
    assert all(c["valid"] for c in report["result"]["certificates"])
    assert (outdir / "extend_family_node000.csv").exists()
    for m, imm, achieved in zip(maps, report["result"]["immersions"],
                                report["result"]["achieved_eps"]):
        F = immersion_from_json(imm)
        assert achieved == extension_boundary_error(
            rational_from_json(m), F, Disc(0, 1.0)
        )


def test_blend_cli(tmp_path, capsys):
    maps = [{"num": [[1.0, 0.0]], "den": [[-(2.0 + i / 10), 0.0], [1.0, 0.0]]}
            for i in range(11)]
    p = write(tmp_path, "b.json", {
        "maps": maps,
        "grid": {"shape": [11], "q": [0, 10]},
        "disc": {"center": [0.0, 0.0], "radius": 1.0},
    })
    code, out, _ = run(capsys, "blend", p, "--eps", "1e-3", "--json")
    assert code == 0
    r = json.loads(out)["result"]
    assert len(r["polynomials"]) == 11
    assert max(r["errors"]) < 5e-4
    # Q outputs serialize as the exact rational inputs
    assert r["polynomials"][0] == maps[0]


def test_exit_code_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 1
    p = write(tmp_path, "bad.json", {"domain": ANNULUS})
    code, _, err = run(capsys, "verify", p)
    assert code == 1 and "map" in err


@pytest.mark.parametrize("argv", [("verify",), ("verify", "--json"), ("bogus", "in.json"), ()])
def test_usage_error_is_input_error(capsys, argv):
    # argparse would exit 2, the code of a failed precondition
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("input error:")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0 and "--eps" in capsys.readouterr().out


def test_exit_code_precondition(tmp_path, capsys):
    # z^2 on a disc domain: classification needs an immersion
    p = write(tmp_path, "p.json", {
        "map": zpow_json(2),
        "domain": {"center": [0.0, 0.0], "radius": 1.0},
        "target": "C",
    })
    code, _, err = run(capsys, "classify", p)
    assert code == 2


def test_blend_refuses_a_pole_inside_the_disc_as_a_precondition(tmp_path, capsys):
    maps = [{"num": [[1.0, 0.0]], "den": [[-a, 0.0], [1.0, 0.0]]} for a in (2.0, 0.5, 2.5)]
    p = write(tmp_path, "b.json", {
        "maps": maps,
        "grid": {"shape": [3], "q": []},
        "disc": {"center": [0.0, 0.0], "radius": 1.0},
    })
    code, _, err = run(capsys, "blend", p, "--eps", "1e-3")
    assert code == 2
    assert err.startswith("precondition failed: the map has a pole at 0.5+0j")


def test_exit_code_pole_on_basis_loop(tmp_path, capsys):
    # 1/(z - 1.25) on the annulus: the pole sits on the basis loop |z| = 1.25
    p = write(tmp_path, "p.json", {
        "map": {"num": [[1.0, 0.0]], "den": [[-1.25, 0.0], [1.0, 0.0]]},
        "domain": ANNULUS,
        "target": "CP1",
    })
    code, _, err = run(capsys, "classify", p)
    assert code == 2


def test_wind_reads_the_zeros_that_factor_left_unsolved(tmp_path, capsys, monkeypatch):
    # (z^2 - 0.25)/(z - 2) has two zeros in the unit disc, and its derivative
    # one, 2 - sqrt(3.75): wind counts them from the coefficients of num and
    # den, or of the Wronskian W and den for f' = W / den^2, and solves no root
    def refuse(p):
        raise AssertionError("wind solved a root")

    monkeypatch.setattr(meroimm.poly, "roots", refuse)
    monkeypatch.setattr(meroimm.rational, "roots", refuse)
    body = {"map": {"num": [[-0.25, 0], [0, 0], [1, 0]], "den": [[-2, 0], [1, 0]]},
            "contour": {"kind": "circle", "center": [0, 0], "radius": 1.0}}
    for extra, want in (({}, "winding=2"), ({"of": "derivative"}, "winding=1")):
        code, out, _ = run(capsys, "wind", write(tmp_path, "w.json", {**body, **extra}))
        assert code == 0 and out.strip() == want


def test_wind_refuses_a_root_on_a_square_polyline(tmp_path, capsys):
    # a zero 1e-9 outside or inside the vertex 1 + i is wound; a zero on it,
    # a pole on it, and a double pole on it with "of": "derivative", where W
    # vanishes too, exit 2, each refused as what it is
    square = {"kind": "polyline", "points": [[1, 1], [-1, 1], [-1, -1], [1, -1]], "closed": True}

    def wind(num, den, **extra):
        return run(capsys, "wind", write(tmp_path, "w.json", {
            "map": {"num": num, "den": den}, "contour": square, **extra}))

    w = 1 + 1e-9
    code, out, _ = wind([[-w, -w], [1, 0]], [[1, 0]])
    assert code == 0 and out.strip() == "winding=0"
    code, out, _ = wind([[-(1 - 1e-9), -(1 - 1e-9)], [1, 0]], [[1, 0]])
    assert code == 0 and out.strip() == "winding=1"
    for num, den, extra, which in (([[-1, -1], [1, 0]], [[1, 0]], {}, "numerator"),
                                   ([[1, 0]], [[-1, -1], [1, 0]], {}, "denominator"),
                                   ([[1, 0]], [[0, 2], [-2, -2], [1, 0]], {"of": "derivative"},
                                    "denominator")):
        code, _, err = wind(num, den, **extra)
        assert code == 2 and f"uncertified arc of the {which}" in err, err


@pytest.mark.parametrize("num, den", [([[1, 0]], [[1e300, 0], [1e-11, 0]]),
                                      ([[1e300, 0], [1, 0]], [[0, 0], [1e-11, 0]])])
def test_exit_code_monic_scaling_out_of_double_range(tmp_path, capsys, num, den):
    p = write(tmp_path, "v.json", {"map": {"num": num, "den": den},
                                   "domain": {"center": [0, 0], "radius": 1.0}, "target": "CP1"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "verify", p)
    assert code == 3 and "double range" in err


def test_exit_code_non_finite_contour(tmp_path, capsys):
    # a NaN sample is refused as input, not reported as a zero on the contour
    contour = {"kind": "polyline", "points": [[0.0, 0.0], [1.0, float("nan")], [0.0, 1.0]],
               "closed": True}
    p = write(tmp_path, "w.json", {"map": zpow_json(1), "contour": contour})
    code, _, err = run(capsys, "wind", p)
    assert code == 1 and "finite" in err


def test_exit_code_nan_seed_target(tmp_path, capsys):
    # json reads NaN; the target is refused as input, where it once printed
    # value_at_base=inf and exited 0
    path = write(tmp_path, "nan.json", {"seed": {
        "base_point": [0, 0], "target": [float("nan"), 0],
        "fiber": [1, 0], "frame": [1, 0]}})
    code, out, err = run(capsys, "seed", path)
    assert code == 1 and out == "" and err.startswith("input error:") and "NaN" in err


def test_exit_code_non_finite_coefficient(tmp_path, capsys):
    # json reads NaN; the coefficient is refused as input (exit 1), where it
    # once reached the root solver and exited 3
    path = write(tmp_path, "nan.json", {
        "map": {"num": [[float("nan"), 0.0], [1.0, 0.0]], "den": [[1.0, 0.0]]},
        "domain": {"center": [0.0, 0.0], "radius": 1.0},
        "target": "CP1",
    })
    code, _, err = run(capsys, "verify", path)
    assert code == 1 and err.startswith("input error:") and "finite" in err


def test_exit_code_numerical(tmp_path, capsys):
    p = write(tmp_path, "n.json", {
        "map": {"num": [[0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [0.1, 0]],
                "den": [[1, 0]]},
        "disc0": {"center": [0.0, 0.0], "radius": 1.0},
        "disc1": {"center": [0.0, 0.0], "radius": 2.0},
    })
    code, _, err = run(capsys, "extend", p, "--eps", "1e-16")
    assert code == 3


def test_exit_code_residue_out_of_double_range(tmp_path, capsys):
    # exp(xi) overflows at a pole outside disc0; this was a traceback and exit 1
    num = [[-4.5029, 4.6032], [5.1451, -4.6031], [0.0039, 1.3718], [-1.6901, 0.4869], [0.8016, -0.4695]]
    den = [[0.6918, -0.076], [2.5391, 0.2959], [-2.0514, -0.3219], [1, 0]]
    p = write(tmp_path, "o.json", {
        "map": {"num": num, "den": den},
        "disc0": {"center": [0.0, 0.0], "radius": 1.0},
        "disc1": {"center": [0.0, 0.0], "radius": 2.0},
    })
    code, _, err = run(capsys, "extend", p)
    assert code == 3 and err.startswith("numerical budget exhausted:") and "double range" in err


def test_exit_code_count_out_of_double_range(tmp_path, capsys):
    # 1 + z^60 on a disc of radius 1e6: the count's factors overflow, which
    # was reported as a path too close to a singularity, exit 2
    p = write(tmp_path, "big.json", {
        "map": {"num": [[1, 0]] + [[0, 0]] * 59 + [[1, 0]], "den": [[1, 0]]},
        "domain": {"center": [0.0, 0.0], "radius": 1e6},
        "target": "CP1",
    })
    code, _, err = run(capsys, "verify", p)
    assert code == 3 and err.startswith("numerical budget exhausted:") and "double range" in err


def _loaded_modules(tmp_path, command, body):
    """The meroimm modules a fresh interpreter has loaded after one command."""
    script = (
        "import json, sys, meroimm.cli\n"
        f"code = meroimm.cli.main([{command!r}, {write(tmp_path, command + '.json', body)!r}])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('meroimm'))]))\n"
    )
    src = str(Path(meroimm.__file__).resolve().parents[1])
    paths = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    unit = {"center": [0.0, 0.0], "radius": 1.0}
    heavy = {"meroimm.extension", "meroimm.blending", "meroimm.grids"}
    light = {
        "verify": {"map": zpow_json(1), "domain": unit, "target": "C"},
        "classify": {"map": zpow_json(3), "domain": ANNULUS, "target": "C"},
    }
    for command, body in light.items():
        loaded = _loaded_modules(tmp_path, command, body)
        assert "meroimm.immersions" in loaded and not loaded & heavy, command
    extend = {"map": zpow_json(1), "disc0": unit, "disc1": {"center": [0.0, 0.0], "radius": 2.0}}
    assert heavy <= _loaded_modules(tmp_path, "extend", extend)


def _verify_input(tmp_path):
    return write(tmp_path, "in.json", {
        "map": zpow_json(1),
        "domain": {"center": [0.0, 0.0], "radius": 1.0},
        "target": "C",
    })


@pytest.mark.parametrize("flags", [("--eps", "-1"), ("--eps", "nan")])
def test_invalid_flag_is_input_error(tmp_path, capsys, flags):
    code, _, err = run(capsys, "verify", _verify_input(tmp_path), *flags)
    assert code == 1
    assert err.startswith("input error:")


def test_invalid_env_is_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MEROIMM_EPS", "abc")
    code, _, err = run(capsys, "verify", _verify_input(tmp_path))
    assert code == 1
    assert err.startswith("input error:") and "MEROIMM_EPS" in err


@pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
def test_every_setting_by_flag_and_env(tmp_path, capsys, monkeypatch, field):
    flag, var = "--" + field.name.replace("_", "-"), "MEROIMM_" + field.name.upper()
    value, other = field.default * 2, field.default * 4
    path = _verify_input(tmp_path)
    code, out, _ = run(capsys, "verify", path, "--json", flag, str(value))
    assert code == 0 and json.loads(out)["config"][field.name] == value
    monkeypatch.setenv(var, str(value))
    code, out, _ = run(capsys, "verify", path, "--json")
    assert code == 0 and json.loads(out)["config"][field.name] == value
    # the flag wins over the environment
    code, out, _ = run(capsys, "verify", path, "--json", flag, str(other))
    assert code == 0 and json.loads(out)["config"][field.name] == other


@pytest.mark.parametrize("name", ["degree_budget", "tol_quad", "tol_residue", "tol_root"])
def test_removed_setting_is_refused(tmp_path, capsys, monkeypatch, name):
    # the tolerances are constants: a leftover flag or variable is refused,
    # never silently ignored
    path = _verify_input(tmp_path)
    code, _, err = run(capsys, "verify", path, "--" + name.replace("_", "-"), "1e-7")
    assert code == 1
    assert err.startswith("input error:") and "unrecognized arguments" in err
    var = "MEROIMM_" + name.upper()
    monkeypatch.setenv(var, "1e-7")
    code, _, err = run(capsys, "verify", path)
    assert code == 1
    assert err.startswith("input error:") and var in err


# each body lacks a field or holds a value of the wrong kind
@pytest.mark.parametrize("command,body", [
    ("wind", {"map": zpow_json(1), "contour": {"kind": "circle", "radius": 1.0}}),
    ("wind", {"map": zpow_json(1), "contour": {"kind": "polyline"}}),
    ("chart-check", {"contour": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0,
                                 "samples": "many"}}),
    ("seed", {"seed": {"base_point": [0.0, 0.0], "target": [2.0, 1.0], "fiber": [3.0, 0.0]}}),
    ("verify", {"map": zpow_json(1), "domain": {"center": [0.0, 0.0], "radius": "abc"}}),
    ("classify", {"map": zpow_json(1),
                  "domain": {**ANNULUS, "holes": [{"center": [0.0, 0.0], "radius": [1]}]}}),
    ("classify", {"map": zpow_json(1), "domain": {**ANNULUS, "holes": 5}}),
    ("verify", 5),
    ("blend", {"maps": [zpow_json(1)] * 3, "grid": {"shape": [3], "q": ["x"]},
               "disc": {"center": [0.0, 0.0], "radius": 1.0}}),
    ("blend", {"maps": [zpow_json(1)] * 3, "grid": {"shape": 3},
               "disc": {"center": [0.0, 0.0], "radius": 1.0}}),
    ("blend", {"maps": 5, "grid": {"shape": [3]},
               "disc": {"center": [0.0, 0.0], "radius": 1.0}}),
    ("extend-family", {"maps": 5, "grid": {"shape": [3]},
                       "disc0": {"center": [0.0, 0.0], "radius": 1.0},
                       "disc1": {"center": [0.0, 0.0], "radius": 2.0}}),
])
def test_malformed_input_is_input_error(tmp_path, capsys, command, body):
    code, _, err = run(capsys, command, write(tmp_path, "bad.json", body))
    assert code == 1
    assert err.startswith("input error:")


_CIRCLE = {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0}
_BLEND = {"maps": [zpow_json(1)] * 3, "disc": {"center": [0.0, 0.0], "radius": 1.0}}


# a count that is not an integer was once truncated: 64.9 samples read as 64
@pytest.mark.parametrize("command,body", [
    ("wind", {"map": zpow_json(1), "contour": {**_CIRCLE, "samples": 64.9}}),
    ("wind", {"map": zpow_json(1), "contour": {**_CIRCLE, "samples": True}}),
    ("wind", {"map": zpow_json(1), "contour": {**_CIRCLE, "turns": 1.7}}),
    ("wind", {"map": zpow_json(1), "contour": {**_CIRCLE, "turns": True}}),
    ("blend", {**_BLEND, "grid": {"shape": [3.9], "q": [0]}}),
    ("blend", {**_BLEND, "grid": {"shape": [3], "q": [1.6]}}),
    ("blend", {**_BLEND, "grid": {"shape": [3], "q": [True]}}),
])
def test_a_count_field_that_is_not_an_integer_is_input_error(tmp_path, capsys, command, body):
    code, _, err = run(capsys, command, write(tmp_path, "bad.json", body))
    assert code == 1
    assert err.startswith("input error:") and "integer" in err
    # the same field as an integral number is read
    assert run(capsys, "wind", write(tmp_path, "ok.json", {
        "map": zpow_json(1), "contour": {**_CIRCLE, "samples": 64.0, "turns": 2}}))[0] == 0
