"""Command-line front end: JSON in, JSON/CSV out.

Subcommands: verify, wind, classify, same-component, extend, extend-family,
blend, seed, chart-check.  Every run emits a machine-readable report that
embeds the tolerances used; identical inputs and configuration produce
byte-identical reports.  Exit codes: 0 ok, 1 input error, 2 precondition
failure, 3 numerical-budget failure.

Tolerance flags fall back to MEROIMM_* environment variables, then to the
built-in defaults (for example MEROIMM_EPS, MEROIMM_TOL_ROOT).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .blending import SampledFamily, blend_parametric, fix_on_Q, sampled_sup_distance
from .config import RunConfig, config_from_env
from .contours import Disc, circle_samples
from .errors import InputError, MeroimmError, NumericalError, PreconditionError
from .extension import extend_family, extend_immersion
from .immersions import (
    CircularDomain,
    chart_transition_winding,
    classify,
    seed_disc,
    verify_immersion,
)
from .serialize import (
    certificate_to_json,
    complex_to_json,
    contour_from_json,
    disc_from_json,
    domain_from_json,
    dumps,
    grid_from_json,
    homotopy_class_to_json,
    immersion_to_json,
    poly_to_json,
    rational_from_json,
    rational_to_json,
    seed_from_json,
    sphere_point_to_json,
    write_map_samples_csv,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3


def _load_input(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON input: {exc}") from exc


def _need(data: dict, key: str):
    if key not in data:
        raise InputError(f"input is missing the required field {key!r}")
    return data[key]


def _target(data: dict) -> str:
    t = data.get("target", "CP1")
    if t not in ("C", "CP1"):
        raise InputError('target must be "C" or "CP1"')
    return t


def _domain(data) -> CircularDomain:
    if isinstance(data, dict) and "outer" in data:
        return domain_from_json(data)
    return CircularDomain.disc(disc_from_json(data))


# -- subcommand handlers --------------------------------------------------------


def _run_verify(data: dict, cfg: RunConfig) -> dict:
    f = rational_from_json(_need(data, "map"))
    D = _domain(_need(data, "domain"))
    cert = verify_immersion(f, D, _target(data), root_tol=cfg.tol_root)
    return {"certificate": certificate_to_json(cert)}


def _run_wind(data: dict, cfg: RunConfig) -> dict:
    f = rational_from_json(_need(data, "map"))
    gamma = contour_from_json(_need(data, "contour"))
    F = f.factor(root_tol=cfg.tol_root)
    if data.get("of") == "derivative":
        # the factored derivative knows its poles; its denominator is not solved
        F = F.derivative()
    return {"winding": F.winding(gamma)}


def _run_classify(data: dict, cfg: RunConfig) -> dict:
    f = rational_from_json(_need(data, "map"))
    D = _domain(_need(data, "domain"))
    hc = classify(f, D, _target(data), root_tol=cfg.tol_root)
    return {"classification": homotopy_class_to_json(hc)}


def _run_same_component(data: dict, cfg: RunConfig) -> dict:
    f = rational_from_json(_need(data, "map1"))
    g = rational_from_json(_need(data, "map2"))
    D = _domain(_need(data, "domain"))
    target = _target(data)
    hf = classify(f, D, target, root_tol=cfg.tol_root)
    hg = classify(g, D, target, root_tol=cfg.tol_root)
    return {
        "same_component": hf.component == hg.component,
        "class1": homotopy_class_to_json(hf),
        "class2": homotopy_class_to_json(hg),
    }


def _run_chart_check(data: dict, cfg: RunConfig) -> dict:
    gamma = contour_from_json(_need(data, "contour"))
    return {"transition_winding": chart_transition_winding(gamma)}


def _run_seed(data: dict, cfg: RunConfig) -> dict:
    seed = seed_from_json(_need(data, "seed"))
    f = seed_disc(seed)
    jet_value = f(seed.base_point)
    return {
        "map": rational_to_json(f),
        "value_at_base": sphere_point_to_json(jet_value),
    }


def _write_boundary_csv(path: Path, F, d0: Disc, n: int, cfg: RunConfig) -> None:
    vals = F.values_on_circle(d0.center, d0.radius, n, quad_tol=cfg.tol_quad)
    write_map_samples_csv(path, circle_samples(d0.center, d0.radius, n), list(vals))


def _run_extend(data: dict, cfg: RunConfig, outdir: Path | None) -> dict:
    f = rational_from_json(_need(data, "map"))
    d0 = disc_from_json(_need(data, "disc0"))
    d1 = disc_from_json(_need(data, "disc1"))
    F = extend_immersion(
        f, d0, d1, cfg.eps,
        root_tol=cfg.tol_root, residue_tol=cfg.tol_residue,
        quad_tol=cfg.tol_quad, degree_budget=cfg.degree_budget,
    )
    result = {
        "immersion": immersion_to_json(F),
        "achieved_eps": F.achieved_eps,
        "residues": [abs(r) for r in F.residues()],
        "certificate": certificate_to_json(F.certificate()),
    }
    if outdir is not None:
        _write_boundary_csv(outdir / "extend_samples.csv", F, d0, 256, cfg)
        (outdir / "immersion.json").write_text(dumps(result["immersion"]))
        result["artifacts"] = ["extend_samples.csv", "immersion.json"]
    return result


def _run_extend_family(data: dict, cfg: RunConfig, outdir: Path | None) -> dict:
    maps = [rational_from_json(m) for m in _need(data, "maps")]
    grid = grid_from_json(_need(data, "grid"))
    d0 = disc_from_json(_need(data, "disc0"))
    d1 = disc_from_json(_need(data, "disc1"))
    outs = extend_family(
        maps, grid, d0, d1, cfg.eps,
        root_tol=cfg.tol_root, residue_tol=cfg.tol_residue,
        quad_tol=cfg.tol_quad, degree_budget=cfg.degree_budget,
    )
    result = {
        "immersions": [immersion_to_json(F) for F in outs],
        "achieved_eps": [F.achieved_eps for F in outs],
        "certificates": [certificate_to_json(F.certificate()) for F in outs],
    }
    if outdir is not None:
        names = []
        for i, F in enumerate(outs):
            name = f"extend_family_node{i:03d}.csv"
            _write_boundary_csv(outdir / name, F, d0, 64, cfg)
            names.append(name)
        (outdir / "immersions.json").write_text(dumps(result["immersions"]))
        result["artifacts"] = names + ["immersions.json"]
    return result


def _run_blend(data: dict, cfg: RunConfig, outdir: Path | None) -> dict:
    maps = [rational_from_json(m) for m in _need(data, "maps")]
    grid = grid_from_json(_need(data, "grid"))
    disc = disc_from_json(_need(data, "disc"))
    fam = SampledFamily(grid, maps, disc)
    blended = blend_parametric(
        fam, cfg.eps, degree_budget=cfg.degree_budget
    )
    if grid.q_indices:
        q_maps = {i: maps[i] for i in grid.q_indices}
        blended = fix_on_Q(blended, q_maps, original=fam, eps=cfg.eps)
    errors = [
        sampled_sup_distance(blended.maps[i], maps[i], disc)
        for i in range(grid.npoints)
    ]
    polys = [
        poly_to_json(m) if hasattr(m, "coeffs") else rational_to_json(m)
        for m in blended.maps
    ]
    result = {"polynomials": polys, "errors": errors}
    if outdir is not None:
        (outdir / "blend.json").write_text(dumps(polys))
        result["artifacts"] = ["blend.json"]
    return result


_HANDLERS = {
    "verify": lambda d, c, o: _run_verify(d, c),
    "wind": lambda d, c, o: _run_wind(d, c),
    "classify": lambda d, c, o: _run_classify(d, c),
    "same-component": lambda d, c, o: _run_same_component(d, c),
    "chart-check": lambda d, c, o: _run_chart_check(d, c),
    "seed": lambda d, c, o: _run_seed(d, c),
    "extend": _run_extend,
    "extend-family": _run_extend_family,
    "blend": _run_blend,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meroimm",
        description=(
            "Verify, classify, extend, and blend meromorphic immersions of "
            "plane domains into the Riemann sphere."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("verify", "immersion certificate for a map on a domain"),
        ("wind", "winding number of a map along a contour"),
        ("classify", "winding classes of the derivative on the basis loops"),
        ("same-component", "whether two immersions are isotopic"),
        ("extend", "extend an immersion from a small disc to a big one"),
        ("extend-family", "extend a sampled family, fixing the Q members"),
        ("blend", "polynomial blending of a sampled family on a disc"),
        ("seed", "affine disc with a prescribed 1-jet"),
        ("chart-check", "winding of the chart-transition frame along a contour"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path to the JSON input, or - for stdin")
        p.add_argument("--eps", type=float, default=None, help="approximation target")
        p.add_argument("--tol-residue", type=float, default=None)
        p.add_argument("--tol-root", type=float, default=None)
        p.add_argument("--tol-quad", type=float, default=None)
        p.add_argument("--degree-budget", type=int, default=None)
        p.add_argument("--out", type=str, default=None, help="artifact directory")
        p.add_argument(
            "--json", action="store_true", help="print the full JSON report to stdout"
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = config_from_env(
            {
                "eps": args.eps,
                "tol_residue": args.tol_residue,
                "tol_root": args.tol_root,
                "tol_quad": args.tol_quad,
                "degree_budget": args.degree_budget,
            }
        )
        data = _load_input(args.input)
        outdir = None
        if args.out:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
        result = _HANDLERS[args.command](data, cfg, outdir)
        report = {
            "command": args.command,
            "config": cfg.tolerances(),
            "result": result,
            "status": "ok",
        }
        text = dumps(report)
        if outdir is not None:
            (outdir / "report.json").write_text(text)
        if args.json:
            sys.stdout.write(text)
        else:
            sys.stdout.write(_summary(args.command, result) + "\n")
        return EXIT_OK
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericalError as exc:
        print(f"numerical budget exhausted: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MeroimmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _summary(command: str, result: dict) -> str:
    if command == "verify":
        c = result["certificate"]
        return (
            f"valid={c['valid']} poles={len(c['poles_inside'])} "
            f"derivative_zeros={c['derivative_zero_count']}"
        )
    if command == "wind":
        return f"winding={result['winding']}"
    if command == "classify":
        c = result["classification"]
        return f"z_class={c['z_class']} mod2={c['mod2_class']}"
    if command == "same-component":
        return f"same_component={result['same_component']}"
    if command == "chart-check":
        return f"transition_winding={result['transition_winding']}"
    if command == "seed":
        return f"value_at_base={result['value_at_base']}"
    if command == "extend":
        return f"achieved_eps={result['achieved_eps']:.3e}"
    if command == "extend-family":
        worst = max(result["achieved_eps"])
        return f"nodes={len(result['immersions'])} worst_eps={worst:.3e}"
    if command == "blend":
        return f"nodes={len(result['polynomials'])} worst_err={max(result['errors']):.3e}"
    return "done"


if __name__ == "__main__":
    sys.exit(main())
