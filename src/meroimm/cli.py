"""Command-line front end: JSON in, JSON/CSV out.

The subcommands are the keys of COMMANDS.  Every run emits a
machine-readable report that embeds the tolerances used; identical inputs
and configuration produce byte-identical reports.  Exit codes: 0 ok, 1 input
error (a bad command line too), 2 precondition failure, 3 numerical-budget
failure.

Each field of RunConfig is a flag (``eps`` gives ``--eps``) that falls back
to its MEROIMM_* environment variable (``MEROIMM_EPS``), then to the
built-in default.  The tolerances are constants (see :mod:`meroimm.config`);
the report's ``config`` lists them next to eps.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .config import ENV_PREFIX, RunConfig, config_from_env
from .contours import Disc, _result, circle_samples, winding_number
from .errors import InputError, MeroimmError, NumericalError, PreconditionError
from .immersions import (
    CircularDomain,
    chart_transition_winding,
    classify,
    seed_disc,
    verify_immersion,
)
from .rational import RationalMap, wronskian
from .serialize import (
    certificate_to_json,
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
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON input: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("the JSON input must be an object")
    return data


def _need(data: dict, key: str):
    if key not in data:
        raise InputError(f"input is missing the required field {key!r}")
    return data[key]


def _maps(data: dict) -> list:
    maps = _need(data, "maps")
    if not isinstance(maps, list):
        raise InputError("maps must be a list of rational maps")
    return [rational_from_json(m) for m in maps]


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


def _run_verify(data: dict, cfg: RunConfig, outdir: Path | None) -> dict:
    f = rational_from_json(_need(data, "map"))
    D = _domain(_need(data, "domain"))
    cert = verify_immersion(f, D, _target(data))
    return {"certificate": certificate_to_json(cert)}


def _run_wind(data: dict, cfg: RunConfig, outdir: Path | None) -> dict:
    f = rational_from_json(_need(data, "map"))
    gamma = contour_from_json(_need(data, "contour"))
    if data.get("of") != "derivative":
        return {"winding": winding_number(f, gamma)}
    # f' = W / d^2 for f = n/d and W its Wronskian; d is wound first, so that
    # a pole on the contour is refused as a pole
    wind_d = -winding_number(RationalMap(1.0, f.den), gamma)
    return {"winding": winding_number(RationalMap(wronskian(f)), gamma) - 2 * wind_d}


def _run_classify(data: dict, cfg: RunConfig, outdir: Path | None) -> dict:
    f = rational_from_json(_need(data, "map"))
    D = _domain(_need(data, "domain"))
    hc = classify(f, D, _target(data))
    return {"classification": homotopy_class_to_json(hc)}


def _run_same_component(data: dict, cfg: RunConfig, outdir: Path | None) -> dict:
    f = rational_from_json(_need(data, "map1"))
    g = rational_from_json(_need(data, "map2"))
    D = _domain(_need(data, "domain"))
    target = _target(data)
    hf = classify(f, D, target)
    hg = classify(g, D, target)
    return {
        "same_component": hf.component == hg.component,
        "class1": homotopy_class_to_json(hf),
        "class2": homotopy_class_to_json(hg),
    }


def _run_chart_check(data: dict, cfg: RunConfig, outdir: Path | None) -> dict:
    gamma = contour_from_json(_need(data, "contour"))
    return {"transition_winding": chart_transition_winding(gamma)}


def _run_seed(data: dict, cfg: RunConfig, outdir: Path | None) -> dict:
    seed = seed_from_json(_need(data, "seed"))
    f = seed_disc(seed)
    jet_value = f(seed.base_point)
    return {
        "map": rational_to_json(f),
        "value_at_base": sphere_point_to_json(jet_value),
    }


# The extend and blend handlers import extension and blending when they run,
# so that the other commands start without them.


def _write_boundary_csv(path: Path, vals, d0: Disc) -> None:
    write_map_samples_csv(path, circle_samples(d0.center, d0.radius, len(vals)), list(vals))


def _run_extend(data: dict, cfg: RunConfig, outdir: Path | None) -> dict:
    from .extension import _extend_with_ring

    f = rational_from_json(_need(data, "map"))
    d0 = disc_from_json(_need(data, "disc0"))
    d1 = disc_from_json(_need(data, "disc1"))
    # ring: the values on d0's circle that achieved_eps was measured on
    F, ring = _extend_with_ring(f, d0, d1, cfg.eps)
    result = {
        "immersion": immersion_to_json(F),
        "achieved_eps": F.achieved_eps,
        "residues": [abs(r) for r in F.residues()],
        "certificate": certificate_to_json(F.certificate()),
    }
    if outdir is not None:
        _write_boundary_csv(outdir / "extend_samples.csv", ring, d0)
        (outdir / "immersion.json").write_text(dumps(result["immersion"]))
        result["artifacts"] = ["extend_samples.csv", "immersion.json"]
    return result


def _run_extend_family(data: dict, cfg: RunConfig, outdir: Path | None) -> dict:
    from .extension import _circle_values, extend_family

    maps = _maps(data)
    grid = grid_from_json(_need(data, "grid"))
    d0 = disc_from_json(_need(data, "disc0"))
    d1 = disc_from_json(_need(data, "disc1"))
    outs = extend_family(maps, grid, d0, d1, cfg.eps)
    result = {
        "immersions": [immersion_to_json(F) for F in outs],
        "achieved_eps": [F.achieved_eps for F in outs],
        "certificates": [certificate_to_json(F.certificate()) for F in outs],
    }
    if outdir is not None:
        names = []
        # every member's values_on_circle(d0.center, d0.radius, 64), as one block
        for i, vals in enumerate(_circle_values(outs, d0.center, d0.radius, 64)):
            name = f"extend_family_node{i:03d}.csv"
            _write_boundary_csv(outdir / name, _result(vals), d0)
            names.append(name)
        (outdir / "immersions.json").write_text(dumps(result["immersions"]))
        result["artifacts"] = names + ["immersions.json"]
    return result


def _run_blend(data: dict, cfg: RunConfig, outdir: Path | None) -> dict:
    from .blending import SampledFamily, blend_parametric, fix_on_Q, sampled_sup_distance

    maps = _maps(data)
    grid = grid_from_json(_need(data, "grid"))
    disc = disc_from_json(_need(data, "disc"))
    fam = SampledFamily(grid, maps, disc)
    blended = blend_parametric(fam, cfg.eps)
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


def _verify_summary(result: dict) -> str:
    c = result["certificate"]
    return (
        f"valid={c['valid']} poles={len(c['poles_inside'])} "
        f"derivative_zeros={c['derivative_zero_count']}"
    )


# name -> (help, handler, one-line summary of the handler's result)
COMMANDS = {
    "verify": ("immersion certificate for a map on a domain", _run_verify, _verify_summary),
    "wind": ("winding number of a map along a contour", _run_wind,
             lambda r: f"winding={r['winding']}"),
    "classify": ("winding classes of the derivative on the basis loops", _run_classify,
                 lambda r: "z_class={z_class} mod2={mod2_class}".format(**r["classification"])),
    "same-component": ("whether two immersions are isotopic", _run_same_component,
                       lambda r: f"same_component={r['same_component']}"),
    "extend": ("extend an immersion from a small disc to a big one", _run_extend,
               lambda r: f"achieved_eps={r['achieved_eps']:.3e}"),
    "extend-family": ("extend a sampled family, fixing the Q members", _run_extend_family,
                      lambda r: f"nodes={len(r['immersions'])} "
                                f"worst_eps={max(r['achieved_eps']):.3e}"),
    "blend": ("polynomial blending of a sampled family on a disc", _run_blend,
              lambda r: f"nodes={len(r['polynomials'])} worst_err={max(r['errors']):.3e}"),
    "seed": ("affine disc with a prescribed 1-jet", _run_seed,
             lambda r: f"value_at_base={r['value_at_base']}"),
    "chart-check": ("winding of the chart-transition frame along a contour", _run_chart_check,
                    lambda r: f"transition_winding={r['transition_winding']}"),
}


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with InputError, so that it exits 1 as any
    other bad input does; argparse would exit 2, a precondition failure."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meroimm",
        description=(
            "Verify, classify, extend, and blend meromorphic immersions of "
            "plane domains into the Riemann sphere."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path to the JSON input, or - for stdin")
        for f in fields(RunConfig):
            p.add_argument(
                "--" + f.name.replace("_", "-"), type=type(f.default), default=None,
                help=f"falls back to {ENV_PREFIX}{f.name.upper()}, then {f.default}",
            )
        p.add_argument("--out", type=str, default=None, help="artifact directory")
        p.add_argument("--json", action="store_true", help="print the full JSON report to stdout")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _, run, summary = COMMANDS[args.command]
        cfg = config_from_env({f.name: getattr(args, f.name) for f in fields(RunConfig)})
        data = _load_input(args.input)
        outdir = None
        if args.out:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
        result = run(data, cfg, outdir)
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
            sys.stdout.write(summary(result) + "\n")
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


if __name__ == "__main__":
    sys.exit(main())
