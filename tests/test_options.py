"""The package's settable values, listed so that a new one fails here.

An option is a defaulted parameter of a public function or of a public
method of a public class, found by scanning the source with ``ast``, or a
field of RunConfig.  Adding one means editing this list, so that each new
option is a visible decision.
"""
import ast
import dataclasses
from pathlib import Path

import meroimm
from meroimm import RunConfig

OPTIONS = {
    "blending.sampled_sup_distance(samples)",
    "cli.main(argv)",
    "config.config_from_env(overrides)",
    "contours.Contour.circle(samples)",
    "contours.Contour.circle(turns)",
    "contours.Contour.polyline(closed)",
    "contours.circle_samples(offset)",
    "extension.IntegralImmersion.evaluate(side)",
    "grids.ParamGrid.box(q_nodes)",
    "grids.ParamGrid.line(q_nodes)",
    "immersions.classify(target)",
    "immersions.same_component(target)",
    "immersions.verify_immersion(target)",
    "poly.ComplexPolynomial.antiderivative(base_point)",
    "poly.ComplexPolynomial.from_roots(leading)",
}


def _defaulted_parameters(path: Path) -> set[str]:
    found = set()

    def scan(body, prefix):
        for node in body:
            if getattr(node, "name", "_").startswith("_"):
                continue  # private, or not a definition
            if isinstance(node, ast.ClassDef):
                scan(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                names = [x.arg for x in positional[len(positional) - len(a.defaults):]]
                names += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found.update(f"{path.stem}.{prefix}{node.name}({n})" for n in names)

    scan(ast.parse(path.read_text()).body, "")
    return found


def test_no_option_is_added():
    found = set()
    for path in Path(meroimm.__file__).parent.glob("*.py"):
        found |= _defaulted_parameters(path)
    assert not found - OPTIONS, f"options added: {sorted(found - OPTIONS)}"
    assert not OPTIONS - found, f"options gone, delete them here: {sorted(OPTIONS - found)}"


def test_eps_is_the_one_run_setting():
    assert [f.name for f in dataclasses.fields(RunConfig)] == ["eps"]
