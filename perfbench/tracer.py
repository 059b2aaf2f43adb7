"""Outside-in tracer for meroimm.

The package is left untouched: each traced function is replaced, at every
module global that names it (``meroimm.poly.roots``, ``meroimm.rational.roots``,
``meroimm.extension.roots``, the package's re-export, ...) or at its class
attribute, by a wrapper that records a span (name, start, end, parent, op
id) and the layer's counts.  ``uninstall`` puts the originals back.  Spans
stay in memory until ``dump``.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("poly", "rational", "contours", "immersions", "extension", "blending",
           "grids", "serialize", "cli")

# (metric prefix, module, class or None, attribute)
TARGETS = (
    ("poly.roots", "poly", None, "roots"),
    ("rational.reduced", "rational", "RationalMap", "reduced"),
    ("rational.derivative", "rational", "RationalMap", "derivative"),
    ("rational.pole_set", "rational", "RationalMap", "pole_set"),
    ("rational.zero_set", "rational", "RationalMap", "zero_set"),
    ("rational.residue", "rational", None, "residue"),
    ("contours.integrate_pieces", "contours", None, "integrate_pieces"),
    ("contours.argument_principle_count", "contours", None, "argument_principle_count"),
    ("contours.winding_number", "contours", None, "winding_number"),
    ("immersions.verify_immersion", "immersions", None, "verify_immersion"),
    ("immersions.classify", "immersions", None, "classify"),
    ("extension.IntegralImmersion.evaluate", "extension", "IntegralImmersion", "evaluate"),
    ("extension.IntegralImmersion.values_on_circle", "extension", "IntegralImmersion", "values_on_circle"),
    ("extension.IntegralImmersion.certificate", "extension", "IntegralImmersion", "certificate"),
    ("extension.extension_boundary_error", "extension", None, "extension_boundary_error"),
    ("extension.constrained_eta", "extension", None, "constrained_eta"),
    ("extension.extend_immersion", "extension", None, "extend_immersion"),
    ("extension.extend_family", "extension", None, "extend_family"),
    ("blending.blend_parametric", "blending", None, "blend_parametric"),
    ("blending.poly_approx_on_disc", "blending", None, "poly_approx_on_disc"),
    ("blending.sampled_sup_distance", "blending", None, "sampled_sup_distance"),
    ("blending.fix_on_Q", "blending", None, "fix_on_Q"),
    ("grids.ParamGrid.net_weights", "grids", "ParamGrid", "net_weights"),
    ("serialize.dumps", "serialize", None, "dumps"),
    ("cli.main", "cli", None, "main"),
)

# the argument whose evaluations are counted: (position, keyword)
EVAL_ARGS = {"contours.integrate_pieces": (0, "fz"), "contours.winding_number": (0, "f")}


def _degree(out):
    poly = getattr(out, "expanded", out)
    return getattr(poly, "degree", None)


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, start, end, parent, op]
        self.stack: list = []          # [span index, child time]
        self.op = None
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.self_s = defaultdict(float)
        self.evals = defaultdict(int)
        self.degrees = defaultdict(list)
        self.distinct: set = set()
        self._undo: list = []

    # -- spans ------------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append([idx, 0.0])
        return idx

    def end(self, idx: int, failed: bool) -> None:
        t1 = time.perf_counter()
        span = self.spans[idx]
        _, child = self.stack.pop()
        span[2] = t1
        dur = t1 - span[1]
        self.calls[span[0]] += 1
        self.self_s[span[0]] += dur - child
        if failed:
            self.errors[span[0]] += 1
        if self.stack:
            self.stack[-1][1] += dur

    def _wrap(self, name: str, fn):
        tracer = self
        counted = EVAL_ARGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted is not None:
                pos, key = counted
                if key in kwargs:
                    kwargs[key] = tracer._counting(name, kwargs[key])
                elif len(args) > pos:
                    args = args[:pos] + (tracer._counting(name, args[pos]),) + args[pos + 1:]
            if name == "poly.roots" and args:
                tracer.distinct.add((tracer.op, tuple(args[0].coeffs)))
            idx = tracer.begin(name)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                tracer.end(idx, failed)
            deg = _degree(out) if name in ("extension.constrained_eta", "blending.poly_approx_on_disc") else None
            if deg is not None:
                tracer.degrees[name].append(deg)
            return out

        return wrapper

    def _counting(self, name: str, f):
        def counted(z):
            self.evals[name] += int(np.size(z))
            return f(z)

        return counted

    # -- install ----------------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("meroimm")
        mods = [pkg] + [importlib.import_module(f"meroimm.{m}") for m in MODULES]
        for name, modname, clsname, attr in TARGETS:
            home = sys.modules[f"meroimm.{modname}"]
            if clsname is not None:
                cls = getattr(home, clsname)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, orig))
                self._undo.append((cls, attr, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer numbers for every target, zero where a layer did no work."""
        out = {}
        rounds = sum(
            1 for s in self.spans
            if s[0] == "extension.constrained_eta" and s[3] >= 0
            and self.spans[s[3]][0] == "extension.extend_immersion"
        )
        for name, *_ in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = 1e3 * self.self_s[name]
            out[f"{name}.errors"] = self.errors[name]
            out[f"{name}.evals"] = self.evals[name]
            degs = self.degrees[name]
            out[f"{name}.degree_mean"] = float(np.mean(degs)) if degs else 0.0
        out["poly.roots.distinct"] = len(self.distinct)
        out["extension.extend_immersion.eta_rounds"] = rounds
        return out

    def top_level_time(self, op) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[4] == op and s[3] == -1 and s[2] is not None)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
