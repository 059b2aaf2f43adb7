"""The four workloads: seeded inputs, the op each one times, and its oracle.

Inputs are generated as coefficient arrays from ``--seed`` alone and are
selected only by the independent oracles in ``oracles.py``, never by how
``meroimm`` behaves on them.  The ops look the package's functions up as
module attributes at call time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles as orc

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())


class HarnessError(RuntimeError):
    """The benchmark itself could not do its job (not a failure of the program)."""


class Unjudged(Exception):
    """The oracle could not judge an op; the message says why."""


class CliExit(Exception):
    """A CLI child process exited with a non-zero code."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()[:200]}")
        self.code = code


# -- sampling helpers --------------------------------------------------------------


def _polar(rng, rmin: float, rmax: float) -> complex:
    return rng.uniform(rmin, rmax) * cmath.exp(2j * math.pi * rng.random())


def _cnormal(rng) -> complex:
    return complex(rng.normal(), rng.normal())


def _asc_from_roots(roots) -> np.ndarray:
    return np.atleast_1d(np.poly(list(roots)))[::-1].astype(complex)


def _min_circle_distance(points, radius: float) -> float:
    pts = np.asarray(points)
    return float(np.min(np.abs(np.abs(pts) - radius))) if len(pts) else math.inf


def _draw(sample, accept, tries: int = 2000):
    for _ in range(tries):
        data = sample()
        if accept(data):
            return data
    raise HarnessError("input class could not be sampled")


def mobius_power(rng, d: int, p: complex, q: complex, a: complex) -> dict:
    """g = (alpha T^d + beta)/(T^d - c), T = (z-p)/(z-q), with a pole at a.

    g' vanishes only at p and q (order d-1), and every pole is simple.
    """
    alpha, beta = _cnormal(rng), _cnormal(rng)
    A, B = np.poly([p] * d), np.poly([q] * d)
    c = ((a - p) / (a - q)) ** d
    return {"num": (alpha * A + beta * B)[::-1].copy(), "den": (A - c * B)[::-1].copy()}


def _clear_of(data: dict, radii, clearance: float) -> bool:
    """All poles of f and zeros of f' keep the clearance from the circles."""
    sing = orc.singular_points(data["num"], data["den"])
    return all(_min_circle_distance(sing, r) >= clearance for r in radii)


def to_map(mi, data: dict):
    return mi.RationalMap(mi.ComplexPolynomial(data["num"]), mi.ComplexPolynomial(data["den"]))


def _json_poly(asc) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(asc, dtype=complex)]


def _is_finite_point(v) -> bool:
    return isinstance(v, (complex, float, int))


def _points(vals) -> np.ndarray:
    """Sphere points as complex numbers, the point at infinity as inf."""
    return np.array([complex(v) if _is_finite_point(v) else complex("inf") for v in vals])


# -- certify -------------------------------------------------------------------------


def random_rational(rng, orders, cls: dict, inside: int | None = None) -> dict:
    """The test suite's random class (tests/helpers.random_rational) with the pole
    orders given: separated poles in a box, a random numerator of fixed degree;
    with ``inside``, that many of the poles lie in the unit disc."""
    box, sep, k = cls["box"], cls["min_sep"], len(orders)
    pts = _draw(
        lambda: [complex(rng.uniform(-box, box), rng.uniform(-box, box)) for _ in range(k)],
        lambda pts: all(abs(pts[i] - pts[j]) > sep for i in range(k) for j in range(i))
        and (inside is None or sum(abs(a) < 1.0 for a in pts) == inside),
    )
    num = np.array([_cnormal(rng) for _ in range(cls["num_degree"] + 1)])
    den = _asc_from_roots([a for a, m in zip(pts, orders) for _ in range(m)])
    return {"num": num, "den": den, "poles": list(zip(pts, orders))}


def verify_input(rng, spec: dict, orders, inside: int | None = None) -> dict:
    """A verify-class map in general position: no pole of f or zero of f'
    within the clearance of |z| = 1, and no zero of f' that close to a pole."""
    cls = spec["verify_class"]
    clear = SPEC["clearance"]

    def accept(data):
        poles = orc.numpy_roots(data["den"])
        zeros = orc.numpy_roots(orc.quotient_numerator(data["num"], data["den"]))
        gaps = [np.min(np.abs(z - poles)) for z in zeros]
        if any(1e-6 <= g < clear for g in gaps):
            return False
        return _clear_of(data, [1.0], clear)

    return _draw(lambda: random_rational(rng, orders, cls, inside), accept)


def classify_input(rng, spec: dict, d: int) -> dict:
    """A classify-class map of degree d in general position: no pole of f or
    zero of f' within the clearance of the annulus's circles or its basis loop."""
    cls = spec["classify_class"]

    def sample():
        p = cls["p_max"] * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        q = _polar(rng, *cls["q_range"])
        return mobius_power(rng, d, p, q, _polar(rng, *cls["pole_range"]))

    return _draw(sample, lambda g: _clear_of(g, [0.5, cls["loop_radius"], 2.0], SPEC["clearance"]))


class Certify:
    name = "certify"

    def __init__(self, mi, seed: int, workdir: Path):
        self.mi = mi
        self.spec = SPEC["workloads"]["certify"]
        self.rng = np.random.default_rng([seed, self.spec["salt"]])
        self.D0 = mi.Disc(0, 1.0)
        self.annulus = mi.CircularDomain.annulus(0.5, 2.0)
        self._truth: dict[int, object] = {}

    def build(self) -> list[dict]:
        """The pool follows the op pattern; each kind cycles through its shapes
        (pole orders, or the degree d), and the verify ops through the number
        of poles in the unit disc, so every seed's pool holds the same mix."""
        spec, rng = self.spec, self.rng
        shapes = {"verify": spec["verify_class"]["order_shapes"], "classify": spec["classify_class"]["degrees"]}
        seen = dict.fromkeys(shapes, 0)
        ops = []
        for i in range(spec["pool_ops"]):
            kind = spec["pattern"][i % len(spec["pattern"])]
            k = seen[kind]
            seen[kind] += 1
            shape = shapes[kind][k % len(shapes[kind])]
            if kind == "verify":
                data = verify_input(rng, spec, shape, inside=(k // len(shapes[kind])) % (len(shape) + 1))
            else:
                data = classify_input(rng, spec, shape)
            ops.append({"kind": kind, "data": data, "map": to_map(self.mi, data)})
        return ops

    def run(self, op):
        if op["kind"] == "verify":
            return self.mi.verify_immersion(op["map"], self.D0, "CP1")
        return self.mi.classify(op["map"], self.annulus, "CP1")

    @staticmethod
    def digest(res):
        if hasattr(res, "derivative_zero_count"):
            return ("cert", res.valid, res.poles_inside.entries, res.derivative_zero_count,
                    res.boundary_clearance, res.target)
        return ("class", res.z_class, res.mod2_class, res.target)

    def truth(self, i: int, op) -> object:
        if i not in self._truth:
            data = op["data"]
            if op["kind"] == "verify":
                self._truth[i] = verify_truth(data, data["poles"])
            else:
                radius = self.spec["classify_class"]["loop_radius"]
                self._truth[i] = orc.derivative_winding(data["num"], data["den"], 0, radius)
        return self._truth[i]

    def check(self, i: int, op, res) -> bool:
        t = self.truth(i, op)
        if op["kind"] == "verify":
            got = {
                "valid": res.valid,
                "zeros": res.derivative_zero_count,
                "poles": [(a, m) for a, m in res.poles_inside.entries],
            }
            return certificate_matches(got, t)
        return res.z_class == (t,) and res.mod2_class == (t % 2,)


def verify_truth(data: dict, poles) -> dict:
    inside = [(a, m) for a, m in poles if abs(a) < 1.0]
    zeros = orc.derivative_zero_count(data["num"], data["den"], poles, 0, 1.0)
    return {"valid": zeros == 0 and all(m == 1 for _, m in inside), "zeros": zeros, "poles": inside}


def certificate_matches(got: dict, truth: dict) -> bool:
    if got["valid"] != truth["valid"] or got["zeros"] != truth["zeros"]:
        return False
    if len(got["poles"]) != len(truth["poles"]):
        return False
    for a, m in truth["poles"]:
        if not any(abs(b - a) < 1e-6 and k == m for b, k in got["poles"]):
            return False
    return True


# -- extend ---------------------------------------------------------------------------

RING16 = 1.5 * np.exp(2j * np.pi * np.arange(16) / 16)


def extend_input(rng, d: int, cls: dict) -> dict:
    """A map that immerses a neighbourhood of the closed unit disc, with d poles
    (d = 0: a cubic): every pole and critical point outside the small disc lies
    at radius >= far_radius, and none is within the clearance of |z| = 1, 1.5 or 2."""
    far = cls["far_radius"]

    def accept(data):
        crit = orc.numpy_roots(orc.quotient_numerator(data["num"], data["den"]))
        poles = [a for a, _ in data["poles"]]
        if any(abs(z) < far for z in crit if not poles or min(abs(z - a) for a in poles) > 1e-6):
            return False
        if any(1.0 < abs(a) < far for a in poles):
            return False
        return _clear_of(data, [1.0, 1.5, 2.0], SPEC["clearance"])

    if d == 0:
        def sample():
            num = np.array([_polar(rng, *m) for m in cls["cubic_modulus"]])
            return {"num": num, "den": np.array([1.0 + 0j]), "poles": []}
    else:
        def sample():
            p, q = _polar(rng, *cls["pq_range"]), _polar(rng, *cls["pq_range"])
            g = mobius_power(rng, d, p, q, _polar(rng, *cls["pole_region"]))
            g["poles"] = [(a, 1) for a in orc.numpy_roots(g["den"])]
            return g

    return _draw(sample, accept)


def extension_ok(F_data: dict, data: dict, eps: float, ring16_vals=None, samples: int = 256) -> bool:
    """Independent check of an extension: chordal distance to f on |z| = 1
    below eps, a closed loop (no residues), and the given values on |z| = 1.5."""
    prim = orc.Primitive(F_data["xi"], F_data["scale"], F_data["base_point"], F_data["base_value"], F_data["poles"])
    ring, vals, closure = prim.on_circle(0, 1.0, samples)
    fvals = orc.polyval(data["num"], ring) / orc.polyval(data["den"], ring)
    if not np.max(orc.chordal(vals, fvals)) < eps:
        return False
    if not closure <= 1e-6 * (1.0 + float(np.max(np.abs(vals)))):
        return False
    if ring16_vals is not None:
        want = prim.at(RING16)
        if np.isnan(want).any():
            # the oracle's two paths disagree there: the op cannot be judged
            raise Unjudged("oracle paths disagree at a point of |z| = 1.5")
        if not np.all(orc.chordal(ring16_vals, want) < 1e-6):
            return False
    return True


def immersion_data(F) -> dict:
    return {
        "xi": np.array(F.xi.coeffs, dtype=complex),
        "scale": F.scale,
        "base_point": F.base_point,
        "base_value": F.base_value,
        "poles": [a for a, _ in F.poles.entries],
    }


class Extend:
    name = "extend"

    def __init__(self, mi, seed: int, workdir: Path):
        self.mi = mi
        self.spec = SPEC["workloads"]["extend"]
        self.rng = np.random.default_rng([seed, self.spec["salt"]])
        self.D0, self.D1 = mi.Disc(0, 1.0), mi.Disc(0, 2.0)

    def build(self) -> list[dict]:
        ops = []
        pattern = self.spec["pole_pattern"]
        for i in range(self.spec["pool_ops"]):
            d = pattern[i % len(pattern)]
            data = extend_input(self.rng, d, self.spec["map_class"])
            ops.append({"kind": f"d{d}", "data": data, "map": to_map(self.mi, data)})
        return ops

    def run(self, op):
        F = self.mi.extend_immersion(op["map"], self.D0, self.D1, self.spec["eps"])
        cert = F.certificate()
        vals = [F.evaluate(complex(z)) for z in RING16]
        return F, cert, vals

    @staticmethod
    def digest(res):
        F, cert, vals = res
        return (
            F.xi.coeffs, F.scale, F.base_point, F.base_value, F.poles.entries,
            Certify.digest(cert),
            tuple(complex(v) if _is_finite_point(v) else "inf" for v in vals),
        )

    def check(self, i: int, op, res) -> bool:
        F, cert, vals = res
        data = op["data"]
        inside = [(a, 1) for a, _ in data["poles"] if abs(a) < 2.0]
        got = {"valid": cert.valid, "zeros": cert.derivative_zero_count, "poles": list(cert.poles_inside.entries)}
        if not certificate_matches(got, {"valid": True, "zeros": 0, "poles": inside}):
            return False
        v16 = _points(vals)
        # the detour around each pole on the other side must give the same values
        try:
            other = _points([F.evaluate(complex(z), side=-1) for z in RING16])
        except Exception as exc:
            raise Unjudged(f"evaluate(side=-1) raised {type(exc).__name__}") from exc
        if not np.all(orc.chordal(v16, other) < 1e-6):
            return False
        return extension_ok(immersion_data(F), data, self.spec["eps"], v16)


# -- family ---------------------------------------------------------------------------


def family_input(rng, spec: dict) -> dict:
    fc, bc = spec["extend_family_class"], spec["blend_class"]
    ts11 = np.arange(11) / 10

    def sample_family():
        a0 = fc["a0_max"] * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        v = _polar(rng, *fc["v_modulus"])
        c = _polar(rng, *fc["c_modulus"])
        b = c * _polar(rng, *fc["b_over_c"])
        b0 = _cnormal(rng)
        maps = []
        for t in ts11:
            a = a0 + t * v
            num = np.array([c - a * b0, b0 - a * b, b])
            maps.append({"num": num, "den": np.array([-a, 1.0 + 0j]), "poles": [(a, 1)], "a": a})
        return maps

    def accept_family(maps):
        if any(abs(m["a"]) > fc["a_max"] for m in maps):
            return False
        return all(
            np.all(np.abs(orc.numpy_roots(orc.quotient_numerator(m["num"], m["den"]))) >= fc["critical_point_min_radius"])
            for m in maps
        )

    ts101 = np.arange(101) / 100

    def sample_blend():
        p0 = _polar(rng, *bc["p_radius_range"])
        w = _polar(rng, *bc["w_modulus"])
        c = _polar(rng, *bc["c_modulus"])
        return [{"num": np.array([c]), "den": np.array([-(p0 + t * w), 1.0 + 0j]), "p": p0 + t * w} for t in ts101]

    lo, hi = bc["p_radius_range"]
    return {
        "maps11": _draw(sample_family, accept_family),
        "maps101": _draw(sample_blend, lambda ms: all(lo <= abs(m["p"]) <= hi for m in ms)),
    }


class Family:
    name = "family"

    def __init__(self, mi, seed: int, workdir: Path):
        self.mi = mi
        self.spec = SPEC["workloads"]["family"]
        self.rng = np.random.default_rng([seed, self.spec["salt"]])
        self.D0, self.D1 = mi.Disc(0, 1.0), mi.Disc(0, 2.0)
        self.grid11 = mi.ParamGrid.line(11, q_nodes=[0, 10])
        self.grid101 = mi.ParamGrid.line(101, q_nodes=[0, 100])

    def build(self) -> list[dict]:
        ops = []
        for _ in range(self.spec["pool_ops"]):
            data = family_input(self.rng, self.spec)
            maps11 = [to_map(self.mi, m) for m in data["maps11"]]
            maps101 = [to_map(self.mi, m) for m in data["maps101"]]
            fam = self.mi.SampledFamily(self.grid101, maps101, self.D0)
            ops.append({"kind": "family", "data": data, "maps11": maps11, "maps101": maps101, "fam": fam})
        return ops

    def run(self, op):
        eps = self.spec["eps"]
        outs = self.mi.extend_family(op["maps11"], self.grid11, self.D0, self.D1, eps)
        blended = self.mi.blend_parametric(op["fam"], eps)
        q = {0: op["maps101"][0], 100: op["maps101"][100]}
        fixed = self.mi.fix_on_Q(blended, q, original=op["fam"], eps=eps)
        return outs, fixed

    @staticmethod
    def _poly_coeffs(m):
        return m.coeffs if hasattr(m, "coeffs") else None

    def digest(self, res):
        outs, fixed = res
        return (
            tuple((F.xi.coeffs, F.scale, F.base_point, F.base_value, F.poles.entries) for F in outs),
            tuple(self._poly_coeffs(m) for m in fixed.maps),
        )

    def check(self, i: int, op, res) -> bool:
        outs, fixed = res
        eps = self.spec["eps"]
        data = op["data"]
        if len(outs) != 11:
            return False
        # Q nodes reproduce their maps on the big disc (criterion 9's test)
        ring = 1.9 * np.exp(2j * np.pi * np.arange(16) / 16)
        for q in (0, 10):
            m = data["maps11"][q]
            prim_data = immersion_data(outs[q])
            prim = orc.Primitive(prim_data["xi"], prim_data["scale"], prim_data["base_point"],
                                 prim_data["base_value"], prim_data["poles"])
            vals = prim.at(ring)
            want = orc.polyval(m["num"], ring) / orc.polyval(m["den"], ring)
            if not np.max(np.abs(vals - want)) < 1e-6:
                return False
        for F, m in zip(outs, data["maps11"]):
            inside = sorted(a for a, _ in m["poles"] if abs(a) < 2.0)
            got = sorted(a for a, _ in F.poles.entries)
            if len(got) != len(inside) or max((abs(x - y) for x, y in zip(got, inside)), default=0) > 1e-6:
                return False
            if not extension_ok(immersion_data(F), m, eps, samples=64):
                return False
        # blend: exact maps on Q, sup error below eps/2 everywhere else
        maps101 = op["maps101"]
        if fixed.maps[0] is not maps101[0] or fixed.maps[100] is not maps101[100]:
            return False
        check = np.exp(2j * np.pi * (np.arange(256) + 0.37) / 256)
        for j in range(1, 100):
            poly = self._poly_coeffs(fixed.maps[j])
            if poly is None:
                return False
            m = data["maps101"][j]
            want = orc.polyval(m["num"], check) / orc.polyval(m["den"], check)
            if not np.max(np.abs(orc.polyval(np.array(poly), check) - want)) < eps / 2:
                return False
        return True


# -- cli ------------------------------------------------------------------------------


class Cli:
    name = "cli"

    def __init__(self, mi, seed: int, workdir: Path):
        self.mi = mi
        self.spec = SPEC["workloads"]["cli"]
        self.rng = np.random.default_rng([seed, self.spec["salt"]])
        self.workdir = workdir
        self.root = HERE.parent
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.max_child_rss_kb = 0
        self._inprocess: dict[int, bytes] = {}
        self._first: dict[int, bytes] = {}

    def build(self) -> list[dict]:
        cspec = SPEC["workloads"]["certify"]
        degrees = cspec["classify_class"]["degrees"]
        ext = SPEC["workloads"]["extend"]
        disc = lambda r: {"center": [0.0, 0.0], "radius": r}  # noqa: E731
        ops = []
        for i in range(self.spec["inputs_per_command"]):
            v = verify_input(self.rng, cspec, cspec["verify_class"]["order_shapes"][i])
            g = classify_input(self.rng, cspec, degrees[i % len(degrees)])
            e = extend_input(self.rng, 1, ext["map_class"])
            for cmd, data, body in (
                ("verify", v, {"domain": disc(1.0), "target": "CP1"}),
                ("classify", g, {"domain": {"outer": disc(2.0), "holes": [disc(0.5)]}, "target": "CP1"}),
                ("extend", e, {"disc0": disc(1.0), "disc1": disc(2.0)}),
            ):
                n = len(ops)
                path = self.workdir / f"in{n:02d}_{cmd}.json"
                body = {"map": {"num": _json_poly(data["num"]), "den": _json_poly(data["den"])}, **body}
                path.write_text(json.dumps(body))
                argv = [cmd, str(path), "--json"]
                if cmd == "extend":
                    argv += ["--out", str(self.workdir / f"out{n:02d}")]
                ops.append({"kind": cmd, "data": data, "argv": argv, "eps": ext["eps"]})
        return ops

    def run(self, op):
        cmd = [sys.executable, "-m", "meroimm.cli", *op["argv"]]
        with open(self.workdir / "stderr.txt", "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.root)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
            if proc.returncode != 0:
                err.seek(0)
                raise CliExit(proc.returncode, err.read().decode(errors="replace"))
        return out

    @staticmethod
    def digest(res):
        return res

    def run_inprocess(self, op) -> bytes:
        """The same command through meroimm.cli.main in this process."""
        argv = list(op["argv"])
        if op["kind"] == "extend":
            argv[-1] = argv[-1] + "_inprocess"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()) as err:
            code = self.mi.cli.main(argv)
        if code != 0:
            raise CliExit(code, err.getvalue())
        return buf.getvalue().encode()

    def inprocess(self, i: int, op) -> bytes:
        if i not in self._inprocess:
            try:
                self._inprocess[i] = self.run_inprocess(op)
            except CliExit:
                self._inprocess[i] = b""
        return self._inprocess[i]

    def check(self, i: int, op, res) -> bool:
        first = self._first.setdefault(i, res)
        if res != first or res != self.inprocess(i, op):
            return False
        report = json.loads(res)
        if report.get("status") != "ok":
            return False
        out = report["result"]
        data = op["data"]
        if op["kind"] == "verify":
            c = out["certificate"]
            got = {
                "valid": c["valid"],
                "zeros": c["derivative_zero_count"],
                "poles": [(complex(*e["location"]), e["order"]) for e in c["poles_inside"]],
            }
            return certificate_matches(got, verify_truth(data, data["poles"]))
        if op["kind"] == "classify":
            w = orc.derivative_winding(data["num"], data["den"], 0, 1.25)
            return out["classification"]["z_class"] == [w] and out["classification"]["mod2_class"] == [w % 2]
        if not (out["certificate"]["valid"] and out["achieved_eps"] < op["eps"]):
            return False
        imm = out["immersion"]
        F_data = {
            "xi": np.array([complex(*c) for c in imm["xi"]]),
            "scale": complex(*imm["scale"]),
            "base_point": complex(*imm["base_point"]),
            "base_value": complex(*imm["base_value"]),
            "poles": [complex(*e["location"]) for e in imm["poles"]],
        }
        return extension_ok(F_data, data, op["eps"])


WORKLOADS = {w.name: w for w in (Certify, Extend, Family, Cli)}
