"""Seeded job mixes for the cdfun CLI, each job with its reference.

Every workload has a fixed composition: the number of jobs per command,
level, path kind and exponent is set here, and the seed draws only the
numbers inside them (constants, points, directions, polyline corners).  Job
cost therefore barely moves between seeds, which keeps the timing spread of
the benchmark small while every seed still checks new inputs.

A job's ``check`` turns a successful report into an error ratio
|result - reference| / tolerance; 1 or less passes.  Jobs whose expected
outcome is an error list the accepted kinds in ``ok_errors``.  References
come from ``oracle`` (own product recursion, jets, plane maps), never from
the cdfun code under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import oracle as O

TWO_PI = 2.0 * math.pi


class Mismatch(Exception):
    """A report lacks a field its reference needs."""


@dataclass
class Job:
    kind: str
    argv: list
    check: Optional[Callable[[dict], float]]
    ok_errors: tuple = ()
    files: dict = field(default_factory=dict)


WHY = {
    "quad-poly": (
        "integrate of sandwiched polynomials a*z^k*b on circles, squares and open polylines at "
        "r=3..7: batched mul_arrays/pow_arrays on knot arrays, both product branches; plus "
        "(z-c)^k words, which primitive() rejects today"
    ),
    "contour-log": (
        "residue, loops, logint/index, residue theorem, argument principle, Cauchy, Taylor/Laurent "
        "at r=2..4: dln_arrays, branch continuation and extrapolation, d<=16 product branch only; "
        "one knot-capped job sets peak RSS; argprinciple z^n, n>=2, >=2 turns fails (known defect)"
    ),
    "pointwise": (
        "several hundred short eval/diff/crcheck/harmonic/zbarcheck/roots/zerodiv jobs at r=1..8: "
        "per-invocation CLI cost and single-element products; no quadrature"
    ),
}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _ratio(got, ref, tol) -> float:
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        raise Mismatch(f"shape {got.shape} against reference {ref.shape}")
    return float(np.max(np.abs(got - ref))) / tol


def _field(report, key):
    if key not in report:
        raise Mismatch(f"report has no {key!r}")
    return report[key]


def _value_check(ref, tol, key="value"):
    return lambda rep: _ratio(_field(rep, key), ref, tol)


def _js(vec) -> str:
    return json.dumps([float(v) for v in vec])


def _unit_imag(rng, d):
    v = rng.standard_normal(d)
    v[0] = 0.0
    return v / np.linalg.norm(v)


def _perp_unit(rng, m):
    """A unit imaginary orthogonal to the unit imaginary m."""
    v = _unit_imag(rng, len(m))
    v -= np.dot(v, m) * m
    return v / np.linalg.norm(v)


def _basis_const(rng, d, lo=0.3, hi=0.9):
    """s * e_k with one random basis unit and a positive 3-digit scalar.

    Single-term, positive constants keep each sandwich one word: a leading
    minus or a second term would multiply the number of expanded words.
    """
    out = np.zeros(d)
    out[int(rng.integers(0, d))] = round(float(rng.uniform(lo, hi)), 3)
    return out


def _sandwich(a, k, b):
    return ("mul", ("mul", ("c", a), ("pow", ("z",), k)), ("c", b))


def _circle(center, radius, m, turns):
    return {"kind": "circle", "center": [float(v) for v in center], "radius": float(radius),
            "direction": [float(v) for v in m], "turns": turns}


def _polyline(points):
    return {"kind": "polyline", "points": [[float(v) for v in p] for p in points]}


def _square(center, m, half):
    """Closed square in the plane of 1 and m, corners center +- half +- half*m."""
    one = O.unit(len(m))
    corners = [(1, 1), (-1, 1), (-1, -1), (1, -1), (1, 1)]
    return _polyline([center + half * (s * one + t * m) for s, t in corners])


def _cmd(command, r, expr=None, **flags):
    argv = [command, "--level", str(r)]
    if expr is not None:
        argv += ["--expr", expr]
    for key, val in flags.items():
        argv += ["--" + key.replace("_", "-"), val]
    return argv


# ---------------------------------------------------------------------------
# quad-poly
# ---------------------------------------------------------------------------

# (level, count, exponents cycled, path kinds cycled).  Multiplying by a
# basis unit is an isometry, so on unit circles and on squares through 0 the
# quadrature error, and with it the number of refinements and the cost, is
# the same for every seed once the scalars of the sandwich are fixed
# (_QUAD_SCALE); only the open polylines vary.  The counts put the median
# job inside the 54 r = 3 circles with k = 2 and the 90th percentile inside
# the 16 r = 4 circles, so both percentiles sit in the middle of blocks of
# jobs whose cost does not depend on the seed, and keep a pass near 8 s so
# that a run holds several passes.  That leaves r >= 6 to squares: one r = 7 circle
# alone takes about 6 s.
_QUAD_SCALE = 0.7
_QUAD_LEVELS = (
    (3, 54, (2,), ("circle",)),
    (3, 36, (2, 3, 4, 5), ("square", "open")),
    (4, 16, (2,), ("circle",)),
    (5, 4, (2, 3), ("circle", "circle2")),
    (6, 1, (2,), ("square",)),
    (7, 1, (2,), ("square",)),
)
# (z - c)^k words: primitive() expands the positive power into products of
# z and reports them unsupported, although its docstring promises sandwich
# words a*(z-c)^n*b.  They stay in the mix as failures until that is fixed.
_QUAD_SHIFTED = ((3, 2, "circle"), (3, 3, "open"), (3, 4, "square"), (4, 2, "open"))


def _quad_path(rng, d, kind):
    if kind in ("circle", "circle2"):
        return _circle(np.zeros(d), 1.0, _unit_imag(rng, d), 2 if kind == "circle2" else 1), True
    if kind == "square":
        return _square(np.zeros(d), _unit_imag(rng, d), 0.5), True
    pts = []
    for _ in range(3):
        v = rng.standard_normal(d)
        pts.append(0.8 * v / np.linalg.norm(v))
    return _polyline(pts), False


def _integrate_job(rng, r, kind, tree, primitive_tree, label):
    d = 1 << r
    path, closed = _quad_path(rng, d, kind)
    if closed:
        ref = np.zeros(d)
    else:
        start, end = (np.array(p) for p in (path["points"][0], path["points"][-1]))
        ref = O.value(primitive_tree, end) - O.value(primitive_tree, start)
    scale = 1.0 + max(O.coeff_bound(tree, np.full(d, 1.0 / math.sqrt(d))), O.norm(ref))
    return Job(
        kind=f"{label}/r{r}/{kind}",
        argv=_cmd("integrate", r, O.text(tree), path_file="@path"),
        check=_value_check(ref, 1e-5 * scale),
        files={"path": path},
    )


def quad_poly(rng) -> list:
    jobs = []
    for r, count, ks, kinds in _QUAD_LEVELS:
        d = 1 << r
        for i in range(count):
            k = ks[i % len(ks)]
            kind = kinds[(i // len(ks)) % len(kinds)]
            a, b = _basis_const(rng, d, _QUAD_SCALE, _QUAD_SCALE), _basis_const(rng, d, _QUAD_SCALE, _QUAD_SCALE)
            tree = _sandwich(a, k, b)
            prim = ("mul", ("mul", ("c", a / (k + 1)), ("pow", ("z",), k + 1)), ("c", b))
            jobs.append(_integrate_job(rng, r, kind, tree, prim, "integrate"))
    for r, k, kind in _QUAD_SHIFTED:
        d = 1 << r
        c = _basis_const(rng, d, 0.1, 0.4)
        shifted = ("sub", ("z",), ("c", c))
        tree = ("pow", shifted, k)
        prim = ("mul", ("c", O.unit(d) / (k + 1)), ("pow", shifted, k + 1))
        jobs.append(_integrate_job(rng, r, kind, tree, prim, "integrate-shifted"))
    return jobs


# ---------------------------------------------------------------------------
# contour-log
# ---------------------------------------------------------------------------

def _pole_tree(b, p, c):
    return ("mul", ("mul", ("c", b), ("pow", ("sub", ("z",), ("c", p)), -1)), ("c", c))


def _in_plane(rng, center, m, lo, hi):
    """center + w with w in the plane of 1 and m, lo <= |w| <= hi."""
    ang = rng.uniform(0.0, TWO_PI)
    rad = rng.uniform(lo, hi)
    return center + O.to_plane(complex(rad * math.cos(ang), rad * math.sin(ang)), m)


def _winding_reference(delta, radius, m, turns):
    """Per-plane winding numbers of the circle projected to the (1, e_s) planes.

    With w = a - center, the projection to plane s is the ellipse
    (radius*cos t - w_0, radius*m_s*sin t - w_s), which winds sign(m_s)*turns
    times about the origin when the origin is inside it.  Returns None when
    the origin sits within 20% of the ellipse boundary (too close to call).
    """
    out = {}
    for s in range(1, len(m)):
        if abs(m[s]) < 1e-3:
            return None
        q = (delta[0] / radius) ** 2 + (delta[s] / (radius * m[s])) ** 2
        if 0.8 < q < 1.25:
            return None
        out[f"e{s}"] = (turns if m[s] > 0 else -turns) if q < 1.0 else 0
    return out


def _log_geometry(rng, d, inside, off_plane):
    """A circle (m, center, radius) and a point inside or outside it, in its plane or off it."""
    m = _unit_imag(rng, d)
    center = np.round(rng.uniform(-0.3, 0.3, d), 3)
    radius = round(float(rng.uniform(0.6, 1.2)), 3)
    lo, hi = (0.1, 0.5) if inside else (1.5, 2.0)
    a = _in_plane(rng, center, m, lo * radius, hi * radius)
    if off_plane:
        a = a + rng.uniform(0.2, 0.4) * radius * _perp_unit(rng, m)
    return m, center, radius, a


def _log_job(rng, r, command, inside, off_plane, turns):
    """logint: 2*pi*turns*M for an in-plane point inside the circle, else 0.
    index: ar_index turns*M or 0 likewise, plus per-plane winding numbers."""
    d = 1 << r
    m, center, radius, a = _log_geometry(rng, d, inside, off_plane)
    enclosed = inside and not off_plane
    if command == "logint":
        check = _value_check(TWO_PI * turns * m if enclosed else np.zeros(d), 1e-8)
    else:
        winding = _winding_reference(a - center, radius, m, turns)
        while winding is None:
            m, center, radius, a = _log_geometry(rng, d, inside, off_plane)
            winding = _winding_reference(a - center, radius, m, turns)
        index = m * turns if enclosed else np.zeros(d)

        def check(rep):
            if _field(rep, "winding") != winding or _field(rep, "undefined") != []:
                return math.inf
            return _ratio(_field(rep, "ar_index"), index, 1e-9)

    where = ("off" if off_plane else "in") + ("-inside" if inside else "-outside")
    return Job(f"{command}/r{r}/{where}", _cmd(command, r, point=_js(a), path_file="@path"),
               check, files={"path": _circle(center, radius, m, turns)})


def _residue_job(rng, r):
    d = 1 << r
    b, c = _basis_const(rng, d), _basis_const(rng, d)
    p = np.round(rng.uniform(-0.5, 0.5, d), 3)
    m = _unit_imag(rng, d)
    rho = round(float(rng.uniform(0.3, 0.8)), 3)
    ref = O.mul(O.mul(b, m), c)
    argv = _cmd("residue", r, O.text(_pole_tree(b, p, c)), pole=_js(p), direction=_js(m), rho=repr(rho))
    return Job(f"residue/r{r}", argv, _value_check(ref, 1e-6))


def _loop_job(rng, r, turns):
    """Integral of b*(z-p)^-1*c around p: 2*pi*turns*(b*M)*c."""
    d = 1 << r
    b, c = _basis_const(rng, d), _basis_const(rng, d)
    p = np.round(rng.uniform(-0.5, 0.5, d), 3)
    m = _unit_imag(rng, d)
    radius = round(float(rng.uniform(0.3, 1.0)), 3)
    ref = TWO_PI * turns * O.mul(O.mul(b, m), c)
    return Job(f"loop/r{r}/turns{turns}", _cmd("integrate", r, O.text(_pole_tree(b, p, c)), path_file="@path"),
               _value_check(ref, 1e-5 * (1.0 + abs(turns))), files={"path": _circle(p, radius, m, turns)})


def _restheorem_job(rng, r, both_inside):
    d = 1 << r
    m = _unit_imag(rng, d)
    center = np.round(rng.uniform(-0.3, 0.3, d), 3)
    radius = round(float(rng.uniform(0.8, 1.2)), 3)
    p1 = _in_plane(rng, center, m, 0.1 * radius, 0.4 * radius)
    p2 = _in_plane(rng, center, m, 0.1 * radius, 0.4 * radius) if both_inside else \
        _in_plane(rng, center, m, 1.6 * radius, 2.0 * radius)
    while both_inside and O.norm(p1 - p2) < 0.15 * radius:
        p2 = _in_plane(rng, center, m, 0.1 * radius, 0.4 * radius)
    b1, c1, b2, c2 = (_basis_const(rng, d) for _ in range(4))
    tree = ("add", _pole_tree(b1, p1, c1), _pole_tree(b2, p2, c2))
    ref = TWO_PI * O.mul(O.mul(b1, m), c1)
    if both_inside:
        ref = ref + TWO_PI * O.mul(O.mul(b2, m), c2)

    def check(rep):
        return max(_ratio(_field(rep, "lhs"), ref, 1e-5), _ratio(_field(rep, "rhs"), ref, 1e-5))

    argv = _cmd("restheorem", r, O.text(tree), poles=json.dumps([[float(v) for v in p1], [float(v) for v in p2]]),
                path_file="@path")
    return Job(f"restheorem/r{r}/{'both' if both_inside else 'one'}-inside", argv, check,
               files={"path": _circle(center, radius, m, 1)})


def _argprinciple_job(rng, r, n, turns):
    d = 1 << r
    m = _unit_imag(rng, d)
    radius = round(float(rng.uniform(0.5, 1.5)), 3)
    ref = m * (n * turns)

    def check(rep):
        return max(_ratio(_field(rep, "lhs"), ref, 1e-9), _ratio(_field(rep, "rhs"), ref, 1e-9))

    argv = _cmd("argprinciple", r, f"z^{n}", zeros=json.dumps([[[0.0] * d, n]]), path_file="@path")
    return Job(f"argprinciple/r{r}/n{n}-turns{turns}", argv, check,
               files={"path": _circle(np.zeros(d), radius, m, turns)})


def _cauchy_job(rng, r, order):
    """order 0: f(z)*M for a sandwich; order k: f^(k)(z)*M for a real polynomial, z in plane."""
    d = 1 << r
    m = _unit_imag(rng, d)
    center = O.to_plane(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)), m)
    radius = round(float(rng.uniform(0.8, 1.2)), 3)
    z = _in_plane(rng, center, m, 0.1 * radius, 0.5 * radius)
    if order == 0:
        k = int(rng.integers(1, 4))
        tree = _sandwich(_basis_const(rng, d), k, _basis_const(rng, d))
        ref = O.mul(O.value(tree, z), m)
    else:
        coeffs = [round(float(rng.uniform(-1.0, 1.0)), 3) for _ in range(4)]
        tree = ("c", O.unit(d) * coeffs[0])
        for j in range(1, 4):
            tree = ("add", tree, ("mul", ("c", O.unit(d) * coeffs[j]), ("pow", ("z",), j)))
        w = O.from_plane(z, m)
        deriv = sum(coeffs[j] * O.falling(j, order) * w ** (j - order) for j in range(order, 4))
        fk = O.to_plane(deriv, m)
        ref = O.mul(fk, m)
    scale = 1.0 + O.norm(ref)
    return Job(f"cauchy/r{r}/order{order}", _cmd("cauchy", r, O.text(tree), point=_js(z), order=str(order),
                                                 path_file="@path"),
               _value_check(ref, 1e-5 * scale), files={"path": _circle(center, radius, m, 1)})


def _taylor_job(rng, r):
    """f = sum_j a_j*z^j (left constants) about 0: coefficients a_j (r <= 3, value mode)."""
    d = 1 << r
    m = _unit_imag(rng, d)
    consts = [_basis_const(rng, d) for _ in range(3)]
    tree = ("c", consts[0])
    for j in (1, 2):
        tree = ("add", tree, ("mul", ("c", consts[j]), ("pow", ("z",), j)))
    ref = np.array(consts + [np.zeros(d)])
    argv = _cmd("taylor", r, O.text(tree), center=_js(np.zeros(d)), count="4", path_file="@path")
    return Job(f"taylor/r{r}", argv, _value_check(ref, 1e-6, "coefficients"),
               files={"path": _circle(np.zeros(d), round(float(rng.uniform(0.5, 1.5)), 3), m, 1)})


def _laurent_job(rng, r):
    """f = a*z^-1 + b*z^2 about 0: coefficients k=-2..2 are (0, a, 0, 0, b)."""
    d = 1 << r
    a, b = _basis_const(rng, d), _basis_const(rng, d)
    tree = ("add", ("mul", ("c", a), ("pow", ("z",), -1)), ("mul", ("c", b), ("pow", ("z",), 2)))
    ref = np.array([np.zeros(d), a, np.zeros(d), np.zeros(d), b])

    def check(rep):
        if _field(rep, "k_min") != -2:
            return math.inf
        return _ratio(_field(rep, "coefficients"), ref, 1e-5)

    argv = _cmd("laurent", r, O.text(tree), center=_js(np.zeros(d)), kmin="-2", kmax="2")
    return Job(f"laurent/r{r}", argv, check)


def _capped_job(rng):
    """A pole 1e-7 outside the unit circle: quadrature runs to the knot cap."""
    r, d = 4, 16
    m = _unit_imag(rng, d)
    ang = float(rng.uniform(0.5, 2.5))
    p = O.to_plane(complex((1 + 1e-7) * math.cos(ang), (1 + 1e-7) * math.sin(ang)), m)
    tree = ("pow", ("sub", ("z",), ("c", p)), -1)

    def check(rep):
        return math.inf if _field(rep, "converged") is not False else 0.0

    argv = _cmd("integrate", r, O.text(tree), path_file="@path", max_knots="65536")
    return Job("integrate-capped/r4", argv, check, ok_errors=("nonconvergence",),
               files={"path": _circle(np.zeros(d), 1.0, m, 1)})


def contour_log(rng) -> list:
    jobs = [_capped_job(rng)]
    for rep, turns in enumerate((1, 2, 3, -1)):
        for r in (2, 3, 4):
            jobs.append(_residue_job(rng, r))
            for loop_turns in (1, 2, 3, -1):
                jobs.append(_loop_job(rng, r, loop_turns))
            for inside in (True, False):
                for off in (False, True):
                    jobs.append(_log_job(rng, r, "logint", inside, off, turns))
                    jobs.append(_log_job(rng, r, "index", inside, off, turns))
            jobs.append(_restheorem_job(rng, r, rep % 2 == 0))
            for order in (0, 1, 2):
                jobs.append(_cauchy_job(rng, r, order))
        for r in (2, 3):
            # n >= 2 with two or more turns raises StepControlError at r = 2, 3:
            # a known defect, kept so that its fix shows as fewer failures
            for n, turns in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (2, -1)):
                jobs.append(_argprinciple_job(rng, r, n, turns))
            jobs.append(_taylor_job(rng, r))
            jobs.append(_laurent_job(rng, r))
    return jobs


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------

def _point(rng, d, lo=0.5, hi=1.2):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v) * rng.uniform(lo, hi)


def _eval_job(rng, r, n):
    d = 1 << r
    tree = _sandwich(_basis_const(rng, d), n, _basis_const(rng, d))
    z = _point(rng, d)
    ref = O.value(tree, z)
    tol = 1e-12 * d * (1.0 + O.coeff_bound(tree, z))
    return Job(f"eval/r{r}", _cmd("eval", r, O.text(tree), point=_js(z)), _value_check(ref, tol))


def _diff_job(rng, r, n):
    d = 1 << r
    tree = _sandwich(_basis_const(rng, d), n, _basis_const(rng, d))
    z, h = _point(rng, d), _point(rng, d)
    ref = O.jet(tree, z, hz=h)[1]
    # from r = 4 negative powers are differenced centrally (step 1e-6)
    rel = 1e-6 if (n < 0 and r >= 4) else 1e-11 * d
    tol = rel * (1.0 + abs(n) * O.coeff_bound(tree, z) * O.norm(h) / O.norm(z))
    return Job(f"diff/r{r}", _cmd("diff", r, O.text(tree), point=_js(z), direction=_js(h)), _value_check(ref, tol))


_CHECK_TREES = (
    lambda rng, d: ("add", ("mul", ("c", _basis_const(rng, d)), ("z",)), ("c", _basis_const(rng, d))),
    lambda rng, d: ("pow", ("z",), 2),
    lambda rng, d: ("mul", ("z",), ("zc",)),
    lambda rng, d: _sandwich(_basis_const(rng, d), 2, _basis_const(rng, d)),
    lambda rng, d: ("zc",),
)


def _residuals(command, tree, z, d):
    """The residual per key of crcheck/harmonic/zbarcheck from exact derivatives."""
    out = {}
    if command == "crcheck":
        partial = [O.jet(tree, z, hz=O.unit(d, t), hzc=O.conj(O.unit(d, t)))[1] for t in range(d)]
        for q in range(1, d):
            out[f"e{q}"] = O.norm(partial[0] - O.mul(partial[q], O.conj(O.unit(d, q))))
    elif command == "harmonic":
        second = [2.0 * O.jet(tree, z, hz=O.unit(d, t), hzc=O.conj(O.unit(d, t)))[2] for t in range(d)]
        for p in range(d):
            for q in range(p + 1, d):
                out[f"e{p}|e{q}"] = float(np.max(np.abs(second[p] + second[q])))
    else:
        for j in range(d // 2):
            out[f"e{2 * j}|e{2 * j + 1}"] = max(O.norm(O.jet(tree, z, hzc=O.unit(d, t))[1]) for t in (2 * j, 2 * j + 1))
    return out


def _diffcheck_job(rng, r, command, which):
    d = 1 << r
    tree = _CHECK_TREES[which](rng, d)
    z = _point(rng, d)
    per = _residuals(command, tree, z, d)
    worst = max(per.values())
    # finite differences with step 1e-5*(1+|z|): O(h^2) truncation for first
    # differences, O(eps/h^2) rounding for second ones
    tol = (1e-4 if command == "harmonic" else 1e-7) * (1.0 + O.coeff_bound(tree, z))
    threshold = 1e-4

    def check(rep):
        got = _field(rep, "per_pair")
        if sorted(got) != sorted(per):
            return math.inf
        verdict = _field(rep, "verdict")
        if abs(worst - threshold) > tol and verdict != ("pass" if worst <= threshold else "fail"):
            return math.inf
        return max(abs(got[key] - per[key]) for key in per) / tol

    return Job(f"{command}/r{r}", _cmd(command, r, O.text(tree), point=_js(z)), check)


def _roots_job(rng, r, seed):
    """A real cubic: Newton stays in the complex plane of its start and finds
    a root without restarts.  With an imaginary constant term some seeds
    needed many restarts, and one such job moved a pass by 25%."""
    d = 1 << r
    c1 = round(float(rng.uniform(-2.0, 2.0)), 3)
    c0 = O.unit(d) * round(float(rng.uniform(0.2, 0.8)), 3)
    tree = ("add", ("add", ("pow", ("z",), 3), ("mul", ("c", O.unit(d) * c1), ("z",))), ("c", c0))

    def check(rep):
        # the CLI passes its default --tol 1e-6 to find_root as the bound on
        # |P(root)|; 1% of slack absorbs a different evaluation order
        root = np.asarray(_field(rep, "root"), dtype=np.float64)
        resid = O.norm(O.value(tree, root))
        return max(resid / 1.01e-6, abs(resid - float(_field(rep, "residual"))) / 1e-12)

    return Job(f"roots/r{r}", _cmd("roots", r, O.text(tree), seed=str(seed)), check)


def _zerodiv_job(r):
    d = 1 << r

    def check(rep):
        if r <= 3:
            return 0.0 if rep == {"found": False} else math.inf
        if _field(rep, "found") is not True:
            return math.inf
        x, y = np.asarray(rep["x"]), np.asarray(rep["y"])
        if x.shape != (d,) or abs(O.norm(x) - math.sqrt(2)) > 1e-12 or abs(O.norm(y) - math.sqrt(2)) > 1e-12:
            return math.inf
        return max(O.norm(O.mul(x, y)), abs(float(rep["product_norm"]))) / 1e-12

    return Job(f"zerodiv/r{r}", _cmd("zerodiv", r), check)


def pointwise(rng) -> list:
    jobs = []
    for _ in range(2):
        for r in range(1, 9):
            for n in (-3, -2, -1, 2, 3, 5, 7):
                jobs.append(_eval_job(rng, r, n))
            for n in (2, 3, 4, 5) + ((-1, -2) if r <= 3 else (-1,)):
                jobs.append(_diff_job(rng, r, n))
        for r in (2, 3, 4):
            for command in ("crcheck", "harmonic", "zbarcheck"):
                for which in range(len(_CHECK_TREES)):
                    jobs.append(_diffcheck_job(rng, r, command, which))
        for r in (2, 3, 4, 5):
            for _ in range(2):
                jobs.append(_roots_job(rng, r, int(rng.integers(0, 1000))))
        for r in (3, 4, 5, 6):
            jobs.append(_zerodiv_job(r))
        jobs.append(Job("malformed/level9", _cmd("eval", 9, "z"), None, ok_errors=("usage",)))
        jobs.append(Job("malformed/syntax", _cmd("eval", 2, "z +* 2"), None, ok_errors=("parse",)))
        jobs.append(Job("malformed/basis", _cmd("eval", 2, "e7*z"), None, ok_errors=("parse",)))
    return jobs


WORKLOADS = {"quad-poly": quad_poly, "contour-log": contour_log, "pointwise": pointwise}
