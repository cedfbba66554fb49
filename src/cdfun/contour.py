"""Contour functionals: indices, residues, Cauchy formulas, coefficients, roots.

``winding_index`` takes circles, arcs and polylines, and gives their
per-plane winding numbers in closed form: a circle projects to an ellipse
in each plane (1, e_s), a polyline to a polyline.  So does the
algebra-valued index ``ar_index``, through the closed forms of
``log_integral``.  The argument principle's image curves are not paths:
their samplers go to ``integrate._sampled_log``, the one sampling routine.
Everything else here reduces to loop integrals, by two integration routes:

* ``line_integral`` (hat increments of a primitive) for integrands that are
  phrases in their own right — residues and the residue-theorem sides;
* the periodic midpoint rule for the Cauchy-type kernels (zeta - a)^(-k-1):
  along the circle zeta(theta) = a + rho*exp(theta*M) the kernel times
  d(zeta) is a closed-form multiple of d(theta) in the contour plane, and
  the loop is closed, so equally spaced midpoints converge geometrically,
  and exactly for Laurent polynomials in zeta - a: for those one layout
  sized by the degree is certified, and other phrases double their knots.

Cauchy evaluation deforms to a small circle centered at the evaluation
point itself (direction taken from the given contour): integrating the
kernel against f over the *given* contour would need the kernel's primitive
along paths far from the singularity, where it is not a phrase.  The small
circle leaves an even-order bias in its radius, which one extrapolation
step (4*S(rho/2) - S(rho))/3 removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

import numpy as np

from .algebra import CDNumber, basis_element, mul, mul_arrays, norm_arrays, scaled_norm_arrays, zero
from .errors import (
    DomainError,
    LevelMismatchError,
    NonConvergenceError,
    PoleError,
    StepControlError,
    UnsupportedShapeError,
)
from .expressions import (
    Const,
    Node,
    Phrase,
    _children,
    _circle_degree,
    _fmt_const,
    _eval_plane,
    _lift,
    _nodes,
    _plane_constants,
    derivative_apply,
    eval_node_arrays,
)
from .integrate import (
    MAX_KNOTS,
    START_KNOTS,
    Path,
    QuadratureResult,
    _EPS,
    _FIRST_LAYOUT,
    _LAYOUT_ELEMENTS,
    _MAX_LAYOUT,
    _circle_frame,
    _in_circle_plane,
    _on_arc,
    _plane_circle,
    _sampled_log,
    _unit_imaginary,
    distance_range,
    line_integral,
    log_integral,
)

TWO_PI = 2.0 * math.pi
_MAX_FACTORIAL = 170  # 171! exceeds the largest double
_FAR_RADIUS = 1e3  # the circle about 0 whose reversed loop gives the residue at infinity


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexVector:
    """Per-plane winding numbers of a projected curve.

    ``per_plane`` maps the basis index s to the winding number of the
    curve projected to the plane spanned by 1 and e_s; planes where the
    projection passes through the projected point are listed in
    ``undefined`` instead.
    """

    per_plane: Dict[int, int]
    undefined: FrozenSet[int] = frozenset()

    def to_json(self):
        out = {f"e{s}": int(n) for s, n in sorted(self.per_plane.items())}
        out["undefined"] = [f"e{s}" for s in sorted(self.undefined)]
        return out


@dataclass(frozen=True)
class ContourReport:
    lhs: CDNumber
    rhs: CDNumber
    diff: float
    est_error: float
    mode: str = "value"

    def to_json(self):
        return {
            "lhs": [float(v) for v in self.lhs.coeffs],
            "rhs": [float(v) for v in self.rhs.coeffs],
            "diff": float(self.diff),
            "est_error": float(self.est_error),
            "mode": self.mode,
        }


# ---------------------------------------------------------------------------
# indices
# ---------------------------------------------------------------------------

_WINDING_TOL = 1e-9
_FOOT_STEPS = 64  # bisection halvings: a bracket of width pi/2 ends below one ulp


def _segment_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Distance from the origin to the polyline through the points (x, y).

    Measured against the segments, not just the vertices: a projected
    curve that crosses the origin between two samples must still count
    as passing through it.  Rows are samples; each column of the broadcast
    of x and y is one polyline, with one distance returned per column.
    """
    x0, dx = x[:-1], np.diff(x, axis=0)
    y0, dy = y[:-1], np.diff(y, axis=0)
    dd = dx * dx + dy * dy
    t = np.where(dd > 0.0, -(x0 * dx + y0 * dy) / np.where(dd > 0.0, dd, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    dist2 = (x0 + t * dx) ** 2 + (y0 + t * dy) ** 2
    end = x[-1] ** 2 + y[-1] ** 2
    return np.sqrt(np.minimum(dist2.min(axis=0, initial=math.inf), end))


def _ellipse_distance(gamma: Path, p: float, q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least distance from each point (p, q_k) to the arc phi -> (rho*cos phi,
    b_k*sin phi), b_k >= 0, phi running over the phases of the circle gamma.

    The candidates are the ellipse's four vertices, the arc's endpoints and
    the local minima of the distance, each found by bisection on the sign of
    the distance's derivative.  Reflected into the quadrant p, q >= 0, the
    foot point nearest the point is the one stationary phase in [0, pi/2],
    and the only other local minimum lies in [-pi/2, psi*], where
    psi* = -atan((b*q / (rho*p))^(1/3)) separates the two remaining
    stationary phases.  Candidates off the arc are dropped.
    """
    rho = gamma.radius
    sx, sy = math.copysign(1.0, p), np.where(q < 0.0, -1.0, 1.0)
    px, qy = abs(p), np.abs(q)
    lo = np.stack([np.zeros_like(b), np.full_like(b, -0.5 * math.pi)])
    hi = np.stack([np.full_like(b, 0.5 * math.pi), -np.arctan2(np.cbrt(b * qy), np.cbrt(rho * px))])
    for _ in range(_FOOT_STEPS):
        mid = 0.5 * (lo + hi)
        c, s = np.cos(mid), np.sin(mid)
        down = b * c * (b * s - qy) <= rho * s * (rho * c - px)
        lo, hi = np.where(down, mid, lo), np.where(down, hi, mid)
    psi = np.concatenate([lo, np.multiply.outer([0.0, 0.5, 1.0, -0.5], np.full_like(b, math.pi))])
    c, s = np.cos(psi), np.sin(psi)
    dist = np.hypot(rho * c - px, b * s - qy)
    dist[~_on_arc(gamma, np.arctan2(sy * s, sx * c))] = math.inf
    ends = TWO_PI * np.array([[gamma.start], [gamma.start + gamma.turns]])
    dist_ends = np.hypot(rho * np.cos(ends) - p, b * np.sin(ends) - q)
    return np.minimum(dist.min(axis=0), dist_ends.min(axis=0))


def _circle_winding(a: np.ndarray, gamma: Path) -> tuple:
    """Per-plane entries and defined-flags of a circle or arc, in closed form.

    Plane s sees the ellipse (rho*cos phi, rho*M_s*sin phi) about the
    projected centre; with w = a - c, the point sits at sigma = |(w_0/rho,
    w_s/(rho*M_s))| in the ellipse's own radius.  From inside (sigma < 1) the
    angle about the point turns monotonically, in the direction
    sign(M_s)*sign(turns): each whole turn adds one, and the fractional
    remainder arc adds one more exactly when it sweeps more than pi, that is
    when the point lies in the segment cut off by the remainder arc's chord.
    From outside, or off a degenerate segment (M_s = 0), the curve subtends
    less than pi, so the entry is 0.  A plane is undefined when the exact
    distance to the projected arc is at most 1e-9 * scale; rho*|M_s|*|sigma - 1|
    bounds that distance from below, and only planes within the bound take
    the foot-point solve of _ellipse_distance.
    """
    c, m, rho, turns = gamma.center.coeffs, gamma.direction.coeffs, gamma.radius, gamma.turns
    w = a - c
    p, ms = float(w[0]), m[1:]
    b = rho * np.abs(ms)
    q = np.where(ms < 0.0, -w[1:], w[1:])
    # the greatest |gamma|: |c + rho*(cos phi + sin phi*M)|^2 is |c|^2 + rho^2
    # + 2*rho*(c_0*cos phi + <c, M>*sin phi), largest at phi* if the arc passes it
    c0, cm = float(c[0]), float(np.dot(c, m))
    if _on_arc(gamma, math.atan2(cm, c0)):
        lean = math.hypot(c0, cm)
    else:
        ends = (TWO_PI * gamma.start, TWO_PI * (gamma.start + turns))
        lean = max(c0 * math.cos(e) + cm * math.sin(e) for e in ends)
    far = math.sqrt(max(float(np.dot(c, c)) + rho * rho + 2.0 * rho * lean, 0.0))
    tau = _WINDING_TOL * (1.0 + float(np.linalg.norm(a)) + far)
    shadow = np.hypot(b * (p / rho), q)  # rho*|M_s|*sigma
    defined = np.abs(shadow - b) > tau
    close = ~defined
    if close.any():
        defined[close] = _ellipse_distance(gamma, p, q[close], b[close]) > tau
    frac, whole = math.modf(abs(turns))
    sense = math.copysign(1.0, turns)
    mid = TWO_PI * gamma.start + sense * math.pi * frac
    inside = shadow < b
    u, v = p / rho, np.divide(q, b, out=np.zeros_like(b), where=inside)
    extra = (u * math.cos(mid) + v * math.sin(mid) > math.cos(math.pi * frac)).tolist()
    return [
        int(sense * math.copysign(1.0, s)) * (int(whole) + e) if i else 0
        for s, i, e in zip(ms.tolist(), inside.tolist(), extra)
    ], defined


def _polyline_winding(a: np.ndarray, gamma: Path) -> tuple:
    """Per-plane entries and defined-flags of a polyline, from its corners:
    each segment turns the angle about the point by atan2(cross, dot) of its
    end vectors, and a plane is undefined when a segment passes within
    1e-9 * scale of the projected point."""
    pts = gamma._polyline[0]
    x, y = pts[:, :1] - a[0], pts[:, 1:] - a[1:]
    scale = 1.0 + float(np.linalg.norm(a)) + float(norm_arrays(pts).max())
    defined = _segment_distance(x, y) > _WINDING_TOL * scale
    swept = np.arctan2(x[:-1] * y[1:] - x[1:] * y[:-1], x[:-1] * x[1:] + y[:-1] * y[1:]).sum(axis=0)
    return [int(k) for k in np.round(swept / TWO_PI)], defined


def winding_index(a: CDNumber, gamma: Path) -> IndexVector:
    """Planar winding numbers of gamma around a, one per imaginary direction.

    Plane s sees the projection (re, coeff_s) of curve and point; its entry
    is the accumulated angle of the projected curve about the projected
    point, divided by 2*pi and rounded.  Projections passing within 1e-9 *
    scale of the point, scale = 1 + |a| + max|gamma|, are flagged undefined
    rather than counted.  Circles, arcs included, and polylines are done in
    closed form on (d - 1,) arrays: a circle projects to an ellipse (see
    _circle_winding), a polyline to the polyline through its projected
    corners.
    """
    if a.level.r != gamma.level.r:
        raise LevelMismatchError("point level does not match path level")
    if gamma.kind == "circle":
        entries, defined = _circle_winding(a.coeffs, gamma)
    else:
        entries, defined = _polyline_winding(a.coeffs, gamma)
    planes = range(1, a.level.basis_dim)
    per_plane = {s: n for s, n, ok in zip(planes, entries, defined.tolist()) if ok}
    undefined = frozenset(s for s, ok in zip(planes, defined.tolist()) if not ok)
    return IndexVector(per_plane, undefined)


def ar_index(a: CDNumber, gamma: Path) -> CDNumber:
    """The algebra-valued index (2*pi)^(-1) * loop integral of d(Ln(z - a)).

    For a circle of ``turns`` n and direction M about a this is n*M; for a
    loop not enclosing a it vanishes.  Circles, arcs and polylines take the
    closed forms of ``log_integral``.
    """
    return log_integral(a, gamma) * (1.0 / TWO_PI)


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------

def residue(f: Phrase, p: CDNumber, direction: CDNumber, rho: float, tol: float = 1e-6) -> CDNumber:
    """res(p, f)M = (2*pi)^(-1) * loop integral of f over circle(p, rho, M).

    Radius-independent (within quadrature error) whenever f has no other
    singularity in the closed disc of radius rho about p.
    """
    m = _unit_imaginary(direction, "direction")
    if f.level.r != p.level.r or p.level.r != m.level.r:
        raise LevelMismatchError("phrase, pole, and direction must share a level")
    res = line_integral(f, Path.circle(p, rho, m, 1.0), tol=tol * TWO_PI)
    if not res.converged:
        raise NonConvergenceError(
            "residue quadrature did not converge (singularity on or near the circle?)",
            best=res.value * (1.0 / TWO_PI),
        )
    return res.value * (1.0 / TWO_PI)


# ---------------------------------------------------------------------------
# exact-kernel loop integrals
# ---------------------------------------------------------------------------

_KERNEL_MAX_KNOTS = 1 << 18
_KERNEL_BLOCK_ELEMENTS = 1 << 18


class _Circle:
    """One circle of ``_kernel_loop``: its radius, whether it may stop at its
    rounding floor, the scales rho^q of the powers up to the first that
    overflows, and the state of its knot doubling."""

    def __init__(self, rho: float, floor: bool, powers: Sequence[int]):
        self.rho, self.floor, self.scales = rho, floor, []
        for power in powers:
            try:
                self.scales.append(rho ** (power + 1))
            except OverflowError:
                break
        self.sums, self.peak, self.refinements = None, 0.0, 0
        self.est, self.floors = [math.inf] * len(self.scales), [0.0] * len(self.scales)

    def rounding(self, n: int) -> list:
        """The rounding floor n * eps * 2*pi * rho^q * max|F| of each power on
        the n-knot layout."""
        return [n * _EPS * TWO_PI * s * self.peak for s in self.scales]

    def running(self, tol: float) -> bool:
        return not all(e < tol or e < b for e, b in zip(self.est, self.floors))

    def result(self, i: int, tol: float, level) -> QuadratureResult:
        s, e, b = self.sums[i], self.est[i], self.floors[i]
        if tol <= e < b:
            return QuadratureResult(CDNumber(level, s), b, self.refinements, False, True)
        return QuadratureResult(CDNumber(level, s), e, self.refinements, e < tol)


def _kernel_loop(
    f: Phrase,
    center: CDNumber,
    m: CDNumber,
    circles: Sequence[Tuple[float, bool]],
    powers: Sequence[int],
    tol: float,
) -> Iterator[QuadratureResult]:
    """Loop integrals of f(zeta) * dK by knot doubling, one per kernel power
    and circle (rho, floor).

    K is the primitive of (zeta - center)^power d(zeta) along the circle
    zeta(theta) = center + rho*exp(theta*M), theta in [0, 2*pi], so
    dK = K'(theta) d(theta) with K'(theta) = rho^q * (cos(q*theta)*M -
    sin(q*theta)) and q = power + 1 (K' = M when power = -1).  The loop is
    closed, so the sum runs by the periodic midpoint rule: n knots at
    theta_j = 2*pi*(j + 1/2)/n, weights K'(theta_j)*2*pi/n.  The rule is
    exact for trigonometric polynomials of degree below n, which covers
    every Laurent-polynomial phrase about the centre, and converges
    geometrically for an integrand analytic near the circle.

    Every weight lies in the contour plane, a_j + b_j*M with real a_j, b_j,
    and the product is bilinear, so F*(a + b*M) = a*F + b*(F*M) holds
    exactly at every knot.  All circles share the angles theta_j, so one
    knot layout costs one evaluation F = f(zeta) and one product F*M over
    the stacked knots of every circle still running, plus one real weighted
    sum over each circle's knots per power.  When the plane span(1, M)
    holds the centre and every constant of f (``_plane_constants``), it
    holds every knot and every value, a copy of C: F is evaluated on
    complex knots (``_eval_plane``), F*M is i*F, and each power's complex
    sum is lifted once to Re S + Im S * M, with no product of two batches
    at any level.  Each layout is evaluated in
    blocks of at most _KERNEL_BLOCK_ELEMENTS elements per (block, d) array
    and circle, whose sums add up in knot order: memory stays O(block * d)
    per running circle, so a layout over c circles holds c blocks at once,
    and every circle's results are bit for bit those of a loop of its own.

    Certified layouts.  When ``_circle_degree`` gives f a degree D about the
    centre, each integrand is a trigonometric polynomial of degree at most
    D + max|q|, and when that is below START_KNOTS one layout of n knots, n
    the least power of two above it, is exact but for rounding.  A circle
    whose rounding floor (below) lies under tol on that layout for every
    power stops there: each power reports 0 refinements, its floor as
    ``est_error`` and ``converged``.  A circle past tol there, and every
    circle of a phrase with no degree (a pole off the centre, zc under a
    negative power), is uncertified and doubles from that layout as below.

    Uncertified circles double the knot count, from START_KNOTS when there
    is no degree.  The error shrinks geometrically, so S(2n) is far better
    than est = |S(2n) - S(n)|, and no tail is left to extrapolate.  A
    circle stops doubling once every power has est < tol, or before a
    layout past _KERNEL_MAX_KNOTS; each power reports S on the circle's last
    layout, its est, the circle's refinement count and ``converged`` = est
    < tol.  A non-positive tol raises DomainError.

    A circle with ``floor`` set lets a power also stop at the rounding floor
    n * eps * 2*pi * rho^q * max|F| of a sum of n terms of size up to
    (2*pi/n) * rho^q * |F|, with max|F| taken over the first layout's
    knots (the first layout of a certified one): where rho^q is large, as
    for |k| near 60 on a circle of radius 1.7, no layout resolves an
    absolute tol, and more knots only add rounding.  A power with tol <=
    est below its floor reports the floor as ``est_error`` and sets
    ``at_floor``; its ``converged`` stays false.

    Results are yielded power-major and circle-minor, and the loop runs at
    the first request, so a knot of any circle on a pole raises its
    PoleError there, ahead of every result.  A scale that overflows still
    fails in its own place: with a DomainError at the first power whose
    scale rho^q overflows on that circle.  So a caller that reads the
    results in order and stops at the first failure reports the same
    overflow as one loop per circle, read in that order, would.
    """
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    r = f.level.r
    mv = m.coeffs
    cv = center.coeffs
    loops = [_Circle(rho, floor, powers) for rho, floor in circles]
    step = _KERNEL_BLOCK_ELEMENTS // len(cv)

    degree = _circle_degree(f.root, cv, r)
    width = None if degree is None else degree + max((abs(power + 1) for power in powers), default=0)
    exact = width is not None and width < START_KNOTS
    consts = _plane_constants(f.root, mv, cv)
    plane = consts is not None
    middle = complex(cv[0], float(cv @ mv))

    def raw(live: list, n: int, first: bool) -> list:
        """The sums of the circles in live on the n-knot layout; on the first
        layout, max|F| over its knots into the peak of every floor circle,
        and of every circle when the layout is exact."""
        totals = [np.empty((len(c.scales),) + (() if plane else cv.shape), complex if plane else float) for c in live]
        for lo in range(0, n, step):
            ang = TWO_PI * ((np.arange(lo, min(lo + step, n)) + 0.5) / n)
            if plane:
                knots = np.concatenate([middle + c.rho * (np.cos(ang) + 1j * np.sin(ang)) for c in live])
                F = _eval_plane(f.root, knots, consts)
                FM = 1j * F
            else:
                Z = [_plane_circle(cv, mv, c.rho, ang) for c in live]
                F = eval_node_arrays(f.root, Z[0] if len(Z) == 1 else np.concatenate(Z), r)
                FM = mul_arrays(F, mv, r)
            size = len(ang)
            blocks = [(c, total, F[j * size:(j + 1) * size], FM[j * size:(j + 1) * size])
                      for j, (c, total) in enumerate(zip(live, totals))]
            if first:
                for c, _, Fc, _ in blocks:
                    if c.floor or exact:
                        c.peak = max(c.peak, float((np.abs(Fc) if plane else norm_arrays(Fc)).max()))
            for k, power in enumerate(powers[:max(len(c.scales) for c in live)]):
                qa = (power + 1) * ang
                cos, sin = np.cos(qa), np.sin(qa)
                for c, total, Fc, FMc in blocks:
                    if k < len(c.scales):
                        w = (TWO_PI / n) * c.scales[k]
                        part = (w * cos) @ FMc - (w * sin) @ Fc
                        total[k] = part if lo == 0 else total[k] + part
        return [_lift(total, mv) for total in totals] if plane else totals

    # a circle whose first scale overflows runs no layout
    n = 1 << width.bit_length() if exact else START_KNOTS
    live = [c for c in loops if c.scales]
    if live:
        for c, sums in zip(live, raw(live, n, True)):
            c.sums = sums
            if exact:
                floors = c.rounding(n)
                if all(b < tol for b in floors):  # certified: no other error than rounding
                    c.est = floors
    live = [c for c in live if c.running(tol)]
    while live and 2 * n <= _KERNEL_MAX_KNOTS:
        n *= 2
        for c, sums in zip(live, raw(live, n, False)):
            c.est = scaled_norm_arrays(sums - c.sums).tolist()
            c.sums, c.refinements = sums, c.refinements + 1
            if c.floor:
                c.floors = c.rounding(n)
        live = [c for c in live if c.running(tol)]
    for k, power in enumerate(powers):
        for c in loops:
            if k == len(c.scales):
                raise DomainError(f"kernel power {power} overflows on a circle of radius {c.rho:g}")
            yield c.result(k, tol, f.level)


# ---------------------------------------------------------------------------
# Cauchy formulas
# ---------------------------------------------------------------------------

def _circle_contour(psi: Path, what: str) -> Tuple[CDNumber, float, CDNumber]:
    if psi.kind != "circle":
        raise UnsupportedShapeError(f"{what} requires a circular contour")
    if abs(psi.turns - 1.0) > 1e-12:
        raise DomainError(f"{what} requires a single positively-oriented turn")
    return psi.center, psi.radius, psi.direction


def _deformed_kernel_value(
    f: Phrase, z: CDNumber, psi: Path, power: int, tol: float, what: str, scale: float
) -> CDNumber:
    """scale times the small-circle limit at z of the loop integral of
    f(zeta)*(zeta - z)^power; a NonConvergenceError's ``best`` carries the
    same scale."""
    center, radius, m = _circle_contour(psi, what)
    if f.level.r != z.level.r or z.level.r != psi.level.r:
        raise LevelMismatchError("phrase, point, and contour must share a level")
    if (z - center).norm() >= radius:
        raise DomainError("evaluation point must lie strictly inside the contour disc")
    dist = distance_range(z.coeffs, psi)[0]
    if dist < 10.0 * TWO_PI * radius / MAX_KNOTS:
        raise DomainError("evaluation point is too close to the contour for a reliable value")
    rho = min(0.5 * dist, 0.05 * (1.0 + z.norm()))
    full, half = _kernel_loop(f, z, m, [(rho, False), (rho / 2.0, False)], [power], tol)
    if not (full.converged and half.converged):
        raise NonConvergenceError(
            f"{what} quadrature did not converge", best=half.value * scale
        )
    # the small-circle bias is even in rho; one extrapolation step removes
    # the rho^2 term
    return (half.value * 4.0 - full.value) * (1.0 / 3.0) * scale


def cauchy_eval(f: Phrase, z: CDNumber, psi: Path, tol: float = 1e-6) -> CDNumber:
    """(2*pi)^(-1) * loop integral of f(zeta)*(zeta - z)^(-1) over psi.

    Equals f(z)*M (M the contour direction) for f holomorphic inside psi;
    at levels <= 3 right-multiplying the result by conj(M) recovers f(z).
    """
    return _deformed_kernel_value(f, z, psi, -1, tol, "cauchy_eval", 1.0 / TWO_PI)


def cauchy_derivative(f: Phrase, z: CDNumber, k: int, psi: Path, tol: float = 1e-6) -> CDNumber:
    """k! * (2*pi)^(-1) * loop integral of f(zeta)*(zeta - z)^(-k-1) over psi.

    Like cauchy_eval, the integral is taken in its small-circle limit at
    z, which makes the value independent of the contour radius.  For
    evaluation points in the contour plane this reproduces the k-th
    derivative of f times M (e.g. 2*z0*M for f = z^2, k = 1); away from
    the plane the k >= 1 kernels are genuinely plane-sensitive and the
    limit value is the defined result.
    """
    k = int(k)
    if k < 1:
        raise DomainError("derivative order must be a positive integer")
    if k > _MAX_FACTORIAL:
        raise DomainError(f"derivative order {k} exceeds {_MAX_FACTORIAL}: k! overflows a double")
    return _deformed_kernel_value(f, z, psi, -k - 1, tol, "cauchy_derivative", math.factorial(k) / TWO_PI)


# ---------------------------------------------------------------------------
# coefficient extraction
# ---------------------------------------------------------------------------

def is_central(f: Phrase) -> bool:
    """True when every constant in the phrase is real (commutes with all planes)."""
    return all(not np.any(n.value[1:]) for n in _nodes(f.root) if isinstance(n, Const))


def coefficient_mode(f: Phrase) -> str:
    """"value" when contour coefficients are plain expansion coefficients.

    That holds for central (real-coefficient) phrases at every level, and up
    to level 3 for phrases whose constants stand left of z, where
    right-multiplication by conj(M) inverts the functional; otherwise the
    returned numbers are the functional values c_k*M and the mode is
    "functional".  Up to level 3 the mode is "value" for every phrase, so a
    constant right of z can give wrong numbers: z^2*e2 on the (1, e1) circle
    at level 2 has no left power series, since e2 anticommutes with the
    plane and turns z^k into conj(z)^k.
    """
    return "value" if (is_central(f) or f.level.r <= 3) else "functional"


def _coefficient(res: QuadratureResult, m: CDNumber, value_mode: bool) -> CDNumber:
    """The coefficient c_k from the kernel loop of power -k - 1, with conj(M)
    recovery in "value" mode (see coefficient_mode)."""
    value = res.value * (1.0 / TWO_PI)
    return mul(value, m.conj()) if value_mode else value


def taylor_coeffs(
    f: Phrase, a: CDNumber, count: int, psi: Path, tol: float = 1e-6
) -> List[CDNumber]:
    """Contour Taylor coefficients c_0 .. c_{count-1} of f about a.

    The contour must be a circle centered at a; each coefficient is the
    loop integral of f(zeta)*((zeta - a)^(-k-1)) over it, normalized by
    2*pi, with conj(M) recovery in "value" mode (see coefficient_mode).
    Matches the direct expansion for central-coefficient phrases.
    """
    center, radius, m = _circle_contour(psi, "taylor_coeffs")
    if f.level.r != a.level.r or a.level.r != psi.level.r:
        raise LevelMismatchError("phrase, center, and contour must share a level")
    if (center - a).norm() > 1e-12 * (1.0 + a.norm()):
        raise DomainError("expansion center must be the contour center")
    count = int(count)
    if count < 1:
        raise DomainError("coefficient count must be positive")
    value_mode = coefficient_mode(f) == "value"
    out = []
    for k, res in enumerate(_kernel_loop(f, a, m, [(radius, False)], [-k - 1 for k in range(count)], tol)):
        value = _coefficient(res, m, value_mode)
        if not res.converged:
            raise NonConvergenceError(
                f"coefficient k={k} did not converge", best=value
            )
        out.append(value)
    return out


def laurent_coeffs(
    f: Phrase,
    a: CDNumber,
    k_min: int,
    k_max: int,
    rho_inner: float,
    rho_outer: float,
    tol: float = 1e-6,
) -> List[CDNumber]:
    """Contour Laurent coefficients c_{k_min} .. c_{k_max} of f about a.

    Integration runs over the circle of radius sqrt(rho_inner*rho_outer)
    (the annulus' geometric middle) in the plane of the first imaginary
    direction.  Each coefficient is recomputed on circles toward both
    annulus edges; a singularity inside the annulus leaves the values
    radius-dependent (a pole sitting exactly on a circle converges to
    its principal value, so divergence alone is not a reliable signal)
    and raises PoleError.  Values may differ by 100*tol relative.  rho^-k
    spans many orders across the annulus when |k| is large, and so does the
    rounding, so the two outer circles, which only check the middle one's
    value, may stop at their rounding floors (see ``_kernel_loop``); such a
    circle widens the allowed difference by twice its error.
    """
    k_min, k_max = int(k_min), int(k_max)
    if k_min > k_max:
        raise DomainError("k_min must not exceed k_max")
    if not (0.0 < rho_inner <= rho_outer):
        raise DomainError("annulus radii must satisfy 0 < rho_inner <= rho_outer")
    if f.level.r != a.level.r:
        raise LevelMismatchError("phrase and center must share a level")
    m = basis_element(f.level, 1)
    # sqrt(rho_inner * rho_outer) by the ratio, whose product would underflow
    # for radii below about 1e-162
    ratio = rho_outer / rho_inner
    mid = rho_inner * math.sqrt(ratio)
    # consistency circles near the annulus edges (1/8 and 7/8 up the log
    # scale) keep the undetectable zones thin
    radii = (rho_inner * ratio**0.125, mid, rho_inner * ratio**0.875)
    ks = range(k_min, k_max + 1)
    value_mode = coefficient_mode(f) == "value"
    # one loop for all three radii, run at the first k; read k-major, radius-minor
    results = _kernel_loop(f, a, m, list(zip(radii, (True, False, True))), [-k - 1 for k in ks], tol)
    out = []
    for k in ks:
        values, slack = [], 0.0
        for rho in radii:
            res = next(results)
            value = _coefficient(res, m, value_mode)
            if not (res.converged or res.at_floor):
                raise NonConvergenceError(
                    f"coefficient k={k} did not converge at radius {rho:g}", best=value
                )
            if res.at_floor:
                slack = max(slack, res.est_error / TWO_PI)
            values.append(value)
        spread = max((u - v).norm() for u in values for v in values)
        if spread > 100.0 * tol * (1.0 + max(v.norm() for v in values)) + 2.0 * slack:
            raise PoleError(
                f"coefficient k={k} varies across the annulus (spread {spread:.3e}): "
                "a singularity lies between the annulus radii"
            )
        out.append(values[1])
    return out


# ---------------------------------------------------------------------------
# theorem checks
# ---------------------------------------------------------------------------

def residue_theorem_check(
    f: Phrase, poles: Sequence[CDNumber], psi: Path, tol: float = 1e-6
) -> ContourReport:
    """Compare the loop integral of f with 2*pi * sum of indexed residues.

    Each supplied pole contributes 2*pi*n*res(p, f)M, where n*M is its
    algebra-valued index with respect to psi; poles of index zero drop
    out.  The report carries both sides and their difference.
    """
    if f.level.r != psi.level.r:
        raise LevelMismatchError("phrase and contour must share a level")
    scale = 1.0 + max((p.norm() for p in poles), default=0.0)
    distances = []
    for p in poles:
        if p.level.r != f.level.r:
            raise LevelMismatchError("pole level does not match the phrase")
        dist = distance_range(p.coeffs, psi)[0]
        if dist <= 1e-9 * scale:
            raise DomainError("a supplied pole lies on the contour and cannot be classified")
        distances.append(dist)
    lhs = line_integral(f, psi, tol=tol)
    rhs = zero(f.level)
    for i, p in enumerate(poles):
        dist = distances[i]
        idx = ar_index(p, psi)
        strength = idx.imag().norm()
        if not math.isfinite(strength):
            raise DomainError(f"the index of pole {_fmt_const(p.coeffs)} about the contour overflows")
        n = int(round(strength))
        if n == 0:
            continue
        m = idx.imag() * (1.0 / strength)
        gaps = [dist] + [(p - q).norm() for j, q in enumerate(poles) if j != i]
        rho = 0.5 * min(g for g in gaps if g > 0.0)
        rhs = rhs + residue(f, p, m, rho, tol) * (TWO_PI * n)
    return ContourReport(
        lhs=lhs.value,
        rhs=rhs,
        diff=(lhs.value - rhs).norm(),
        est_error=lhs.est_error,
        mode="value",
    )


def sum_residues_check(
    f: Phrase,
    poles: Sequence[CDNumber],
    direction: CDNumber,
    tol: float = 1e-6,
) -> float:
    """|sum of all residues of f|, the residue at infinity included.

    Finite poles are sampled on circles of half their separation; the
    residue at infinity is the reversed-orientation loop integral over a
    circle of radius ``_FAR_RADIUS`` about 0, normalized by 2*pi.  For a
    rational phrase integrable at infinity the total must vanish.

    The far circle lies in the plane span(1, M) of ``direction``.  The Ln
    leaf of a pole off that plane gives 0 on the closed far circle, while
    the pole's own small circle gives its residue, so the identity holds
    only for poles in the plane: a pole off it, by the rule of
    ``_in_circle_plane``, raises DomainError before any quadrature.
    """
    m = _unit_imaginary(direction, "direction")
    far = Path.circle(zero(f.level), _FAR_RADIUS, m, -1.0)
    for p in poles:
        if p.level.r != f.level.r:
            raise LevelMismatchError("phrase and pole must share a level")
        if not _in_circle_plane(p.coeffs, far, _circle_frame(p.coeffs, far)[2]):
            raise DomainError(f"pole {_fmt_const(p.coeffs)} lies off the plane of the far circle")
    total = zero(f.level)
    for i, p in enumerate(poles):
        gaps = [(p - q).norm() for j, q in enumerate(poles) if j != i]
        gaps = [g for g in gaps if g > 0.0]
        rho = 0.5 * min(gaps) if gaps else 0.5
        total = total + residue(f, p, m, rho, tol)
    total = total + line_integral(f, far, tol=tol * TWO_PI).value * (1.0 / TWO_PI)
    return float(total.norm())


def _planar_image(f: Phrase, gamma: Path) -> bool:
    """Whether gamma is a circle that f maps into the plane span(1, M) of its
    direction M, a subalgebra and a copy of the complex numbers: its centre
    and every constant of f lie in that plane (``_plane_constants``)."""
    return gamma.kind == "circle" and _plane_constants(f.root, gamma.direction.coeffs, gamma.center.coeffs) is not None


def _circle_peak(f: Phrase, arc: Path, degree: int) -> float:
    """A bound on max|f| over the whole circle of an arc, for f of the given
    degree about its centre: the largest |f| on n >= 8 * degree midpoints of
    one turn, over 1 - pi * degree / n (Bernstein's inequality).  A layout
    past _MAX_LAYOUT knots or _LAYOUT_ELEMENTS elements is a
    StepControlError, an image past the range of a double a DomainError."""
    n = max(_FIRST_LAYOUT, 1 << (8 * degree).bit_length())
    if n > min(_MAX_LAYOUT, _LAYOUT_ELEMENTS // f.level.basis_dim):
        raise StepControlError(f"a phrase of degree {degree} needs {n} knots to bound")
    F = eval_node_arrays(f.root, replace(arc, turns=1.0).sample((np.arange(n) + 0.5) / n), f.level.r)
    if not np.isfinite(F).all():
        raise DomainError("the image of the circle leaves the range of a double")
    return float(scaled_norm_arrays(F).max()) / (1.0 - math.pi * degree / n)


def argument_principle(
    f: Phrase,
    gamma: Path,
    zeros: Sequence[Tuple[CDNumber, int]],
) -> ContourReport:
    """Index of f∘gamma about 0 versus the index-weighted divisor of f.

    The left side tracks the image curve t -> f(gamma(t)), whose sampler
    goes to ``integrate._sampled_log``; the right side sums order *
    index(a, gamma) over the supplied zeros (a, order).  On a circle of
    integer turns n, |n| > 2, the image repeats every turn.  Each crossing
    of the real line reverses the direction in which the argument is
    continued, so one turn maps the winding count m at the start to s*m +
    k, with s = +-1 and k
    the index of one turn, and two turns map it to m + (1 + s)*k.  The left
    side is therefore |n|/2 times the index of two turns with the same sign
    and start, unless those cancel (s = -1, or k = 0) and n is odd, when it
    is the index of one turn.  This is exact for closed loops whose image
    does not start on the real line.  Arcs, whose branch offsets do not
    cancel, and polylines take the whole image.

    Certified images.  When f maps a circle into its plane span(1, M)
    (``_planar_image``) and has a degree D about its centre
    (``_circle_degree``), the image of T turns is a trigonometric
    polynomial of degree D*|T| in 2*pi*t, whose speed is at most
    2*pi*D*|T| * max|f| (Bernstein's inequality), with max|f| over the
    whole circle (``_circle_peak`` on an arc shorter than a turn).  Each
    step of the layout is then certified to turn the argument by less than
    pi/2, and only the others are halved (see ``integrate._sampled_log``),
    so a many-turn arc gives its exact index, or StepControlError when the
    knot cap cannot certify it.  Other images are uncertified and take the
    agreement rule of ``integrate._sampled_log``, which an image aliasing
    alike on two layouts passes: those of rational phrases, and of phrases
    whose constants or circle centre leave the plane.  Off one plane an image
    can pass close to the real line, where its continued direction turns
    faster than the speed bound sees.
    """
    if f.level.r != gamma.level.r:
        raise LevelMismatchError("phrase and path must share a level")
    r = f.level.r
    degree = _circle_degree(f.root, gamma.center.coeffs, r) if _planar_image(f, gamma) else None

    def image_index(loop: Path) -> CDNumber:
        speed = None
        if degree is not None:
            peak = None if abs(loop.turns) >= 1.0 else _circle_peak(f, loop, degree)
            speed = (TWO_PI * degree * abs(loop.turns), peak)
        image = _sampled_log(zero(f.level).coeffs, lambda ts: eval_node_arrays(f.root, loop.sample(ts), r), speed)
        return CDNumber(f.level, image) * (1.0 / TWO_PI)

    if gamma.kind == "circle" and float(gamma.turns).is_integer() and abs(gamma.turns) > 2.0:
        lhs = image_index(replace(gamma, turns=math.copysign(2.0, gamma.turns)))
        if lhs.norm() < 0.5 and abs(gamma.turns) % 2.0:
            lhs = image_index(replace(gamma, turns=math.copysign(1.0, gamma.turns)))
        else:
            lhs = lhs * (0.5 * abs(gamma.turns))
    else:
        lhs = image_index(gamma)
    rhs = zero(f.level)
    for a, order in zeros:
        if a.level.r != r:
            raise LevelMismatchError("zero level does not match the phrase")
        rhs = rhs + ar_index(a, gamma) * float(int(order))
    return ContourReport(
        lhs=lhs,
        rhs=rhs,
        diff=(lhs - rhs).norm(),
        est_error=0.0,
        mode="value",
    )


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

_RESTARTS = 16


def _coefficient_mass(node: Node) -> float:
    if isinstance(node, Const):
        return float(np.sqrt(np.dot(node.value, node.value)))
    # summed per subtree, not in preorder, to keep the tree's rounding
    return sum((_coefficient_mass(c) for c in _children(node)), 0.0)


def _starts(P: Phrase, seed: CDNumber) -> Iterator[np.ndarray]:
    """The seed, then _RESTARTS points drawn from the ball of radius 1 + the
    sum of the coefficient norms of P, each drawn when it is asked for."""
    yield np.array(seed.coeffs)
    d = P.level.basis_dim
    radius = 1.0 + _coefficient_mass(P.root)
    rng = np.random.default_rng(0x5EED)
    for _ in range(_RESTARTS):
        v = rng.standard_normal(d)
        v *= radius * rng.uniform(0.0, 1.0) ** (1.0 / d) / math.sqrt(float(np.dot(v, v)))
        yield v


def _newton_coordinates(P: Phrase, x: np.ndarray):
    """(u, value, jacobian, lift): the coordinates u of the start x in which
    Newton iterates, the coordinates of P and its Jacobian as functions of
    u, and the element at u.

    A start whose plane span(1, M) holds every constant of P
    (``_plane_constants``) iterates on the two real coordinates (Re w, Im w)
    of w = x_0 + i<x, M>, with P and its derivatives along 1 and M in
    complex arithmetic (``_eval_plane``).  That plane is span(1, Im x); for
    a real start it is the plane of P's first non-real constant, or
    span(1, e1) when P has none.  P maps the plane into itself, and so does
    its Jacobian, so from an in-plane point the plane step is the step in
    the 2^r real coordinates.  Any other start iterates on those."""
    r = P.level.r
    im = np.array(x)
    im[0] = 0.0
    if not im.any():
        non_real = (n.value for n in _nodes(P.root) if isinstance(n, Const) and n.value[1:].any())
        im = next(non_real, basis_element(P.level, 1).coeffs).copy()
        im[0] = 0.0
    m = im / scaled_norm_arrays(im)
    consts = _plane_constants(P.root, m)
    if consts is None:
        eye = np.eye(P.level.basis_dim)
        return (x, lambda u: eval_node_arrays(P.root, u, r),
                lambda u: np.asarray(derivative_apply(P, u, eye)).T, lambda u: u)

    def value(u):
        F = _eval_plane(P.root, np.complex128(complex(u[0], u[1])), consts)
        return np.array([F.real, F.imag])

    def jacobian(u):
        _, d1, dm = _eval_plane(P.root, np.complex128(complex(u[0], u[1])), consts, slopes=True)
        return np.array([[d1.real, dm.real], [d1.imag, dm.imag]])

    return np.array([x[0], float(x @ m)]), value, jacobian, lambda u: _lift(complex(u[0], u[1]), m)


def find_root(P: Phrase, seed: CDNumber, max_iter: int = 200, tol: float = 1e-8) -> CDNumber:
    """A root of the polynomial phrase P by damped Newton iteration.

    Works on the squared norm |P|^2 over the coordinates of
    ``_newton_coordinates``: the two of a plane span(1, M) that holds the
    start and every constant, or else the 2^r real ones.  The Jacobian
    columns are directional derivatives along the coordinate axes, steps
    are backtracked until they decrease |P|^2 (Armijo), and up to 16
    deterministic random restarts are drawn from the ball of radius
    1 + sum of coefficient norms.  Each Newton system is solved by LU; a
    singular system, which zero divisors allow from r = 4, or a
    non-finite step falls back to least squares.  The value of P at an
    accepted step is the next step's value.  A root found in a plane is
    returned only when |P| at its element, evaluated in the 2^r real
    coordinates, is within tol too.  Raises NonConvergenceError with the
    best iterate found when every start stalls.
    """
    if P.level.r != seed.level.r:
        raise LevelMismatchError("seed level does not match the polynomial")
    r = P.level.r
    best_g, best = math.inf, (seed.coeffs, np.array)
    for start in _starts(P, seed):
        x, value, jacobian, lift = _newton_coordinates(P, start)
        pv = value(x)
        for _ in range(int(max_iter)):
            g = float(np.dot(pv, pv))
            if g < best_g:
                best_g, best = g, (x, lift)
            if math.sqrt(g) <= tol:
                root = lift(x)
                check = eval_node_arrays(P.root, root, r)
                if math.sqrt(float(np.dot(check, check))) <= tol:
                    return CDNumber(r, root)
                break
            jac = jacobian(x)
            if not (math.isfinite(g) and np.isfinite(jac).all()):
                break  # overflow: a non-finite system stalls this start
            try:
                step = np.linalg.solve(jac, -pv)
            except np.linalg.LinAlgError:
                step = None
            if step is None or not np.isfinite(step).all():
                step, *_ = np.linalg.lstsq(jac, -pv, rcond=None)
            if not np.isfinite(step).all():
                break
            t = 1.0
            moved = False
            while t >= 1e-12:
                xn = x + t * step
                pn = value(xn)
                if float(np.dot(pn, pn)) <= (1.0 - 1e-4 * t) * g:
                    x, pv = xn, pn
                    moved = True
                    break
                t /= 2.0
            if not moved:
                break
    x, lift = best
    raise NonConvergenceError("root search exhausted its restarts", best=CDNumber(r, lift(x)))
