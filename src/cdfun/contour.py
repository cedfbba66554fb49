"""Contour functionals: indices, residues, Cauchy formulas, coefficients, roots.

The per-plane winding numbers of circles, arcs and polylines have closed
forms: a circle projects to an ellipse in each plane (1, e_s), a polyline to
a polyline.  So does the algebra-valued index ``ar_index``, through the
closed forms of ``log_integral``.  Only parametric paths, such as the image
curve of the argument principle, are sampled for either, by the one rule
of ``integrate._doubled``.  Everything else
here reduces to loop integrals, by two integration routes:

* ``line_integral`` (hat increments of a primitive) for integrands that are
  phrases in their own right — residues and the residue-theorem sides;
* the periodic midpoint rule for the Cauchy-type kernels (zeta - a)^(-k-1):
  along the circle zeta(theta) = a + rho*exp(theta*M) the kernel times
  d(zeta) is a closed-form multiple of d(theta) in the contour plane, and
  the loop is closed, so equally spaced midpoints converge geometrically,
  and exactly for Laurent polynomials in zeta - a, which plain knot
  doubling then accepts at its second layout.

Cauchy evaluation deforms to a small circle centered at the evaluation
point itself (direction taken from the given contour): integrating the
kernel against f over the *given* contour would need the kernel's primitive
along paths far from the singularity, where it is not a phrase.  The small
circle leaves an even-order bias in its radius, which one extrapolation
step (4*S(rho/2) - S(rho))/3 removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

import numpy as np

from .algebra import CDNumber, basis_element, mul, mul_arrays, norm_arrays, zero
from .errors import (
    DomainError,
    LevelMismatchError,
    NonConvergenceError,
    PoleError,
    SingularElementError,
    UnsupportedShapeError,
)
from .expressions import (
    Const,
    Node,
    Phrase,
    _children,
    _fmt_const,
    _nodes,
    derivative_apply,
    eval_node_arrays,
)
from .integrate import (
    MAX_KNOTS,
    START_KNOTS,
    Path,
    QuadratureResult,
    _circle_frame,
    _doubled,
    _in_circle_plane,
    _on_arc,
    _plane_circle,
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
_UNDEFINED_ANGLE = 1e100
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


def _sampled_winding(a: np.ndarray, gamma: Path) -> tuple:
    """Per-plane entries and defined-flags of a parametric path, all planes
    unwrapped at once as the columns of one (knots, d - 1) angle array by
    ``_doubled``; an undefined plane holds _UNDEFINED_ANGLE, past any
    continued angle, so it agrees only with a plane undefined there too."""
    def parts(Z: np.ndarray) -> tuple:
        x, Y = Z[:, :1] - a[0], Z[:, 1:] - a[1:]
        return x, Y, np.arctan2(Y, x), norm_arrays(Z)

    def continued(x, Y, ang, size):
        scale = 1.0 + float(np.linalg.norm(a)) + float(size.max())
        defined = _segment_distance(x, Y) > _WINDING_TOL * scale
        ang = np.unwrap(ang, axis=0)
        ang[:, ~defined] = _UNDEFINED_ANGLE
        fast = np.flatnonzero(~(np.abs(np.diff(ang, axis=0)) < math.pi / 2).all(axis=1))
        if len(fast):
            return fast
        return ang, ([int(k) for k in np.round((ang[-1] - ang[0]) / TWO_PI)], defined)

    return _doubled(gamma, parts, continued)


def winding_index(a: CDNumber, gamma: Path) -> IndexVector:
    """Planar winding numbers of gamma around a, one per imaginary direction.

    Plane s sees the projection (re, coeff_s) of curve and point; its entry
    is the accumulated angle of the projected curve about the projected
    point, divided by 2*pi and rounded.  Projections passing within 1e-9 *
    scale of the point, scale = 1 + |a| + max|gamma|, are flagged undefined
    rather than counted.  Circles, arcs included, and polylines are done in
    closed form on (d - 1,) arrays: a circle projects to an ellipse (see
    _circle_winding), a polyline to the polyline through its projected
    corners.  Only parametric paths are sampled, by ``integrate._doubled``,
    which cannot detect a path that aliases alike on two knot layouts.
    """
    if a.level.r != gamma.level.r:
        raise LevelMismatchError("point level does not match path level")
    if gamma.kind == "circle":
        entries, defined = _circle_winding(a.coeffs, gamma)
    elif gamma.kind == "polyline":
        entries, defined = _polyline_winding(a.coeffs, gamma)
    else:
        entries, defined = _sampled_winding(a.coeffs, gamma)
    planes = range(1, a.level.basis_dim)
    per_plane = {s: n for s, n, ok in zip(planes, entries, defined.tolist()) if ok}
    undefined = frozenset(s for s, ok in zip(planes, defined.tolist()) if not ok)
    return IndexVector(per_plane, undefined)


def ar_index(a: CDNumber, gamma: Path) -> CDNumber:
    """The algebra-valued index (2*pi)^(-1) * loop integral of d(Ln(z - a)).

    For a circle of ``turns`` n and direction M about a this is n*M; for a
    loop not enclosing a it vanishes.  Circles, arcs and polylines take the
    closed forms of ``log_integral``, parametric paths its sampled route.
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
_EPS = 2.0**-52  # the float64 machine epsilon, without a numpy call at import


def _kernel_loop(
    f: Phrase,
    center: CDNumber,
    m: CDNumber,
    rho: float,
    powers: Sequence[int],
    tol: float,
    floor: bool = False,
) -> Iterator[QuadratureResult]:
    """Loop integrals of f(zeta) * dK by knot doubling, one per kernel power.

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
    exactly at every knot.  One knot layout therefore costs one evaluation
    F = f(zeta) and one product F*M, shared by all powers, plus one real
    weighted sum over the knots per power.  Each layout is evaluated in
    blocks of at most _KERNEL_BLOCK_ELEMENTS elements per (block, d) array,
    whose sums add up in knot order: memory stays O(block * d), and results
    are bit-reproducible.

    The knot count doubles from START_KNOTS.  The error shrinks
    geometrically, so S(2n) is far better than est = |S(2n) - S(n)|, and no
    tail is left to extrapolate.  The doubling stops once every power has
    est < tol, or before a layout past _KERNEL_MAX_KNOTS; each power reports
    S on the last layout, its est, the shared refinement count and
    ``converged`` = est < tol.  A non-positive tol raises DomainError.

    With ``floor`` set, a power may also stop at the rounding floor
    n * eps * 2*pi * rho^q * max|F| of a sum of n terms of size up to
    (2*pi/n) * rho^q * |F|, with max|F| taken over the first layout's
    knots: where rho^q is large, as for |k| near 60 on a circle of radius
    1.7, no layout resolves an absolute tol, and more knots only add
    rounding.  A power with tol <= est below its floor reports the floor as
    ``est_error`` and sets ``at_floor``; its ``converged`` stays false.

    Results are yielded in power order, and the loop runs at the first
    request.  A power whose scale rho^q overflows raises DomainError in its
    place, so a caller that reads the results in order and stops at the
    first failure reports the same failure as one loop per power would;
    the powers from there on are not integrated.
    """
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    r = f.level.r
    mv = m.coeffs
    cv = center.coeffs
    scales = []
    for power in powers:
        try:
            scales.append(rho ** (power + 1))
        except OverflowError:
            break
    step = _KERNEL_BLOCK_ELEMENTS // len(cv)

    def raw(n: int, peaked: bool = False) -> tuple:
        """The sums on the n-knot layout, and max|F| over its knots if peaked."""
        total, peak = None, 0.0
        for lo in range(0, n, step):
            ang = TWO_PI * ((np.arange(lo, min(lo + step, n)) + 0.5) / n)
            try:
                F = eval_node_arrays(f.root, _plane_circle(cv, mv, rho, ang), r)
            except SingularElementError as e:
                raise PoleError(f"integrand is singular on the contour: {e}") from e
            FM = mul_arrays(F, mv, r)
            if peaked:
                peak = max(peak, float(norm_arrays(F).max()))
            part = np.empty((len(scales), len(cv)))
            for i, (power, s) in enumerate(zip(powers, scales)):
                w, qa = (TWO_PI / n) * s, (power + 1) * ang
                part[i] = (w * np.cos(qa)) @ FM - (w * np.sin(qa)) @ F
            total = part if total is None else total + part
        return total, peak

    if scales:
        n, refinements = START_KNOTS, 0
        sums, peak = raw(n, floor)
        est, floors = [math.inf] * len(scales), [0.0] * len(scales)
        while not all(e < tol or e < b for e, b in zip(est, floors)) and 2 * n <= _KERNEL_MAX_KNOTS:
            n, refinements = 2 * n, refinements + 1
            prev, (sums, _) = sums, raw(n)
            diff = sums - prev
            # scaled by a power of two at or above max|diff|, which divides
            # exactly, so squaring cannot overflow a finite difference
            scale = np.ldexp(1.0, np.frexp(np.abs(diff).max(axis=1))[1])
            est = (norm_arrays(diff / scale[:, None]) * scale).tolist()
            floors = [n * _EPS * TWO_PI * s * peak for s in scales]
        for s, e, b in zip(sums, est, floors):
            if tol <= e < b:
                yield QuadratureResult(CDNumber(f.level, s), b, refinements, False, True)
            else:
                yield QuadratureResult(CDNumber(f.level, s), e, refinements, e < tol)
    if len(scales) < len(powers):
        raise DomainError(
            f"kernel power {powers[len(scales)]} overflows on a circle of radius {rho:g}"
        )


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
    f: Phrase, z: CDNumber, psi: Path, power: int, tol: float, what: str
) -> CDNumber:
    center, radius, m = _circle_contour(psi, what)
    if f.level.r != z.level.r or z.level.r != psi.level.r:
        raise LevelMismatchError("phrase, point, and contour must share a level")
    if (z - center).norm() >= radius:
        raise DomainError("evaluation point must lie strictly inside the contour disc")
    dist = distance_range(z.coeffs, psi)[0]
    if dist < 10.0 * TWO_PI * radius / MAX_KNOTS:
        raise DomainError("evaluation point is too close to the contour for a reliable value")
    rho = min(0.5 * dist, 0.05 * (1.0 + z.norm()))
    (full,) = _kernel_loop(f, z, m, rho, [power], tol)
    (half,) = _kernel_loop(f, z, m, rho / 2.0, [power], tol)
    if not (full.converged and half.converged):
        raise NonConvergenceError(
            f"{what} quadrature did not converge", best=half.value * (1.0 / TWO_PI)
        )
    # the small-circle bias is even in rho; one extrapolation step removes
    # the rho^2 term
    return (half.value * 4.0 - full.value) * (1.0 / 3.0)


def cauchy_eval(f: Phrase, z: CDNumber, psi: Path, tol: float = 1e-6) -> CDNumber:
    """(2*pi)^(-1) * loop integral of f(zeta)*(zeta - z)^(-1) over psi.

    Equals f(z)*M (M the contour direction) for f holomorphic inside psi;
    at levels <= 3 right-multiplying the result by conj(M) recovers f(z).
    """
    return _deformed_kernel_value(f, z, psi, -1, tol, "cauchy_eval") * (1.0 / TWO_PI)


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
    val = _deformed_kernel_value(f, z, psi, -k - 1, tol, "cauchy_derivative")
    return val * (math.factorial(k) / TWO_PI)


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


def _coefficients(
    f: Phrase,
    center: CDNumber,
    m: CDNumber,
    rho: float,
    ks: Sequence[int],
    tol: float,
    floor: bool = False,
) -> Iterator[Tuple[CDNumber, QuadratureResult]]:
    """Coefficients c_k for every k in ks, in order, from one kernel loop on
    one circle (run at the first request); floor as in _kernel_loop."""
    value_mode = coefficient_mode(f) == "value"
    for res in _kernel_loop(f, center, m, rho, [-k - 1 for k in ks], tol, floor):
        value = res.value * (1.0 / TWO_PI)
        yield (mul(value, m.conj()) if value_mode else value), res


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
    out = []
    for k, (value, res) in enumerate(_coefficients(f, a, m, radius, range(count), tol)):
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
    mid = math.sqrt(rho_inner * rho_outer)
    ratio = rho_outer / rho_inner
    # consistency circles near the annulus edges (1/8 and 7/8 up the log
    # scale) keep the undetectable zones thin
    radii = (rho_inner * ratio**0.125, mid, rho_inner * ratio**0.875)
    ks = range(k_min, k_max + 1)
    # one loop per radius, each run at the first k; read k-major, radius-minor
    columns = [
        _coefficients(f, a, m, rho, ks, tol, floor)
        for rho, floor in zip(radii, (True, False, True))
    ]
    out = []
    for k in ks:
        values, slack = [], 0.0
        for rho, column in zip(radii, columns):
            value, res = next(column)
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


def argument_principle(
    f: Phrase,
    gamma: Path,
    zeros: Sequence[Tuple[CDNumber, int]],
) -> ContourReport:
    """Index of f∘gamma about 0 versus the index-weighted divisor of f.

    The left side tracks the image curve t -> f(gamma(t)), which
    ``log_integral`` samples; the right side sums order * index(a, gamma)
    over the supplied zeros (a, order).  On a circle of integer turns n,
    |n| > 2, the image repeats every turn.  Each crossing of the real line
    reverses the direction in which the argument is continued, so one turn
    maps the winding count m at the start to s*m + k, with s = +-1 and k
    the index of one turn, and two turns map it to m + (1 + s)*k.  The left
    side is therefore |n|/2 times the index of two turns with the same sign
    and start, unless those cancel (s = -1, or k = 0) and n is odd, when it
    is the index of one turn.  This is exact for closed loops whose image
    does not start on the real line, while a many-turn image sampled whole
    aliases (see ``integrate._doubled``).  Arcs, whose branch offsets do not
    cancel, and polylines take the whole image.
    """
    if f.level.r != gamma.level.r:
        raise LevelMismatchError("phrase and path must share a level")
    r = f.level.r

    def image_index(loop: Path) -> CDNumber:
        return ar_index(zero(f.level), Path(level=loop.level, kind="parametric",
                                            sampler=lambda ts: eval_node_arrays(f.root, loop.sample(ts), r)))

    def turns(n: float) -> Path:
        return Path(level=gamma.level, kind="circle", center=gamma.center, radius=gamma.radius,
                    direction=gamma.direction, turns=math.copysign(n, gamma.turns), start=gamma.start)

    if gamma.kind == "circle" and float(gamma.turns).is_integer() and abs(gamma.turns) > 2.0:
        lhs = image_index(turns(2.0))
        if lhs.norm() < 0.5 and abs(gamma.turns) % 2.0:
            lhs = image_index(turns(1.0))
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


def find_root(P: Phrase, seed: CDNumber, max_iter: int = 200, tol: float = 1e-8) -> CDNumber:
    """A root of the polynomial phrase P by damped Newton iteration.

    Works on the squared norm |P|^2 over the 2^r real coordinates; the
    Jacobian columns are directional derivatives along the basis, steps
    are backtracked until they decrease |P|^2 (Armijo), and up to 16
    deterministic random restarts are drawn from the ball of radius
    1 + sum of coefficient norms.  Raises NonConvergenceError with the
    best iterate found when every start stalls.
    """
    if P.level.r != seed.level.r:
        raise LevelMismatchError("seed level does not match the polynomial")
    r = P.level.r
    d = P.level.basis_dim
    eye = np.eye(d)
    best_x = np.array(seed.coeffs)
    best_g = math.inf
    for x in _starts(P, seed):
        for _ in range(int(max_iter)):
            pv = eval_node_arrays(P.root, x, r)
            g = float(np.dot(pv, pv))
            if g < best_g:
                best_g, best_x = g, x.copy()
            if math.sqrt(g) <= tol:
                return CDNumber(r, x)
            rows = derivative_apply(P, x, eye)
            jac = np.asarray(rows).T
            if not (math.isfinite(g) and np.all(np.isfinite(jac))):
                break  # overflow: a non-finite system stalls this start
            step, *_ = np.linalg.lstsq(jac, -pv, rcond=None)
            if not np.all(np.isfinite(step)):
                break
            t = 1.0
            moved = False
            while t >= 1e-12:
                xn = x + t * step
                pn = eval_node_arrays(P.root, xn, r)
                if float(np.dot(pn, pn)) <= (1.0 - 1e-4 * t) * g:
                    x = xn
                    moved = True
                    break
                t /= 2.0
            if not moved:
                break
    raise NonConvergenceError(
        "root search exhausted its restarts", best=CDNumber(r, best_x)
    )
