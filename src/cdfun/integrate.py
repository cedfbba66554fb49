"""Rectifiable paths and the noncommutative line integral.

The integral of a phrase f along a path gamma is the limit of increment
sums  I(f, gamma; P) = sum_k fhat(z_{k+1}).(dz_k)  over refining
partitions P: each increment dz_k = gamma(c_{k+1}) - gamma(c_k) is pushed
through the increment functional of a primitive of f, evaluated at the
*right* endpoint of the step.  In a noncommutative algebra the endpoint
convention matters at first order, so it is fixed once and for all here.

Every word of a primitive is linear in the increment of its one leaf,
(z - c)^m or Ln(z - c), so the words around one leaf fold into one matrix
(see ``primitive``) and the integral is a sum over leaves of (the leaf's
summed increments) @ (its matrix).  ``line_integral`` takes circles and
polylines, by three routes:

* a power leaf (z - c)^m is C^1 off its centre, so its increments sum to
  (gamma(1) - c)^m - (gamma(0) - c)^m, the paper's Newton-Leibniz formula;
* an Ln leaf on a polyline takes the closed form of ``_polyline_log``
  segment by segment, and one on an arc, or on a closed circle off the
  plane c + span(1, M) through its centre c, that of ``_circle_log``;
* an Ln leaf on a closed circle in that plane (``_in_circle_plane``) sums
  dw/w by the midpoint rule in complex coordinates w of z - c, on (N,)
  arrays, and lifts the sum S to Re S + Im S * M before its matrix
  (``_raw_sum``).

Knots are taken only by that last route.

On a closed circle the midpoint sums are certified (``_closed_in_plane``).
Around one turn the integrand is periodic and analytic, a geometric series
in e^(i*phi) of ratio q = min(|w0|/rho, rho/|w0|), so the N-knot rule errs
by at most 2*pi*q^N/(1 - q^N) per turn.  That bound sizes one layout before
any sampling: N doubles from 64 until the bound, summed over the leaves,
falls below tol, or N reaches the knot cap.  One turn is sampled on that
layout and repeated |turns| times, so many turns do not alias.
``est_error`` is the bound plus the rounding of the sum, and the
refinements are log2(N / 64).

``integral_sum``, the paper's raw increment sum on one partition, is
``_row_sum`` over every leaf, on any path.

``log_integral``, the loop integral of d Ln(z - a) behind the index,
continues the argument along the path in closed form on circles, arcs and
polylines.  The argument principle's image curves f(gamma(t)) are not
paths: ``_sampled_log``, the one sampling routine of this package, takes
their batch samplers and continues the argument over nested knot layouts.
The image of a polynomial phrase on a circle in its plane has a speed
bound (Bernstein's inequality), which certifies each step of a layout
before it is continued; other images, of rational phrases and of phrases
off one plane, are accepted when two layouts agree, which an image
aliasing alike on both passes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import AlgebraLevel, CDNumber, as_level, norm_arrays, pow_arrays
from .errors import (
    DomainError,
    LevelMismatchError,
    PoleError,
    SingularElementError,
    StepControlError,
)
from .expressions import _PLANE_EPS, Phrase, PrimitiveResult, _fmt_const, _is_number, primitive
from .transcendental import _split_parts, numerically_real

DEFAULT_TOL = 1e-6
START_KNOTS = 64
MAX_KNOTS = 1 << 20

_DIRECTION_TOL = 1e-9

#: The rounding bound of a closed-form power leaf, per unit of
#: (|m| + 1) * (|X(gamma(0))| + |X(gamma(1))|) * |matrix|_F.
_ROUNDING = 8.0 * np.finfo(float).eps
_EPS = 2.0**-52  # the float64 machine epsilon, without a numpy call at import

#: The most elements of one (knots, d) array of a row sum.
_ROW_BLOCK_ELEMENTS = 1 << 18


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def _unit_imaginary(m: CDNumber, what: str) -> CDNumber:
    """m as an exact unit pure imaginary; a DomainError naming `what` when
    its real part or its imaginary norm is off by more than _DIRECTION_TOL."""
    im = np.array(m.coeffs)
    im[0] = 0.0
    n = float(np.linalg.norm(im))
    if abs(float(m.coeffs[0])) > _DIRECTION_TOL or abs(n - 1.0) > _DIRECTION_TOL:
        raise DomainError(f"{what} must be a unit pure-imaginary element")
    return CDNumber._owning(m.level, im / n)


def _plane_circle(center: np.ndarray, m: np.ndarray, rho: float, ang: np.ndarray) -> np.ndarray:
    """center + rho * (cos ang + sin ang * m) for every angle, as (*ang.shape, d)."""
    out = np.zeros(ang.shape + center.shape)
    out[..., 0] = np.cos(ang)
    out += np.sin(ang)[..., None] * m
    return center + rho * out


@dataclass(frozen=True)
class Path:
    """A rectifiable path t in [0, 1] -> A_r.

    A circle is sampled as center + radius * (cos phi + sin phi * direction)
    with phi = 2*pi*(start + turns*t): ``start`` is the phase at t = 0, in
    turns, and ``turns`` may be any real number; the path is closed iff it
    is an integer.  Subpaths and reversals of a circle are circle arcs.
    Polylines run through their corner list at constant speed with respect
    to arc length.  These are the path kinds ``path_from_json`` builds.
    """

    level: AlgebraLevel
    kind: str
    center: Optional[CDNumber] = None
    radius: float = 0.0
    direction: Optional[CDNumber] = None
    turns: float = 1.0
    start: float = 0.0
    points: tuple = ()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def circle(center: CDNumber, radius: float, direction: CDNumber, turns: float = 1.0) -> "Path":
        if not isinstance(center, CDNumber) or not isinstance(direction, CDNumber):
            raise DomainError("circle center and direction must be algebra elements")
        if center.level.r != direction.level.r:
            raise LevelMismatchError("circle center and direction live at different levels")
        radius = float(radius)
        if not (radius > 0.0) or not math.isfinite(radius):
            raise DomainError("circle radius must be a positive real")
        turns = float(turns)
        if not math.isfinite(turns):
            raise DomainError("circle turns must be finite")
        return Path(
            level=center.level,
            kind="circle",
            center=center,
            radius=radius,
            direction=_unit_imaginary(direction, "circle direction"),
            turns=turns,
        )

    @staticmethod
    def polyline(points: Sequence[CDNumber]) -> "Path":
        pts = tuple(points)
        if len(pts) < 2:
            raise DomainError("polyline needs at least two points")
        lev = pts[0].level
        for p in pts:
            if not isinstance(p, CDNumber):
                raise DomainError("polyline points must be algebra elements")
            if p.level.r != lev.r:
                raise LevelMismatchError("polyline points live at different levels")
        return Path(level=lev, kind="polyline", points=pts)

    # -- geometry ------------------------------------------------------------

    @functools.cached_property
    def _polyline(self) -> tuple:
        """(corners, segment lengths, total length, arc-length fraction of each
        corner) of a polyline, the last fraction exactly 1; the fractions are
        None when the total length is 0."""
        pts = np.stack([p.coeffs for p in self.points])
        seg = norm_arrays(np.diff(pts, axis=0))
        total = float(seg.sum())
        if total <= 0.0:
            return pts, seg, total, None
        fracs = np.concatenate([[0.0], np.cumsum(seg) / total])
        fracs[-1] = 1.0
        return pts, seg, total, fracs

    def sample(self, ts) -> np.ndarray:
        """Points gamma(t) for an array of parameters, as an (K, dim) array."""
        ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        if self.kind == "circle":
            ang = 2.0 * math.pi * (self.start + self.turns * ts)
            return _plane_circle(self.center.coeffs, self.direction.coeffs, self.radius, ang)
        pts, _, _, fracs = self._polyline
        if fracs is None:
            return np.repeat(pts[:1], len(ts), axis=0)
        out = np.empty((len(ts), pts.shape[1]))
        for c in range(pts.shape[1]):
            out[:, c] = np.interp(ts, fracs, pts[:, c])
        return out

    def endpoints(self) -> np.ndarray:
        """gamma(0) and gamma(1) as a (2, dim) array.  A polyline's are its
        first and last corners; a circle of integer turns is closed, and
        gamma(0) stands for gamma(1) bit for bit, since sin(2*pi*n) is not 0
        in floating point."""
        if self.kind == "polyline":
            return np.stack([self.points[0].coeffs, self.points[-1].coeffs])
        if float(self.turns).is_integer():
            return np.repeat(self.sample([0.0]), 2, axis=0)
        return self.sample([0.0, 1.0])

    def point(self, t: float) -> CDNumber:
        return CDNumber(self.level, self.sample([t])[0])

    def reversed(self) -> "Path":
        """The same points in the opposite order.  Kept for the orientation
        of the integral: reversing the path negates it."""
        if self.kind == "circle":
            return replace(self, start=(self.start + self.turns) % 1.0, turns=-self.turns)
        return Path.polyline(self.points[::-1])

    def subpath(self, a: float, b: float) -> "Path":
        """The restriction to [a, b], reparametrized over [0, 1].  A circle's is
        an arc; a polyline's runs through gamma(a), the corners strictly
        between, and gamma(b), at constant speed as the polyline does.  Kept
        for the additivity of the integral over the pieces of a path."""
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise DomainError("subpath endpoints must lie in [0, 1]")
        if self.kind == "circle":
            return replace(self, start=(self.start + a * self.turns) % 1.0, turns=(b - a) * self.turns)
        pts, _, _, fracs = self._polyline
        inner = [] if fracs is None else pts[(fracs > min(a, b)) & (fracs < max(a, b))]
        ends = self.sample([a, b])
        rows = [ends[0], *(inner if a <= b else inner[::-1]), ends[1]]
        return Path.polyline([CDNumber(self.level, p) for p in rows])

    # -- serialization -------------------------------------------------------

    def to_json(self):
        """The JSON form that ``path_from_json`` and ``--path-file`` read.
        Kept so a path built in Python can be handed to the CLI."""
        if self.kind == "circle":
            if self.start != 0.0:
                raise DomainError("circle arcs with a nonzero start have no JSON form")
            return {
                "kind": "circle",
                "center": [float(v) for v in self.center.coeffs],
                "radius": self.radius,
                "direction": [float(v) for v in self.direction.coeffs],
                "turns": self.turns,
            }
        return {
            "kind": "polyline",
            "points": [[float(v) for v in p.coeffs] for p in self.points],
        }


def _vector_from_json(obj, what: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise DomainError(f"{what} must be a nonempty list of numbers")
    if not all(map(_is_number, obj)):
        raise DomainError(f"{what} must contain only numbers")
    vec = np.array(obj, dtype=np.float64)
    if not np.isfinite(vec).all():
        raise DomainError(f"{what} must be finite")
    d = len(vec)
    if d < 2 or d > 256 or d & (d - 1):
        raise DomainError(f"{what} length {d} is not a power of two in 2..256")
    return vec


def path_from_json(obj, level=None) -> Path:
    """Rebuild a circle or polyline from its JSON object form."""
    if not isinstance(obj, dict):
        raise DomainError("path description must be a JSON object")
    kind = obj.get("kind")
    if kind == "circle":
        center = _vector_from_json(obj.get("center"), "circle center")
        direction = _vector_from_json(obj.get("direction"), "circle direction")
        if len(direction) != len(center):
            raise LevelMismatchError("circle center and direction lengths differ")
        lev = as_level(len(center).bit_length() - 1)
        radius, turns = obj.get("radius"), obj.get("turns", 1.0)
        if not (_is_number(radius) and _is_number(turns)):
            raise DomainError("circle radius and turns must be numbers")
        path = Path.circle(CDNumber._owning(lev, center), radius, CDNumber._owning(lev, direction), turns)
    elif kind == "polyline":
        raw = obj.get("points")
        if not isinstance(raw, (list, tuple)) or len(raw) < 2:
            raise DomainError("polyline needs a list of at least two points")
        vecs = [_vector_from_json(p, "polyline point") for p in raw]
        widths = {len(v) for v in vecs}
        if len(widths) != 1:
            raise LevelMismatchError("polyline points have mixed lengths")
        lev = as_level(len(vecs[0]).bit_length() - 1)
        path = Path.polyline([CDNumber._owning(lev, v) for v in vecs])
    else:
        raise DomainError(f"unknown path kind {kind!r}")
    if level is not None and as_level(level).r != path.level.r:
        raise LevelMismatchError(
            f"path describes level {path.level.r}, expected {as_level(level).r}"
        )
    return path


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """A finite increasing knot sequence 0 = c_0 < ... < c_t = 1.  Kept as
    the paper's partition, whose mesh ``norm`` ``integral_sum`` refines."""

    knots: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=np.float64)
        if knots.ndim != 1 or len(knots) < 2:
            raise DomainError("partition needs at least the two endpoints")
        if knots[0] != 0.0 or knots[-1] != 1.0:
            raise DomainError("partition must start at 0 and end at 1")
        if np.any(np.diff(knots) <= 0.0):
            raise DomainError("partition knots must be strictly increasing")
        knots = knots.copy()
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)

    @property
    def norm(self) -> float:
        return float(np.diff(self.knots).max())

    @staticmethod
    def uniform(n: int) -> "Partition":
        n = int(n)
        if n < 1:
            raise DomainError("partition needs at least one subinterval")
        return Partition(np.linspace(0.0, 1.0, n + 1))


def _on_arc(path: Path, phi):
    """Whether a circle passes through the phases phi (radians, on any branch):
    measured in the direction of travel from the start phase, phi lies within
    the angle the circle spans."""
    ahead = (math.copysign(1.0, path.turns) * (phi - 2.0 * math.pi * path.start)) % (2.0 * math.pi)
    return ahead <= 2.0 * math.pi * abs(path.turns)


def _circle_frame(point: np.ndarray, path: Path) -> tuple:
    """(x, y, p) with c - point = x + y*M + p, for the centre c and direction
    M of a circle: p is the part of the imaginary part orthogonal to M, so
    gamma(phi) - point = (x + rho*cos phi) + (y + rho*sin phi)*M + p."""
    delta = path.center.coeffs - point
    m = path.direction.coeffs
    y = float(delta @ m)
    p = delta - y * m
    p[0] = 0.0
    return float(delta[0]), y, p


def _in_circle_plane(a: np.ndarray, gamma: Path, p: np.ndarray) -> bool:
    """Whether a circle lies in the plane a + span(1, M) of its direction M:
    the part p of c - a off that plane (see ``_circle_frame``) has norm at
    most _PLANE_EPS * (|c| + |a| + 1), the rounding of c - a."""
    c = gamma.center.coeffs
    return math.sqrt(float(p @ p)) <= _PLANE_EPS * (math.sqrt(float(c @ c)) + math.sqrt(float(a @ a)) + 1.0)


def _circle_distance(path: Path, x: float, y: float, perp: float) -> tuple:
    """``distance_range`` of a circle from the frame (x, y, |p|) of
    ``_circle_frame``: the nearest point lies over the polar angle of the
    point's shadow in the plane when the arc passes it, else at an end."""
    rho = path.radius
    planar = math.hypot(x, y)
    far = math.hypot(planar + rho, perp)
    if _on_arc(path, math.atan2(-y, -x)):
        return math.hypot(planar - rho, perp), far
    ends = (2.0 * math.pi * path.start, 2.0 * math.pi * (path.start + path.turns))
    return min(math.hypot(x + rho * math.cos(e), y + rho * math.sin(e), perp) for e in ends), far


def distance_range(point: np.ndarray, path: Path) -> tuple:
    """Least distance from a point (a coefficient array) to the path, and a
    bound on the greatest.

    Closed forms for circles, arcs included, and for polylines.
    """
    if path.kind == "circle":
        x, y, p = _circle_frame(point, path)
        return _circle_distance(path, x, y, math.sqrt(float(p @ p)))
    W = path._polyline[0] - point
    return _polyline_distance(W), float(norm_arrays(W).max())


def _polyline_distance(W: np.ndarray) -> float:
    """The least distance from a point to a polyline, from its corners W
    less the point."""
    a, seg = W[:-1], np.diff(W, axis=0)
    len2 = np.einsum("ij,ij->i", seg, seg)
    t = np.clip(-np.einsum("ij,ij->i", a, seg) / np.where(len2 > 0.0, len2, 1.0), 0.0, 1.0)
    near = a + t[:, None] * seg
    return math.sqrt(float(np.einsum("ij,ij->i", near, near).min()))


def _check_poles(prim: PrimitiveResult, gamma: Path) -> None:
    """PoleError when the path meets a pole centre of the primitive, by the
    rule log_integral applies to its knots: within 1e-13 * scale, scale being
    1 + |centre| + (a bound on) the greatest distance from the centre to the
    path."""
    for center in prim.poles:
        near, far = distance_range(center, gamma)
        if near <= 1e-13 * (1.0 + float(norm_arrays(center)) + far):
            raise PoleError(f"path passes through the pole at {_fmt_const(center)}")


# ---------------------------------------------------------------------------
# quadrature results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureResult:
    value: CDNumber
    est_error: float
    refinements: int
    converged: bool
    # est_error >= tol, but below the rounding floor of a loop that may stop
    # there (see contour._kernel_loop); not part of the report
    at_floor: bool = False

    def to_json(self):
        return {
            "value": [float(v) for v in self.value.coeffs],
            "est_error": float(self.est_error),
            "refinements": int(self.refinements),
            "converged": bool(self.converged),
        }


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------

def total_variation(gamma: Path, partition: Partition) -> float:
    """The length estimate sum |gamma(c_{k+1}) - gamma(c_k)| over a partition.

    Nondecreasing under refinement; converges to the arc length (for a
    circle with turns n: 2*pi*radius*|n|) as the partition norm shrinks.
    Kept as the paper's rectifiability: its bound over all partitions.
    """
    Z = gamma.sample(partition.knots)
    return float(norm_arrays(np.diff(Z, axis=0)).sum())


def _check_levels(f: Phrase, gamma: Path):
    if f.level.r != gamma.level.r:
        raise LevelMismatchError(
            f"phrase level {f.level.r} does not match path level {gamma.level.r}"
        )


def _raw_sum(gamma: Path, in_plane: list, n: int) -> np.ndarray:
    """The midpoint sum of the Ln leaves of a closed circle in their plane,
    over one turn on n knots.  Each (leaf, w0) pair, w0 = x + iy from the
    frame of ``_circle_frame`` about the leaf's centre a, takes the complex
    coordinates w = w0 + rho*e^(i*phi) of gamma - a, phi = 2*pi*(start +
    sign(turns)*t) over one turn, and sums dw/w = 2*pi*i*sign(turns) *
    wave/w dt with wave = rho*e^(i*phi) at the midpoints t_j = (j + 1/2)/n:
    the midpoint rule (2*pi*i*turns/n) * sum_j wave_j / (w0 + wave_j), one
    turn's sum repeated |turns| times, is lifted from S to Re S + Im S * M
    before the leaf's matrix.  The wave is sampled once for all leaves,
    and each ratio is formed in one reused array.  ``_check_poles`` keeps
    every knot off the leaf centres."""
    m = gamma.direction.coeffs
    phi = _TWO_PI * (gamma.start + math.copysign(1.0, gamma.turns) * ((np.arange(n) + 0.5) / n))
    wave = np.empty(n, dtype=np.complex128)
    np.cos(phi, out=wave.real)
    np.sin(phi, out=wave.imag)
    wave *= gamma.radius
    ratio = np.empty_like(wave)
    weight = 1j * _TWO_PI * gamma.turns / n
    total = np.zeros(len(m))
    for leaf, w0 in in_plane:
        np.add(wave, w0, out=ratio)
        np.divide(wave, ratio, out=ratio)
        s = weight * complex(ratio.sum())
        inc = s.imag * m
        inc[0] = s.real
        total += inc @ leaf.matrix
    return total


def _plane_norm(matrix: np.ndarray, m: np.ndarray) -> float:
    """The norm of the matrix on span(1, M): the largest singular value of
    its rows for 1 and M, from their 2 x 2 Gram matrix."""
    a, b = matrix[0], m @ matrix
    top = max(float(np.abs(a).max()), float(np.abs(b).max()))
    if not top > 0.0:
        return 0.0
    a, b = a / top, b / top  # the squares of a matrix scaled by 1e200 overflow
    aa, bb, ab = float(a @ a), float(b @ b), float(a @ b)
    return top * math.sqrt(0.5 * (aa + bb) + math.hypot(0.5 * (aa - bb), ab))


def _closed_in_plane(gamma: Path, in_plane: list, tol: float, max_knots: int) -> QuadratureResult:
    """The Ln leaves of a closed circle in their plane on one midpoint layout,
    sized by its error bound before any sampling.

    Over one turn dw/w = i*wave/(w0 + wave) d(phi) is a geometric series in
    e^(i*phi) with ratio q = min(|w0|/rho, rho/|w0|), and the n-point
    midpoint rule aliases only its multiples of n, so it errs by at most
    2*pi*q^n/(1 - q^n) per turn (Trefethen and Weideman, SIAM Review 56,
    2014).  Each leaf's share, times |turns| and the norm of its matrix on
    span(1, M), adds to the bound, and the knot count doubles from
    START_KNOTS until the bound falls below tol or the next layout would
    pass max_knots.  That one layout is sampled.  ``est_error`` adds the
    rounding of a pairwise sum, (log2 n + 1) * eps per unit of the summed
    term sizes, at most 2*pi*|turns| * rho/|rho - |w0|| a leaf;
    ``converged`` is est_error < tol, and the refinements are log2(n /
    START_KNOTS)."""
    rho, turns = gamma.radius, abs(gamma.turns)
    m = gamma.direction.coeffs
    leaves = []  # (q, the matrix norm on span(1, M), the largest term)
    for leaf, w0 in in_plane:
        a = abs(w0)
        leaves.append((min(a / rho, rho / a) if a else 0.0, _plane_norm(leaf.matrix, m), rho / abs(rho - a)))

    def alias(n: int) -> float:
        return _TWO_PI * turns * sum(scale * q**n / (1.0 - q**n) for q, scale, _ in leaves)

    n, refinements = START_KNOTS, 0
    while not alias(n) < tol and 2 * n <= max_knots:
        n, refinements = 2 * n, refinements + 1
    rounding = n.bit_length() * _EPS * _TWO_PI * turns * sum(scale * top for _, scale, top in leaves)
    est = alias(n) + rounding
    total = _raw_sum(gamma, in_plane, n)
    return QuadratureResult(CDNumber(gamma.level, total), est, refinements, est < tol)


def _row_sum(leaves: list, gamma: Path, knots: np.ndarray) -> np.ndarray:
    """The rows of ``hat_from_primitive`` at z_{k+1} along dz_k = z_{k+1} - z_k,
    summed over the knots: each leaf's increments, then its matrix once, per
    block of at most _ROW_BLOCK_ELEMENTS elements per (block, d) array, so
    memory stays O(block * d) whatever the knot count."""
    r, d = gamma.level.r, gamma.level.basis_dim
    step = max(1, _ROW_BLOCK_ELEMENTS // d)
    total = np.zeros(d)
    try:
        for lo in range(0, len(knots) - 1, step):
            Z = gamma.sample(knots[lo: lo + step + 1])
            H = np.diff(Z, axis=0)
            for leaf in leaves:
                total += leaf.increment(Z[1:], H, r).sum(axis=0) @ leaf.matrix
    except SingularElementError as e:
        raise PoleError(f"path meets a singular point of the integrand: {e}") from e
    return total


def integral_sum(f: Phrase, gamma: Path, partition: Partition) -> CDNumber:
    """The raw right-endpoint increment sum I(f, gamma; P) for one partition.
    Kept as the paper's increment sum, whose limit defines the integral."""
    _check_levels(f, gamma)
    return CDNumber(gamma.level, _row_sum(primitive(f).leaves, gamma, partition.knots))


def _newton_leibniz(leaves: list, gamma: Path) -> tuple:
    """(value, rounding bound) of the power leaves' part of the integral:
    sum (X(gamma(1)) - X(gamma(0))) @ matrix with X = (z - c)^m.  A path
    whose ends are bit-equal, as one closed by construction (see
    ``Path.endpoints``), raises one end to each leaf power and gives X - X:
    0 exactly, with bound 0, or NaN where X overflowed, and the product by
    the matrix still turns an overflowed constant into a non-finite value."""
    r = gamma.level.r
    ends = gamma.endpoints()
    value = np.zeros(gamma.level.basis_dim)
    if np.array_equal(ends[0], ends[1]):
        for leaf in leaves:
            (X,) = pow_arrays(ends[:1] - leaf.center, leaf.power, r)
            value += (X - X) @ leaf.matrix
        return value, 0.0
    bound = 0.0
    for leaf in leaves:
        X = pow_arrays(ends - leaf.center, leaf.power, r)
        value += (X[1] - X[0]) @ leaf.matrix
        bound += (abs(leaf.power) + 1) * float(norm_arrays(X).sum()) * float(np.linalg.norm(leaf.matrix))
    return value, _ROUNDING * bound


def line_integral(
    f: Phrase,
    gamma: Path,
    tol: float = DEFAULT_TOL,
    max_knots: int = MAX_KNOTS,
) -> QuadratureResult:
    """The line integral of f along gamma, by the three routes of the module
    docstring.  ``est_error`` bounds the rounding of the Newton-Leibniz part.
    Knots are taken only for Ln leaves on a closed circle in their plane, by
    the midpoint rule, and ``tol`` and ``max_knots`` act only there.  A
    phrase with no such leaf, as on every arc and polyline, takes no knot
    layout, and reports 0 refinements and ``converged``; otherwise that
    route is certified: one layout sized by the a-priori bound of
    ``_closed_in_plane``, whose refinements and ``converged`` flag are the
    report's, and whose bound adds to ``est_error``.  Non-convergence within
    ``max_knots`` still returns the best value.  A path through a pole
    centre of f (see ``_check_poles``) raises PoleError before any
    sampling.  Leaves are summed in a fixed order, so results are
    bit-reproducible.
    """
    _check_levels(f, gamma)
    prim = primitive(f)
    logs = [leaf for leaf in prim.leaves if leaf.power == 0]
    _check_poles(prim, gamma)
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    value, bound = _newton_leibniz([leaf for leaf in prim.leaves if leaf.power != 0], gamma)
    closed = gamma.kind == "circle" and float(gamma.turns).is_integer()
    in_plane = []
    for leaf in logs:
        if gamma.kind == "polyline":
            value += _polyline_log(leaf.center, gamma, continued=False) @ leaf.matrix
            continue
        if closed:
            x, y, p = _circle_frame(leaf.center, gamma)
            if _in_circle_plane(leaf.center, gamma, p):
                in_plane.append((leaf, complex(x, y)))
                continue
        value += _circle_log(leaf.center, gamma) @ leaf.matrix
    if not in_plane:
        return QuadratureResult(CDNumber(gamma.level, value), bound, 0, True)
    quad = _closed_in_plane(gamma, in_plane, tol, max_knots)
    return replace(quad, value=CDNumber(gamma.level, quad.value.coeffs + value), est_error=quad.est_error + bound)


# ---------------------------------------------------------------------------
# sampled continuation along image curves
# ---------------------------------------------------------------------------

_FIRST_LAYOUT = 128
_MAX_LAYOUT = 1 << 18
_LAYOUT_ELEMENTS = 1 << 22  # knots * d of the largest layout's (knots, d) arrays
_MAX_GAP2 = (math.pi / 2) ** 2
_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# branch-tracked logarithmic integral
# ---------------------------------------------------------------------------

def _branch_step(phi_prev: float, c: float, theta: float) -> tuple:
    """One step of the argument recurrence on plain floats.

    The argument at the previous sample is phi_prev * mu_prev, the next
    sample has polar angle theta in direction mu, and c = <mu_prev, mu>.
    Among the representations (theta + 2*pi*j) * mu the one nearest the
    previous argument has j = round((phi_prev * c - theta) / 2*pi), the
    lattice point nearest the projection, so no winding count is out of
    reach.  Returns (phi, gap^2) with gap = |phi * mu - phi_prev * mu_prev|.
    """
    phi = theta + _TWO_PI * round((phi_prev * c - theta) / _TWO_PI)
    return phi, phi * phi + phi_prev * phi_prev - 2.0 * phi * phi_prev * c


def _branch_prefix(theta: np.ndarray, cosines: np.ndarray) -> tuple:
    """``_branch_step`` over a whole knot batch, up to the first step it rejects.

    A candidate winding count for every knot comes from one cumulative sum:
    the directions are oriented alike by the signs of the cosines, so the
    signed angles unwrap as on a plane.  Every step is then rechecked with
    ``_branch_step``'s own float operations, which give phi_k bit for bit
    whenever the step from phi_(k-1) rounds to the candidate count and its
    gap stays below pi/2.  Returns the arguments of every knot and the index
    of the first knot that fails (len(theta) when none does); the arguments
    from that knot on are candidates, which the caller replaces by
    continuing one step at a time.
    """
    sign = np.concatenate([[1.0], np.cumprod(np.where(cosines < 0.0, -1.0, 1.0))])
    alpha = sign * theta
    wind = sign * np.concatenate([[0.0], np.cumsum(np.round((alpha[:-1] - alpha[1:]) / _TWO_PI))])
    phi = theta + _TWO_PI * wind
    prev, nxt = phi[:-1], phi[1:]
    steps = np.round((prev * cosines - theta[1:]) / _TWO_PI)
    gap2 = nxt * nxt + prev * prev - 2.0 * nxt * prev * cosines
    bad = np.flatnonzero((steps != wind[1:]) | ~(gap2 < _MAX_GAP2))
    return phi, int(bad[0]) + 1 if len(bad) else len(theta)


def _check_log_center(a: np.ndarray, near: float, far: float) -> None:
    """PoleError when the least distance ``near`` from the logarithm centre a
    to the path is within 1e-13 * (1 + |a| + far), ``far`` bounding the
    greatest."""
    if near <= 1e-13 * (1.0 + math.sqrt(float(a @ a)) + far):
        raise PoleError("path passes through the logarithm center")


def _log_parts(W: np.ndarray) -> tuple:
    """(rho, theta, y, mu) of points W less a logarithm centre: their norms,
    principal angles, imaginary norms and unit imaginary directions, with
    the e1 convention of exactly real points (see ``_split_parts``)."""
    v, y, mu = _split_parts(W)
    return np.hypot(v, y), np.arctan2(y, v), y, mu


def _carried(mu: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The directions mu of points in path order, each numerically real one
    (live false) taking that of the last live point before it; those ahead
    of the first live point borrow its, and all keep point 0's if none is."""
    if live.all():
        return mu
    first = int(np.argmax(live))
    return mu[np.maximum.accumulate(np.where(live, np.arange(len(mu)), first))]


def _circle_log(a: np.ndarray, gamma: Path) -> np.ndarray:
    """The integral of d Ln(z - a) along a circle or arc, in closed form.

    With c - a = x + y*M + p (see ``_circle_frame``), gamma(phi) - a has
    real part x + rho*cos phi and imaginary part (y + rho*sin phi)*M + p.
    When ``_in_circle_plane`` holds, the circle lies in a + span(1, M),
    where Ln is the complex logarithm of zeta(phi) = (x + i*y) + rho*e^(i*phi):
    the value is the change of arg zeta times M plus ln|zeta_1| - ln|zeta_0|.
    From outside the circle zeta subtends less than pi, so the change is
    the principal angle from zeta_0 to zeta_1.  From inside, arg zeta turns
    with phi: each whole turn adds 2*pi, and the remainder arc adds its
    principal angle, plus 2*pi when it sweeps more than pi, that is when the
    point lies in the segment cut off by the arc's chord.  Near a sweep of
    pi, where that test and the principal angle can round apart, the sign
    of the principal angle decides instead.  Off the plane Im(gamma - a)
    never vanishes, so the principal Ln is continuous along the circle and
    the value is its change.  A circle of integer turns is closed, and
    gamma(0) stands for gamma(1) (see ``Path.endpoints``).
    """
    x, y, p = _circle_frame(a, gamma)
    perp = math.sqrt(float(p @ p))
    _check_log_center(a, *_circle_distance(gamma, x, y, perp))
    rho, turns, m = gamma.radius, gamma.turns, gamma.direction.coeffs
    phi0 = _TWO_PI * gamma.start
    phi1 = phi0 if float(turns).is_integer() else _TWO_PI * (gamma.start + turns)
    re0, im0 = x + rho * math.cos(phi0), y + rho * math.sin(phi0)
    re1, im1 = x + rho * math.cos(phi1), y + rho * math.sin(phi1)
    n0, n1 = math.hypot(im0, perp), math.hypot(im1, perp)  # |Im(gamma - a)| at the ends
    if _in_circle_plane(a, gamma, p):
        turn = math.atan2(re0 * im1 - im0 * re1, re0 * re1 + im0 * im1)
        if math.hypot(x, y) < rho:
            frac, whole = math.modf(abs(turns))
            sense = math.copysign(1.0, turns)
            if abs(turn) > 0.5 * math.pi:
                more = sense * turn < 0.0
            else:
                mid = phi0 + sense * math.pi * frac
                more = -(x * math.cos(mid) + y * math.sin(mid)) > rho * math.cos(math.pi * frac)
            turn += sense * _TWO_PI * (whole + more)
            if not math.isfinite(turn):
                raise DomainError(f"the loop integral of a circle of {turns:g} turns overflows")
        out = turn * m
    else:
        t0, t1 = math.atan2(n0, re0) / n0, math.atan2(n1, re1) / n1
        out = (t1 * im1 - t0 * im0) * m + (t1 - t0) * p
    out[0] = math.log(math.hypot(re1, n1)) - math.log(math.hypot(re0, n0))
    return out


def _polyline_log(a: np.ndarray, gamma: Path, continued: bool = True) -> np.ndarray:
    """The integral of d Ln(z - a) along a polyline, in closed form.

    The corners W_k = P_k - a have principal polar parts rho_k, theta_k and
    mu_k.  As on sampled knots, a numerically real corner takes the
    direction of the last non-real corner before it, real corners ahead of
    the first non-real one borrow its direction, and a real corner counts
    as lying in every plane through the real line.  A segment whose
    non-real ends have imaginary parts along one unit u, up to
    _PLANE_EPS * (|P_k| + |a| + 1), lies in a + span(1, u): there the
    argument, measured along u, turns by atan2(cross, dot) of the ends'
    complex coordinates.  On any other segment Im(z - a) never vanishes, so
    the principal Ln is continuous there and the argument turns by
    theta_(k+1) - theta_k while its direction moves from mu_k to mu_(k+1).

    ``continued``: the argument phi * direction is carried from segment to
    segment by ``_branch_step``, and a change of plane at a real corner
    whose argument is not 0 raises StepControlError.  Otherwise each
    segment adds its own change of Ln, as the increment sums of
    ``dln_arrays`` do (it takes the principal angle at every point), so no
    winding in one plane is carried onto a segment off it.
    """
    pts = gamma._polyline[0]
    W = pts - a
    rho, theta, y, mu = _log_parts(W)
    _check_log_center(a, _polyline_distance(W), float(rho.max()))
    live = ~numerically_real(y, rho)
    mu = _carried(mu, live)
    im = W.copy()
    im[:, 0] = 0.0
    # u: the direction of the non-real end with the larger imaginary part,
    # or the carried direction on a segment with no non-real end
    l0, l1 = live[:-1], live[1:]
    u = np.where((l1 & (~l0 | (y[1:] >= y[:-1])))[:, None], mu[1:], mu[:-1])
    y0, y1 = np.einsum("ij,ij->i", im[:-1], u), np.einsum("ij,ij->i", im[1:], u)
    tol = _PLANE_EPS * (np.sqrt(np.einsum("ij,ij->i", pts, pts)) + math.sqrt(float(a @ a)) + 1.0)
    off0, off1 = im[:-1] - y0[:, None] * u, im[1:] - y1[:, None] * u  # the parts of Im W_k off u
    planar = (~l0 | (np.einsum("ij,ij->i", off0, off0) <= tol[:-1] ** 2)) & (
        ~l1 | (np.einsum("ij,ij->i", off1, off1) <= tol[1:] ** 2)
    )
    re0, re1 = W[:-1, 0], W[1:, 0]
    sweep = np.where(planar, np.arctan2(re0 * y1 - y0 * re1, re0 * re1 + y0 * y1), theta[1:] - theta[:-1])
    if not continued:
        turns = np.where(planar[:, None], sweep[:, None] * u, theta[1:, None] * mu[1:] - theta[:-1, None] * mu[:-1])
        out = turns.sum(axis=0)
        out[0] = math.log(rho[-1]) - math.log(rho[0])
        return out
    start = np.where(planar, np.arctan2(y0, re0), theta[:-1])
    leave = np.where(planar[:, None], u, mu[1:])
    cosines = np.einsum("ij,ij->i", np.concatenate([mu[:1], leave[:-1]]), np.where(planar[:, None], u, mu[:-1]))
    phi = float(theta[0])
    for c, s, t in zip(cosines.tolist(), start.tolist(), sweep.tolist()):
        phi, gap2 = _branch_step(phi, c, s)
        if not gap2 < _MAX_GAP2:
            raise StepControlError(
                "argument continuation failed: the path changes plane at a real point with a nonzero argument"
            )
        phi += t
    out = phi * leave[-1] - float(theta[0]) * mu[0]
    out[0] = math.log(rho[-1]) - math.log(rho[0])
    return out


def _sampled_log(c: np.ndarray, sample: Callable, speed: Optional[tuple] = None) -> np.ndarray:
    """The integral of d Ln(z - c) along the curve t in [0, 1] -> sample(t),
    over nested knot layouts whose steps are halved.  ``sample`` maps a knot
    array to its (K, d) points; ``argument_principle`` hands in each image
    t -> f(gamma(t)) it indexes.

    On each layout a numerically real knot, whose representations (theta +
    2*pi*j) * mu are the same set for mu and -mu, takes the direction of the
    last non-real knot before it (``_carried``).  The argument phi_k * mu_k
    is continued by ``_branch_step`` from the cosines <mu_(k-1), mu_k>:
    ``_branch_prefix`` takes the steps at once up to the first it rejects,
    and the rest run one at a time.  A step whose argument moves by pi/2 or
    more is handed back to be halved, with the candidate steps after it
    that also do.  Only the midpoints of halved steps are sampled.  A knot
    whose point is not finite, as where an image overflows, is a
    DomainError.  Past _MAX_LAYOUT knots, or _LAYOUT_ELEMENTS elements, or
    at a step one ulp wide, StepControlError.

    Certified curves.  ``speed`` = (rate, peak) certifies the layouts of a
    curve W = sample - c whose speed is at most rate * max|W| (Bernstein's
    inequality, for the image of a phrase of degree D on a circle of T
    turns: rate = 2*pi*D*|T|).  ``peak`` bounds max|W|, or is None when the
    knots cover a whole turn: then max|W| <= max_k |W_k| / (1 - rate*h/2)
    over steps of at most h, as no point of the circle lies more than
    rate*h/2 / D radians from a knot.  Over a step of width h from knot k
    the curve stays within h*B of W_k, B = rate * max|W|, so its angle
    turns by less than h*B / (|W_k| - h*B); the step is certified when that
    is below pi/2.  From _FIRST_LAYOUT knots the steps that fail, and then
    any that the continuation hands back, are halved, and the first layout
    with none left is continued and its value returned.

    Uncertified curves (``speed`` None) are accepted when two layouts agree.
    The steps the continuation hands back are halved while they are at most
    an eighth of the steps, as where the curve passes close to c; otherwise
    every step is halved and no earlier layout is compared.  A continued
    layout is compared at its knots with the one that halves each of its
    steps: when the two differ by less than pi/2 at every such knot, the
    finer one's value is returned, else every step is halved again.  The
    first pair is _FIRST_LAYOUT against 2 * _FIRST_LAYOUT knots, sampled
    and split once.  Aliasing alike on both layouts passes unseen: the
    image of z*(z - 3)^-1 on 1000.5 turns of the unit circle reads -23.5
    turns about 0.
    """
    cap = min(_MAX_LAYOUT, _LAYOUT_ELEMENTS // len(c))

    def split(ts):
        W = sample(ts)
        if not np.isfinite(W).all():
            raise DomainError("the path leaves the range of a double at a knot")
        return _log_parts(W - c)

    def failing(t, rho):
        """The steps of the layout t that the speed bound does not certify."""
        _check_log_center(c, float(rho.min()), float(rho.max()))
        rate, peak = speed
        h = np.diff(t)
        if peak is None:
            reach = 0.5 * rate * float(h.max())
            if not reach < 1.0:
                return np.arange(len(h))
            peak = float(rho.max()) / (1.0 - reach)
        return np.flatnonzero(~(h * (rate * (2.0 + math.pi)) < math.pi * (rho[:-1] / peak)))

    def continued(rho, theta, y, mu):
        """(phi, the carried mu, the steps to halve) of one layout, with no
        step to halve when every one turns by less than pi/2."""
        _check_log_center(c, float(rho.min()), float(rho.max()))
        mu = _carried(mu, ~numerically_real(y, rho))
        cosines = np.einsum("ij,ij->i", mu[:-1], mu[1:])
        phi, done = _branch_prefix(theta, cosines)
        for k in range(done, len(phi)):
            phi[k], gap2 = _branch_step(float(phi[k - 1]), float(cosines[k - 1]), float(theta[k]))
            if not gap2 < _MAX_GAP2:  # with the candidate steps past k that fail too
                gaps = phi[1:] * phi[1:] + phi[:-1] * phi[:-1] - 2.0 * phi[1:] * phi[:-1] * cosines
                return phi, mu, np.union1d(np.flatnonzero(~(gaps < _MAX_GAP2)), k - 1)
        return phi, mu, ()

    t = np.linspace(0.0, 1.0, (_FIRST_LAYOUT if speed else 2 * _FIRST_LAYOUT) + 1)
    P = split(t)
    prev = None  # (knots, phi * mu) of the last continued layout, uncertified curves only
    if speed is None:
        phi, mu, halve = continued(*[p[::2] for p in P])
        if not len(halve):
            prev = (t[::2], phi[:, None] * mu)
    while True:
        halve = failing(t, P[0]) if speed else ()
        if not len(halve):
            phi, mu, halve = continued(*P)
            if not len(halve):
                args = phi[:, None] * mu
                if speed or prev is not None and np.all(
                        norm_arrays(args[np.searchsorted(t, prev[0])] - prev[1]) < 0.5 * math.pi):
                    out = phi[-1] * mu[-1] - P[1][0] * mu[0]
                    out[0] = float(np.log(P[0][-1])) - float(np.log(P[0][0]))
                    return out
                prev, halve = (t, args), np.arange(len(t) - 1)
            elif not speed and len(halve) > len(t) // 8:
                prev, halve = None, np.arange(len(t) - 1)
        mid = 0.5 * (t[halve] + t[halve + 1])
        if len(t) + len(halve) > cap + 1 or np.any((mid <= t[halve]) | (mid >= t[halve + 1])):
            raise StepControlError(f"the path winds faster than {cap} knots resolve")
        t = np.insert(t, halve + 1, mid)
        P = [np.insert(p, halve + 1, q, axis=0) for p, q in zip(P, split(mid))]


def log_integral(center: CDNumber, gamma: Path) -> CDNumber:
    """The integral of the logarithmic differential d(Ln(z - center)) along gamma.

    Branch-tracked telescoping: the value is Ln at the endpoint minus Ln at
    the start, with the argument continued along the path.  For a closed
    circle of ``turns`` n and direction M about the center this is exactly
    2*pi*n*M; for a loop that does not enclose the center it is 0.  It
    takes no tolerance.  A path that passes within 1e-13 * (1 + |center| +
    (a bound on) max|gamma - center|) of the center raises PoleError.

    Circles, arcs included, and polylines take closed forms on scalars and
    (d,) arrays (see ``_circle_log`` and ``_polyline_log``), so their cost
    and memory do not grow with the number of turns, and closed ones give
    exactly 0 about a point they do not wind around.  No knot is sampled;
    the argument principle's image curves, which are not paths, take
    ``_sampled_log``.
    """
    if center.level.r != gamma.level.r:
        raise LevelMismatchError("center level does not match path level")
    if gamma.kind == "circle":
        out = _circle_log(center.coeffs, gamma)
    else:
        out = _polyline_log(center.coeffs, gamma)
    return CDNumber(gamma.level, out)
