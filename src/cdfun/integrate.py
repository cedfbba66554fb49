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
summed increments) @ (its matrix).  ``line_integral`` takes four routes:

* a power leaf (z - c)^m is C^1 off its centre, so its increments sum to
  (gamma(1) - c)^m - (gamma(0) - c)^m, the paper's Newton-Leibniz formula;
* an Ln leaf on a polyline takes the closed form of ``_polyline_log``
  segment by segment, and one on a circle off the plane c + span(1, M)
  through its centre c that of ``_circle_log``;
* an Ln leaf on a circle in that plane (``_in_circle_plane``) sums
  dw_k / w_{k+1} over the knots in complex coordinates w of z - c, on (N,)
  arrays, and lifts the sum S to Re S + Im S * M before its matrix.  This
  route stays only because the benchmark's knot-capped job pins its
  ``converged: false``;
* an Ln leaf on a parametric path sums its increments on the (N, d) knots
  (``_row_sum``), since ``_doubled`` cannot tell a path that aliases alike
  on two layouts.

Knots are taken only by those last two routes.

``integral_sum``, the paper's raw increment sum on one partition, is
``_row_sum`` over every leaf.  The knot routes of ``line_integral`` double
the knot count from 64 and combine the raw sums by Richardson
extrapolation: the right-endpoint error expands in integer powers of 1/N,
so the tableau

    T[j][m] = T[j][m-1] + (T[j][m-1] - T[j-1][m-1]) / (2^m - 1)

strips the O(1/N) tail that plain doubling would chase far past any
practical knot budget.  ``est_error`` is the difference of the last two
tableau diagonals, the extrapolated analogue of |I_2N - I_N|.

The N-knot layout of both routes (``_offset_knots``) is the midpoint
offsets (k + 1/2)/N over [0, 1] plus both endpoints, so refinement never
parks a sample exactly on a logarithm cut or a pole that the path merely
grazes.

``log_integral``, the loop integral of d Ln(z - a) behind the index and
the argument principle, continues the argument along the path: in closed
form on circles, arcs and polylines, and on parametric paths over the
layouts of ``_doubled``, the one sampling rule of this package's
parametric paths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import EPS_ZERO, AlgebraLevel, CDNumber, as_level, norm_arrays, pow_arrays
from .errors import (
    DomainError,
    LevelMismatchError,
    PoleError,
    SingularElementError,
    StepControlError,
)
from .expressions import Phrase, PrimitiveResult, _fmt_const, _is_number, primitive
from .transcendental import _split_parts, numerically_real

DEFAULT_TOL = 1e-6
START_KNOTS = 64
MAX_KNOTS = 1 << 20

_DIRECTION_TOL = 1e-9

#: The in-plane tolerance of ``_in_circle_plane`` and ``_polyline_log``,
#: relative to the rounding of p - c.
_PLANE_EPS = 16.0 * np.finfo(float).eps

#: The rounding bound of a closed-form power leaf, per unit of
#: (|m| + 1) * (|X(gamma(0))| + |X(gamma(1))|) * |matrix|_F.
_ROUNDING = 8.0 * np.finfo(float).eps

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
    to arc length.  A parametric path wraps a batch sampler ts -> (K, d).
    """

    level: AlgebraLevel
    kind: str
    center: Optional[CDNumber] = None
    radius: float = 0.0
    direction: Optional[CDNumber] = None
    turns: float = 1.0
    start: float = 0.0
    points: tuple = ()
    sampler: Optional[Callable[[np.ndarray], np.ndarray]] = None

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

    @staticmethod
    def parametric(level, sampler: Callable[[float], CDNumber]) -> "Path":
        """The path t -> sampler(t), called once per parameter."""
        lev = as_level(level)
        if not callable(sampler):
            raise DomainError("parametric path needs a callable sampler")

        def batch(ts: np.ndarray) -> np.ndarray:
            rows = []
            for t in ts:
                p = sampler(float(t))
                if not isinstance(p, CDNumber) or p.level.r != lev.r:
                    raise DomainError("parametric sampler must return elements of the declared level")
                rows.append(p.coeffs)
            return np.stack(rows)

        return Path(level=lev, kind="parametric", sampler=batch)

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
        if self.kind == "polyline":
            pts, _, _, fracs = self._polyline
            if fracs is None:
                return np.repeat(pts[:1], len(ts), axis=0)
            out = np.empty((len(ts), pts.shape[1]))
            for c in range(pts.shape[1]):
                out[:, c] = np.interp(ts, fracs, pts[:, c])
            return out
        return np.asarray(self.sampler(ts), dtype=np.float64)

    def endpoints(self) -> np.ndarray:
        """gamma(0) and gamma(1) as a (2, dim) array.  A polyline's are its
        first and last corners; a circle of integer turns is closed, and
        gamma(0) stands for gamma(1) bit for bit, since sin(2*pi*n) is not 0
        in floating point."""
        if self.kind == "polyline":
            return np.stack([self.points[0].coeffs, self.points[-1].coeffs])
        if self.kind == "circle" and float(self.turns).is_integer():
            return np.repeat(self.sample([0.0]), 2, axis=0)
        return self.sample([0.0, 1.0])

    def point(self, t: float) -> CDNumber:
        return CDNumber(self.level, self.sample([t])[0])

    def reversed(self) -> "Path":
        """The same points in the opposite order.  Kept for the orientation
        of the integral: reversing the path negates it."""
        if self.kind == "circle":
            return replace(self, start=(self.start + self.turns) % 1.0, turns=-self.turns)
        if self.kind == "polyline":
            return Path.polyline(self.points[::-1])
        return self._reparametrized(1.0, 0.0)

    def subpath(self, a: float, b: float) -> "Path":
        """The restriction to [a, b], reparametrized over [0, 1].  A circle's is
        an arc; a polyline's runs through gamma(a), the corners strictly
        between, and gamma(b), at constant speed as the polyline does.  Kept
        for the additivity of the integral over the pieces of a path."""
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise DomainError("subpath endpoints must lie in [0, 1]")
        if self.kind == "circle":
            return replace(self, start=(self.start + a * self.turns) % 1.0, turns=(b - a) * self.turns)
        if self.kind == "polyline":
            pts, _, _, fracs = self._polyline
            inner = [] if fracs is None else pts[(fracs > min(a, b)) & (fracs < max(a, b))]
            ends = self.sample([a, b])
            rows = [ends[0], *(inner if a <= b else inner[::-1]), ends[1]]
            return Path.polyline([CDNumber(self.level, p) for p in rows])
        return self._reparametrized(a, b)

    def _reparametrized(self, a: float, b: float) -> "Path":
        """The parametric path t -> self(a + (b - a) * t)."""
        return Path(level=self.level, kind="parametric", sampler=lambda ts: self.sample(a + (b - a) * ts))

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
        if self.kind == "polyline":
            return {
                "kind": "polyline",
                "points": [[float(v) for v in p.coeffs] for p in self.points],
            }
        raise DomainError("parametric paths have no JSON form")


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

    Closed forms for circles, arcs included, and for polylines.  A
    parametric path is sampled on the 4096-knot layout of ``_doubled``
    (4097 points), which can only overstate the least distance.
    """
    if path.kind == "circle":
        x, y, p = _circle_frame(point, path)
        return _circle_distance(path, x, y, math.sqrt(float(p @ p)))
    if path.kind == "polyline":
        W = path._polyline[0] - point
        return _polyline_distance(W), float(norm_arrays(W).max())
    rho = norm_arrays(path.sample(_layout(4096)) - point)
    return float(rho.min()), float(rho.max())


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


def _offset_knots(n: int) -> np.ndarray:
    """The n-knot layout of the knot routes: (k + 1/2)/n and both endpoints."""
    inner = (np.arange(n) + 0.5) / n
    return np.concatenate([[0.0], inner, [1.0]])


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


def _raw_sum(gamma: Path, in_plane: list, knots: np.ndarray) -> np.ndarray:
    """The increment sum of the Ln leaves of a circle in their plane on one
    knot layout.  Each (leaf, w0) pair, w0 = x + iy from the frame of
    ``_circle_frame`` about the leaf's centre a, sums dw_k / w_{k+1} over the
    complex coordinates w = w0 + rho*e^(i*phi) of gamma - a, with
    phi = 2*pi*(start + turns*t), and lifts the sum S to Re S + Im S * M
    before the leaf's matrix.  The term rho*e^(i*phi) is sampled once for
    all leaves."""
    m = gamma.direction.coeffs
    wave = gamma.radius * np.exp(2j * math.pi * (gamma.start + gamma.turns * knots))
    total = np.zeros(len(m))
    for leaf, w0 in in_plane:
        w = w0 + wave
        if np.any(np.abs(w[1:]) <= EPS_ZERO):
            raise PoleError("path meets a singular point of the integrand at a knot on a leaf centre")
        s = complex((np.diff(w) / w[1:]).sum())
        inc = s.imag * m
        inc[0] = s.real
        total += inc @ leaf.matrix
    return total


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


def _extrapolated(
    raw: Callable[[int], np.ndarray],
    level: AlgebraLevel,
    tol: float,
    max_knots: int,
) -> QuadratureResult:
    """Richardson-extrapolated knot doubling of one raw sum.

    ``raw(n)`` returns the (d,) increment sum on the n-knot layout.  Each
    doubling adds a row to the tableau, and the doubling stops at the first
    refinement whose ``est < tol``, or unconverged with the last diagonal
    when the next layout would exceed ``max_knots``.
    """
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    n, refinements, est = START_KNOTS, 0, math.inf
    prev_row = [raw(n)]
    while not est < tol and 2 * n <= max_knots:
        n, refinements = 2 * n, refinements + 1
        row = [raw(n)]
        for m in range(len(prev_row)):
            row.append(row[m] + (row[m] - prev_row[m]) / (2.0 ** (m + 1) - 1.0))
        est = float(norm_arrays(row[-1] - prev_row[-1]))
        prev_row = row
    return QuadratureResult(CDNumber(level, prev_row[-1]), est, refinements, est < tol)


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
    """The line integral of f along gamma, by the four routes of the module
    docstring.  ``est_error`` bounds the rounding of the Newton-Leibniz part.
    Knots are taken only for Ln leaves on a circle in their plane and on
    parametric paths, and ``tol`` and ``max_knots`` act only there.  A
    phrase with no such leaf takes no knot layout, and reports 0
    refinements and ``converged``; otherwise the knot doubling's
    refinements and ``converged`` flag are the report's, and its error
    estimate adds to ``est_error``.  Non-convergence within ``max_knots``
    still returns the best value.  A path through a pole centre of f (see
    ``_check_poles``) raises PoleError before any sampling.  Leaves are
    summed in a fixed order, so results are bit-reproducible.
    """
    _check_levels(f, gamma)
    prim = primitive(f)
    _check_poles(prim, gamma)
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    logs = [leaf for leaf in prim.leaves if leaf.power == 0]
    value, bound = _newton_leibniz([leaf for leaf in prim.leaves if leaf.power != 0], gamma)
    if gamma.kind == "parametric":
        raw = lambda n: _row_sum(logs, gamma, _offset_knots(n))
    else:
        in_plane = []
        for leaf in logs:
            if gamma.kind == "polyline":
                value += _polyline_log(leaf.center, gamma, continued=False) @ leaf.matrix
                continue
            x, y, p = _circle_frame(leaf.center, gamma)
            if _in_circle_plane(leaf.center, gamma, p):
                in_plane.append((leaf, complex(x, y)))
            else:
                value += _circle_log(leaf.center, gamma) @ leaf.matrix
        logs = in_plane
        raw = lambda n: _raw_sum(gamma, in_plane, _offset_knots(n))
    if not logs:
        return QuadratureResult(CDNumber(gamma.level, value), bound, 0, True)
    quad = _extrapolated(raw, gamma.level, tol, max_knots)
    return replace(quad, value=CDNumber(gamma.level, quad.value.coeffs + value), est_error=quad.est_error + bound)


# ---------------------------------------------------------------------------
# sampled continuation along parametric paths
# ---------------------------------------------------------------------------

_FIRST_LAYOUT = 128
_MAX_LAYOUT = 1 << 18
_LAYOUT_ELEMENTS = 1 << 22  # knots * d of the largest layout's (knots, d) arrays
_MAX_GAP2 = (math.pi / 2) ** 2
_TWO_PI = 2.0 * math.pi


def _layout(n: int) -> np.ndarray:
    """The n + 1 knots np.linspace(0, 1, n + 1) of the n-knot layout."""
    return np.linspace(0.0, 1.0, n + 1)


def _doubled(gamma: Path, parts: Callable, continued: Callable):
    """An angle continuation along a path, by halving the steps of nested
    knot layouts.

    ``parts(Z)`` splits the points Z into arrays with one row per knot, and
    ``continued(*parts)`` gives (args, value), one row of args per knot, or
    the indices k of the steps, from knot k to k + 1, that turn pi/2 or
    more.  Those steps are halved, and only their midpoints sampled, while
    they are at most an eighth of the steps, as where the path passes
    close to the centre; otherwise every step is halved and no earlier
    layout is compared.  A continued layout is compared at its knots with
    the one that halves each of its steps: when the two differ by less
    than pi/2 at every such knot, the finer one's value is returned, else
    every step is halved again.  The first pair is _FIRST_LAYOUT against
    2 * _FIRST_LAYOUT knots, sampled and split once.  A knot whose point
    is not finite, as where an image path overflows, is a DomainError.  Past
    _MAX_LAYOUT knots, or _LAYOUT_ELEMENTS elements, or at a step one ulp
    wide, StepControlError.  Aliasing alike on both layouts passes unseen:
    a parametric circle of 1000 turns steps 8 - 3/16 turns per knot of 128,
    and reads -24.
    """
    def sampled(ts):
        Z = gamma.sample(ts)
        if not np.isfinite(Z).all():
            raise DomainError("the path leaves the range of a double at a knot")
        return parts(Z)

    cap = min(_MAX_LAYOUT, _LAYOUT_ELEMENTS // gamma.level.basis_dim)
    t = _layout(2 * _FIRST_LAYOUT)
    P = sampled(t)
    prev = continued(*[p[::2] for p in P])
    prev = (t[::2], prev[0]) if isinstance(prev, tuple) else None
    while True:
        out = continued(*P)
        if isinstance(out, tuple):
            if prev is not None and np.all(norm_arrays(out[0][np.searchsorted(t, prev[0])] - prev[1]) < 0.5 * math.pi):
                return out[1]
            prev, out = (t, out[0]), np.arange(len(t) - 1)
        elif len(out) > len(t) // 8:
            prev, out = None, np.arange(len(t) - 1)
        mid = 0.5 * (t[out] + t[out + 1])
        if len(t) + len(out) > cap + 1 or np.any((mid <= t[out]) | (mid >= t[out + 1])):
            raise StepControlError(f"the path winds faster than {cap} knots resolve")
        t = np.insert(t, out + 1, mid)
        P = [np.insert(p, out + 1, q, axis=0) for p, q in zip(P, sampled(mid))]


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


def _sampled_log(c: np.ndarray, gamma: Path) -> np.ndarray:
    """The integral of d Ln(z - c) along a parametric path, over the layouts
    of ``_doubled``.  On each layout a numerically real knot, whose
    representations (theta + 2*pi*j) * mu are the same set for mu and -mu,
    takes the direction of the last non-real knot before it (``_carried``).
    The argument phi_k * mu_k is continued by ``_branch_step`` from the
    cosines <mu_(k-1), mu_k>: ``_branch_prefix`` takes the steps at once up
    to the first it rejects, and the rest run one at a time.  A step whose
    argument moves by pi/2 or more is handed back to be halved, with the
    candidate steps after it that also do."""
    def continued(rho, theta, y, mu):
        _check_log_center(c, float(rho.min()), float(rho.max()))
        mu = _carried(mu, ~numerically_real(y, rho))
        cosines = np.einsum("ij,ij->i", mu[:-1], mu[1:])
        phi, done = _branch_prefix(theta, cosines)
        for k in range(done, len(phi)):
            phi[k], gap2 = _branch_step(float(phi[k - 1]), float(cosines[k - 1]), float(theta[k]))
            if not gap2 < _MAX_GAP2:  # with the candidate steps past k that fail too
                gaps = phi[1:] * phi[1:] + phi[:-1] * phi[:-1] - 2.0 * phi[1:] * phi[:-1] * cosines
                return np.union1d(np.flatnonzero(~(gaps < _MAX_GAP2)), k - 1)
        out = phi[-1] * mu[-1] - theta[0] * mu[0]
        out[0] = float(np.log(rho[-1])) - float(np.log(rho[0]))
        return phi[:, None] * mu, out

    return _doubled(gamma, lambda Z: _log_parts(Z - c), continued)


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
    exactly 0 about a point they do not wind around.  Only parametric paths
    are sampled (``_sampled_log``), on the doubling knot layouts of
    ``_doubled``, which cannot detect a path that aliases alike on two
    layouts.
    """
    if center.level.r != gamma.level.r:
        raise LevelMismatchError("center level does not match path level")
    if gamma.kind == "circle":
        out = _circle_log(center.coeffs, gamma)
    elif gamma.kind == "polyline":
        out = _polyline_log(center.coeffs, gamma)
    else:
        out = _sampled_log(center.coeffs, gamma)
    return CDNumber(gamma.level, out)
