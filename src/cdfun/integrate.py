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
summed increments) @ (its matrix).  A power leaf is C^1 off its centre, so
its increments sum to (gamma(1) - c)^m - (gamma(0) - c)^m: ``line_integral``
takes that closed form, the paper's Newton-Leibniz formula, and takes knot
layouts only for the Ln leaves.

A raw sum takes each leaf's increments at all knots of a layout, adds them
up, and applies the leaf's matrix once: per layout, the constants cost one
vector-matrix product per leaf, whatever the knot count.  When the path
lies in one plane c + span(1, M) through a leaf's centre c
(``Path.plane_coordinates``, decided once per integral on the path's
defining points), the algebra on that plane is the complex numbers: the
leaf's sum is taken in complex coordinates w of z - c on (N,) arrays, as
sum m*w_{k+1}^(m-1)*dw_k for a power m or dw_k / w_{k+1} for Ln, and its
value S is lifted to Re S + Im S * M before the matrix.  The paper's loop
integrals over circles in span(1, M) all take this plane route; other
leaves difference the (N, d) knots, which are sampled only if some leaf
needs them.

``integral_sum`` exposes the raw sum over every leaf for a caller-supplied
partition.  ``line_integral`` (over its Ln leaves) and ``stieltjes_integral``
double the knot count starting from 64 and combine the raw sums by
Richardson extrapolation: the right-endpoint error expands in integer
powers of 1/N, so the tableau

    T[j][m] = T[j][m-1] + (T[j][m-1] - T[j-1][m-1]) / (2^m - 1)

strips the O(1/N) tail that plain doubling would chase far past any
practical knot budget.  ``est_error`` is the difference of the last two
tableau diagonals, the extrapolated analogue of |I_2N - I_N|.

Knots are placed at segment midpoint offsets (k + 1/2)/N plus both
endpoints, so refinement never parks a sample exactly on a logarithm cut
or a pole that the path merely grazes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .algebra import EPS_ZERO, AlgebraLevel, CDNumber, as_level, norm_arrays, pow_arrays
from .errors import (
    DomainError,
    LevelMismatchError,
    PoleError,
    SingularElementError,
    StepControlError,
)
from .expressions import (
    Phrase,
    PrimitiveResult,
    VarPow,
    _fmt_const,
    _is_number,
    eval_node_arrays,
    primitive,
)
from .transcendental import _ln_with_parts, numerically_real

DEFAULT_TOL = 1e-6
START_KNOTS = 64
MAX_KNOTS = 1 << 20

_DIRECTION_TOL = 1e-9

#: The in-plane tolerance of Path.plane_coordinates, relative to the
#: rounding of p - c.
_PLANE_EPS = 16.0 * np.finfo(float).eps

#: The rounding bound of a closed-form power leaf, per unit of
#: (|m| + 1) * (|X(gamma(0))| + |X(gamma(1))|) * |matrix|_F.
_ROUNDING = 8.0 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def _unit_imaginary(m: CDNumber, what: str) -> CDNumber:
    """m as an exact unit pure imaginary; a DomainError naming `what` when
    its real part or its imaginary norm is off by more than _DIRECTION_TOL."""
    im = m.imag()
    n = im.norm()
    if abs(m.re) > _DIRECTION_TOL or abs(n - 1.0) > _DIRECTION_TOL:
        raise DomainError(f"{what} must be a unit pure-imaginary element")
    unit = np.array(im.coeffs / n)
    unit[0] = 0.0
    return CDNumber(m.level, unit)


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

    def plane_coordinates(self, c: np.ndarray) -> Optional[tuple]:
        """(M, sampler) when the path lies in the plane c + span(1, M) for a
        unit imaginary M, where sampler(ts) gives the complex coordinates
        x + iy of gamma(t) - c = x + y*M; None otherwise, and always for a
        parametric path.

        The test runs on the defining points, a circle's centre or a
        polyline's corners: a point p is in the plane when the part of
        Im(p - c) orthogonal to M has norm at most _PLANE_EPS * (|p| + |c| + 1),
        the rounding of p - c.  A circle's M is its direction; a polyline's is
        the direction of its corner farthest from the real line through c, or
        e1 when every corner lies on that line.
        """
        if self.kind == "circle":
            pts, m = self.center.coeffs[None, :], self.direction.coeffs
        elif self.kind == "polyline":
            pts = self._polyline[0]
            im = pts[:, 1:] - c[1:]
            far = im[np.argmax(norm_arrays(im))]
            m = np.zeros(len(c))
            if np.any(far):
                m[1:] = far / np.linalg.norm(far)
            else:
                m[1] = 1.0
        else:
            return None
        rel = pts - c
        y = rel @ m
        off = norm_arrays(rel[:, 1:] - y[:, None] * m[1:])
        if np.any(off > _PLANE_EPS * (norm_arrays(pts) + float(np.linalg.norm(c)) + 1.0)):
            return None
        w = rel[:, 0] + 1j * y
        if self.kind == "circle":
            start, turns, radius = self.start, self.turns, self.radius
            return m, lambda ts: w[0] + radius * np.exp(2j * math.pi * (start + turns * ts))
        fracs = self._polyline[3]
        if fracs is None:
            return m, lambda ts: np.full(len(ts), w[0])
        return m, lambda ts: np.interp(ts, fracs, w)

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
        """The same points in the opposite order."""
        if self.kind == "circle":
            return replace(self, start=(self.start + self.turns) % 1.0, turns=-self.turns)
        if self.kind == "polyline":
            return Path.polyline(self.points[::-1])
        return self._reparametrized(1.0, 0.0)

    def subpath(self, a: float, b: float) -> "Path":
        """The restriction to [a, b], reparametrized over [0, 1]."""
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise DomainError("subpath endpoints must lie in [0, 1]")
        if self.kind == "circle":
            return replace(self, start=(self.start + a * self.turns) % 1.0, turns=(b - a) * self.turns)
        return self._reparametrized(a, b)

    def _reparametrized(self, a: float, b: float) -> "Path":
        """The parametric path t -> self(a + (b - a) * t)."""
        return Path(level=self.level, kind="parametric", sampler=lambda ts: self.sample(a + (b - a) * ts))

    # -- serialization -------------------------------------------------------

    def to_json(self):
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
    vec = np.asarray([float(v) for v in obj], dtype=np.float64)
    if not np.all(np.isfinite(vec)):
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
        r = len(center).bit_length() - 1
        radius, turns = obj.get("radius"), obj.get("turns", 1.0)
        if not (_is_number(radius) and _is_number(turns)):
            raise DomainError("circle radius and turns must be numbers")
        path = Path.circle(CDNumber(r, center), radius, CDNumber(r, direction), turns)
    elif kind == "polyline":
        raw = obj.get("points")
        if not isinstance(raw, (list, tuple)) or len(raw) < 2:
            raise DomainError("polyline needs a list of at least two points")
        vecs = [_vector_from_json(p, "polyline point") for p in raw]
        widths = {len(v) for v in vecs}
        if len(widths) != 1:
            raise LevelMismatchError("polyline points have mixed lengths")
        r = len(vecs[0]).bit_length() - 1
        path = Path.polyline([CDNumber(r, v) for v in vecs])
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
    """A finite increasing knot sequence 0 = c_0 < ... < c_t = 1."""

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


def distance_range(point: np.ndarray, path: Path) -> tuple:
    """Least distance from a point (a coefficient array) to the path, and a
    bound on the greatest.

    Closed forms for circles, arcs included, and for polylines; parametric
    paths are sampled at 4097 knots, which can only overstate the least
    distance.
    """
    if path.kind == "circle":
        w = point - path.center.coeffs
        x, y = float(w[0]), float(np.dot(w, path.direction.coeffs))
        planar = math.hypot(x, y)
        perp = math.sqrt(max(float(np.dot(w[1:], w[1:])) - y * y, 0.0))
        far = math.hypot(planar + path.radius, perp)
        # the polar angle of the point's shadow in the plane, measured in the
        # direction of travel from the start phase, against the angle the arc spans
        phase = math.atan2(y, x) - 2.0 * math.pi * path.start
        ahead = (math.copysign(1.0, path.turns) * phase) % (2.0 * math.pi)
        if ahead <= 2.0 * math.pi * abs(path.turns):
            return math.hypot(planar - path.radius, perp), far
        return float(norm_arrays(path.sample([0.0, 1.0]) - point).min()), far
    if path.kind == "polyline":
        pts = path._polyline[0] - point
        a, seg = pts[:-1], np.diff(pts, axis=0)
        len2 = np.einsum("ij,ij->i", seg, seg)
        t = np.clip(-np.einsum("ij,ij->i", a, seg) / np.where(len2 > 0.0, len2, 1.0), 0.0, 1.0)
        near = norm_arrays(a + t[:, None] * seg)
        return float(near.min()), float(norm_arrays(pts).max())
    rho = norm_arrays(path.sample(np.linspace(0.0, 1.0, 4097)) - point)
    return float(rho.min()), float(rho.max())


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
    inner = (np.arange(n) + 0.5) / n
    return np.concatenate([[0.0], inner, [1.0]])


def _polyline_base_counts(path: Path, start: int) -> np.ndarray:
    _, seg, total, fracs = path._polyline
    if fracs is None:
        return np.zeros(len(seg), dtype=np.int64)
    w = seg / total
    counts = 2 * np.maximum(1, np.round(w * start / 2.0).astype(np.int64))
    counts[seg <= 0.0] = 0
    return counts


def _start_knots(path: Path, base: int, cap: int) -> int:
    """base, raised on circles to 8 knots per turn so that no knot step turns
    the angle by more than pi/4; StepControlError, before any sampling, above cap."""
    n = max(base, 8 * math.ceil(abs(path.turns))) if path.kind == "circle" else base
    if n > cap:
        raise StepControlError(f"a circle of {path.turns:g} turns needs {n} knots, over the cap of {cap}")
    return n


def _quadrature_knots(path: Path, n: int) -> np.ndarray:
    """Internal knot layout for n-knot refinement of a path.

    Circles and parametric paths use midpoint offsets over [0, 1]; polyline
    corners are always knots, with each segment carrying an even sample
    count proportional to its share of the arc length.  Counts are derived
    from the START_KNOTS layout and scaled, so successive doublings refine
    every segment by exactly 2 (a requirement of the extrapolation tableau).
    """
    if path.kind != "polyline":
        return _offset_knots(n)
    factor, rem = divmod(n, START_KNOTS)
    if factor < 1 or rem:
        raise DomainError("polyline knot counts must be multiples of the base count")
    counts = _polyline_base_counts(path, START_KNOTS) * factor
    _, seg, _, fracs = path._polyline
    if fracs is None:
        return np.array([0.0, 1.0])
    knots = [0.0, 1.0] + [float(f) for f in fracs[1:-1]]
    for i, c in enumerate(counts):
        if c <= 0 or seg[i] <= 0.0:
            continue
        lo, hi = fracs[i], fracs[i + 1]
        knots.extend(lo + (hi - lo) * (np.arange(c) + 0.5) / c)
    return np.unique(np.asarray(knots, dtype=np.float64))


# ---------------------------------------------------------------------------
# quadrature results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureResult:
    value: CDNumber
    est_error: float
    refinements: int
    converged: bool

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
    """
    Z = gamma.sample(partition.knots)
    return float(norm_arrays(np.diff(Z, axis=0)).sum())


def _check_levels(f: Phrase, gamma: Path):
    if f.level.r != gamma.level.r:
        raise LevelMismatchError(
            f"phrase level {f.level.r} does not match path level {gamma.level.r}"
        )


def _leaf_planes(prim: PrimitiveResult, gamma: Path) -> list:
    """For each leaf, the path's ``plane_coordinates`` about the leaf's centre
    (shared by leaves with one centre), or None."""
    planes: dict = {}
    for leaf in prim.leaves:
        key = leaf.center.tobytes()
        if key not in planes:
            planes[key] = gamma.plane_coordinates(leaf.center)
    return [planes[leaf.center.tobytes()] for leaf in prim.leaves]


def _plane_leaf_sum(w: np.ndarray, power: int) -> complex:
    """A leaf's increments summed over the knots in complex coordinates w of
    z - c: m*w_{k+1}^(m-1)*dw_k for a power m, dw_k / w_{k+1} for Ln (m = 0)."""
    w1, dw = w[1:], np.diff(w)
    if power <= 0 and np.any(np.abs(w1) <= EPS_ZERO):
        raise PoleError("path meets a singular point of the integrand at a knot on a leaf centre")
    if power == 0:
        return complex((dw / w1).sum())
    return power * complex((w1 ** (power - 1) * dw).sum())


def _raw_sum(
    prim: PrimitiveResult,
    gamma: Path,
    knots: np.ndarray,
    planes: list,
    q: Optional[Phrase] = None,
) -> np.ndarray:
    """The increment sum on one knot layout.  A leaf whose entry in ``planes``
    (see ``_leaf_planes``) is not None sums in complex coordinates of its
    plane and lifts the sum S to Re S + Im S * M; the others take their
    increments on the (N, d) knots, sampled only if some leaf needs them."""
    r = gamma.level.r
    total = np.zeros(gamma.level.basis_dim)
    Z = H = None
    coords: dict = {}
    # each leaf's words are linear in its increment, so sum the increments
    # over the knots first and apply the leaf's matrix once
    try:
        for leaf, plane in zip(prim.leaves, planes):
            if plane is None:
                if Z is None:
                    Z = gamma.sample(knots)
                    H = np.diff(Z if q is None else eval_node_arrays(q.root, Z, r), axis=0)
                inc = leaf.increment(Z[1:], H, r).sum(axis=0)
            else:
                m, sampler = plane
                if id(plane) not in coords:
                    coords[id(plane)] = sampler(knots)
                s = _plane_leaf_sum(coords[id(plane)], leaf.power)
                inc = s.imag * m
                inc[0] = s.real
            total += inc @ leaf.matrix
    except SingularElementError as e:
        raise PoleError(f"path meets a singular point of the integrand: {e}") from e
    return total


def integral_sum(f: Phrase, gamma: Path, partition: Partition) -> CDNumber:
    """The raw right-endpoint increment sum I(f, gamma; P) for one partition."""
    _check_levels(f, gamma)
    prim = primitive(f)
    return CDNumber(gamma.level, _raw_sum(prim, gamma, partition.knots, _leaf_planes(prim, gamma)))


def _extrapolated(
    raw: Callable[[int], np.ndarray],
    level: AlgebraLevel,
    tol: float,
    max_knots: int,
) -> List[QuadratureResult]:
    """Richardson-extrapolated knot doubling of a stack of K raw sums.

    ``raw(n)`` returns the (K, d) stack of increment sums on the n-knot
    layout, so every row shares one sampling of the path.  Each row runs
    the same tableau and the same ``est < tol`` rule on its own and keeps
    the result of its own first converged refinement; the doubling goes on
    while any row is open.  Rows still open when the next layout would
    exceed ``max_knots`` come back unconverged with their last diagonal.
    The tableau is elementwise, so a row's result is bit-identical to a
    run of that row alone.
    """
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    n = START_KNOTS
    prev_row = None
    refinements = 0
    while True:
        row = [raw(n)]
        if prev_row is None:
            done: List[Optional[QuadratureResult]] = [None] * len(row[0])
            est = [math.inf] * len(done)
        else:
            for m in range(len(prev_row)):
                row.append(row[m] + (row[m] - prev_row[m]) / (2.0 ** (m + 1) - 1.0))
            est = norm_arrays(row[-1] - prev_row[-1]).tolist()
            for i, e in enumerate(est):
                if e < tol and done[i] is None:
                    done[i] = QuadratureResult(CDNumber(level, row[-1][i]), e, refinements, True)
            if None not in done:
                return done
        prev_row = row
        if 2 * n > max_knots:
            return [
                res if res is not None else QuadratureResult(CDNumber(level, row[-1][i]), est[i], refinements, False)
                for i, res in enumerate(done)
            ]
        n *= 2
        refinements += 1


def _newton_leibniz(leaves: list, gamma: Path) -> tuple:
    """(value, rounding bound) of the power leaves' part of the integral:
    sum (X(gamma(1)) - X(gamma(0))) @ matrix with X = (z - c)^m.  A path
    closed by construction (see ``Path.endpoints``) gives X - X = 0 exactly,
    with bound 0, and the product by the matrix still turns an overflowed
    constant into a non-finite value."""
    r = gamma.level.r
    ends = gamma.endpoints()
    value = np.zeros(gamma.level.basis_dim)
    bound = 0.0
    for leaf in leaves:
        X = pow_arrays(ends - leaf.center, leaf.power, r)
        value += (X[1] - X[0]) @ leaf.matrix
        bound += (abs(leaf.power) + 1) * float(norm_arrays(X).sum()) * float(np.linalg.norm(leaf.matrix))
    return value, 0.0 if np.array_equal(ends[0], ends[1]) else _ROUNDING * bound


def line_integral(
    f: Phrase,
    gamma: Path,
    tol: float = DEFAULT_TOL,
    max_knots: int = MAX_KNOTS,
) -> QuadratureResult:
    """The line integral of f along gamma: in closed form over the power
    leaves of its primitive, by extrapolated knot doubling over its Ln leaves.

    A power leaf (z - c)^m is C^1 off its centre, so its increments sum to
    (gamma(1) - c)^m - (gamma(0) - c)^m: the paper's Newton-Leibniz formula,
    exact on closed paths.  ``est_error`` bounds the rounding of that part.
    A phrase with no Ln leaf takes no knot layout, and reports 0 refinements
    and ``converged``.  The Ln leaves' increments sum along the path by knot
    doubling; their refinements, ``converged`` flag and error estimate are
    the report's, the estimate plus the rounding bound.

    A path through a pole centre of f (see ``_check_poles``) raises
    PoleError before any sampling.  Non-convergence within ``max_knots`` is
    reported through the ``converged`` flag; the best value and its error
    estimate are still returned.  Each refinement sums every Ln leaf's
    increments over all its knots and applies one matrix per leaf, in a
    fixed order, so results are bit-reproducible.  Which leaves take the
    plane route (see the module docstring) is decided once, before the first
    layout: a circle or polyline lying in c + span(1, M) for a leaf's centre
    c sums that leaf in complex arithmetic on (N,) arrays, so such a path
    needs O(N) memory per layout at every level.
    """
    _check_levels(f, gamma)
    prim = primitive(f)
    _check_poles(prim, gamma)
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    logs = replace(prim, leaves=[leaf for leaf in prim.leaves if leaf.power == 0])
    value, bound = _newton_leibniz([leaf for leaf in prim.leaves if leaf.power != 0], gamma)
    if not logs.leaves:
        return QuadratureResult(CDNumber(gamma.level, value), bound, 0, True)
    planes = _leaf_planes(logs, gamma)
    quad = _extrapolated(
        lambda n: _raw_sum(logs, gamma, _quadrature_knots(gamma, n), planes)[None], gamma.level, tol, max_knots
    )[0]
    return replace(quad, value=CDNumber(gamma.level, quad.value.coeffs + value), est_error=quad.est_error + bound)


def stieltjes_integral(
    f: Phrase,
    q: Phrase,
    gamma: Path,
    tol: float = DEFAULT_TOL,
    max_knots: int = MAX_KNOTS,
) -> QuadratureResult:
    """The integral of f against increments of the integrator phrase q.

    Steps use dq_k = q(gamma(c_{k+1})) - q(gamma(c_k)) in place of dz_k;
    with q = "z" this reduces exactly to ``line_integral``.
    """
    _check_levels(f, gamma)
    _check_levels(q, gamma)
    if isinstance(q.root, VarPow) and not q.root.conjugated and q.root.power == 1:
        return line_integral(f, gamma, tol, max_knots)
    prim = primitive(f)
    _check_poles(prim, gamma)
    planes = [None] * len(prim.leaves)
    return _extrapolated(
        lambda n: _raw_sum(prim, gamma, _quadrature_knots(gamma, n), planes, q=q)[None],
        gamma.level,
        tol,
        max_knots,
    )[0]


# ---------------------------------------------------------------------------
# branch-tracked logarithmic integral
# ---------------------------------------------------------------------------

_MAX_BISECT = 48
_MAX_GAP2 = (math.pi / 2) ** 2
_TWO_PI = 2.0 * math.pi


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
    gap stays below pi/2.  Returns the continued arguments and the index of
    the first knot that fails (len(theta) when none does); the caller
    continues from there one step at a time.
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


def log_integral(center: CDNumber, gamma: Path, tol: float = DEFAULT_TOL) -> CDNumber:
    """The integral of the logarithmic differential d(Ln(z - center)) along gamma.

    Branch-tracked telescoping: the value is Ln at the endpoint minus Ln at
    the start, with the argument continued along the path.  For a closed
    circle of ``turns`` n and direction M about the center this is exactly
    2*pi*n*M; for a loop that does not enclose the center it is 0.  The
    result is exact up to rounding once continuation succeeds; ``tol`` is
    accepted for interface symmetry with the other integrators.

    The knot batch has 256 knots, and 8 per turn on circles of more turns.
    One polar split of the whole batch gives rho, theta and the unit
    imaginary direction mu of every knot.  A numerically real knot has theta
    in {0, pi}, whose representations (theta + 2*pi*j) * mu are the same set
    for mu and -mu, so it takes the direction of the last non-real knot
    before it (one forward fill); real knots ahead of the first non-real one
    borrow its direction.  The argument at knot k is then phi_k * mu_k with
    phi_k a plain float, continued by ``_branch_step`` from the cosines
    <mu_(k-1), mu_k>, all computed in one pass.  ``_branch_prefix`` takes
    every step of the batch at once, up to the first one it rejects, and
    the steps from there run one at a time.  A step whose argument moves
    by pi/2 or more is bisected along the path with the same step rule.
    """
    if center.level.r != gamma.level.r:
        raise LevelMismatchError("center level does not match path level")
    del tol
    knots = _quadrature_knots(gamma, _start_knots(gamma, 4 * START_KNOTS, MAX_KNOTS))
    c = center.coeffs
    Z = gamma.sample(knots) - c[None, :]
    rho = norm_arrays(Z)
    scale = 1.0 + float(center.norm()) + float(rho.max(initial=0.0))
    if float(rho.min(initial=math.inf)) <= 1e-13 * scale:
        raise PoleError("path passes through the logarithm center")

    def polar(w: np.ndarray, mu_prev: np.ndarray) -> tuple:
        try:
            _, rho_w, theta_w, mu_w = _ln_with_parts(w)
        except SingularElementError as e:
            raise PoleError("path passes through the logarithm center") from e
        return float(theta_w), mu_prev if numerically_real(norm_arrays(w[1:]), rho_w) else mu_w

    def advance(phi_prev, mu_prev, theta, mu, t0, t1, depth):
        phi, gap2 = _branch_step(phi_prev, float(np.dot(mu_prev, mu)), theta)
        if gap2 < _MAX_GAP2:
            return phi
        if depth >= _MAX_BISECT:
            raise StepControlError(
                "argument continuation failed: path wraps the center faster than refinement can resolve"
            )
        tm = (t0 + t1) / 2.0
        theta_m, mu_m = polar(gamma.sample([tm])[0] - c, mu_prev)
        mid = advance(phi_prev, mu_prev, theta_m, mu_m, t0, tm, depth + 1)
        return advance(mid, mu_m, theta, mu, tm, t1, depth + 1)

    _, _, theta, mu = _ln_with_parts(Z)  # rho > 1e-13 here, so never singular
    live = ~numerically_real(norm_arrays(Z[:, 1:]), rho)
    first = int(np.argmax(live))  # 0 when no knot is live: all keep knot 0's direction
    mu = mu[np.maximum.accumulate(np.where(live, np.arange(len(Z)), first))]
    cosines = np.einsum("ij,ij->i", mu[:-1], mu[1:])
    phis, done = _branch_prefix(theta, cosines)
    phi = float(phis[done - 1])
    thetas, cosines = theta.tolist(), cosines.tolist()
    for k in range(done, len(thetas)):
        nxt, gap2 = _branch_step(phi, cosines[k - 1], thetas[k])
        if gap2 >= _MAX_GAP2:
            nxt = advance(phi, mu[k - 1], thetas[k], mu[k], float(knots[k - 1]), float(knots[k]), 0)
        phi = nxt
    out = phi * mu[-1] - thetas[0] * mu[0]
    out[0] = float(np.log(rho[-1])) - float(np.log(rho[0]))
    return CDNumber(gamma.level, out)
