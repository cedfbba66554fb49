"""Rectifiable paths and the noncommutative line integral.

The integral of a phrase f along a path gamma is the limit of increment
sums  I(f, gamma; P) = sum_k fhat(z_{k+1}).(dz_k)  over refining
partitions P: each increment dz_k = gamma(c_{k+1}) - gamma(c_k) is pushed
through the increment functional of a primitive of f, evaluated at the
*right* endpoint of the step.  In a noncommutative algebra the endpoint
convention matters at first order, so it is fixed once and for all here.

``integral_sum`` exposes the raw sum for a caller-supplied partition.
``line_integral`` doubles the knot count starting from 64 and combines the
raw sums by Richardson extrapolation: the right-endpoint error expands in
integer powers of 1/N, so the tableau

    T[j][m] = T[j][m-1] + (T[j][m-1] - T[j-1][m-1]) / (2^m - 1)

strips the O(1/N) tail that plain doubling would chase far past any
practical knot budget.  ``est_error`` is the difference of the last two
tableau diagonals, the extrapolated analogue of |I_2N - I_N|.

Knots are placed at segment midpoint offsets (k + 1/2)/N plus both
endpoints, so refinement never parks a sample exactly on a logarithm cut
or a pole that the path merely grazes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .algebra import AlgebraLevel, CDNumber, as_level, norm_arrays
from .errors import (
    DomainError,
    LevelMismatchError,
    PoleError,
    SingularElementError,
    StepControlError,
)
from .expressions import Phrase, PrimitiveResult, _fmt_const, eval_node_arrays, hat_from_primitive, primitive
from .transcendental import _ln_with_parts, exp_arrays, numerically_real

DEFAULT_TOL = 1e-6
START_KNOTS = 64
MAX_KNOTS = 1 << 20

_DIRECTION_TOL = 1e-9


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Path:
    """A rectifiable path t in [0, 1] -> A_r.

    Circles are sampled as center + radius * exp(2*pi*t*turns * direction);
    ``turns`` may be any real number, the path is closed iff it is an
    integer.  Polylines run through their corner list at constant speed
    with respect to arc length.  Parametric paths wrap an arbitrary
    continuous sampler.
    """

    level: AlgebraLevel
    kind: str
    center: Optional[CDNumber] = None
    radius: float = 0.0
    direction: Optional[CDNumber] = None
    turns: float = 1.0
    points: tuple = ()
    sampler: Optional[Callable[[float], CDNumber]] = None
    # vectorized sampler used internally (reparametrizations of built-in
    # kinds); user-supplied parametric paths sample point by point
    batch_sampler: Optional[Callable[[np.ndarray], np.ndarray]] = None

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
        im = direction.imag()
        n = im.norm()
        if abs(direction.re) > _DIRECTION_TOL or abs(n - 1.0) > _DIRECTION_TOL:
            raise DomainError("circle direction must be a unit pure-imaginary element")
        unit = np.array(im.coeffs / n)
        unit[0] = 0.0
        return Path(
            level=center.level,
            kind="circle",
            center=center,
            radius=radius,
            direction=CDNumber(center.level, unit),
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
        lev = as_level(level)
        if not callable(sampler):
            raise DomainError("parametric path needs a callable sampler")
        return Path(level=lev, kind="parametric", sampler=sampler)

    # -- geometry ------------------------------------------------------------

    def sample(self, ts) -> np.ndarray:
        """Points gamma(t) for an array of parameters, as an (K, dim) array."""
        ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        if self.kind == "circle":
            ang = 2.0 * math.pi * self.turns * ts
            arg = ang[:, None] * self.direction.coeffs[None, :]
            return self.center.coeffs[None, :] + self.radius * exp_arrays(arg)
        if self.kind == "polyline":
            pts = np.stack([p.coeffs for p in self.points])
            seg = norm_arrays(np.diff(pts, axis=0))
            total = float(seg.sum())
            if total <= 0.0:
                return np.repeat(pts[:1], len(ts), axis=0)
            fracs = np.concatenate([[0.0], np.cumsum(seg) / total])
            fracs[-1] = 1.0
            out = np.empty((len(ts), pts.shape[1]))
            for c in range(pts.shape[1]):
                out[:, c] = np.interp(ts, fracs, pts[:, c])
            return out
        if self.batch_sampler is not None:
            return np.asarray(self.batch_sampler(ts), dtype=np.float64)
        rows = []
        for t in ts:
            p = self.sampler(float(t))
            if not isinstance(p, CDNumber) or p.level.r != self.level.r:
                raise DomainError("parametric sampler must return elements of the declared level")
            rows.append(p.coeffs)
        return np.stack(rows)

    def point(self, t: float) -> CDNumber:
        return CDNumber(self.level, self.sample([t])[0])

    def reversed(self) -> "Path":
        """The same points in the opposite order.  A closed circle stays a
        circle of negated turns; an arc would mirror, so it is traversed
        back from its end instead."""
        if self.kind == "circle":
            if float(self.turns).is_integer():
                return Path.circle(self.center, self.radius, self.direction, -self.turns)
            return self.subpath(1.0, 0.0)
        if self.kind == "polyline":
            return Path.polyline(self.points[::-1])
        sampler = self.sampler
        batch = self.batch_sampler
        return Path(
            level=self.level,
            kind="parametric",
            sampler=lambda t: sampler(1.0 - t),
            batch_sampler=None
            if batch is None
            else (lambda ts: self.sample(1.0 - np.asarray(ts, dtype=np.float64))),
        )

    def subpath(self, a: float, b: float) -> "Path":
        """The restriction to [a, b], reparametrized over [0, 1]."""
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise DomainError("subpath endpoints must lie in [0, 1]")
        return Path(
            level=self.level,
            kind="parametric",
            sampler=lambda t: self.point(a + (b - a) * t),
            batch_sampler=lambda ts: self.sample(a + (b - a) * np.asarray(ts, dtype=np.float64)),
        )

    # -- serialization -------------------------------------------------------

    def to_json(self):
        if self.kind == "circle":
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
    try:
        vec = np.asarray([float(v) for v in obj], dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise DomainError(f"{what} must contain only numbers") from e
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
        try:
            radius = float(obj.get("radius"))
            turns = float(obj.get("turns", 1.0))
        except (TypeError, ValueError) as e:
            raise DomainError("circle radius and turns must be numbers") from e
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
        # direction of travel from the start, against the angle the arc spans
        ahead = math.atan2(math.copysign(1.0, path.turns) * y, x) % (2.0 * math.pi)
        if ahead <= 2.0 * math.pi * abs(path.turns):
            return math.hypot(planar - path.radius, perp), far
        return float(norm_arrays(path.sample([0.0, 1.0]) - point).min()), far
    if path.kind == "polyline":
        pts = np.stack([p.coeffs for p in path.points]) - point
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
    pts = np.stack([p.coeffs for p in path.points])
    seg = norm_arrays(np.diff(pts, axis=0))
    total = float(seg.sum())
    if total <= 0.0:
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
    pts = np.stack([p.coeffs for p in path.points])
    seg = norm_arrays(np.diff(pts, axis=0))
    total = float(seg.sum())
    if total <= 0.0:
        return np.array([0.0, 1.0])
    fracs = np.concatenate([[0.0], np.cumsum(seg) / total])
    fracs[-1] = 1.0
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


def _raw_sum(prim: PrimitiveResult, gamma: Path, knots: np.ndarray, q: Optional[Phrase] = None) -> np.ndarray:
    Z = gamma.sample(knots)
    if q is not None:
        Q = eval_node_arrays(q.root, Z, gamma.level.r)
    else:
        Q = Z
    H = np.diff(Q, axis=0)
    try:
        vals = hat_from_primitive(prim, Z[1:], H)
    except SingularElementError as e:
        raise PoleError(f"path meets a singular point of the integrand: {e}") from e
    return vals.sum(axis=0)


def integral_sum(f: Phrase, gamma: Path, partition: Partition) -> CDNumber:
    """The raw right-endpoint increment sum I(f, gamma; P) for one partition."""
    _check_levels(f, gamma)
    prim = primitive(f)
    return CDNumber(gamma.level, _raw_sum(prim, gamma, partition.knots))


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


def line_integral(
    f: Phrase,
    gamma: Path,
    tol: float = DEFAULT_TOL,
    max_knots: int = MAX_KNOTS,
) -> QuadratureResult:
    """The line integral of f along gamma by extrapolated knot doubling.

    A path through a pole centre of f (see ``_check_poles``) raises
    PoleError before any sampling.  Non-convergence within ``max_knots`` is
    reported through the ``converged`` flag; the best value and its error
    estimate are still returned.  Evaluation at all knots of one refinement
    happens as a single array operation, and the reduction order is fixed,
    so results are bit-reproducible.
    """
    _check_levels(f, gamma)
    prim = primitive(f)
    _check_poles(prim, gamma)
    return _extrapolated(lambda n: _raw_sum(prim, gamma, _quadrature_knots(gamma, n))[None], gamma.level, tol, max_knots)[0]


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
    prim = primitive(f)
    _check_poles(prim, gamma)
    return _extrapolated(
        lambda n: _raw_sum(prim, gamma, _quadrature_knots(gamma, n), q=q)[None],
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
    <mu_(k-1), mu_k>, all computed in one pass.  A step whose argument moves
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
    cosines = np.einsum("ij,ij->i", mu[:-1], mu[1:]).tolist()
    thetas = theta.tolist()
    phi = thetas[0]
    for k in range(1, len(thetas)):
        nxt, gap2 = _branch_step(phi, cosines[k - 1], thetas[k])
        if gap2 >= _MAX_GAP2:
            nxt = advance(phi, mu[k - 1], thetas[k], mu[k], float(knots[k - 1]), float(knots[k]), 0)
        phi = nxt
    out = phi * mu[-1] - thetas[0] * mu[0]
    out[0] = float(np.log(rho[-1])) - float(np.log(rho[0]))
    return CDNumber(gamma.level, out)
