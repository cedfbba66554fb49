"""The paper's increment sums, and the path operations only tests use.

The paper defines the integral of a phrase f along a path gamma as the limit
of increment sums  I(f, gamma; P) = sum_k fhat(z_{k+1}).(dz_k)  over
refining partitions P: each increment dz_k = gamma(c_{k+1}) - gamma(c_k) is
pushed through the increment functional of a primitive of f, evaluated at
the *right* endpoint of the step.  cdfun computes every integral from
closed forms or on one certified knot layout, so these sums live here, as
the reference that the tests hold the closed forms to.

``integral_sum`` is ``row_sum`` over every leaf of the primitive, on any
path: each leaf's increments ``Leaf.increment`` (the rows of
``hat_from_primitive``) are summed over knot blocks of at most
ROW_BLOCK_ELEMENTS array elements, then multiplied by the leaf's matrix
once.  ``point``, ``reversed_path`` and ``subpath`` build the points,
reversals and pieces of a path that the orientation and additivity tests
compare; a circle's reversal and pieces are arcs, built with
``dataclasses.replace``.
"""

from dataclasses import dataclass, replace

import numpy as np

from cdfun.algebra import CDNumber, norm_arrays
from cdfun.errors import DomainError, LevelMismatchError, PoleError, SingularElementError
from cdfun.expressions import Phrase, primitive
from cdfun.integrate import Path

#: The most elements of one (knots, d) array of a row sum.
ROW_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class Partition:
    """A finite increasing knot sequence 0 = c_0 < ... < c_t = 1, whose mesh
    is ``norm``."""

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


def total_variation(gamma: Path, partition: Partition) -> float:
    """The length estimate sum |gamma(c_{k+1}) - gamma(c_k)| over a partition.

    Nondecreasing under refinement; converges to the arc length (for a
    circle with turns n: 2*pi*radius*|n|) as the partition norm shrinks.
    """
    Z = gamma.sample(partition.knots)
    return float(norm_arrays(np.diff(Z, axis=0)).sum())


def row_sum(leaves: list, gamma: Path, knots: np.ndarray) -> np.ndarray:
    """The rows of ``hat_from_primitive`` at z_{k+1} along dz_k = z_{k+1} - z_k,
    summed over the knots: each leaf's increments, then its matrix once, per
    block of at most ROW_BLOCK_ELEMENTS elements per (block, d) array, so
    memory stays O(block * d) whatever the knot count.  A knot on a
    singular point of a leaf raises PoleError."""
    r, d = gamma.level.r, gamma.level.basis_dim
    step = max(1, ROW_BLOCK_ELEMENTS // d)
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
    """The raw right-endpoint increment sum I(f, gamma; P) for one partition."""
    if f.level.r != gamma.level.r:
        raise LevelMismatchError(f"phrase level {f.level.r} does not match path level {gamma.level.r}")
    return CDNumber(gamma.level, row_sum(primitive(f).leaves, gamma, partition.knots))


def point(gamma: Path, t: float) -> CDNumber:
    """gamma(t) as an element."""
    return CDNumber(gamma.level, gamma.sample([t])[0])


def reversed_path(gamma: Path) -> Path:
    """The same points in the opposite order: reversing the path negates
    its integral."""
    if gamma.kind == "circle":
        return replace(gamma, start=(gamma.start + gamma.turns) % 1.0, turns=-gamma.turns)
    return Path.polyline(gamma.points[::-1])


def subpath(gamma: Path, a: float, b: float) -> Path:
    """The restriction to [a, b], reparametrized over [0, 1].  A circle's is
    an arc; a polyline's runs through gamma(a), the corners strictly
    between, and gamma(b), at constant speed as the polyline does."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise DomainError("subpath endpoints must lie in [0, 1]")
    if gamma.kind == "circle":
        return replace(gamma, start=(gamma.start + a * gamma.turns) % 1.0, turns=(b - a) * gamma.turns)
    pts, _, _, fracs = gamma._polyline
    inner = [] if fracs is None else pts[(fracs > min(a, b)) & (fracs < max(a, b))]
    ends = gamma.sample([a, b])
    rows = [ends[0], *(inner if a <= b else inner[::-1]), ends[1]]
    return Path.polyline([CDNumber(gamma.level, p) for p in rows])
