"""Cayley-Dickson algebra arithmetic for levels r = 1..8.

An element of the level-r algebra is a dense vector of 2**r real coefficients
over the basis e0 = 1, e1, ..., e_{D-1}.  Level r doubles level r-1: writing
z = (a, b) for the two coefficient halves,

    (a, b) (c, d) = (a c - d~ b,  d a + b c~)          (~ = conjugation)

which yields C, H, O, S, ... for r = 1, 2, 3, 4, ...  The second half of the
basis is the first half times the doubling unit, so basis products satisfy

    e_a e_b = sigma(a, b) e_{a XOR b},   sigma(a, b) in {+1, -1},

and every product reads one cached signed gather index per level
(BasisTable.right) into the doubled operand [v, -v].
Batched operations work on numpy arrays whose last axis has length 2**r; the
CDNumber class is a thin immutable wrapper for single elements.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LevelMismatchError, SingularElementError

MAX_LEVEL = 8

#: |z| at or below this is treated as exactly zero for inversion purposes,
#: so effectively only the true zero element is singular; conditioning of
#: nearly-zero inverses is the caller's concern.
EPS_ZERO = 1e-300


@dataclass(frozen=True)
class AlgebraLevel:
    """Doubling level r; the algebra has basis_dim = 2**r real dimensions."""

    r: int

    def __post_init__(self):
        if not isinstance(self.r, int) or not 1 <= self.r <= MAX_LEVEL:
            raise DomainError(f"algebra level must be an integer in 1..{MAX_LEVEL}, got {self.r!r}")

    @property
    def basis_dim(self) -> int:
        return 1 << self.r


def as_level(level) -> AlgebraLevel:
    """Accept an AlgebraLevel or a bare integer r; one AlgebraLevel per r."""
    if isinstance(level, AlgebraLevel):
        return level
    return _level(int(level))


@functools.lru_cache(maxsize=None)
def _level(r: int) -> AlgebraLevel:
    return AlgebraLevel(r)


class BasisTable:
    """Signed multiplication table: e_a e_b = sign[a, b] * e_{a ^ b}.

    The sign blocks follow the doubling product with conjugation sign
    eps(c) = +1 for c = 0 and -1 otherwise:

        sign[a, b]                       =  s(alpha, gamma)    (low,  low)
        sign[a, b + h]                   =  s(gamma, alpha)    (low,  high)
        sign[a + h, b]                   =  eps(gamma) s(alpha, gamma)
        sign[a + h, b + h]               = -eps(gamma) s(gamma, alpha)

    where h is the previous dimension and alpha, gamma are the low parts.
    """

    def __init__(self, level: AlgebraLevel):
        self.level = level
        d = level.basis_dim
        sign = np.array([[1]], dtype=np.int8)
        for lev in range(1, level.r + 1):
            h = 1 << (lev - 1)
            eps = np.full(h, -1, dtype=np.int8)
            eps[0] = 1
            s = np.empty((2 * h, 2 * h), dtype=np.int8)
            s[:h, :h] = sign
            s[:h, h:] = sign.T
            s[h:, :h] = sign * eps[None, :]
            s[h:, h:] = -(sign.T * eps[None, :])
            sign = s
        ar = np.arange(d, dtype=np.intp)
        right = ar[:, None] ^ ar[None, :]
        self.sign = sign
        # The signed gather index that every form of mul_arrays reads:
        # (x y)[c] = sum_a x[a] * [y, -y][right[a, c]], where right[a, c] is
        # a ^ c with bit d set when sign[a, a ^ c] = -1.
        right[sign[ar[:, None], right] < 0] += d
        self.right = right

    def right_table(self, y: np.ndarray) -> np.ndarray:
        """The d x d table T of right multiplication by the element y, one
        gather: x y = x @ T, as (x y)[c] = sum_a x[a] * sign[a, a ^ c] * y[a ^ c]."""
        return np.concatenate((y, -y))[self.right]

    def left_table(self, x: np.ndarray) -> np.ndarray:
        """The d x d table T of left multiplication by the element x: x y = y @ T.

        Since conj(x y) = conj(y) conj(x), T is the right table of conj(x)
        with row 0 and column 0 negated (entry (0, 0) twice): entry for entry
        the signed coefficient of x that the product reads, so each sum keeps
        its terms and order.
        """
        xc = -x
        xc[0] = x[0]
        table = np.concatenate((xc, -xc))[self.right]
        table[0] *= -1.0
        table[:, 0] *= -1.0
        return table


@functools.lru_cache(maxsize=None)
def basis_table(r: int) -> BasisTable:
    return BasisTable(AlgebraLevel(r))


# ---------------------------------------------------------------------------
# batched kernel on plain coefficient arrays (..., 2**r)
# ---------------------------------------------------------------------------

#: Elements of the (rows, d, d) gathered operand that mul_arrays builds for
#: one row block of a batch x batch product: 2**15 doubles (256 KB), so a
#: block stays in cache and one buffer serves every block.  Each block is
#: gathered from one reused (rows, 2d) buffer holding [y, -y], so it needs no
#: sign multiply and no allocation per block.  This replaced a
#: single gather up to 2**18 elements with a d-step row loop above it.
#: Measured on a 2-vCPU Xeon with numpy 2.4, as medians of interleaved runs
#: (BENCH_7.json), old -> new at N = 4096: r = 3 3.1 -> 1.0 ms, r = 4
#: 7.7 -> 3.6 ms, r = 5 34 -> 11 ms, r = 6 328 -> 45 ms; at N = 1 and 100
#: below r = 5 both take the single-gather path.  At r = 3..6 a 2**14 budget
#: ran up to 27 % slower; 2**16 and 2**17 ran up to 10 % faster at r = 5, 6
#: but up to 3x slower where a batch then fits one unbuffered gather that
#: outgrows the cache (r = 3, N = 1000: 0.18 ms in two blocks of 2**15,
#: 0.54 ms as one gather).
_BLOCK_ELEMENTS = 1 << 15

#: Fewest rows per block.  From r = 7 one row's d x d table fills (r = 7:
#: two rows) or exceeds (r = 8) the budget.  One row was the fastest floor
#: measured: at r = 8, N = 10 one row per block took 1.7 ms, four rows 2.8 ms
#: and sixteen 7.5 ms (the row loop: 6.7 ms); at r = 7, N = 100 floors of one
#: to sixteen rows all took 3.7-4.0 ms (the row loop: 10.4 ms).
_MIN_BLOCK_ROWS = 1


def mul_arrays(x, y, r: int) -> np.ndarray:
    """Cayley-Dickson product on coefficient arrays of shape (..., 2**r).

    Every form reads basis_table(r).right, one gather from the doubled
    operand [v, -v] that yields a signed d x d table with no multiply:

        element x element   einsum of x with the right table of y
        batch x element     x @ (right table of y)
        element x batch     y @ (x's left table), from the right table of x
        batch x batch       one gathered (rows, d, d) table per row block of at
                            most _BLOCK_ELEMENTS elements (at least
                            _MIN_BLOCK_ROWS rows); a batch that fits is one
                            block.

    Batch shapes broadcast against each other; shapes that do not raise
    DomainError.
    """
    t = basis_table(r)
    d = 1 << r
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[-1:] != (d,) or y.shape[-1:] != (d,):
        raise DomainError("coefficient array does not match the level dimension")
    if y.ndim == 1:
        table = t.right_table(y)
        return x @ table if x.ndim > 1 else np.einsum("...a,...ac->...c", x, table)
    if x.ndim == 1:
        return y @ t.left_table(x)
    try:
        x, y = np.broadcast_arrays(x, y)
    except ValueError:
        raise DomainError(f"batch shapes {x.shape[:-1]} and {y.shape[:-1]} do not broadcast") from None
    rows = max(_BLOCK_ELEMENTS // (d * d), _MIN_BLOCK_ROWS)
    if x.size <= rows * d:
        return np.einsum("...a,...ac->...c", x, np.concatenate((y, -y), axis=-1)[..., t.right])
    x2, y2 = x.reshape(-1, d), y.reshape(-1, d)
    out = np.empty(x2.shape)
    doubled = np.empty((rows, 2 * d))
    block = np.empty((rows, d, d))
    for s in range(0, len(x2), rows):
        yb = y2[s : s + rows]
        n = len(yb)
        doubled[:n, :d] = yb
        np.negative(yb, out=doubled[:n, d:])
        gathered = np.take(doubled[:n], t.right, axis=1, out=block[:n], mode="clip")
        np.einsum("na,nac->nc", x2[s : s + rows], gathered, out=out[s : s + rows])
    return out.reshape(x.shape)


def conj_arrays(x) -> np.ndarray:
    out = np.array(x, dtype=np.float64, copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def norm_arrays(x) -> np.ndarray:
    return np.sqrt(np.sum(np.square(np.asarray(x, dtype=np.float64)), axis=-1))


def inverse_arrays(x, r: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    n2 = np.sum(np.square(x), axis=-1, keepdims=True)
    if np.any(np.sqrt(n2) <= EPS_ZERO):
        raise SingularElementError("inverse of a (numerically) zero element")
    return conj_arrays(x) / n2


def pow_arrays(x, n: int, r: int) -> np.ndarray:
    """Integer power, row by row in closed form in each row's complex plane.

    A negative n inverts first.  n = 0 and |n| = 1 return at once: every
    bare z leaf is a first power.  For |n| >= 2 each row b = p + v with
    v = Im b lies in its own complex plane span(1, v), where v*v = -q2 with
    q2 = |v|**2.  So b**n = c + s*v with real c, s, and c + i*q*s =
    (p + i*q)**n.  The pair is raised by binary exponentiation on (c, s)
    with (c1 + s1*v)(c2 + s2*v) = (c1*c2 - q2*s1*s2) + (c1*s2 + s1*c2)*v,
    which stays exact for a real base (q2 = 0), never divides by q and forms
    no product; p and q2 broadcast, so the whole batch is raised at once.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 1 << r:
        raise DomainError("coefficient array does not match the level dimension")
    n = int(n)
    if n == 0:
        out = np.zeros_like(x)
        out[..., 0] = 1.0
        return out
    base = inverse_arrays(x, r) if n < 0 else x
    n = abs(n)
    if n == 1:
        return base.copy() if base is x else base
    v = base[..., 1:]
    q2 = np.einsum("...i,...i->...", v, v)[..., None]
    c, s = base[..., :1], 1.0
    while not n & 1:
        c, s = c * c - q2 * (s * s), 2.0 * c * s
        n >>= 1
    out_c, out_s = c, s
    n >>= 1
    while n:
        c, s = c * c - q2 * (s * s), 2.0 * c * s
        if n & 1:
            out_c, out_s = out_c * c - q2 * (out_s * s), out_c * s + out_s * c
        n >>= 1
    out = out_s * base
    out[..., :1] = out_c
    return out


# ---------------------------------------------------------------------------
# element wrapper
# ---------------------------------------------------------------------------

class CDNumber:
    """Immutable element of the level-r algebra.

    coeffs[0] is the real part; coeffs[k] multiplies the basis unit e_k.
    Arithmetic operators accept CDNumber or real-number operands.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level, coeffs):
        level = as_level(level)
        arr = np.array(coeffs, dtype=np.float64, copy=True).reshape(-1)
        if arr.shape != (level.basis_dim,):
            raise DomainError(
                f"level {level.r} element needs {level.basis_dim} coefficients, got {arr.shape[0]}"
            )
        if not np.isfinite(arr).all():
            raise DomainError("non-finite coefficient in element")
        arr.flags.writeable = False
        self.level = level
        self.coeffs = arr

    @classmethod
    def _owning(cls, level: AlgebraLevel, arr: np.ndarray) -> "CDNumber":
        """The element that takes over arr, a fresh finite float64 array of
        shape (level.basis_dim,) that the caller has checked and drops."""
        arr.flags.writeable = False
        z = object.__new__(cls)
        z.level = level
        z.coeffs = arr
        return z

    # -- basic accessors ----------------------------------------------------
    @property
    def re(self) -> float:
        return float(self.coeffs[0])

    def imag(self) -> "CDNumber":
        out = np.array(self.coeffs)
        out[0] = 0.0
        return CDNumber(self.level, out)

    def conj(self) -> "CDNumber":
        return CDNumber(self.level, conj_arrays(self.coeffs))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def norm_sq(self) -> float:
        return float(np.dot(self.coeffs, self.coeffs))

    def inverse(self) -> "CDNumber":
        return CDNumber(self.level, inverse_arrays(self.coeffs, self.level.r))

    def allclose(self, other: "CDNumber", tol: float = 1e-12) -> bool:
        other = self._coerce(other)
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)

    # -- operators ----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, CDNumber):
            if other.level.r != self.level.r:
                raise LevelMismatchError(
                    f"operands at levels {self.level.r} and {other.level.r}"
                )
            return other
        if isinstance(other, (int, float, np.integer, np.floating)):
            return from_real(self.level, float(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CDNumber(self.level, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CDNumber(self.level, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CDNumber(self.level, other.coeffs - self.coeffs)

    def __neg__(self):
        return CDNumber(self.level, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            return CDNumber(self.level, self.coeffs * float(other))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CDNumber(self.level, mul_arrays(self.coeffs, other.coeffs, self.level.r))

    def __rmul__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            return CDNumber(self.level, self.coeffs * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            return CDNumber(self.level, self.coeffs / float(other))
        return NotImplemented

    def __pow__(self, n):
        return pow_int(self, n)

    def __eq__(self, other):
        if not isinstance(other, CDNumber):
            return NotImplemented
        return self.level.r == other.level.r and bool(np.array_equal(self.coeffs, other.coeffs))

    __hash__ = None

    def __repr__(self):
        body = np.array2string(self.coeffs, separator=", ", max_line_width=200)
        return f"CDNumber(r={self.level.r}, {body})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zero(level) -> CDNumber:
    level = as_level(level)
    return CDNumber(level, np.zeros(level.basis_dim))


def one(level) -> CDNumber:
    return from_real(level, 1.0)


def from_real(level, x: float) -> CDNumber:
    level = as_level(level)
    out = np.zeros(level.basis_dim)
    out[0] = float(x)
    return CDNumber(level, out)


def basis_element(level, k: int) -> CDNumber:
    level = as_level(level)
    if not 0 <= k < level.basis_dim:
        raise DomainError(f"basis index {k} out of range for level {level.r}")
    out = np.zeros(level.basis_dim)
    out[k] = 1.0
    return CDNumber(level, out)


def random_element(level, rng: np.random.Generator, scale: float = 1.0) -> CDNumber:
    level = as_level(level)
    return CDNumber(level, rng.standard_normal(level.basis_dim) * scale)


def random_unit_imaginary(level, rng: np.random.Generator) -> CDNumber:
    """Uniformly random purely imaginary unit vector (used as a plane axis)."""
    level = as_level(level)
    v = rng.standard_normal(level.basis_dim)
    v[0] = 0.0
    n = float(np.linalg.norm(v))
    if n < 1e-12:  # essentially impossible, but keep it total
        v[:] = 0.0
        v[1] = 1.0
        n = 1.0
    return CDNumber(level, v / n)


# ---------------------------------------------------------------------------
# element-level operations
# ---------------------------------------------------------------------------

def mul(a: CDNumber, b: CDNumber) -> CDNumber:
    if a.level.r != b.level.r:
        raise LevelMismatchError(f"operands at levels {a.level.r} and {b.level.r}")
    return CDNumber(a.level, mul_arrays(a.coeffs, b.coeffs, a.level.r))


def conj(z: CDNumber) -> CDNumber:
    return z.conj()


def pow_int(z: CDNumber, n: int) -> CDNumber:
    if not isinstance(n, (int, np.integer)):
        raise DomainError("exponent must be an integer")
    return CDNumber(z.level, pow_arrays(z.coeffs, int(n), z.level.r))


def embed(z: CDNumber, target_level) -> CDNumber:
    """Embed z into a higher level by zero-padding the new coordinates.  Kept
    for the octonions as a subalgebra of levels 4..8: tests compare results
    there with the same ones at r = 3, embedded."""
    target = as_level(target_level)
    if target.r < z.level.r:
        raise DomainError("embed only raises the level")
    out = np.zeros(target.basis_dim)
    out[: z.level.basis_dim] = z.coeffs
    return CDNumber(target, out)


def conj_via_generators(z: CDNumber) -> CDNumber:
    """Conjugate through the generator identity

        z* = (2**r - 2)^{-1} [ -z + sum_{s in basis, s != 1} s (z s*) ],

    valid for r >= 2.  Exercises the full multiplication table, which makes it
    a useful independent cross-check of conj().
    """
    r = z.level.r
    if r < 2:
        raise DomainError("the generator identity requires level r >= 2")
    d = z.level.basis_dim
    units = np.eye(d)[1:]  # e_s for s != 0, one per row
    z_units_conj = -mul_arrays(z.coeffs, units, r)  # z * e_s^* = -(z e_s)
    acc = mul_arrays(units, z_units_conj, r).sum(axis=0) - z.coeffs
    return CDNumber(z.level, acc / (d - 2))


def find_zero_divisor(level, search_budget: int = 200_000):
    """Search for x, y != 0 with x y = 0 among two-term basis sums.

    Looks at pairs x = e_a + s e_b, y = e_c + e_d with d = a^b^c and signs
    read off the basis table; any hit is verified exactly before returning.
    Returns (x, y) with |x| = |y| = sqrt(2) and x*y identically zero, or None
    when the level has no zero divisors (r <= 3) or the budget runs out.
    """
    level = as_level(level)
    if level.r <= 3:
        return None
    t = basis_table(level.r)
    d = level.basis_dim
    examined = 0
    for a in range(1, d):
        for b in range(a + 1, d):
            k = a ^ b
            for c in range(1, d):
                dd = c ^ k
                if dd <= 0 or dd == c:
                    continue
                examined += 1
                if examined > search_budget:
                    return None
                s_ac = int(t.sign[a, c])
                s_ad = int(t.sign[a, dd])
                s_bc = int(t.sign[b, c])
                s_bd = int(t.sign[b, dd])
                if s_ad * s_bc * s_ac * s_bd != 1:
                    continue
                s = -s_ac * s_bd
                x = np.zeros(d)
                x[a] = 1.0
                x[b] = float(s)
                y = np.zeros(d)
                y[c] = 1.0
                y[dd] = 1.0
                if np.all(mul_arrays(x, y, level.r) == 0.0):
                    return CDNumber(level, x), CDNumber(level, y)
    return None


# ---------------------------------------------------------------------------
# serialization + reference implementation
# ---------------------------------------------------------------------------

def _mul_by_doubling(x, y) -> np.ndarray:
    """Textbook doubling recursion on raw vectors; slow reference for tests."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]

    def cj(v):
        out = np.array(v)
        out[1:] = -out[1:]
        return out

    lo = _mul_by_doubling(a, c) - _mul_by_doubling(cj(d), b)
    hi = _mul_by_doubling(d, a) + _mul_by_doubling(b, cj(c))
    return np.concatenate([lo, hi])
