"""Cayley-Dickson algebra arithmetic for levels r = 1..8.

An element of the level-r algebra is a dense vector of 2**r real coefficients
over the basis e0 = 1, e1, ..., e_{D-1}.  Level r doubles level r-1: writing
z = (a, b) for the two coefficient halves,

    (a, b) (c, d) = (a c - d~ b,  d a + b c~)          (~ = conjugation)

which yields C, H, O, S, ... for r = 1, 2, 3, 4, ...  The second half of the
basis is the first half times the doubling unit, so basis products satisfy

    e_a e_b = sigma(a, b) e_{a XOR b},   sigma(a, b) in {+1, -1},

and all arithmetic reduces to a cached sign table plus XOR index bookkeeping.
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
    """Accept an AlgebraLevel or a bare integer r."""
    if isinstance(level, AlgebraLevel):
        return level
    return AlgebraLevel(int(level))


class BasisTable:
    """Signed multiplication table: e_a e_b = sign[a, b] * e_{index[a, b]}.

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
        sign = np.array([[1]], dtype=np.int64)
        for lev in range(1, level.r + 1):
            h = 1 << (lev - 1)
            eps = np.full(h, -1, dtype=np.int64)
            eps[0] = 1
            s = np.empty((2 * h, 2 * h), dtype=np.int64)
            s[:h, :h] = sign
            s[:h, h:] = sign.T
            s[h:, :h] = sign * eps[None, :]
            s[h:, h:] = -(sign.T * eps[None, :])
            sign = s
        ar = np.arange(d)
        self.sign = sign.astype(np.int8)
        self.index = (ar[:, None] ^ ar[None, :]).astype(np.int16)
        # Gather form used by mul_arrays: out[..., c] = sum_a x[..., a] *
        # sign[a, a^c] * y[..., a^c].
        self.xor_ac = (ar[:, None] ^ ar[None, :]).astype(np.intp)
        self.sign_ac = sign[ar[:, None], self.xor_ac].astype(np.float64)

    def product(self, a: int, b: int) -> tuple[int, int]:
        """Return (sign, index) of the basis product e_a * e_b."""
        return int(self.sign[a, b]), int(self.index[a, b])


@functools.lru_cache(maxsize=None)
def basis_table(r: int) -> BasisTable:
    return BasisTable(AlgebraLevel(r))


# ---------------------------------------------------------------------------
# batched kernel on plain coefficient arrays (..., 2**r)
# ---------------------------------------------------------------------------

#: Largest batch * d**2 for which mul_arrays gathers a (batch, d, d) operand
#: (2 MB of doubles) and contracts it in one einsum.  Above it the d-step row
#: loop wins, since the gathered temporary outgrows the cache; below it the
#: loop's d Python steps cost more.  Measured on a 2-vCPU Xeon, numpy 2.4:
#: r = 3, N = 16384 takes 11.9 ms gathered and 4.6 ms looped; one r = 8
#: element takes 0.27 ms gathered and 1.59 ms looped.  The crossover lies
#: between 2**16 and 2**18 at r = 3..6 and above 2**19 at r = 8, so 2**18
#: also keeps the temporary bounded.
_GATHER_LIMIT = 1 << 18


def mul_arrays(x, y, r: int) -> np.ndarray:
    """Cayley-Dickson product on coefficient arrays of shape (..., 2**r).

    A single element (shape (2**r,)) times a batch is one matrix product with
    the element's d x d multiplication matrix; other pairs gather or loop
    over rows by _GATHER_LIMIT.  Every form reads basis_table(r).sign_ac.
    """
    t = basis_table(r)
    d = 1 << r
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[-1] != d or y.shape[-1] != d:
        raise DomainError("coefficient array does not match the level dimension")
    if y.ndim == 1 < x.ndim:
        # (x y)[c] = sum_a x[a] * sign_ac[a, c] * y[a ^ c]
        return x @ (t.sign_ac * y[t.xor_ac])
    if x.ndim == 1 < y.ndim:
        # the same sum over b = a ^ c: y[b] * sign_ac[b ^ c, c] * x[b ^ c]
        return y @ (x[t.xor_ac] * t.sign_ac[t.xor_ac, np.arange(d)])
    x, y = np.broadcast_arrays(x, y)
    if x.size * d <= _GATHER_LIMIT:
        return np.einsum("...a,...ac->...c", x, y[..., t.xor_ac] * t.sign_ac)
    out = np.zeros(x.shape, dtype=np.float64)
    for a in range(d):
        out += x[..., a : a + 1] * (t.sign_ac[a] * y[..., t.xor_ac[a]])
    return out


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
    """Integer power by binary exponentiation.

    All intermediate products live in the subalgebra generated by the single
    element x, which is associative (power-associativity), so the bracket
    order is immaterial here.  The result starts as the base power of the
    lowest set bit of n, so no product with the unit is ever formed.
    """
    x = np.asarray(x, dtype=np.float64)
    n = int(n)
    base = inverse_arrays(x, r) if n < 0 else x
    n = abs(n)
    if n == 0:
        out = np.zeros_like(x)
        out[..., 0] = 1.0
        return out
    while not n & 1:
        base = mul_arrays(base, base, r)
        n >>= 1
    out = base.copy() if base is x else base
    n >>= 1
    while n:
        base = mul_arrays(base, base, r)
        if n & 1:
            out = mul_arrays(out, base, r)
        n >>= 1
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
        if not np.all(np.isfinite(arr)):
            raise DomainError("non-finite coefficient in element")
        arr.flags.writeable = False
        self.level = level
        self.coeffs = arr

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


def norm(z: CDNumber) -> float:
    return z.norm()


def inverse(z: CDNumber) -> CDNumber:
    return z.inverse()


def pow_int(z: CDNumber, n: int) -> CDNumber:
    if not isinstance(n, (int, np.integer)):
        raise DomainError("exponent must be an integer")
    return CDNumber(z.level, pow_arrays(z.coeffs, int(n), z.level.r))


def split(z: CDNumber) -> tuple[float, CDNumber]:
    """Split z = v + M into its real part v and purely imaginary part M."""
    return z.re, z.imag()


def embed(z: CDNumber, target_level) -> CDNumber:
    """Embed z into a higher level by zero-padding the new coordinates."""
    target = as_level(target_level)
    if target.r < z.level.r:
        raise DomainError(
            "embed only raises the level; to lower it use project_down, which "
            "requires the high coordinates to vanish"
        )
    out = np.zeros(target.basis_dim)
    out[: z.level.basis_dim] = z.coeffs
    return CDNumber(target, out)


def project_down(z: CDNumber, target_level) -> CDNumber:
    """Drop trailing coordinates, requiring them to be numerically zero."""
    target = as_level(target_level)
    if target.r > z.level.r:
        raise DomainError("project_down only lowers the level; use embed to raise it")
    head = z.coeffs[: target.basis_dim]
    tail = z.coeffs[target.basis_dim :]
    if tail.size and float(np.linalg.norm(tail)) > 1e-12 * (1.0 + z.norm()):
        raise DomainError("element has nonzero coordinates above the target level")
    return CDNumber(target, head)


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
    acc = -np.array(z.coeffs)
    for s in range(1, d):
        e_s = np.zeros(d)
        e_s[s] = 1.0
        z_es_conj = -mul_arrays(z.coeffs, e_s, r)  # z * e_s^* = -(z e_s)
        acc += mul_arrays(e_s, z_es_conj, r)
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
