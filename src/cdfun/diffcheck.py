"""Finite-difference verification of superdifferentiability structure.

Three independent checks on a map F: R^(2^r) -> R^(2^r) written in the real
coordinates w_s of z = sum_s w_s e_s:

* ``cr_check`` — the noncommutative Cauchy-Riemann system
  dF/dw_1 = (dF/dw_q) * conj(e_q) for every imaginary basis direction q.
  Passing it (at a point) certifies that the differential there is right
  linear over the algebra, D(h*c) = (D h)*c — a strictly stronger property
  than holomorphy, and one that generic powers of z do NOT have away from
  the real axis.
* ``harmonic_check`` — every component F_s is harmonic in every coordinate
  pair: d2F_s/dw_p^2 + d2F_s/dw_q^2 = 0.  A second-order consequence of the
  Cauchy-Riemann system, so it must pass wherever cr_check passes.
* ``zbar_check`` — the holomorphy criterion proper.  The coordinates are
  grouped in consecutive pairs (e_{2j}, e_{2j+1}); on each pair the
  anti-holomorphic slot derivative must vanish.  For an expression this
  means differentiating the conjugate-variable slots only (the ``zc``
  leaves), holding the plain ``z`` slots fixed: any pure-z phrase passes,
  any phrase with surviving zc dependence fails in every pair it touches.

All derivatives are central differences with step ``step * (1 + |z|)``;
residuals of exact pass cases therefore shrink as O(step^2).

The module also hosts a generator of polynomial maps whose differential is
right superlinear *everywhere*: the Cauchy-Riemann system, imposed on the
real coefficient tensor of a homogeneous polynomial in the w_s, is a linear
system, and random elements of its null space (computed once per level and
degree via SVD) give certified pass cases for ``cr_check``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .algebra import (
    CDNumber,
    as_level,
    basis_element,
    conj_arrays,
    mul_arrays,
    norm_arrays,
)
from .errors import DomainError, UnsupportedShapeError
from .expressions import Phrase, evaluate_two_slot, parse

DEFAULT_STEP = 1e-5
DEFAULT_THRESHOLD = 1e-4


# ---------------------------------------------------------------------------
# samples and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealFieldSample:
    """A map R^(2^r) -> R^(2^r) prepared for finite-difference probing.

    ``func`` takes and returns coefficient vectors in basis order (the same
    indexing CDNumber uses).  ``step`` is the base finite-difference step;
    the checks scale it by (1 + |z|) at the probe point.  ``two_slot``, when
    present, evaluates the underlying expression with the conjugate-variable
    slots bound to an independent second argument — only expression-backed
    samples can provide it, and only ``zbar_check`` needs it.
    """

    level: "object"
    func: Callable[[np.ndarray], np.ndarray]
    step: float = DEFAULT_STEP
    two_slot: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "level", as_level(self.level))
        if not (self.step > 0.0 and np.isfinite(self.step)):
            raise DomainError(f"finite-difference step must be positive, got {self.step!r}")

    @classmethod
    def from_phrase(cls, f: Phrase, step: float = DEFAULT_STEP) -> "RealFieldSample":
        def func(w: np.ndarray) -> np.ndarray:
            return evaluate_two_slot(f, np.asarray(w, dtype=float), conj_arrays(w))

        def two_slot(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
            return evaluate_two_slot(f, np.asarray(w1, dtype=float), np.asarray(w2, dtype=float))

        return cls(f.level, func, step, two_slot)

    @classmethod
    def from_expression(cls, text: str, level, step: float = DEFAULT_STEP) -> "RealFieldSample":
        return cls.from_phrase(parse(text, level), step)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        out = np.asarray(self.func(np.asarray(w, dtype=float)), dtype=float)
        if out.shape != (self.level.basis_dim,):
            raise UnsupportedShapeError(
                f"field sample returned shape {out.shape}, expected ({self.level.basis_dim},)"
            )
        if not np.all(np.isfinite(out)):
            raise DomainError("field sample returned a non-finite value inside the stencil")
        return out


@dataclass(frozen=True)
class CRReport:
    """Residual summary of one structure check at one point.

    ``per_pair`` maps a plane key ("e1", ...) or a pair key ("e0|e1",
    "e2|e3", ..., where e0 is the real unit) to a nonnegative residual.
    ``verdict`` is True when max_residual <= threshold.
    """

    max_residual: float
    per_pair: Dict[str, float]
    verdict: bool
    threshold: float

    def to_json(self):
        return {
            "max_residual": self.max_residual,
            "per_pair": dict(self.per_pair),
            "verdict": "pass" if self.verdict else "fail",
        }


def _report(per_pair: Dict[str, float], threshold: float) -> CRReport:
    worst = max(per_pair.values()) if per_pair else 0.0
    return CRReport(float(worst), per_pair, bool(worst <= threshold), float(threshold))


def _probe_point(F: RealFieldSample, z: CDNumber) -> Tuple[np.ndarray, float]:
    if z.level != F.level:
        raise DomainError(
            f"probe point lives at level {z.level.r}, sample at level {F.level.r}"
        )
    w = np.array(z.coeffs, dtype=float)
    h = F.step * (1.0 + float(norm_arrays(w)))
    return w, h


def _first_differences(F: RealFieldSample, w: np.ndarray, h: float) -> np.ndarray:
    """All first partials by central differences; row t is dF/dw_t in R^d."""
    d = w.size
    out = np.empty((d, d))
    for t in range(d):
        e = np.zeros(d)
        e[t] = h
        out[t] = (F(w + e) - F(w - e)) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# the three checks
# ---------------------------------------------------------------------------

def cr_check(F: RealFieldSample, z: CDNumber, threshold: float = DEFAULT_THRESHOLD) -> CRReport:
    """Cauchy-Riemann system: dF/dw_1 = (dF/dw_q) * conj(e_q) for all q.

    The per-plane residual is the algebra norm of the difference; the check
    passes exactly when the differential at ``z`` is right linear over the
    algebra (up to finite-difference truncation).
    """
    w, h = _probe_point(F, z)
    r = F.level.r
    d = w.size
    partials = _first_differences(F, w, h)
    per: Dict[str, float] = {}
    for q in range(1, d):
        eq_conj = conj_arrays(basis_element(F.level, q).coeffs)
        candidate = mul_arrays(partials[q], eq_conj, r)
        per[f"e{q}"] = float(norm_arrays(partials[0] - candidate))
    return _report(per, threshold)


def harmonic_check(F: RealFieldSample, z: CDNumber, threshold: float = DEFAULT_THRESHOLD) -> CRReport:
    """Pairwise harmonicity: d2F_s/dw_p^2 + d2F_s/dw_q^2 = 0 per component.

    Residual per coordinate pair is the worst component of the pair
    Laplacian.  Keys are "e{p}|e{q}" with p < q and e0 the real unit.
    """
    w, h = _probe_point(F, z)
    d = w.size
    center = F(w)
    second = np.empty((d, d))
    for t in range(d):
        e = np.zeros(d)
        e[t] = h
        second[t] = (F(w + e) - 2.0 * center + F(w - e)) / (h * h)
    per: Dict[str, float] = {}
    for p, q in itertools.combinations(range(d), 2):
        per[f"e{p}|e{q}"] = float(np.max(np.abs(second[p] + second[q])))
    return _report(per, threshold)


def zbar_check(F: RealFieldSample, z: CDNumber, threshold: float = DEFAULT_THRESHOLD) -> CRReport:
    """Anti-holomorphic slot derivative on each consecutive coordinate pair.

    Writing the map with its conjugate-variable occurrences bound to an
    independent second slot, holomorphy says the second-slot derivative
    vanishes.  The basis directions are grouped in pairs (e_{2j}, e_{2j+1});
    the reported residual per pair is the larger of the two directional
    slot derivatives.  Requires an expression-backed sample (``two_slot``).
    """
    if F.two_slot is None:
        raise DomainError(
            "zbar_check needs a sample built from an expression; a raw "
            "coordinate sampler cannot separate conjugate-variable slots"
        )
    w, h = _probe_point(F, z)
    d = w.size
    wbar = conj_arrays(w)
    per: Dict[str, float] = {}
    for j in range(d // 2):
        worst = 0.0
        for t in (2 * j, 2 * j + 1):
            e = np.zeros(d)
            e[t] = h
            plus = np.asarray(F.two_slot(w, wbar + e), dtype=float)
            minus = np.asarray(F.two_slot(w, wbar - e), dtype=float)
            if not (np.all(np.isfinite(plus)) and np.all(np.isfinite(minus))):
                raise DomainError("field sample returned a non-finite value inside the stencil")
            worst = max(worst, float(norm_arrays((plus - minus) / (2.0 * h))))
        per[f"e{2 * j}|e{2 * j + 1}"] = worst
    return _report(per, threshold)


# ---------------------------------------------------------------------------
# right-superlinear polynomial maps
# ---------------------------------------------------------------------------

def _monomials(d: int, degree: int) -> np.ndarray:
    """All exponent vectors of total degree ``degree`` over d variables."""
    out = []
    for combo in itertools.combinations_with_replacement(range(d), degree):
        alpha = np.zeros(d, dtype=int)
        for v in combo:
            alpha[v] += 1
        out.append(alpha)
    return np.array(out, dtype=int) if out else np.zeros((1, d), dtype=int)


@functools.lru_cache(maxsize=None)
def right_superlinear_nullspace(r: int, degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """Basis of homogeneous polynomial maps satisfying the CR system exactly.

    A degree-``degree`` homogeneous map F(w) = sum_m (prod w^alpha_m) c_m
    (with algebra-valued coefficients c_m stored as real d-vectors) satisfies
    dF/dw_1 = (dF/dw_q)*conj(e_q) identically iff its coefficient tensor lies
    in the null space of one real linear system per imaginary q.  Returns
    (monomial exponent matrix, null-space basis with shape (k, M, d)): each
    basis slice B[i] holds the coefficient vector of monomial m in row m.

    For degree 1 the null space is exactly the left multiplications w -> c*z
    (dimension 2^r).  For degree >= 2 it is empty whenever r >= 2: the system
    forces every partial into the form dF/dw_s = c(z)*e_s, and equality of
    mixed partials then demands (g*e_t)*e_s = (g*e_s)*e_t for g = dc/dw_1
    and all imaginary s != t, which anticommutation rules out unless g = 0.
    So maps whose differential is right linear at *every* point are affine,
    and this function reports that fact rather than papering over it.
    """
    level = as_level(r)
    d = level.basis_dim
    if degree < 1:
        raise DomainError("homogeneous degree must be at least 1")
    monos = _monomials(d, degree)
    lower = _monomials(d, degree - 1)
    mono_index = {tuple(a): i for i, a in enumerate(monos)}
    M, L = len(monos), len(lower)

    # right-multiplication by conj(e_q) as a signed permutation on coefficients
    right_ops = []
    for q in range(1, d):
        eq_conj = conj_arrays(basis_element(level, q).coeffs)
        op = np.empty((d, d))
        for s in range(d):
            op[:, s] = mul_arrays(basis_element(level, s).coeffs, eq_conj, r)
        right_ops.append(op)

    # rows: for each q, each degree-(n-1) monomial beta, each component t:
    #   (beta_0+1) C[beta+ê0, t] - (beta_q+1) sum_s op[t,s] C[beta+êq, s] = 0
    rows = np.zeros(((d - 1) * L * d, M * d))
    row = 0
    for qi, q in enumerate(range(1, d)):
        op = right_ops[qi]
        for li in range(L):
            beta = lower[li]
            up0 = beta.copy()
            up0[0] += 1
            upq = beta.copy()
            upq[q] += 1
            i0 = mono_index[tuple(up0)]
            iq = mono_index[tuple(upq)]
            for t in range(d):
                rows[row, i0 * d + t] += beta[0] + 1
                rows[row, iq * d: (iq + 1) * d] -= (beta[q] + 1) * op[t]
                row += 1
    _, sing, vt = np.linalg.svd(rows, full_matrices=True)
    tol = max(rows.shape) * np.finfo(float).eps * (sing[0] if sing.size else 1.0)
    rank = int(np.sum(sing > tol))
    null = vt[rank:]
    return monos, null.reshape(null.shape[0], M, d)


def right_superlinear_sample(
    level,
    degree: int,
    rng: np.random.Generator,
    step: float = DEFAULT_STEP,
) -> RealFieldSample:
    """Draw a random polynomial map with an everywhere right-linear differential.

    The map is a random combination of the null-space basis from
    ``right_superlinear_nullspace`` (plus nothing else), so ``cr_check``
    passes at every point up to finite-difference truncation.  Only degree 1
    admits solutions for r >= 2 (see ``right_superlinear_nullspace``); asking
    for a higher degree raises DomainError instead of silently weakening the
    property.
    """
    level = as_level(level)
    monos, basis = right_superlinear_nullspace(level.r, degree)
    if basis.shape[0] == 0:
        raise DomainError(
            f"no nontrivial right-superlinear maps at level {level.r} degree {degree}"
        )
    weights = rng.standard_normal(basis.shape[0])
    coeff = np.tensordot(weights, basis, axes=(0, 0))  # (M, d)
    scale = float(np.max(np.abs(coeff)))
    if scale > 0.0:
        coeff = coeff / scale
    exps = monos  # (M, d)

    def func(w: np.ndarray) -> np.ndarray:
        vals = np.prod(np.power(w[None, :], exps), axis=1)  # (M,)
        return vals @ coeff

    return RealFieldSample(level, func, step)
