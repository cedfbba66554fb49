"""Verification of superdifferentiability structure.

Three independent checks on a phrase f read as a map R^(2^r) -> R^(2^r) in
the real coordinates w_s of z = sum_s w_s e_s:

* ``cr_check`` — the noncommutative Cauchy-Riemann system
  dF/dw_1 = (dF/dw_q) * conj(e_q) for every imaginary basis direction q.
  Passing it (at a point) certifies that the differential there is right
  linear over the algebra, D(h*c) = (D h)*c — a strictly stronger property
  than holomorphy, and one that generic powers of z do NOT have away from
  the real axis.  The maps that pass everywhere are the affine ones,
  a + c*z (scripts/right_superlinear_demo.py solves for them).
* ``harmonic_check`` — every component F_s is harmonic in every coordinate
  pair: d2F_s/dw_p^2 + d2F_s/dw_q^2 = 0.  A second-order consequence of the
  Cauchy-Riemann system, so it must pass wherever cr_check passes.
* ``zbar_check`` — the holomorphy criterion proper: on each consecutive
  coordinate pair (e_{2j}, e_{2j+1}) the superdifferential in zc vanishes.
  It is read in closed form (``derivative_apply`` with wrt="zc"): any phrase
  free of zc passes with residual exactly 0, and any phrase with surviving
  zc dependence fails in every pair it touches.

cr_check and harmonic_check take central differences with step
``step * (1 + |z|)``, so residuals of exact pass cases shrink as O(step^2),
and evaluate their whole stencil (the points w +- h*e_t, and w itself for
second differences) as one batch.  A step that is not positive and finite,
or that rounds away at the probe point, is a DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .algebra import CDNumber, basis_table, conj_arrays, norm_arrays
from .errors import DomainError
from .expressions import Phrase, derivative_apply, eval_node_arrays

DEFAULT_STEP = 1e-5
DEFAULT_THRESHOLD = 1e-4
_TINY = 2.0**-1022  # the least normal double


# ---------------------------------------------------------------------------
# stencils and reports
# ---------------------------------------------------------------------------

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


def _coefficients(f: Phrase, z: CDNumber) -> np.ndarray:
    if z.level != f.level:
        raise DomainError(f"probe point lives at level {z.level.r}, phrase at level {f.level.r}")
    return np.array(z.coeffs, dtype=float)


def _probe_point(f: Phrase, z: CDNumber, step: float) -> Tuple[np.ndarray, float]:
    if not (step > 0.0 and np.isfinite(step)):
        raise DomainError(f"finite-difference step must be positive, got {step!r}")
    w = _coefficients(f, z)
    h = step * (1.0 + float(norm_arrays(w)))
    # every stencil coordinate w_q +- h must move by h to within h/2, and
    # the second differences divide by h^2, which must not underflow
    moved = np.abs(np.concatenate([(w + h) - w, w - (w - h)]) - h)
    if not (h * h >= _TINY and np.all(moved <= 0.5 * h)):
        raise DomainError(f"finite-difference step {h:g} is lost to rounding at the probe point")
    return w, h


def _stencil(f: Phrase, points: np.ndarray) -> np.ndarray:
    """The phrase at coefficient rows ``points`` in basis order (the indexing CDNumber uses)."""
    out = eval_node_arrays(f.root, points, f.level.r)
    if not np.all(np.isfinite(out)):
        raise DomainError("field sample returned a non-finite value inside the stencil")
    return out


# ---------------------------------------------------------------------------
# the three checks
# ---------------------------------------------------------------------------

def cr_check(f: Phrase, z: CDNumber, threshold: float = DEFAULT_THRESHOLD, step: float = DEFAULT_STEP) -> CRReport:
    """Cauchy-Riemann system: dF/dw_1 = (dF/dw_q) * conj(e_q) for all q.

    The per-plane residual is the algebra norm of the difference; the check
    passes exactly when the differential at ``z`` is right linear over the
    algebra (up to finite-difference truncation).
    """
    w, h = _probe_point(f, z, step)
    d = w.size
    steps = h * np.eye(d)
    points = np.concatenate([w + steps, w - steps])
    values = _stencil(f, points)
    partials = (values[:d] - values[d:]) / (2.0 * h)
    # p * conj(e_q) = -p * e_q, whose coefficient c is -sign[c ^ q, q] * p[c ^ q]:
    # one gather from the basis table in place of d - 1 products
    q = np.arange(1, d)[:, None]
    a = q ^ np.arange(d)
    candidates = -basis_table(f.level.r).sign[a, q] * partials[q, a]
    residuals = norm_arrays(partials[0] - candidates)
    return _report({f"e{q}": float(residuals[q - 1]) for q in range(1, d)}, threshold)


def harmonic_check(f: Phrase, z: CDNumber, threshold: float = DEFAULT_THRESHOLD, step: float = DEFAULT_STEP) -> CRReport:
    """Pairwise harmonicity: d2F_s/dw_p^2 + d2F_s/dw_q^2 = 0 per component.

    Residual per coordinate pair is the worst component of the pair
    Laplacian.  Keys are "e{p}|e{q}" with p < q and e0 the real unit.
    """
    w, h = _probe_point(f, z, step)
    d = w.size
    steps = h * np.eye(d)
    points = np.concatenate([w[None, :], w + steps, w - steps])
    values = _stencil(f, points)
    center = values[0]
    second = (values[1 : d + 1] - 2.0 * center + values[d + 1 :]) / (h * h)
    per = {}
    for p in range(d - 1):  # one row of pair maxima per p
        for q, worst in enumerate(np.abs(second[p] + second[p + 1 :]).max(axis=1).tolist(), p + 1):
            per[f"e{p}|e{q}"] = worst
    return _report(per, threshold)


def zbar_check(f: Phrase, z: CDNumber, threshold: float = DEFAULT_THRESHOLD) -> CRReport:
    """Superdifferential in zc on each consecutive coordinate pair.

    Taken in closed form along every basis direction at once, the zc leaves
    moving along e_t (z along conj(e_t)); the residual per pair (e_{2j},
    e_{2j+1}) is the larger norm of its two directional derivatives.  A
    non-finite derivative is a DomainError, and a vanishing base under a
    negative power a PoleError.
    """
    w = _coefficients(f, z)
    der = derivative_apply(f, w, conj_arrays(np.eye(w.size)), wrt="zc")
    if not np.all(np.isfinite(der)):
        raise DomainError("the zc superdifferential is not finite at the probe point")
    pairs = norm_arrays(der).reshape(-1, 2).max(axis=1)
    return _report({f"e{2 * j}|e{2 * j + 1}": float(worst) for j, worst in enumerate(pairs)}, threshold)
