"""Exponential, principal logarithm, polar form, trig/hyperbolic functions.

Everything here is plane-wise: a nonreal z lies in the commutative plane
R + R*M spanned by 1 and its unit imaginary direction M = Im z / |Im z|, and
the familiar complex formulas apply within that plane,

    exp(v + y M) = e^v (cos y + sin y M),
    Ln(z)        = ln|z| + theta M,   theta = atan2(|Im z|, Re z) in [0, pi].

The principal branch cuts along the negative real axis; there the direction
is not determined by z and defaults to e1.  dln_apply differentiates Ln by
central differences and refuses stencils that straddle the cut.

Array variants (suffix _arrays) operate on batches with the coefficient axis
last; the public functions take and return CDNumber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    EPS_ZERO,
    CDNumber,
    from_real,
    mul,
    norm_arrays,
)
from .errors import CutStraddleError, DomainError, SingularElementError


@dataclass(frozen=True)
class PolarForm:
    """z = rho * exp(theta * direction) with theta in [0, pi], |direction| = 1."""

    rho: float
    direction: CDNumber
    theta: float


# ---------------------------------------------------------------------------
# array layer
# ---------------------------------------------------------------------------

def _split_parts(Z):
    """(v, y, mu_imag): real part, |imag|, unit imaginary direction array.

    mu_imag has the full coefficient width with zero real slot; exactly-real
    inputs get the e1 convention.
    """
    Z = np.asarray(Z, dtype=np.float64)
    v = Z[..., 0]
    y = norm_arrays(Z[..., 1:])
    safe = np.where(y > 0.0, y, 1.0)
    mu = np.zeros_like(Z)
    mu[..., 1:] = Z[..., 1:] / safe[..., None]
    mu[..., 1] = np.where(y > 0.0, mu[..., 1], 1.0)
    return v, y, mu


def exp_arrays(Z) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    v, y, mu = _split_parts(Z)
    # sin(y)/y with the series value at tiny y
    small = y < 1e-8
    sinc = np.where(small, 1.0 - y * y / 6.0, np.sin(y) / np.where(y == 0.0, 1.0, y))
    out = (y * sinc)[..., None] * mu  # sin(y) * mu  (y*sinc = sin y, stable)
    out[..., 0] = np.cos(y)
    out *= np.exp(v)[..., None]
    return out


def ln_arrays(Z) -> np.ndarray:
    L, _, _, _ = _ln_with_parts(Z)
    return L


def _ln_with_parts(Z):
    Z = np.asarray(Z, dtype=np.float64)
    rho = norm_arrays(Z)
    if np.any(rho <= EPS_ZERO):
        raise SingularElementError("logarithm of a (numerically) zero element")
    v, y, mu = _split_parts(Z)
    theta = np.arctan2(y, v)
    L = theta[..., None] * mu
    L[..., 0] = np.log(rho)
    return L, rho, theta, mu


def dln_arrays(Z, H) -> np.ndarray:
    """Directional derivative of the logarithm by central differences.

    Step 1e-7 * (1 + |z|).  The differential of the logarithm is that of the
    multivalued continuation, which is smooth everywhere off the origin even
    though each principal value jumps across the negative real half-axis.  The
    minus-side stencil argument is therefore branch-aligned first: among the
    representations (theta + 2*pi*j) * mu of its polar angle the one closest
    to the plus-side argument vector is used.  Raises CutStraddleError when
    no representation comes within pi/2 — the stencil points then sit in
    essentially unrelated planes, which happens only next to the origin or
    when a stencil point lands exactly on the cut with an out-of-plane step.
    """
    Z = np.asarray(Z, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    Z, H = np.broadcast_arrays(Z, H)
    if np.any(norm_arrays(Z) <= EPS_ZERO):
        raise SingularElementError("logarithm differential at a zero element")
    # the derivative is linear in H: difference along the unit direction and
    # rescale afterwards, so the rounding noise of one evaluation is
    # proportional to |H| instead of a constant (summing many small
    # increments would otherwise accumulate noise linearly in their count)
    hn = norm_arrays(H)
    scale = np.where(hn > 0.0, hn, 1.0)[..., None]
    H = H / scale
    eps = (1e-7 * (1.0 + norm_arrays(Z)))[..., None]
    Lp, _, theta_p, mu_p = _ln_with_parts(Z + eps * H)
    Lm, rho_m, theta_m, mu_m = _ln_with_parts(Z - eps * H)
    arg_p = theta_p[..., None] * mu_p
    shifts = 2.0 * math.pi * np.arange(-2, 3)
    cands = (theta_m[..., None] + shifts)[..., None] * mu_m[..., None, :]
    dist2 = np.sum((cands - arg_p[..., None, :]) ** 2, axis=-1)
    pick = np.argmin(dist2, axis=-1)
    best = np.take_along_axis(dist2, pick[..., None], axis=-1)[..., 0]
    if np.any(best > (math.pi / 2) ** 2):
        raise CutStraddleError(
            "logarithm difference stencil cannot be branch-aligned"
        )
    arg_m = np.take_along_axis(cands, pick[..., None, None], axis=-2)[..., 0, :]
    arg_m[..., 0] = np.log(rho_m)
    return (Lp - arg_m) / (2.0 * eps) * scale


# ---------------------------------------------------------------------------
# public element-level API
# ---------------------------------------------------------------------------

def exp(z: CDNumber) -> CDNumber:
    return CDNumber(z.level, exp_arrays(z.coeffs))


def exp_series(z: CDNumber, terms: int = 40) -> CDNumber:
    """Partial sum of the defining series sum z^k / k!."""
    if terms < 1:
        raise DomainError("series needs at least one term")
    acc = from_real(z.level, 1.0)
    term = from_real(z.level, 1.0)
    for k in range(1, terms):
        term = mul(term, z) / k
        acc = acc + term
    return acc


def ln_principal(z: CDNumber) -> CDNumber:
    return CDNumber(z.level, ln_arrays(z.coeffs))


def polar_decompose(z: CDNumber) -> PolarForm:
    _, rho, theta, mu = _ln_with_parts(z.coeffs)
    return PolarForm(rho=float(rho), direction=CDNumber(z.level, mu), theta=float(theta))


def dln_apply(z: CDNumber, h: CDNumber) -> CDNumber:
    if z.level.r != h.level.r:
        raise DomainError("argument and direction live at different levels")
    return CDNumber(z.level, dln_arrays(z.coeffs, h.coeffs))


_TRIG_KINDS = ("cos", "sin", "cosh", "sinh")


def trig(z: CDNumber, which: str) -> CDNumber:
    """Plane-wise trigonometric / hyperbolic functions.

    For z = v + yM these are the complex formulas with M in place of i:

        cos z  = cos v cosh y - sin v sinh y M
        sin z  = sin v cosh y + cos v sinh y M
        cosh z = cosh v cos y + sinh v sin y M      (= [exp z + exp(-z)]/2)
        sinh z = sinh v cos y + cosh v sin y M      (= [exp z - exp(-z)]/2)

    Real z comes out exactly real (sinh 0 = 0 kills the M component), which
    routes sin at real arguments to the real sine automatically.
    """
    if which not in _TRIG_KINDS:
        raise DomainError(f"which must be one of {_TRIG_KINDS}, got {which!r}")
    v, y, mu = _split_parts(z.coeffs)
    v = float(v)
    y = float(y)
    if which == "cos":
        re, im = math.cos(v) * math.cosh(y), -math.sin(v) * math.sinh(y)
    elif which == "sin":
        re, im = math.sin(v) * math.cosh(y), math.cos(v) * math.sinh(y)
    elif which == "cosh":
        re, im = math.cosh(v) * math.cos(y), math.sinh(v) * math.sin(y)
    else:
        re, im = math.sinh(v) * math.cos(y), math.cosh(v) * math.sin(y)
    out = im * mu
    out[0] += re
    return CDNumber(z.level, out)
