"""Exponential, principal logarithm, polar form and logarithmic differential.

Everything here is plane-wise: a nonreal z lies in the commutative plane
R + R*M spanned by 1 and its unit imaginary direction M = Im z / |Im z|, and
the familiar complex formulas apply within that plane,

    exp(v + y M) = e^v (cos y + sin y M),
    Ln(z)        = ln|z| + theta M,   theta = atan2(|Im z|, Re z) in [0, pi].

The principal branch cuts along the negative real axis; there the direction
is not determined by z and defaults to e1.  dln_arrays differentiates Ln in
closed form, D Ln(z).h = <z,h>/|z|^2 + (v<M,Im h> - y h_0)/|z|^2 M +
(theta/y)(Im h - M<M,Im h>) with y = |Im z|, and as h / Re z at a
numerically real z.

Array variants (suffix _arrays) operate on batches with the coefficient axis
last; the public functions take and return CDNumber.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    EPS_ZERO,
    CDNumber,
    from_real,
    mul,
    norm_arrays,
)
from .errors import DomainError, SingularElementError


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


def numerically_real(y, rho):
    """Mask of elements with imaginary norm y at most 1e-12 of their norm rho."""
    return y <= 1e-12 * rho


def dln_arrays(Z, H) -> np.ndarray:
    """Directional derivative of the logarithm, D Ln(z).h, in closed form.

    With z = v + y M, y = |Im z|, differentiating ln|z|, theta = atan2(y, v)
    and M = Im z / y gives

        <z,h>/|z|^2 + (v<M,Im h> - y h_0)/|z|^2 M + (theta/y)(Im h - M<M,Im h>),

    the differential of the multivalued continuation, smooth off the origin
    although each principal value jumps across the negative real half-axis.
    A numerically real z lies in the plane R + R Im h of the step, so there
    the result is h / Re z.  Elsewhere theta/y <= pi * 1e12 / |z| is finite.
    """
    Z = np.asarray(Z, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    Z, H = np.broadcast_arrays(Z, H)
    rho = norm_arrays(Z)
    if np.any(rho <= EPS_ZERO):
        raise SingularElementError("logarithm differential at a zero element")
    v, y, mu = _split_parts(Z)
    rho2 = rho * rho
    real = numerically_real(y, rho)
    mh = np.einsum("...i,...i->...", mu, H)  # <M, Im h>: mu has a zero real slot
    turn = np.arctan2(y, v) / np.where(real, 1.0, y)
    out = turn[..., None] * (H - mh[..., None] * mu)
    out += ((v * mh - y * H[..., 0]) / rho2)[..., None] * mu
    out[..., 0] = np.einsum("...i,...i->...", Z, H) / rho2
    return np.where(real[..., None], H / np.where(real, v, 1.0)[..., None], out)


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
