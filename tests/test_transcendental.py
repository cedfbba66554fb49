"""Exponential, principal logarithm, polar form, and logarithmic differential tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfun.algebra import (
    CDNumber,
    basis_element,
    from_real,
    mul,
    one,
    random_element,
    random_unit_imaginary,
    zero,
)
from cdfun.errors import SingularElementError
from cdfun.expressions import parse
from cdfun.integrate import Path, line_integral
from cdfun.transcendental import (
    dln_arrays,
    exp,
    exp_series,
    ln_arrays,
    ln_principal,
    polar_decompose,
)


def _rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# exponential
# ---------------------------------------------------------------------------

def test_exp_pi_times_imaginary_unit_is_minus_one():
    for r in (1, 2, 3, 4):
        got = exp(basis_element(r, 1) * math.pi)
        assert got.allclose(from_real(r, -1.0), 1e-14)


def test_exp_half_pi_recovers_direction():
    rng = _rng(0)
    for r in (2, 3, 4):
        m = random_unit_imaginary(r, rng)
        assert exp(m * (math.pi / 2)).allclose(m, 1e-13)


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_exp_matches_power_series(seed, r):
    rng = _rng(seed)
    z = random_element(r, rng)
    if z.norm() > 3.0:
        z = z * (3.0 / z.norm())
    assert (exp(z) - exp_series(z, terms=60)).norm() < 1e-10


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_exp_norm_is_exp_of_real_part(seed, r):
    z = random_element(r, _rng(seed))
    assert abs(exp(z).norm() - math.exp(z.re)) < 1e-12 * math.exp(abs(z.re))


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_exp_periodic_along_own_plane(seed, n):
    rng = _rng(seed)
    z = random_element(3, rng)
    pf = polar_decompose(z)
    shifted = z + pf.direction * (2 * math.pi * n)
    assert (exp(z) - exp(shifted)).norm() < 1e-10


def test_exp_is_not_multiplicative_across_planes():
    # exp(pi e1) exp(pi e2) = 1, but exp(pi(e1+e2)) lives at angle pi*sqrt(2)
    z1 = basis_element(2, 1) * math.pi
    z2 = basis_element(2, 2) * math.pi
    lhs = exp(z1 + z2)
    rhs = mul(exp(z1), exp(z2))
    assert (lhs - rhs).norm() > 1.5


# ---------------------------------------------------------------------------
# principal logarithm and polar form
# ---------------------------------------------------------------------------

def test_ln_of_minus_one_uses_first_basis_direction():
    for r in (1, 2, 3):
        got = ln_principal(from_real(r, -1.0))
        assert got.allclose(basis_element(r, 1) * math.pi, 1e-14)


def test_ln_rejects_zero():
    with pytest.raises(SingularElementError):
        ln_principal(zero(3))


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_exp_of_ln_round_trip(seed, r):
    z = random_element(r, _rng(seed))
    if z.norm() < 1e-3:
        z = z + from_real(r, 1.0)
    assert (exp(ln_principal(z)) - z).norm() < 1e-12 * (1 + z.norm())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_polar_angle_in_principal_range(seed):
    z = random_element(3, _rng(seed)) + from_real(3, 0.1)
    pf = polar_decompose(z)
    assert 0.0 <= pf.theta <= math.pi
    rebuilt = (one(3) * math.cos(pf.theta) + pf.direction * math.sin(pf.theta)) * pf.rho
    assert rebuilt.allclose(z, 1e-12 * (1 + z.norm()))


# ---------------------------------------------------------------------------
# logarithmic differential
# ---------------------------------------------------------------------------

def _dln(z, h):
    """D Ln(z).h of two elements at one level."""
    return CDNumber(z.level, dln_arrays(z.coeffs, h.coeffs))


def test_dln_in_commuting_plane_is_division():
    # restricted to a single plane the derivative of ln is h/z
    rng = _rng(7)
    for _ in range(10):
        m = random_unit_imaginary(3, rng)
        a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5)
        c, d = rng.standard_normal(), rng.standard_normal()
        z = one(3) * a + m * b
        h = one(3) * c + m * d
        got = _dln(z, h)
        want = mul(h, z.inverse())
        assert (got - want).norm() < 1e-6


def test_dln_radial_direction_gives_inverse_scale():
    rng = _rng(8)
    z = random_element(3, rng) + from_real(3, 2.0)
    assert (_dln(z, z) - one(3)).norm() < 1e-6


def test_dln_smooth_across_principal_cut():
    # the differential belongs to the multivalued continuation: moving off
    # the negative real axis in the e2 direction has derivative e2/(-1)
    z = from_real(2, -1.0)
    got = _dln(z, basis_element(2, 2))
    assert (got + basis_element(2, 2)).norm() < 1e-6


def test_dln_exact_next_to_the_origin():
    # z = 1e-9 e1, h = e2: theta = pi/2 and the direction turns by h/|z|,
    # so D Ln(z).h = (theta/|Im z|) h = (pi/2) 1e9 e2
    got = _dln(basis_element(2, 1) * 1e-9, basis_element(2, 2))
    want = basis_element(2, 2) * (math.pi / 2 * 1e9)
    assert (got - want).norm() <= 1e-12 * want.norm()


def _richardson_dln(Z, H, step):
    """Central difference of the principal logarithm, extrapolated once.

    step has one entry per row; the error is O(step^4) plus rounding of
    order 1e-16 |Ln| / step.
    """
    def central(s):
        s = s[:, None]
        return (ln_arrays(Z + s * H) - ln_arrays(Z - s * H)) / (2.0 * s)

    return (4.0 * central(step / 2.0) - central(step)) / 3.0


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_dln_matches_extrapolated_difference_of_ln(r):
    # away from the real axis (|Im z| >= 0.1 |z|) the principal logarithm is
    # smooth on the whole stencil, so its difference quotient is a reference
    # independent of the closed form
    rng = _rng(300 + r)
    d = 1 << r
    Z = rng.standard_normal((600, d)) * rng.uniform(0.2, 5.0, (600, 1))
    Z = Z[np.linalg.norm(Z[:, 1:], axis=1) >= 0.1 * np.linalg.norm(Z, axis=1)]
    H = rng.standard_normal(Z.shape)
    H /= np.linalg.norm(H, axis=1)[:, None]
    ref = _richardson_dln(Z, H, 1e-3 * np.linalg.norm(Z[:, 1:], axis=1))
    err = np.linalg.norm(dln_arrays(Z, H) - ref, axis=1)
    assert len(Z) >= 300
    assert np.all(err <= 1e-9 * (1.0 + np.linalg.norm(ref, axis=1)))


@pytest.mark.parametrize("re", [2.0, -2.0])
def test_dln_at_real_z_is_division_by_the_real_part(re):
    # on the real axis the differential is that of the logarithm continued
    # along z + t h, whatever plane h leaves in
    rng = _rng(9)
    for r in (2, 3, 5):
        z = from_real(r, re)
        for _ in range(5):
            h = CDNumber(r, rng.standard_normal(1 << r))
            assert (_dln(z, h) - h * (1.0 / re)).norm() <= 1e-15 * h.norm()


def test_loop_integral_of_inverse_is_exact():
    # the z^-1 primitive is Ln z, so the loop integral is 2 pi n M up to the
    # rounding of the logarithm differential, for any radius and level
    rng = _rng(11)
    for r in (2, 3, 4):
        f = parse("z^-1", r)
        for m in [random_unit_imaginary(r, rng) for _ in range(4)]:
            for turns in (1, 2, 3):
                for rho in (0.5, 2.0):
                    res = line_integral(f, Path.circle(zero(r), rho, m, turns))
                    assert (res.value - m * (2.0 * math.pi * turns)).norm() <= 1e-9


def test_dln_fine_near_positive_axis():
    # small imaginary parts near the positive real axis are not a cut
    z = from_real(2, 1.0) + basis_element(2, 1) * 1e-12
    got = _dln(z, basis_element(2, 1))
    assert (got - basis_element(2, 1)).norm() < 1e-5
