"""Cauchy-Riemann, harmonicity, and anti-holomorphic slot-derivative checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfun.algebra import (
    CDNumber,
    basis_element,
    from_real,
    mul,
    norm,
    random_element,
)
from cdfun.diffcheck import (
    RealFieldSample,
    cr_check,
    harmonic_check,
    right_superlinear_nullspace,
    right_superlinear_sample,
    zbar_check,
)
from cdfun.errors import DomainError, UnsupportedShapeError
from cdfun.expressions import (
    Add,
    Const,
    Mul,
    Phrase,
    VarPow,
    derivative_apply,
    parse,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _sample(text, r, step=1e-5):
    return RealFieldSample.from_expression(text, r, step=step)


# ---------------------------------------------------------------------------
# cr_check
# ---------------------------------------------------------------------------

def test_cr_conjugation_fails_at_two():
    rng = np.random.default_rng(11)
    rep = cr_check(_sample("zc", 3), random_element(3, rng))
    assert not rep.verdict
    # d(conj z)/dw_1 = 1 while (d(conj z)/dw_q) e_q^* = -1: residual exactly 2
    for q in range(1, 8):
        assert rep.per_pair[f"e{q}"] == pytest.approx(2.0, abs=1e-8)


def test_cr_constant_passes():
    rep = cr_check(_sample("(1.5)+(0.25)*e3", 3), from_real(3, 0.3))
    assert rep.verdict
    assert rep.max_residual <= 1e-12


def test_cr_square_passes_on_real_axis():
    rep = cr_check(_sample("z^2", 3), from_real(3, 0.7), threshold=1e-5)
    assert rep.verdict
    assert rep.max_residual <= 1e-5


def test_cr_square_fails_off_axis_with_predicted_residual():
    # At z = w_1 + sum w_q e_q the plane-q residual of z^2 is exactly
    # 2*|z - (w_1 + w_q e_q)|: the differential h -> hz + zh is only
    # right-linear along the plane spanned by 1 and e_q.
    rng = np.random.default_rng(23)
    z = random_element(3, rng)
    rep = cr_check(_sample("z^2", 3), z)
    assert not rep.verdict
    w = z.coeffs
    for q in range(1, 8):
        perp = np.array(w)
        perp[0] = 0.0
        perp[q] = 0.0
        assert rep.per_pair[f"e{q}"] == pytest.approx(2.0 * np.linalg.norm(perp), abs=1e-6)


def test_cr_left_multiplication_passes_everywhere():
    rng = np.random.default_rng(5)
    for r in (2, 3):
        c = random_element(r, rng)
        f = Phrase(c.level, Mul(Const(np.array(c.coeffs)), VarPow(False, 1)))
        rep = cr_check(RealFieldSample.from_phrase(f), random_element(r, rng))
        assert rep.verdict, rep.max_residual


def test_cr_right_multiplication_fails():
    rng = np.random.default_rng(6)
    rep = cr_check(_sample("z*e3", 2), random_element(2, rng))
    assert not rep.verdict
    assert rep.max_residual == pytest.approx(2.0, abs=1e-8)


def test_cr_callable_route_matches_phrase_route():
    f = parse("z^2 + e2*z", 2)
    from cdfun.expressions import eval_node_arrays

    def func(w):
        return eval_node_arrays(f.root, w, 2)

    z = random_element(2, np.random.default_rng(9))
    a = cr_check(RealFieldSample.from_phrase(f), z)
    b = cr_check(RealFieldSample(2, func), z)
    for key in a.per_pair:
        assert a.per_pair[key] == pytest.approx(b.per_pair[key], rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# harmonic_check
# ---------------------------------------------------------------------------

def test_harmonic_norm_square_fails_at_four():
    # z*zc has real component sum w_s^2: every pair-Laplacian is 2 + 2.
    rng = np.random.default_rng(31)
    rep = harmonic_check(_sample("z*zc", 3), random_element(3, rng))
    assert not rep.verdict
    for key, value in rep.per_pair.items():
        assert value == pytest.approx(4.0, abs=1e-4), key


def test_harmonic_square_split_by_pair_kind():
    # z^2 is pair-harmonic only in pairs containing the real direction:
    # F_1 = w_1^2 - sum w_q^2 gives 2 - 2 = 0 there and -2 - 2 = -4 on
    # imaginary-imaginary pairs.
    rng = np.random.default_rng(37)
    rep = harmonic_check(_sample("z^2", 3), random_element(3, rng))
    assert not rep.verdict
    for p, q in itertools.combinations(range(8), 2):
        expected = 0.0 if p == 0 else 4.0
        assert rep.per_pair[f"e{p}|e{q}"] == pytest.approx(expected, abs=1e-4)


def test_harmonic_linear_passes():
    rep = harmonic_check(_sample("e2*z + (0.5)", 2), random_element(2, np.random.default_rng(41)))
    assert rep.verdict
    assert rep.max_residual <= 1e-6


def test_harmonic_passes_generated_family_at_ten_x():
    rng = np.random.default_rng(43)
    for r in (2, 3):
        G = right_superlinear_sample(r, 1, rng)
        z = random_element(r, rng)
        assert cr_check(G, z).verdict
        assert harmonic_check(G, z, threshold=1e-3).verdict


# ---------------------------------------------------------------------------
# zbar_check
# ---------------------------------------------------------------------------

def test_zbar_pure_phrase_passes_exactly():
    rng = np.random.default_rng(47)
    rep = zbar_check(_sample("e2*z^3", 3), random_element(3, rng))
    assert rep.verdict
    assert rep.max_residual == 0.0
    assert set(rep.per_pair) == {"e0|e1", "e2|e3", "e4|e5", "e6|e7"}


def test_zbar_conjugation_fails_every_pair():
    rng = np.random.default_rng(53)
    rep = zbar_check(_sample("zc", 3), random_element(3, rng))
    assert not rep.verdict
    for value in rep.per_pair.values():
        assert value == pytest.approx(1.0, abs=1e-9)


def test_zbar_mixture_scales_with_conjugate_weight():
    rng = np.random.default_rng(59)
    rep = zbar_check(_sample("z + (0.5)*zc", 3), random_element(3, rng))
    assert not rep.verdict
    for value in rep.per_pair.values():
        assert value == pytest.approx(0.5, abs=1e-9)


def test_zbar_sees_conjugate_inside_products():
    rng = np.random.default_rng(61)
    rep = zbar_check(_sample("z^2 + (0.3)*zc^2", 2), random_element(2, rng))
    assert not rep.verdict


def test_zbar_requires_expression_backed_sample():
    F = RealFieldSample(2, lambda w: w)
    with pytest.raises(DomainError):
        zbar_check(F, from_real(2, 0.1))


# ---------------------------------------------------------------------------
# right-superlinear generator
# ---------------------------------------------------------------------------

def test_nullspace_dimensions():
    # Degree 1: exactly the left multiplications (one per basis element).
    # Degree >= 2: empty — the everywhere-right-linear class is affine.
    assert right_superlinear_nullspace(2, 1)[1].shape[0] == 4
    assert right_superlinear_nullspace(2, 2)[1].shape[0] == 0
    assert right_superlinear_nullspace(2, 3)[1].shape[0] == 0
    assert right_superlinear_nullspace(3, 1)[1].shape[0] == 8


def test_nullspace_degree_one_is_left_multiplication():
    # Every basis vector of the degree-1 null space acts as w -> c*z for the
    # c recovered from its value at z = 1.
    monos, basis = right_superlinear_nullspace(2, 1)
    rng = np.random.default_rng(67)
    for i in range(basis.shape[0]):
        coeff = basis[i]  # (M, d)
        def apply(w):
            vals = np.prod(np.power(w[None, :], monos), axis=1)
            return vals @ coeff
        c = CDNumber(2, apply(np.array([1.0, 0, 0, 0])))
        z = random_element(2, rng)
        got = CDNumber(2, apply(np.array(z.coeffs)))
        assert norm(mul(c, z) - got) <= 1e-12 * (1 + norm(c) * norm(z))


def test_generated_sample_passes_cr_at_random_points():
    for r in (2, 3):
        for seed in range(4):
            G = right_superlinear_sample(r, 1, np.random.default_rng(seed))
            for k in range(3):
                z = random_element(r, np.random.default_rng(1000 * seed + k))
                rep = cr_check(G, z)
                assert rep.verdict, (r, seed, rep.max_residual)
                assert rep.max_residual <= 1e-9


def test_generator_rejects_unreachable_degrees():
    rng = np.random.default_rng(71)
    with pytest.raises(DomainError):
        right_superlinear_sample(2, 2, rng)
    with pytest.raises(DomainError):
        right_superlinear_sample(3, 0, rng)


def test_generator_deterministic_under_seed():
    a = right_superlinear_sample(2, 1, np.random.default_rng(123))
    b = right_superlinear_sample(2, 1, np.random.default_rng(123))
    w = np.array([0.3, -0.8, 0.2, 1.1])
    assert np.array_equal(a.func(w), b.func(w))


# ---------------------------------------------------------------------------
# separation: right-superlinearity (cr) is strictly stronger than holomorphy (zbar)
# ---------------------------------------------------------------------------

def _random_phrase(r, rng):
    """Random pure-z polynomial: sum of c*z^k and z^k*c words, degree <= 4."""
    d = 2**r
    terms = []
    degree_pool = [1, 1, 2, 2, 3, 4]
    for _ in range(rng.integers(1, 4)):
        k = int(rng.choice(degree_pool))
        c = Const(rng.standard_normal(d))
        body = VarPow(False, k)
        node = Mul(c, body) if rng.random() < 0.7 else Mul(body, c)
        terms.append(node)
    root = terms[0]
    for t in terms[1:]:
        root = Add(root, t)
    return Phrase(from_real(r, 0.0).level, root)


def _is_right_superlinear_at(f, z, rng):
    """Independent probe: D(h*e_q) == (D h)*e_q for random h and all planes."""
    d = 2**f.level.r
    scale = 0.0
    worst = 0.0
    for _ in range(3):
        h = random_element(f.level, rng)
        dh = derivative_apply(f, z, h)
        scale = max(scale, norm(dh))
        for q in range(1, d):
            eq = basis_element(f.level, q)
            lhs = derivative_apply(f, z, mul(h, eq))
            rhs = mul(dh, eq)
            worst = max(worst, norm(lhs - rhs))
    return worst <= 1e-8 * (1.0 + scale), worst


def _differential_is_left_multiplication(f, z, rng):
    """Independent probe: D h == (D 1) * h for random h."""
    c = derivative_apply(f, z, from_real(f.level, 1.0))
    worst = 0.0
    for _ in range(4):
        h = random_element(f.level, rng)
        worst = max(worst, norm(derivative_apply(f, z, h) - mul(c, h)))
    return worst <= 1e-8 * (1.0 + norm(c)), worst


@given(seeds, st.integers(min_value=2, max_value=3))
@settings(max_examples=50, deadline=None)
def test_cr_separates_from_holomorphy_on_pure_phrases(seed, r):
    # The Cauchy-Riemann verdict is exactly "the differential at z is a left
    # multiplication".  In the associative range that coincides with being
    # right-superlinear; for octonions superlinearity is strictly stronger
    # (the associator (c h) e_q - c (h e_q) survives), so only the
    # implications below are true — and zbar passes every pure-z phrase
    # no matter what cr says.
    rng = np.random.default_rng(seed)
    f = _random_phrase(r, rng)
    z = random_element(f.level, rng)
    F = RealFieldSample.from_phrase(f)
    rep = cr_check(F, z)
    superlinear, sl_witness = _is_right_superlinear_at(f, z, rng)
    leftmul, lm_witness = _differential_is_left_multiplication(f, z, rng)
    assert rep.verdict == leftmul, (str(f), rep.max_residual, lm_witness)
    if superlinear:
        assert rep.verdict, (str(f), rep.max_residual, sl_witness)
    if r == 2:
        assert superlinear == leftmul
    zrep = zbar_check(F, z)
    assert zrep.verdict
    assert zrep.max_residual <= 1e-12


# ---------------------------------------------------------------------------
# stencil order and report plumbing
# ---------------------------------------------------------------------------

def test_cr_residual_scales_as_step_squared():
    # z^3 passes at a real point; the surviving residual is pure truncation.
    a = from_real(3, 0.6)
    coarse = cr_check(_sample("z^3", 3, step=2e-2), a, threshold=1.0).max_residual
    fine = cr_check(_sample("z^3", 3, step=1e-2), a, threshold=1.0).max_residual
    assert coarse / fine == pytest.approx(4.0, rel=0.15)


def test_harmonic_deviation_scales_as_step_squared():
    # The z^4 residual at a real point converges to 24 a^2 at second order.
    a = from_real(2, 0.8)
    limit = 24 * 0.8**2
    coarse = harmonic_check(_sample("z^4", 2, step=2e-2), a, threshold=1.0).max_residual
    fine = harmonic_check(_sample("z^4", 2, step=1e-2), a, threshold=1.0).max_residual
    assert abs(coarse - limit) / abs(fine - limit) == pytest.approx(4.0, rel=0.25)


def test_report_json_schema():
    rep = cr_check(_sample("z^2", 3), from_real(3, 0.4))
    obj = rep.to_json()
    assert set(obj) == {"max_residual", "per_pair", "verdict"}
    assert obj["verdict"] in ("pass", "fail")
    assert set(obj["per_pair"]) == {f"e{q}" for q in range(1, 8)}
    assert all(v >= 0.0 for v in obj["per_pair"].values())


def test_sample_validation():
    with pytest.raises(DomainError):
        RealFieldSample.from_expression("z", 2, step=0.0)
    F = RealFieldSample(2, lambda w: np.zeros(3))
    with pytest.raises(UnsupportedShapeError):
        cr_check(F, from_real(2, 0.1))
    G = RealFieldSample(2, lambda w: np.full(4, np.nan))
    with pytest.raises(DomainError):
        cr_check(G, from_real(2, 0.1))


def test_level_mismatch_rejected():
    F = RealFieldSample.from_expression("z", 3)
    with pytest.raises(DomainError):
        cr_check(F, from_real(2, 0.1))
