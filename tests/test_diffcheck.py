"""Cauchy-Riemann, harmonicity, and anti-holomorphic slot-derivative checks."""

import importlib.util
import itertools
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfun.algebra import (
    CDNumber,
    basis_element,
    conj_arrays,
    from_real,
    mul,
    mul_arrays,
    norm_arrays,
    random_element,
)
from cdfun.diffcheck import (
    DEFAULT_STEP,
    cr_check,
    harmonic_check,
    zbar_check,
)
from cdfun.errors import DomainError
from cdfun.expressions import (
    Add,
    Const,
    Mul,
    Phrase,
    VarPow,
    derivative_apply,
    evaluate_two_slot,
    parse,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)

_DEMO = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "right_superlinear_demo.py"


def _load_demo():
    spec = importlib.util.spec_from_file_location("right_superlinear_demo", _DEMO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _left_multiplication(r, rng):
    """The phrase z -> c*z for a random c: right linear differential everywhere."""
    c = random_element(r, rng)
    return Phrase(c.level, Mul(Const(np.array(c.coeffs)), VarPow(False, 1)))


# ---------------------------------------------------------------------------
# cr_check
# ---------------------------------------------------------------------------

def test_cr_conjugation_fails_at_two():
    rng = np.random.default_rng(11)
    rep = cr_check(parse("zc", 3), random_element(3, rng))
    assert not rep.verdict
    # d(conj z)/dw_1 = 1 while (d(conj z)/dw_q) e_q^* = -1: residual exactly 2
    for q in range(1, 8):
        assert rep.per_pair[f"e{q}"] == pytest.approx(2.0, abs=1e-8)


def test_cr_constant_passes():
    rep = cr_check(parse("(1.5)+(0.25)*e3", 3), from_real(3, 0.3))
    assert rep.verdict
    assert rep.max_residual <= 1e-12


def test_cr_square_passes_on_real_axis():
    rep = cr_check(parse("z^2", 3), from_real(3, 0.7), threshold=1e-5)
    assert rep.verdict
    assert rep.max_residual <= 1e-5


def test_cr_square_fails_off_axis_with_predicted_residual():
    # At z = w_1 + sum w_q e_q the plane-q residual of z^2 is exactly
    # 2*|z - (w_1 + w_q e_q)|: the differential h -> hz + zh is only
    # right-linear along the plane spanned by 1 and e_q.
    rng = np.random.default_rng(23)
    z = random_element(3, rng)
    rep = cr_check(parse("z^2", 3), z)
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
        rep = cr_check(_left_multiplication(r, rng), random_element(r, rng))
        assert rep.verdict, rep.max_residual


def test_cr_right_multiplication_fails():
    rng = np.random.default_rng(6)
    rep = cr_check(parse("z*e3", 2), random_element(2, rng))
    assert not rep.verdict
    assert rep.max_residual == pytest.approx(2.0, abs=1e-8)


# ---------------------------------------------------------------------------
# harmonic_check
# ---------------------------------------------------------------------------

def test_harmonic_norm_square_fails_at_four():
    # z*zc has real component sum w_s^2: every pair-Laplacian is 2 + 2.
    rng = np.random.default_rng(31)
    rep = harmonic_check(parse("z*zc", 3), random_element(3, rng))
    assert not rep.verdict
    for key, value in rep.per_pair.items():
        assert value == pytest.approx(4.0, abs=1e-4), key


def test_harmonic_square_split_by_pair_kind():
    # z^2 is pair-harmonic only in pairs containing the real direction:
    # F_1 = w_1^2 - sum w_q^2 gives 2 - 2 = 0 there and -2 - 2 = -4 on
    # imaginary-imaginary pairs.
    rng = np.random.default_rng(37)
    rep = harmonic_check(parse("z^2", 3), random_element(3, rng))
    assert not rep.verdict
    for p, q in itertools.combinations(range(8), 2):
        expected = 0.0 if p == 0 else 4.0
        assert rep.per_pair[f"e{p}|e{q}"] == pytest.approx(expected, abs=1e-4)


def test_harmonic_linear_passes():
    rep = harmonic_check(parse("e2*z + (0.5)", 2), random_element(2, np.random.default_rng(41)))
    assert rep.verdict
    assert rep.max_residual <= 1e-6


def test_harmonic_passes_generated_family_at_ten_x():
    rng = np.random.default_rng(43)
    for r in (2, 3):
        G = _left_multiplication(r, rng)
        z = random_element(r, rng)
        assert cr_check(G, z).verdict
        assert harmonic_check(G, z, threshold=1e-3).verdict


# ---------------------------------------------------------------------------
# zbar_check
# ---------------------------------------------------------------------------

def test_zbar_pure_phrase_passes_exactly():
    rng = np.random.default_rng(47)
    rep = zbar_check(parse("e2*z^3", 3), random_element(3, rng))
    assert rep.verdict
    assert rep.max_residual == 0.0
    assert set(rep.per_pair) == {"e0|e1", "e2|e3", "e4|e5", "e6|e7"}


def test_zbar_conjugation_fails_every_pair():
    rng = np.random.default_rng(53)
    rep = zbar_check(parse("zc", 3), random_element(3, rng))
    assert not rep.verdict
    for value in rep.per_pair.values():
        assert value == pytest.approx(1.0, abs=1e-9)


def test_zbar_mixture_scales_with_conjugate_weight():
    rng = np.random.default_rng(59)
    rep = zbar_check(parse("z + (0.5)*zc", 3), random_element(3, rng))
    assert not rep.verdict
    for value in rep.per_pair.values():
        assert value == pytest.approx(0.5, abs=1e-9)


def test_zbar_sees_conjugate_inside_products():
    rng = np.random.default_rng(61)
    rep = zbar_check(parse("z^2 + (0.3)*zc^2", 2), random_element(2, rng))
    assert not rep.verdict


# ---------------------------------------------------------------------------
# right-superlinear maps: the null space solved in scripts/right_superlinear_demo.py
# ---------------------------------------------------------------------------

def test_nullspace_dimensions():
    # Degree 1: exactly the left multiplications (one per basis element).
    # Degree >= 2: empty — the everywhere-right-linear class is affine.
    right_superlinear_nullspace = _load_demo().right_superlinear_nullspace
    assert right_superlinear_nullspace(2, 1)[1].shape[0] == 4
    assert right_superlinear_nullspace(2, 2)[1].shape[0] == 0
    assert right_superlinear_nullspace(2, 3)[1].shape[0] == 0
    assert right_superlinear_nullspace(3, 1)[1].shape[0] == 8


def test_nullspace_degree_one_is_left_multiplication():
    # Every basis vector of the degree-1 null space acts as w -> c*z for the
    # c recovered from its value at z = 1.
    monos, basis = _load_demo().right_superlinear_nullspace(2, 1)
    rng = np.random.default_rng(67)
    for i in range(basis.shape[0]):
        coeff = basis[i]  # (M, d)
        def apply(w):
            vals = np.prod(np.power(w[None, :], monos), axis=1)
            return vals @ coeff
        c = CDNumber(2, apply(np.array([1.0, 0, 0, 0])))
        z = random_element(2, rng)
        got = CDNumber(2, apply(np.array(z.coeffs)))
        assert (mul(c, z) - got).norm() <= 1e-12 * (1 + c.norm() * z.norm())


def test_generated_sample_passes_cr_at_random_points():
    for r in (2, 3):
        for seed in range(4):
            G = _left_multiplication(r, np.random.default_rng(seed))
            for k in range(3):
                z = random_element(r, np.random.default_rng(1000 * seed + k))
                rep = cr_check(G, z)
                assert rep.verdict, (r, seed, rep.max_residual)
                assert rep.max_residual <= 1e-9


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
        scale = max(scale, dh.norm())
        for q in range(1, d):
            eq = basis_element(f.level, q)
            lhs = derivative_apply(f, z, mul(h, eq))
            rhs = mul(dh, eq)
            worst = max(worst, (lhs - rhs).norm())
    return worst <= 1e-8 * (1.0 + scale), worst


def _differential_is_left_multiplication(f, z, rng):
    """Independent probe: D h == (D 1) * h for random h."""
    c = derivative_apply(f, z, from_real(f.level, 1.0))
    worst = 0.0
    for _ in range(4):
        h = random_element(f.level, rng)
        worst = max(worst, (derivative_apply(f, z, h) - mul(c, h)).norm())
    return worst <= 1e-8 * (1.0 + c.norm()), worst


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
    rep = cr_check(f, z)
    superlinear, sl_witness = _is_right_superlinear_at(f, z, rng)
    leftmul, lm_witness = _differential_is_left_multiplication(f, z, rng)
    assert rep.verdict == leftmul, (str(f), rep.max_residual, lm_witness)
    if superlinear:
        assert rep.verdict, (str(f), rep.max_residual, sl_witness)
    if r == 2:
        assert superlinear == leftmul
    zrep = zbar_check(f, z)
    assert zrep.verdict
    assert zrep.max_residual <= 1e-12


# ---------------------------------------------------------------------------
# stencil order and report plumbing
# ---------------------------------------------------------------------------

def test_cr_residual_scales_as_step_squared():
    # z^3 passes at a real point; the surviving residual is pure truncation.
    a = from_real(3, 0.6)
    coarse = cr_check(parse("z^3", 3), a, threshold=1.0, step=2e-2).max_residual
    fine = cr_check(parse("z^3", 3), a, threshold=1.0, step=1e-2).max_residual
    assert coarse / fine == pytest.approx(4.0, rel=0.15)


def test_harmonic_deviation_scales_as_step_squared():
    # The z^4 residual at a real point converges to 24 a^2 at second order.
    a = from_real(2, 0.8)
    limit = 24 * 0.8**2
    coarse = harmonic_check(parse("z^4", 2), a, threshold=1.0, step=2e-2).max_residual
    fine = harmonic_check(parse("z^4", 2), a, threshold=1.0, step=1e-2).max_residual
    assert abs(coarse - limit) / abs(fine - limit) == pytest.approx(4.0, rel=0.25)


def test_report_json_schema():
    rep = cr_check(parse("z^2", 3), from_real(3, 0.4))
    obj = rep.to_json()
    assert set(obj) == {"max_residual", "per_pair", "verdict"}
    assert obj["verdict"] in ("pass", "fail")
    assert set(obj["per_pair"]) == {f"e{q}" for q in range(1, 8)}
    assert all(v >= 0.0 for v in obj["per_pair"].values())


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_sample_validation():
    for check in (cr_check, harmonic_check, zbar_check):
        with pytest.raises(DomainError):
            check(parse("z", 2), from_real(2, 0.1), step=0.0)
    # (1e10)^60 overflows inside the stencil, to inf and then inf - inf
    big = from_real(2, 1e10)
    for check in (cr_check, harmonic_check, zbar_check):
        with pytest.raises(DomainError, match="non-finite"):
            check(parse("z^60", 2), big)


@pytest.mark.parametrize(
    "check,text,step,w",
    [(cr_check, "zc", 1e-320, [0.3, 0.1, -0.2, 0.5]), (zbar_check, "zc", 1e-320, [0.3, 0.1, -0.2, 0.5]),
     (harmonic_check, "zc*z", 1e-200, [0.3, 0.1, -0.2, 0.5]), (harmonic_check, "z^2", 1e-170, [0.0] * 4)],
    ids=["cr-rounds", "zbar-rounds", "harmonic-rounds", "harmonic-underflows"],
)
def test_step_lost_to_rounding_is_a_domain_error(check, text, step, w):
    # 0.3 + 1e-320 rounds to 0.3, and at 0, where every stencil coordinate
    # moves by h, (1e-170)^2 underflows: the checks reported residual 0 or NaN
    with pytest.raises(DomainError, match="rounding"):
        check(parse(text, 2), CDNumber(2, w), step=step)
    # h^2 = 1e-300 is a normal double
    check(parse(text, 2), from_real(2, 0.0), step=1e-150)


def test_level_mismatch_rejected():
    with pytest.raises(DomainError):
        cr_check(parse("z", 3), from_real(2, 0.1))


# ---------------------------------------------------------------------------
# batched stencils against the per-direction loops they replaced
# ---------------------------------------------------------------------------

def _at(f, w, wbar=None):
    """The phrase at one point, as the per-direction loops evaluated it."""
    return evaluate_two_slot(f, w, conj_arrays(w) if wbar is None else wbar)


def _reference_per_pair(kind, f, z):
    """per_pair of one check, one stencil point per evaluation."""
    w = np.array(z.coeffs, dtype=float)
    d = w.size
    h = DEFAULT_STEP * (1.0 + float(norm_arrays(w)))
    per = {}
    if kind == "cr":
        partials = np.empty((d, d))
        for t in range(d):
            e = np.zeros(d)
            e[t] = h
            partials[t] = (_at(f, w + e) - _at(f, w - e)) / (2.0 * h)
        for q in range(1, d):
            eq_conj = conj_arrays(basis_element(f.level, q).coeffs)
            candidate = mul_arrays(partials[q], eq_conj, f.level.r)
            per[f"e{q}"] = float(norm_arrays(partials[0] - candidate))
    elif kind == "harmonic":
        center = _at(f, w)
        second = np.empty((d, d))
        for t in range(d):
            e = np.zeros(d)
            e[t] = h
            second[t] = (_at(f, w + e) - 2.0 * center + _at(f, w - e)) / (h * h)
        for p, q in itertools.combinations(range(d), 2):
            per[f"e{p}|e{q}"] = float(np.max(np.abs(second[p] + second[q])))
    else:
        wbar = conj_arrays(w)
        for j in range(d // 2):
            worst = 0.0
            for t in (2 * j, 2 * j + 1):
                e = np.zeros(d)
                e[t] = h
                plus = _at(f, w, wbar + e)
                minus = _at(f, w, wbar - e)
                worst = max(worst, float(norm_arrays((plus - minus) / (2.0 * h))))
            per[f"e{2 * j}|e{2 * j + 1}"] = worst
    return per


_CHECKS = {"cr": cr_check, "harmonic": harmonic_check, "zbar": zbar_check}


@pytest.mark.parametrize(
    "r, kind", [(r, kind) for r in (1, 2, 3, 4) for kind in sorted(_CHECKS)] + [(r, "cr") for r in (5, 6, 7, 8)]
)
def test_batched_stencil_matches_per_direction_loops(r, kind):
    # Constants that are scaled basis elements make every product with them
    # exact, so one batch and one point at a time give the same bits.  The
    # cr case runs up to r = 8, where its gather from the sign table stands
    # against one product by conj(e_q) per direction.
    rng = np.random.default_rng([r, len(kind)])
    for text in ("e1*z^3*e1 + (0.5)*zc^-2", "z*zc + (z - 0.3)^-1*e1",
                 "(0.2)*zc^3*e1 + z^-1 + z^2*(1.5)"):
        f = parse(text, r)
        z = random_element(r, rng)
        got = _CHECKS[kind](f, z).per_pair
        want = _reference_per_pair(kind, f, z)
        assert list(got) == list(want)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()], text


@pytest.mark.parametrize("kind", sorted(_CHECKS))
@pytest.mark.parametrize("r", [2, 3])
def test_batched_stencil_with_dense_constants_agrees_to_rounding(kind, r):
    # A dense constant times a batch is a matrix product whose summation
    # order differs from the single-point product, so the values agree to
    # the rounding of a d-term sum, amplified by 1/h (first differences) or
    # 1/h^2 (second differences).
    rng = np.random.default_rng([r, 7, len(kind)])
    d = 2**r
    c1, c2 = Const(rng.standard_normal(d)), Const(rng.standard_normal(d))
    root = Add(Mul(c1, VarPow(False, 3)), Mul(Mul(VarPow(True, -2), c2), VarPow(False, 1)))
    f = Phrase(from_real(r, 0.0).level, root)
    z = random_element(r, rng)
    w = np.array(z.coeffs)
    h = DEFAULT_STEP * (1.0 + float(norm_arrays(w)))
    scale = float(np.max(np.abs(_at(f, w)))) + 1.0
    tol = 4 * d * np.finfo(float).eps * scale / (h * h if kind == "harmonic" else h)
    got = _CHECKS[kind](f, z).per_pair
    want = _reference_per_pair(kind, f, z)
    assert list(got) == list(want)
    assert max(abs(got[k] - want[k]) for k in want) <= tol
