"""Algebra kernel tests: tables, identities, inverses, zero divisors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfun.algebra import (
    CDNumber,
    EPS_ZERO,
    _GATHER_LIMIT,
    basis_element,
    basis_table,
    conj_via_generators,
    embed,
    find_zero_divisor,
    from_real,
    inverse,
    mul,
    mul_arrays,
    one,
    pow_int,
    project_down,
    random_element,
    split,
    zero,
    _mul_by_doubling,
)
from cdfun.errors import DomainError, LevelMismatchError, SingularElementError

# Hand-written quaternion oracle over (1, i, j, k): row * column.
# Frozen independently of the table builder.
QUAT_SIGN = [
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, -1, -1, 1],
    [1, 1, -1, -1],
]
QUAT_INDEX = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


def _rng(seed):
    return np.random.default_rng(seed)


levels = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_quaternion_table_matches_hand_oracle():
    t = basis_table(2)
    for a in range(4):
        for b in range(4):
            sign, index = t.product(a, b)
            assert sign == QUAT_SIGN[a][b]
            assert index == QUAT_INDEX[a][b]


def test_octonion_nonassociativity_witness():
    # (i j) l = k l but i (j l) = -(k l): the classic doubling failure.
    i, j, k, ell = (basis_element(3, n) for n in (1, 2, 3, 4))
    kl = mul(k, ell)
    assert mul(mul(i, j), ell).allclose(kl, 0)
    assert mul(i, mul(j, ell)).allclose(-kl, 0)
    # coordinates: e3*e4 = +e7 and e1*e6 = -e7
    assert basis_table(3).product(3, 4) == (1, 7)
    assert basis_table(3).product(1, 6) == (-1, 7)


@pytest.mark.parametrize("r", range(1, 9))
def test_basis_product_index_is_xor(r):
    t = basis_table(r)
    d = 1 << r
    ar = np.arange(d)
    assert np.array_equal(t.index, (ar[:, None] ^ ar[None, :]).astype(t.index.dtype))
    assert np.all(np.abs(t.sign) == 1)
    # e0 is the two-sided identity
    assert np.all(t.sign[0] == 1) and np.all(t.sign[:, 0] == 1)


@pytest.mark.parametrize("r", range(1, 9))
def test_table_matches_doubling_reference(r):
    d = 1 << r
    rng = _rng(100 + r)
    for _ in range(3):
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        assert np.allclose(mul_arrays(x, y, r), _mul_by_doubling(x, y), atol=1e-12)
    # and exactly on basis pairs
    t = basis_table(r)
    for a in range(d):
        ea = np.zeros(d)
        ea[a] = 1.0
        for b in range(0, d, max(1, d // 8)):
            eb = np.zeros(d)
            eb[b] = 1.0
            got = mul_arrays(ea, eb, r)
            sign, index = t.product(a, b)
            want = np.zeros(d)
            want[index] = sign
            assert np.array_equal(got, want)


@given(levels, seeds)
@settings(max_examples=60, deadline=None)
def test_conjugation_is_an_involution_and_antiautomorphism(r, seed):
    rng = _rng(seed)
    a = random_element(r, rng)
    b = random_element(r, rng)
    assert a.conj().conj().allclose(a, 1e-14)
    lhs = mul(a, b).conj()
    rhs = mul(b.conj(), a.conj())
    assert lhs.allclose(rhs, 1e-10 * (1 + a.norm() * b.norm()))


@given(levels, seeds)
@settings(max_examples=60, deadline=None)
def test_nicely_normed(r, seed):
    rng = _rng(seed)
    a = random_element(r, rng)
    s = a + a.conj()
    assert abs(s.re - 2 * a.re) < 1e-12
    assert np.max(np.abs(s.coeffs[1:])) == 0.0
    n2 = mul(a, a.conj())
    assert abs(n2.re - a.norm_sq()) < 1e-10 * (1 + a.norm_sq())
    assert np.max(np.abs(n2.coeffs[1:])) < 1e-10 * (1 + a.norm_sq())


@given(st.integers(min_value=1, max_value=3), seeds)
@settings(max_examples=60, deadline=None)
def test_norm_multiplicative_through_octonions(r, seed):
    rng = _rng(seed)
    a = random_element(r, rng)
    b = random_element(r, rng)
    assert abs(mul(a, b).norm() - a.norm() * b.norm()) < 1e-10 * (1 + a.norm() * b.norm())


def test_norm_multiplicativity_fails_at_sedenions():
    pair = find_zero_divisor(4)
    assert pair is not None
    x, y = pair
    assert mul(x, y).norm() == 0.0
    assert abs(x.norm() * y.norm() - 2.0) < 1e-12


@given(st.integers(min_value=1, max_value=3), seeds)
@settings(max_examples=60, deadline=None)
def test_alternative_through_octonions(r, seed):
    rng = _rng(seed)
    a = random_element(r, rng)
    b = random_element(r, rng)
    scale = 1e-12 * (1 + a.norm() ** 2 * b.norm())
    assert mul(mul(a, a), b).allclose(mul(a, mul(a, b)), scale)
    assert mul(mul(b, a), a).allclose(mul(b, mul(a, a)), scale)


def test_alternativity_violated_at_sedenions():
    # search a few random pairs; a violation with residual > 0.1 must exist
    rng = _rng(7)
    best = 0.0
    for _ in range(200):
        a = random_element(4, rng)
        b = random_element(4, rng)
        res = (mul(mul(a, a), b) - mul(a, mul(a, b))).norm()
        best = max(best, res)
        if best > 0.1:
            break
    assert best > 0.1


@given(levels, seeds, st.integers(min_value=-3, max_value=8), st.integers(min_value=-3, max_value=8))
@settings(max_examples=60, deadline=None)
def test_power_associativity(r, seed, m, n):
    rng = _rng(seed)
    z = random_element(r, rng)
    if z.norm() < 1e-2:  # keep negative powers well conditioned
        z = z + from_real(r, 1.0)
    lhs = mul(pow_int(z, m), pow_int(z, n))
    rhs = pow_int(z, m + n)
    scale = max(1.0, z.norm() ** (m + n) if m + n >= 0 else z.norm() ** (m + n))
    assert lhs.allclose(rhs, 1e-9 * (1 + abs(scale)))


@pytest.mark.parametrize("r", [1, 3, 6])
def test_power_skips_the_unit_factor(r, monkeypatch):
    from cdfun import algebra

    rng = _rng(40 + r)
    batch = rng.normal(size=(5, 1 << r))
    real_mul = algebra.mul_arrays
    calls = []

    def counting(x, y, lev):
        calls.append(lev)
        return real_mul(x, y, lev)

    for n in range(-5, 13):
        # reference: binary exponentiation started from the unit
        x = algebra.inverse_arrays(batch, r) if n < 0 else batch
        want = np.zeros_like(batch)
        want[:, 0] = 1.0
        k, base = abs(n), x
        while k:
            if k & 1:
                want = real_mul(want, base, r)
            k >>= 1
            if k:
                base = real_mul(base, base, r)
        calls.clear()
        monkeypatch.setattr(algebra, "mul_arrays", counting)
        got = algebra.pow_arrays(batch, n, r)
        monkeypatch.setattr(algebra, "mul_arrays", real_mul)
        assert np.array_equal(got, want), n
        k = abs(n)
        assert len(calls) == (k.bit_length() + bin(k).count("1") - 2 if k else 0), n
    once = algebra.pow_arrays(batch, 1, r)
    assert np.array_equal(once, batch) and not np.shares_memory(once, batch)


@given(st.integers(min_value=2, max_value=6), seeds)
@settings(max_examples=40, deadline=None)
def test_conj_via_generators_matches_conj(r, seed):
    z = random_element(r, _rng(seed))
    assert conj_via_generators(z).allclose(z.conj(), 1e-10 * (1 + z.norm()))


@given(levels, seeds)
@settings(max_examples=40, deadline=None)
def test_inverse_is_two_sided(r, seed):
    rng = _rng(seed)
    z = random_element(r, rng)
    if z.norm() < 1e-6:
        z = z + one(r)
    zi = inverse(z)
    assert mul(z, zi).allclose(one(r), 1e-10)
    assert mul(zi, z).allclose(one(r), 1e-10)


def test_inverse_of_zero_raises_and_eps_zero_is_tiny():
    with pytest.raises(SingularElementError):
        inverse(zero(3))
    # far below float underflow thresholds nothing else is "singular"
    assert EPS_ZERO == 1e-300
    small = from_real(2, 1e-150)
    assert abs(inverse(small).re - 1e150) / 1e150 < 1e-12


@given(levels, seeds)
@settings(max_examples=40, deadline=None)
def test_split_and_recombine(r, seed):
    z = random_element(r, _rng(seed))
    v, m = split(z)
    assert m.re == 0.0
    assert (from_real(r, v) + m).allclose(z, 0)


def test_embed_and_project_down():
    rng = _rng(3)
    q = random_element(2, rng)
    s = embed(q, 4)
    assert s.level.r == 4
    assert np.array_equal(s.coeffs[:4], q.coeffs)
    assert np.all(s.coeffs[4:] == 0)
    back = project_down(s, 2)
    assert back.allclose(q, 0)
    with pytest.raises(DomainError):
        embed(s, 2)  # lowering must go through project_down
    bad = s + basis_element(4, 9)
    with pytest.raises(DomainError):
        project_down(bad, 2)


@given(st.integers(min_value=2, max_value=5), seeds)
@settings(max_examples=30, deadline=None)
def test_embedding_is_a_homomorphism(r, seed):
    rng = _rng(seed)
    a = random_element(r, rng)
    b = random_element(r, rng)
    hi = mul(embed(a, r + 1), embed(b, r + 1))
    assert hi.allclose(embed(mul(a, b), r + 1), 1e-10 * (1 + a.norm() * b.norm()))


def test_level_mismatch_raises():
    with pytest.raises(LevelMismatchError):
        mul(one(2), one(3))
    with pytest.raises(LevelMismatchError):
        one(2) + one(3)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_no_zero_divisors_below_sedenions(r):
    assert find_zero_divisor(r) is None


def test_zero_divisor_budget_exhaustion():
    assert find_zero_divisor(4, search_budget=0) is None


def test_zero_divisor_exact_at_every_level_from_four_up():
    for r in (4, 5, 6):
        x, y = find_zero_divisor(r)
        assert mul(x, y).norm() == 0.0
        assert abs(x.norm() - np.sqrt(2)) < 1e-15
        assert abs(y.norm() - np.sqrt(2)) < 1e-15


@given(levels, seeds)
@settings(max_examples=40, deadline=None)
def test_batched_multiplication_matches_scalar_loop(r, seed):
    rng = _rng(seed)
    d = 1 << r
    X = rng.standard_normal((5, d))
    Y = rng.standard_normal((5, d))
    c = rng.standard_normal(d)
    batch = mul_arrays(X, Y, r)
    left_const = mul_arrays(c, Y, r)
    right_const = mul_arrays(X, c, r)
    for i in range(5):
        assert np.allclose(batch[i], mul_arrays(X[i], Y[i], r), atol=1e-12)
        assert np.allclose(left_const[i], mul_arrays(c, Y[i], r), atol=1e-12)
        assert np.allclose(right_const[i], mul_arrays(X[i], c, r), atol=1e-12)


def test_large_dimension_row_loop_path():
    # every operand-shape pairing against the doubling reference, with batch
    # sizes on both sides of the gather/row-loop switch
    for r in range(1, 9):
        d = 1 << r
        n_gather = _GATHER_LIMIT // (d * d)
        rng = _rng(11 + r)
        x = rng.standard_normal(d)
        X = rng.standard_normal((n_gather + 1, d))
        Y = rng.standard_normal((n_gather + 1, d))
        assert np.allclose(mul_arrays(x, x, r), _mul_by_doubling(x, x), atol=1e-10)
        rows = (0, n_gather - 1)
        left_const, right_const = mul_arrays(x, Y, r), mul_arrays(X, x, r)
        for i in rows:
            assert np.allclose(left_const[i], _mul_by_doubling(x, Y[i]), atol=1e-10)
            assert np.allclose(right_const[i], _mul_by_doubling(X[i], x), atol=1e-10)
        gathered = mul_arrays(X[:n_gather], Y[:n_gather], r)
        looped = mul_arrays(X, Y, r)
        for i in rows:
            want = _mul_by_doubling(X[i], Y[i])
            assert np.allclose(gathered[i], want, atol=1e-10)
            assert np.allclose(looped[i], want, atol=1e-10)
        assert np.allclose(looped[n_gather], _mul_by_doubling(X[n_gather], Y[n_gather]), atol=1e-10)


@pytest.mark.parametrize("r", [2, 6])
def test_sign_table_reaches_constant_operand_products(r):
    rng = _rng(12)
    d = 1 << r
    c = rng.standard_normal(d)
    Y = rng.standard_normal((3, d))
    table = basis_table(r)
    clean = (mul_arrays(c, Y, r), mul_arrays(Y, c, r))
    saved = table.sign_ac.copy()
    table.sign_ac[1, 2] = -table.sign_ac[1, 2]
    try:
        flipped = (mul_arrays(c, Y, r), mul_arrays(Y, c, r))
    finally:
        table.sign_ac[...] = saved
    for before, after in zip(clean, flipped):
        assert not np.allclose(before, after)
