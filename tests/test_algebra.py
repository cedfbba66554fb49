"""Algebra kernel tests: tables, identities, inverses, zero divisors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfun.algebra import (
    EPS_ZERO,
    _BLOCK_ELEMENTS,
    basis_element,
    basis_table,
    conj_via_generators,
    embed,
    find_zero_divisor,
    from_real,
    mul,
    mul_arrays,
    one,
    pow_int,
    random_element,
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


def _basis_product(t, a, b):
    """(sign, index) of e_a e_b as the product kernel reads them: column
    index = a ^ b of row a of the signed gather table, negative when the
    entry carries bit d."""
    d = t.level.basis_dim
    entry = int(t.right[a, a ^ b])
    return (-1 if entry >= d else 1), a ^ (entry % d)


def test_quaternion_table_matches_hand_oracle():
    t = basis_table(2)
    for a in range(4):
        for b in range(4):
            sign, index = _basis_product(t, a, b)
            assert sign == QUAT_SIGN[a][b]
            assert index == QUAT_INDEX[a][b]


def test_octonion_nonassociativity_witness():
    # (i j) l = k l but i (j l) = -(k l): the classic doubling failure.
    i, j, k, ell = (basis_element(3, n) for n in (1, 2, 3, 4))
    kl = mul(k, ell)
    assert mul(mul(i, j), ell).allclose(kl, 0)
    assert mul(i, mul(j, ell)).allclose(-kl, 0)
    # coordinates: e3*e4 = +e7 and e1*e6 = -e7
    assert _basis_product(basis_table(3), 3, 4) == (1, 7)
    assert _basis_product(basis_table(3), 1, 6) == (-1, 7)


@pytest.mark.parametrize("r", range(1, 9))
def test_basis_product_index_is_xor(r):
    t = basis_table(r)
    d = 1 << r
    ar = np.arange(d)
    xor = ar[:, None] ^ ar[None, :]
    assert np.array_equal(t.right % d, xor)
    assert np.array_equal(t.right >= d, t.sign[ar[:, None], xor] < 0)
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
            sign, index = _basis_product(t, a, b)
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


def _left_associated_power(x, n, r):
    """((x*x)*x)*... with |n| factors of x (or of its inverse), the unit for n = 0."""
    from cdfun import algebra

    base = algebra.inverse_arrays(x, r) if n < 0 else x
    out = np.zeros_like(x)
    out[..., 0] = 1.0
    for k in range(abs(n)):
        out = mul_arrays(out, base, r) if k else base
    return out


@pytest.mark.parametrize("r", range(1, 9))
def test_power_is_plane_wise_and_makes_no_product(r, monkeypatch):
    from cdfun import algebra

    rng = _rng(40 + r)
    d = 1 << r
    # rows of norm 1e-12..1e12, a real row, a negative real row and a unit
    batch = rng.standard_normal((13, d)) * np.logspace(-12, 12, 13)[:, None]
    batch[3, 1:] = 0.0
    batch[7, 1:] = 0.0
    batch[7, 0] = -2.5
    batch[9] = 0.0
    batch[9, d - 1] = 1.0
    units = np.eye(d)[sorted({1, d // 2, d - 1})]

    def refuse(x, y, lev):
        raise AssertionError("pow_arrays formed a product")

    for n in range(-5, 13):
        want = _left_associated_power(batch, n, r)
        want_units = _left_associated_power(units, n, r)
        with monkeypatch.context() as m:
            m.setattr(algebra, "mul_arrays", refuse)
            got = algebra.pow_arrays(batch, n, r)
            got_units = algebra.pow_arrays(units, n, r)
            got_one = algebra.pow_arrays(batch[4], n, r)
        # held to each row's own scale |x|^|n| (|x^-1|^|n| for n < 0)
        base = algebra.inverse_arrays(batch, r) if n < 0 else batch
        scale = np.linalg.norm(base, axis=-1) ** abs(n)
        assert np.all(np.linalg.norm(got - want, axis=-1) <= 1e-12 * scale), n
        assert np.array_equal(got_units, want_units), n
        assert np.linalg.norm(got_one - got[4]) <= 4e-16 * scale[4], n
    once = algebra.pow_arrays(batch, 1, r)
    assert np.array_equal(once, batch) and not np.shares_memory(once, batch)
    with_zero = batch.copy()
    with_zero[5] = 0.0
    assert not np.any(algebra.pow_arrays(with_zero, 3, r)[5])
    with pytest.raises(SingularElementError):
        algebra.pow_arrays(with_zero, -2, r)


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
    zi = z.inverse()
    assert mul(z, zi).allclose(one(r), 1e-10)
    assert mul(zi, z).allclose(one(r), 1e-10)


def test_inverse_of_zero_raises_and_eps_zero_is_tiny():
    with pytest.raises(SingularElementError):
        zero(3).inverse()
    # far below float underflow thresholds nothing else is "singular"
    assert EPS_ZERO == 1e-300
    small = from_real(2, 1e-150)
    assert abs(small.inverse().re - 1e150) / 1e150 < 1e-12


@pytest.mark.parametrize("r", [2, 8])
def test_inverse_scales_only_rows_whose_squared_norm_is_not_normal(r):
    from cdfun.algebra import inverse_arrays

    rng = np.random.default_rng(r)
    x = rng.standard_normal((5, 1 << r))
    x[1] *= 1e200  # |x|^2 overflows
    x[3] *= 1e-170  # |x|^2 underflows into the subnormals
    with np.errstate(over="ignore"):
        got = inverse_arrays(x, r)
    plain = [0, 2, 4]
    n2 = np.sum(np.square(x[plain]), axis=-1, keepdims=True)
    conj = -x[plain]
    conj[:, 0] = x[plain, 0]
    assert np.array_equal(got[plain], conj / n2)
    for k in (1, 3):
        assert np.allclose(mul_arrays(x[k], got[k], r), one(r).coeffs, rtol=0.0, atol=1e-13)
    with pytest.raises(SingularElementError):
        inverse_arrays(np.full((2, 1 << r), 1e-303), r)  # |x| <= 1.6e-302


@given(levels, seeds)
@settings(max_examples=40, deadline=None)
def test_split_and_recombine(r, seed):
    z = random_element(r, _rng(seed))
    v, m = z.re, z.imag()
    assert m.re == 0.0
    assert (from_real(r, v) + m).allclose(z, 0)


def test_embed_pads_with_zeros_and_only_raises_the_level():
    rng = _rng(3)
    q = random_element(2, rng)
    s = embed(q, 4)
    assert s.level.r == 4
    assert np.array_equal(s.coeffs[:4], q.coeffs)
    assert np.all(s.coeffs[4:] == 0)
    with pytest.raises(DomainError):
        embed(s, 2)


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


def test_zero_divisor_exact_at_every_level_from_four_up():
    x4 = basis_element(4, 1) - basis_element(4, 10)
    y4 = basis_element(4, 4) + basis_element(4, 15)
    for r in range(4, 9):
        x, y = find_zero_divisor(r)
        assert (x, y) == (embed(x4, r), embed(y4, r))
        assert not np.any(mul(x, y).coeffs)
        assert not np.any(_mul_by_doubling(x.coeffs, y.coeffs))
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
    # sizes of one row block and of one block plus a row, so that a batch
    # spanning two blocks is checked at every level
    for r in range(1, 9):
        d = 1 << r
        n_gather = max(_BLOCK_ELEMENTS // (d * d), 1)
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
    c, e = rng.standard_normal((2, d))
    Y = rng.standard_normal((3, d))
    # a batch pair spanning two row blocks of the batch x batch kernel
    X2, Y2 = rng.standard_normal((2, max(_BLOCK_ELEMENTS // (d * d), 1) + 1, d))
    table = basis_table(r)

    def products():
        return mul_arrays(c, Y, r), mul_arrays(Y, c, r), mul_arrays(X2, Y2, r), mul_arrays(c, e, r)

    clean = products()
    saved = table.right.copy()
    table.right[1, 2] ^= d  # bit d of an entry is its sign
    try:
        flipped = products()
    finally:
        table.right[...] = saved
    for before, after in zip(clean, flipped):
        assert not np.allclose(before, after)


def test_sign_table_reaches_unit_operand_products():
    # At r = 8 a product by a scaled basis unit reads right as a signed
    # permutation: a left factor s e1 reads row 1, a right factor s e3 the
    # entries (c ^ 3, c), which include (1, 2) at c = 2.
    r = 8
    d = 1 << r
    rng = _rng(13)
    c = rng.standard_normal(d)
    Y = rng.standard_normal((3, d))
    e1, e3 = 0.3 * basis_element(r, 1).coeffs, -2.5 * basis_element(r, 3).coeffs
    table = basis_table(r)

    def products():
        return mul_arrays(e1, Y, r), mul_arrays(Y, e3, r), mul_arrays(e1, c, r), mul_arrays(c, e3, r)

    clean = products()
    saved = table.right.copy()
    table.right[1, 2] ^= d
    try:
        flipped = products()
    finally:
        table.right[...] = saved
    for before, after in zip(clean, flipped):
        assert not np.allclose(before, after)


def _parent_forms(x, y, r):
    """The four product forms as the sign-times-XOR-gather kernel wrote them,
    rebuilt from the published sign table and the XOR index a ^ c."""
    t = basis_table(r)
    d = 1 << r
    ar = np.arange(d)
    xor_ac = ar[:, None] ^ ar[None, :]
    sign_ac = t.sign[ar[:, None], xor_ac].astype(np.float64)
    if y.ndim == 1 < x.ndim:
        return x @ (sign_ac * y[xor_ac])
    if x.ndim == 1 < y.ndim:
        return y @ (x[xor_ac] * sign_ac[xor_ac, np.arange(d)])
    x, y = np.broadcast_arrays(x, y)
    rows = max(_BLOCK_ELEMENTS // (d * d), 1)
    if x.size <= rows * d:
        return np.einsum("...a,...ac->...c", x, y[..., xor_ac] * sign_ac)
    x2, y2 = x.reshape(-1, d), y.reshape(-1, d)
    out = np.empty(x2.shape)
    for s in range(0, len(x2), rows):
        gathered = y2[s : s + rows][:, xor_ac] * sign_ac
        np.einsum("na,nac->nc", x2[s : s + rows], gathered, out=out[s : s + rows])
    return out.reshape(x.shape)


@pytest.mark.parametrize("r", range(1, 9))
def test_every_product_form_keeps_the_bits_of_the_sign_table_kernel(r):
    rng = _rng(40 + r)
    d = 1 << r
    rows = max(_BLOCK_ELEMENTS // (d * d), 1)

    def operand(kind, *shape):
        v = rng.standard_normal((*shape, d))
        if kind in ("basis", "-0 basis"):  # a scaled basis constant in every row
            v = np.full((*shape, d), -0.0 if kind == "-0 basis" else 0.0)
            v[..., rng.integers(d)] = rng.choice([-2.5, 0.3])
        elif kind == "zeros":  # +0.0 and -0.0 among the entries
            v[rng.random(v.shape) < 0.6] = 0.0
            v[rng.random(v.shape) < 0.5] *= -1.0
        return v

    shapes = [((), ()), ((), (5,)), ((5,), ()), ((rows,), (rows,)), ((rows + 1,), (rows + 1,)),
              ((1,), (5,)), ((5,), (1,))]
    kinds = ("random", "basis", "-0 basis", "zeros")
    for sx, sy in shapes:
        for kx in kinds:
            for ky in kinds:
                x, y = operand(kx, *sx), operand(ky, *sy)
                got, want = mul_arrays(x, y, r), _parent_forms(x, y, r)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (sx, sy, kx, ky)
                # an inf or NaN in the other operand of a product by a
                # scaled basis unit leaves the product non-finite
                if sx == () and "basis" in kx:
                    other = y
                elif sy == () and "basis" in ky:
                    other = x
                else:
                    continue
                for bad in (np.inf, np.nan):
                    saved = other.flat[0]
                    other.flat[0] = bad
                    with np.errstate(invalid="ignore"):  # 0 * inf in the table forms
                        assert not np.all(np.isfinite(mul_arrays(x, y, r))), (sx, sy, kx, ky, bad)
                    other.flat[0] = saved


@pytest.mark.parametrize("r", range(1, 9))
def test_batch_product_rows_have_the_bits_of_element_products(r):
    # each row of a batch x batch product, in one block, in a full block and
    # across two blocks, is the element x element product of its two rows
    d = 1 << r
    rows = max(_BLOCK_ELEMENTS // (d * d), 1)
    rng = _rng(60 + r)
    for n in (1, rows, rows + 1):
        X, Y = rng.standard_normal((2, n, d))
        got = mul_arrays(X, Y, r)
        for i in range(n):
            assert got[i].tobytes() == mul_arrays(X[i], Y[i], r).tobytes(), (n, i)


def test_empty_batches_give_empty_products():
    d = 8
    e, empty = np.ones(d), np.ones((0, d))
    for x, y, shape in [(empty, empty, (0, d)), (empty, e, (0, d)), (e, empty, (0, d)),
                        (np.ones((2, 0, d)), np.ones((1, 0, d)), (2, 0, d))]:
        assert mul_arrays(x, y, 3).shape == shape


def test_batch_shapes_that_do_not_broadcast_raise_domain_error():
    with pytest.raises(DomainError, match="do not broadcast"):
        mul_arrays(np.ones((2, 4)), np.ones((3, 4)), 2)
    with pytest.raises(DomainError):
        mul_arrays(np.float64(1.0), np.ones(4), 2)
