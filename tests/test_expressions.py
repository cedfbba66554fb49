"""Parser, evaluator, superdifferential, and primitive tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfun.algebra import (
    CDNumber,
    basis_element,
    embed,
    from_real,
    mul,
    mul_arrays,
    one,
    random_element,
    zero,
)
from cdfun.errors import ExprSyntaxError, PoleError, UnsupportedShapeError
from cdfun.expressions import (
    Add,
    Const,
    Mul,
    Neg,
    Phrase,
    PowNode,
    Sub,
    VarPow,
    derivative_apply,
    evaluate,
    evaluate_two_slot,
    format_phrase,
    hat_apply,
    parse,
    phrase_from_json,
    phrase_to_json,
    phrase_words,
    primitive,
    structural_equal,
    _left_power_string,
)


def _rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# parsing and round trips
# ---------------------------------------------------------------------------

def test_parse_examples():
    # product of basis units, level 2: e1*e2 = e3
    assert evaluate(parse("e1*e2", 2), zero(2)).allclose(basis_element(2, 3), 0)
    # z^2 - 1 at z = e2: -2
    got = evaluate(parse("z^2-1", 2), basis_element(2, 2))
    assert got.allclose(from_real(2, -2.0), 1e-15)
    # chains are left-associative: e1*e2*e4 = (e1 e2) e4 = e7, not -(e7)
    assert evaluate(parse("e1*e2*e4", 3), zero(3)).allclose(basis_element(3, 7), 0)
    assert evaluate(parse("e1*(e2*e4)", 3), zero(3)).allclose(-basis_element(3, 7), 0)


@pytest.mark.parametrize(
    "text,pos",
    [
        ("z^1.5", 2),
        ("e9", 0),
        ("z +* 2", 3),
        ("z^99", 2),
        ("(z", 2),
        ("2 + @", 4),
        ("3^2", 1),
    ],
)
def test_syntax_errors_carry_positions(text, pos):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text, 2)
    assert err.value.position == pos


def test_trailing_input_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("z z", 2)


@pytest.mark.parametrize(
    "text",
    [
        "z^2-1",
        "e1*z^-1*e2",
        "(z-1)^-2",
        "-z*e3+0.5",
        "zc^3",
        "(z-e1)^2*e5",
        "z^0",
        "2.5e-3*z",
        "1.5+2*e3",
        "z*(z*z)",
        "-(z+1)",
    ],
)
def test_format_parse_round_trip(text):
    p = parse(text, 3)
    again = parse(format_phrase(p), 3)
    assert structural_equal(p.root, again.root)
    via_json = phrase_from_json(phrase_to_json(p), 3)
    assert structural_equal(p.root, via_json.root)


_scalars = st.floats(min_value=0.125, max_value=8.0, allow_nan=False)


@st.composite
def _random_phrase_text(draw, level=3):
    """Random grammar-conforming expression text."""
    d = 1 << level

    def atom():
        kind = draw(st.sampled_from(["scalar", "basis", "var", "varpow"]))
        if kind == "scalar":
            return repr(float(draw(_scalars)))
        if kind == "basis":
            return f"e{draw(st.integers(0, d - 1))}"
        if kind == "var":
            return draw(st.sampled_from(["z", "zc"]))
        return f"z^{draw(st.integers(-3, 5))}"

    def term():
        parts = [atom() for _ in range(draw(st.integers(1, 3)))]
        return "*".join(parts)

    terms = [term() for _ in range(draw(st.integers(1, 3)))]
    text = terms[0]
    for t in terms[1:]:
        text += draw(st.sampled_from(["+", "-"])) + t
    if draw(st.booleans()):
        text = f"({text})^{draw(st.integers(1, 2))}"
    return text


@given(_random_phrase_text())
@settings(max_examples=80, deadline=None)
def test_round_trip_property(text):
    p = parse(text, 3)
    assert structural_equal(p.root, parse(format_phrase(p), 3).root)


def test_json_accepts_plain_tree_and_nary_fold():
    tree = {
        "op": "add",
        "args": [
            {"op": "mul", "args": [{"const": [0, 1, 0, 0]}, {"var": "z", "pow": 2}]},
            {"const": [1, 0, 0, 0]},
            {"var": "zc"},
        ],
    }
    p = phrase_from_json(tree, 2)
    want = Add(
        Add(Mul(Const([0, 1, 0, 0]), VarPow(False, 2)), Const([1, 0, 0, 0])),
        VarPow(True, 1),
    )
    assert structural_equal(p.root, want)


def test_phrase_words_flatten_signs():
    words = phrase_words(parse("z^2 - e1*z + 3", 2))
    assert [w.sign for w in words] == [1, -1, 1]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_quaternion_square_oracle():
    # (a + bi + cj + dk)^2 = a^2 - (b^2+c^2+d^2) + 2a(bi+cj+dk), by hand
    z = CDNumber(2, [1.0, 2.0, -1.0, 0.5])
    got = evaluate(parse("z^2", 2), z)
    a, b, c, d = 1.0, 2.0, -1.0, 0.5
    want = CDNumber(2, [a * a - (b * b + c * c + d * d), 2 * a * b, 2 * a * c, 2 * a * d])
    assert got.allclose(want, 1e-14)


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_batched_evaluation_matches_pointwise(seed, r):
    rng = _rng(seed)
    f = parse("z^3 - e1*z + 2", r)
    Z = rng.standard_normal((6, 1 << r))
    batch = evaluate(f, Z)
    for k in range(6):
        assert np.allclose(batch[k], evaluate(f, CDNumber(r, Z[k])).coeffs, atol=1e-12)


def test_zero_power_is_one_and_pole_error():
    assert evaluate(parse("z^0", 3), zero(3)).allclose(one(3), 0)
    with pytest.raises(PoleError):
        evaluate(parse("z^-1", 3), zero(3))


def test_two_slot_evaluation_binds_zc_independently():
    rng = _rng(4)
    f = parse("z + 0.5*zc", 3)
    z1, z2 = random_element(3, rng), random_element(3, rng)
    assert evaluate_two_slot(f, z1, z2).allclose(z1 + z2 * 0.5, 1e-14)
    # diagonal reduces to plain evaluation
    assert evaluate_two_slot(f, z1, z1.conj()).allclose(evaluate(f, z1), 1e-14)


# ---------------------------------------------------------------------------
# superdifferential
# ---------------------------------------------------------------------------

def test_square_derivative_cancels_at_i_with_j():
    # D(z^2).h = zh + hz; at z=i, h=j the quaternion terms cancel
    f = parse("z^2", 2)
    got = derivative_apply(f, basis_element(2, 1), basis_element(2, 2))
    assert got.norm() == 0.0


def test_cube_derivative_uses_left_brackets():
    # D(z^3).h = ((h z) z) + ((z h) z) + z^2 h, each term left-bracketed
    rng = _rng(9)
    z, h = random_element(3, rng), random_element(3, rng)
    f = parse("z^3", 3)
    want = mul(mul(h, z), z) + mul(mul(z, h), z) + mul(mul(z, z), h)
    assert derivative_apply(f, z, h).allclose(want, 1e-12)


def test_constant_phrase_hat_is_h():
    rng = _rng(10)
    z, h = random_element(3, rng), random_element(3, rng)
    assert hat_apply(parse("1", 3), z, h).allclose(h, 1e-12)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["z^2", "z^3-e2*z", "e1*z^2*e3", "zc^2", "z*(z*z)"]))
@settings(max_examples=60, deadline=None)
def test_derivative_matches_finite_difference(seed, text):
    rng = _rng(seed)
    r = 3
    f = parse(text, r)
    z, h = random_element(r, rng), random_element(r, rng)
    t = 1e-6 * (1 + z.norm())
    wrt = "zc" if "zc" in text else "z"
    sym = derivative_apply(f, z, h, wrt=wrt)
    num = (evaluate(f, z + h * t) - evaluate(f, z - h * t)) / (2 * t)
    scale = 1e-6 * (1 + sym.norm() + z.norm() ** 3)
    assert (sym - num).norm() < scale


def test_z_derivative_ignores_zc_and_vice_versa():
    rng = _rng(12)
    z, h = random_element(3, rng), random_element(3, rng)
    f = parse("zc^2", 3)
    assert derivative_apply(f, z, h, wrt="z").norm() == 0.0
    g = parse("z^2", 3)
    assert derivative_apply(g, z, h, wrt="zc").norm() == 0.0
    # D_zc(zc).h = conj(h)
    assert derivative_apply(parse("zc", 3), z, h, wrt="zc").allclose(h.conj(), 1e-14)


def test_product_rule_against_manual_split():
    rng = _rng(13)
    z, h = random_element(3, rng), random_element(3, rng)
    f = parse("(z^2)*(z-1)", 3)
    u, v = parse("z^2", 3), parse("z-1", 3)
    want = mul(derivative_apply(u, z, h), evaluate(v, z)) + mul(
        evaluate(u, z), derivative_apply(v, z, h)
    )
    assert derivative_apply(f, z, h).allclose(want, 1e-12)


def test_negative_power_inverse_rule_matches_fd_through_octonions():
    rng = _rng(14)
    for r in (1, 2, 3):
        z = random_element(r, rng) + from_real(r, 3.0)
        h = random_element(r, rng)
        sym = derivative_apply(parse("z^-2", r), z, h)
        t = 1e-6
        num = (evaluate(parse("z^-2", r), z + h * t) - evaluate(parse("z^-2", r), z - h * t)) / (2 * t)
        assert (sym - num).norm() < 1e-7


def test_sedenion_negative_power_fd_agrees_with_embedded_quaternion_rule():
    # At elements of an associative subalgebra the finite-difference fallback
    # must reproduce the exact inverse-rule value computed at level 2.
    rng = _rng(15)
    zq = random_element(2, rng) + from_real(2, 2.0)
    hq = random_element(2, rng)
    exact = derivative_apply(parse("z^-1", 2), zq, hq)
    approx = derivative_apply(parse("z^-1", 4), embed(zq, 4), embed(hq, 4))
    assert (approx - embed(exact, 4)).norm() < 1e-8


@pytest.mark.parametrize(
    "text,wrt",
    [("z^-1", "z"), ("e1*z^-2*e5", "z"), ("(z-e3)^-3*e2", "z"), ("zc^-2", "zc")],
)
def test_negative_power_derivative_exact_on_embedded_octonions(text, wrt):
    # The octonions sit inside every higher level, so the closed-form
    # inverse differential must reproduce the level-3 value there.
    rng = _rng(18)
    z = random_element(3, rng) + from_real(3, 3.0)
    h = random_element(3, rng)
    want = derivative_apply(parse(text, 3), z, h, wrt=wrt)
    for r in range(4, 9):
        got = derivative_apply(parse(text, r), embed(z, r), embed(h, r), wrt=wrt)
        assert (got - embed(want, r)).norm() <= 1e-13 * want.norm()


def _power_string_by_terms(bv, inc, n, r):
    """sum_k (b^k * inc) * b * ... * b, one left-bracketed term at a time."""
    total = np.zeros_like(inc)
    powk = np.zeros_like(bv)
    powk[..., 0] = 1.0
    for k in range(n):
        term = mul_arrays(powk, inc, r) if k else np.array(inc, copy=True)
        for _ in range(n - 1 - k):
            term = mul_arrays(term, bv, r)
        total = total + term
        if k < n - 1:
            powk = mul_arrays(powk, bv, r)
    return total


@pytest.mark.parametrize("r", [3, 5, 8])
def test_power_string_recurrence_matches_term_by_term_sum(r):
    rng = _rng(19)
    d = 1 << r
    for n in range(1, 9):
        b, h = rng.standard_normal((2, d))
        want = _power_string_by_terms(b, h, n, r)
        got = _left_power_string(b, h, n, r)
        tol = 1e-12 * (1 + np.linalg.norm(b)) ** n * np.linalg.norm(h)
        assert np.linalg.norm(got - want) <= tol


@pytest.mark.parametrize(
    "text,wrt",
    [("zc^-1", "z"), ("z^-1", "zc"), ("z*(zc^-2+1)", "z"), ("(e1-e1)^-1*z", "z"), ("z^-3", "z")],
)
def test_derivative_at_vanishing_negative_power_base_is_pole(text, wrt):
    # the pole is reported even where the derivative of the singular factor
    # is structurally zero
    with pytest.raises(PoleError):
        derivative_apply(parse(text, 3), zero(3), one(3), wrt=wrt)


# ---------------------------------------------------------------------------
# primitives / hat
# ---------------------------------------------------------------------------

def test_primitive_of_simple_pole_is_sandwich_log():
    pr = primitive(parse("e1*z^-1*e2", 3))
    assert len(pr.log_terms) == 1
    a, c, b = pr.log_terms[0].sandwich(pr.poly.level)
    assert a.allclose(basis_element(3, 1), 0)
    assert c.allclose(zero(3), 0)
    assert b.allclose(basis_element(3, 2), 0)


def test_primitive_of_shifted_pole_tracks_center():
    pr = primitive(parse("(z-2)^-1", 2))
    assert len(pr.log_terms) == 1
    _, c, _ = pr.log_terms[0].sandwich(pr.poly.level)
    assert c.allclose(from_real(2, 2.0), 0)


def test_primitive_polynomial_part_scales():
    # z^2 integrates to z^3/3; check by differentiating back
    rng = _rng(16)
    z, h = random_element(3, rng), random_element(3, rng)
    pr = primitive(parse("z^2", 3))
    back = derivative_apply(pr.poly, z, h)
    # derivative of primitive in direction h is the hat increment; at h=1 it is f
    assert hat_apply(parse("z^2", 3), z, one(3)).allclose(evaluate(parse("z^2", 3), z), 1e-9)
    assert back.allclose(hat_apply(parse("z^2", 3), z, h), 1e-12)


@pytest.mark.parametrize(
    "text",
    [
        "z^2",
        "e1*z^-1*e2",
        "(z-1)^-2",
        "e2*(z-1)^-3*e5 + 4",
        "(z-e1)^-1",
        "3*z^4-e3",
        "(z-e1)^2",
        "e2*(0.5-z)^3*e5",
        "((z-e1)^2)^2",
    ],
)
def test_hat_with_unit_increment_recovers_f(text):
    rng = _rng(17)
    f = parse(text, 3)
    z = random_element(3, rng) + from_real(3, 3.0)
    got = hat_apply(f, z, one(3))
    want = evaluate(f, z)
    assert (got - want).norm() < 1e-9 * (1 + want.norm())


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("z*e1*z", "more than one variable factor"),
        ("zc^-1", "conjugated variable"),
        ("(zc-e1)^2", "no primitive for words in the conjugated variable"),
        ("(z^2+1)^-1", "not a power of (z - c)"),
        ("(z*e1+e2)^60", "not a power of (z - c): (z*e1+e2)^60"),
        ("(2*z)^40", "not a power of (z - c): (2.0*z)^40"),
    ],
)
def test_primitive_unsupported_shapes_name_the_word(text, fragment):
    with pytest.raises(UnsupportedShapeError) as err:
        primitive(parse(text, 3))
    assert fragment in str(err.value)


def test_primitive_distributes_products_over_sums():
    # (z+1)*e1 has a perfectly good primitive after expansion
    rng = _rng(18)
    f = parse("(z+1)*e1", 3)
    pr = primitive(f)
    assert not pr.log_terms
    z, h = random_element(3, rng), random_element(3, rng)
    assert hat_apply(f, z, one(3)).allclose(evaluate(f, z), 1e-9)


def test_structural_equality_discriminates():
    a = parse("z*(z*z)", 3)
    b = parse("z*z*z", 3)
    assert not structural_equal(a.root, b.root)
    assert structural_equal(a.root, parse("z*(z*z)", 3).root)
