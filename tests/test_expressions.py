"""Parser, evaluator, superdifferential, and primitive tests."""

import json

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
    random_unit_imaginary,
    zero,
)
from cdfun.errors import ExprSyntaxError, PoleError, UnsupportedShapeError
from cdfun.expressions import (
    _DEPTH,
    _DZ,
    _DZC,
    _NEG,
    _VAR,
    MAX_DEPTH,
    Add,
    Const,
    Mul,
    Neg,
    Phrase,
    PowNode,
    Sub,
    Sum,
    VarPow,
    _children,
    _circle_degree,
    _fmt_const,
    _nodes,
    derivative_apply,
    eval_node_arrays,
    evaluate,
    format_phrase,
    hat_from_primitive,
    parse,
    phrase_from_json,
    phrase_to_json,
    primitive,
    _left_power_string,
    _words,
)
from cdfun.transcendental import dln_arrays


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
        ("1e999*z", 0),
        ("z+2*1e400", 4),
        ("1e999*e1", 0),
    ],
)
def test_syntax_errors_carry_positions(text, pos):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text, 2)
    assert err.value.position == pos


def test_number_beyond_the_double_range_is_a_syntax_error():
    # float("1e999") is inf, which reached evaluation as a coefficient
    with pytest.raises(ExprSyntaxError, match="number 1e999 overflows a double"):
        parse("1e999*z", 2)
    # the largest double is a number, and an underflow reads as 0
    assert parse("1.7976931348623157e308*e1", 2).root.value.tolist() == [0.0, 1.7976931348623157e308, 0.0, 0.0]
    assert not parse("1e-999", 2).root.value.any()


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
    tree = phrase_to_json(p)
    assert phrase_to_json(parse(format_phrase(p), 3)) == tree
    assert phrase_to_json(phrase_from_json(tree, 3)) == tree


@pytest.mark.parametrize("text", ["-2", "-(2+e1)"])
def test_negated_constants_keep_their_zero_signs_through_the_text(text):
    # the negation folds every zero coefficient to -0.0
    value = parse(text, 2).root.value
    assert np.signbit(value).all()
    again = parse(format_phrase(parse(text, 2)), 2).root.value
    assert again.tobytes() == value.tobytes()


def test_every_pattern_of_zero_signs_has_a_text():
    coefficients = np.array([0.0, -0.0, 2.0, -1.0])
    for digits in np.ndindex(4, 4, 4, 4):
        value = coefficients[list(digits)]
        back = parse(_fmt_const(value), 2).root
        assert isinstance(back, Const) and back.value.tobytes() == value.tobytes(), value


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
    text = draw(st.sampled_from(["", "-"])) + terms[0]
    for t in terms[1:]:
        text += draw(st.sampled_from(["+", "-"])) + t
    if draw(st.booleans()):
        text = f"({text})^{draw(st.integers(1, 2))}"
    if draw(st.booleans()):
        text = f"{term()}{draw(st.sampled_from(['+', '-', '*']))}({text})"
    return text


@given(_random_phrase_text())
@settings(max_examples=80, deadline=None)
def test_round_trip_property(text):
    p = parse(text, 3)
    tree = phrase_to_json(p)
    assert phrase_to_json(parse(format_phrase(p), 3)) == tree
    assert phrase_to_json(phrase_from_json(tree, 3)) == tree


# the recursive definitions that the construction-time flags of a node replace
def _holds_var(node):
    return any(isinstance(n, VarPow) and n.power != 0 for n in _nodes(node))


def _varies(node, conj):
    if isinstance(node, VarPow):
        return node.conjugated == conj and node.power != 0
    if isinstance(node, PowNode) and node.power == 0:
        return False
    return any(_varies(child, conj) for child in _children(node))


def _holds_negative_power(node):
    return any(isinstance(n, (VarPow, PowNode)) and n.power < 0 for n in _nodes(node))


def _depth(node):
    return 1 + max(map(_depth, _children(node)), default=0)


_tree_text = st.recursive(
    st.sampled_from(["z", "zc", "e1", "e3", "0.5", "z^-2", "zc^3", "z^0", "zc^0", "e2^-1"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map("{0[0]}{0[1]}({0[2]})".format),
        st.tuples(inner, st.integers(-2, 2)).map("({0[0]})^{0[1]}".format),
        inner.map("-({})".format),
    ),
    max_leaves=12,
)


@given(_tree_text)
@settings(max_examples=150, deadline=None)
def test_node_flags_match_the_recursive_definitions(text):
    parsed = parse(text, 2)
    decoded = phrase_from_json(phrase_to_json(parsed), 2)
    for root in (parsed.root, decoded.root):
        for node in _nodes(root):
            flags = node.flags
            assert bool(flags & _VAR) == _holds_var(node)
            assert bool(flags & _DZ) == _varies(node, False)
            assert bool(flags & _DZC) == _varies(node, True)
            assert bool(flags & _NEG) == _holds_negative_power(node)
            assert flags // _DEPTH == _depth(node)


@pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
def test_trees_deeper_than_the_bound_are_refused_on_both_routes(depth):
    # a product chain of n factors is n nodes deep; as JSON it is one node
    # with n arguments, so only the depth of the built tree can refuse it
    text = "*".join(["z"] * depth)
    tree = {"op": "mul", "args": [{"var": "z"}] * depth}
    if depth <= MAX_DEPTH:
        assert parse(text, 1).root.flags // _DEPTH == depth
        assert phrase_from_json(tree, 1).root.flags // _DEPTH == depth
        return
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        parse(text, 1)
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        phrase_from_json(tree, 1)


def _folding_cases(d):
    """(text, tree) pairs: the text of a constant, and the tree of Add, Sub,
    Neg and Mul nodes that the parser built for it before it folded
    constants.  j and k are e1 and the last unit, the same unit at r = 1."""
    j, k = 1, d - 1

    def R(s):
        return Const([s] + [0.0] * (d - 1))

    def E(i):
        return Const(np.eye(d)[i])

    coeffs = [-0.157, -0.048, 0.17, -0.231, 0.4, -0.062, 0.118, -0.305] * (d // 8 + 1)
    pole_text = f"0-{-coeffs[0]!r}"
    pole = Sub(R(0.0), R(-coeffs[0]))
    for i, c in enumerate(coeffs[1:d], 1):
        pole_text += f"{'-' if c < 0 else '+'}{abs(c)!r}*e{i}"
        pole = (Sub if c < 0 else Add)(pole, Mul(R(abs(c)), E(i)))
    return [
        ("-2", Neg(R(2.0))),
        (f"-0.5*e{k}+0.25", Add(Neg(Mul(R(0.5), E(k))), R(0.25))),
        (f"-0.5*e{k}-0.25", Sub(Neg(Mul(R(0.5), E(k))), R(0.25))),
        (f"0.5*e{j}+0.25*e{j}-e{j}", Sub(Add(Mul(R(0.5), E(j)), Mul(R(0.25), E(j))), E(j))),
        (f"0*e{k}", Mul(R(0.0), E(k))),
        (f"-0*e{k}+0.0", Add(Neg(Mul(R(0.0), E(k))), R(0.0))),
        (f"0.0-0*e{j}", Sub(R(0.0), Mul(R(0.0), E(j)))),
        (f"(0.5*e{j})*(0.3*e{k})", Mul(Mul(R(0.5), E(j)), Mul(R(0.3), E(k)))),
        (f"2.5*e{k}*e{j}*0.5", Mul(Mul(Mul(R(2.5), E(k)), E(j)), R(0.5))),
        (f"-(0.5-e{k})*(0.25+e{j})", Neg(Mul(Sub(R(0.5), E(k)), Add(R(0.25), E(j))))),
        (f"(1+e{j})+(2-e{k})", Add(Add(R(1.0), E(j)), Sub(R(2.0), E(k)))),
        ("3*z^0*5e-324", Mul(Mul(R(3.0), VarPow(False, 0)), R(5e-324))),
        (pole_text, pole),
    ]


@pytest.mark.parametrize("r", range(1, 9))
def test_folded_constants_have_the_bits_of_the_unfolded_tree(r):
    d = 1 << r
    z = random_element(r, _rng(r)).coeffs
    for text, tree in _folding_cases(d):
        root = parse(text, r).root
        assert isinstance(root, Const), text
        assert root.value.tobytes() == eval_node_arrays(tree, z, r).tobytes(), text
    # a negated head leaves -0.0, which subtracting +0.0 keeps
    assert np.signbit(parse("-2", r).root.value).all()
    assert np.signbit(parse(f"-0.5*e{d - 1}-0.25", r).root.value).all()


@given(st.one_of(_random_phrase_text(), _tree_text))
@settings(max_examples=150, deadline=None)
def test_parsed_phrases_hold_no_product_or_sum_of_constants(text):
    # a power of constants stays a PowNode, so its PoleError comes at evaluation
    p = parse(text, 3)
    for node in _nodes(p.root):
        if isinstance(node, (Mul, Sum)) and not node.flags & _VAR:
            assert any(isinstance(n, PowNode) for n in _nodes(node)), format_phrase(Phrase(p.level, node))
        assert not isinstance(node, VarPow) or node.power


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
    assert phrase_to_json(p) == phrase_to_json(Phrase(p.level, want))


# phrase_to_json of level-2 phrases covering every sum shape
_GOLDEN_JSON = {
    '-z+e1-zc': '{"op": "sub", "args": [{"op": "add", "args": [{"op": "neg", "args": [{"var": "z", "pow": 1}]}, {"const": [0.0, 1.0, 0.0, 0.0]}]}, {"var": "zc", "pow": 1}]}',
    '-(z+1)': '{"op": "neg", "args": [{"op": "add", "args": [{"var": "z", "pow": 1}, {"const": [1.0, 0.0, 0.0, 0.0]}]}]}',
    '-(-z)': '{"op": "neg", "args": [{"op": "neg", "args": [{"var": "z", "pow": 1}]}]}',
    'z-(e1-z)': '{"op": "sub", "args": [{"var": "z", "pow": 1}, {"op": "sub", "args": [{"const": [0.0, 1.0, 0.0, 0.0]}, {"var": "z", "pow": 1}]}]}',
    '(-z)*e2': '{"op": "mul", "args": [{"op": "neg", "args": [{"var": "z", "pow": 1}]}, {"const": [0.0, 0.0, 1.0, 0.0]}]}',
    '(z+1)*(z-e1)': '{"op": "mul", "args": [{"op": "add", "args": [{"var": "z", "pow": 1}, {"const": [1.0, 0.0, 0.0, 0.0]}]}, {"op": "sub", "args": [{"var": "z", "pow": 1}, {"const": [0.0, 1.0, 0.0, 0.0]}]}]}',
    'z^2': '{"var": "z", "pow": 2}',
    '(z)^2': '{"op": "pow", "base": {"var": "z", "pow": 1}, "pow": 2}',
}


@pytest.mark.parametrize("key", list(_GOLDEN_JSON))
def test_phrase_to_json_is_pinned(key):
    p = parse(key, 2)
    assert phrase_to_json(p) == json.loads(_GOLDEN_JSON[key])
    assert phrase_to_json(phrase_from_json(phrase_to_json(p), 2)) == phrase_to_json(p)


def test_phrase_words_flatten_signs():
    for text in ("z^2 - e1*z + 3", "z-(e1-z)"):
        words = _words(parse(text, 2).root, 2)
        assert [sign for sign, _, _ in words] == [1, -1, 1]


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


def test_zc_leaves_read_the_conjugate():
    rng = _rng(4)
    f = parse("z + 0.5*zc", 3)
    z, h = random_element(3, rng), random_element(3, rng)
    assert evaluate(f, z).allclose(z + z.conj() * 0.5, 1e-14)
    # the zc superdifferential moves the zc leaves along conj(h)
    assert derivative_apply(f, z, h, wrt="zc").allclose(h.conj() * 0.5, 1e-14)


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
    assert hat_from_primitive(primitive(parse("1", 3)), z, h).allclose(h, 1e-12)


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


def _assert_power_string(b, h, n, r):
    want = _power_string_by_terms(b, h, n, r)
    got = _left_power_string(b, h, n, r)
    assert got.shape == want.shape
    # the tolerance row by row, so a zero or real row is held to its own scale
    b_norm = np.linalg.norm(np.broadcast_to(b, got.shape), axis=-1)
    h_norm = np.linalg.norm(np.broadcast_to(h, got.shape), axis=-1)
    tol = 1e-12 * (1 + b_norm) ** n * h_norm
    assert np.all(np.linalg.norm(got - want, axis=-1) <= tol)


@pytest.mark.parametrize("r", range(1, 9))
def test_power_string_recurrence_matches_term_by_term_sum(r):
    rng = _rng(19)
    d = 1 << r
    # increments alpha + beta*Im b in their base's plane, over scales
    # 1e-6..1e6, and last a real base with an imaginary increment
    plane_rng = _rng(20)
    P = plane_rng.standard_normal((7, d)) * np.logspace(-6, 6, 7)[:, None]
    alpha, beta = plane_rng.standard_normal((2, 7, 1)) * np.logspace(6, -6, 7)[:, None]
    Q = beta * P
    Q[:, :1] = alpha
    P[-1, 1:] = 0.0
    Q[-1, 1:] = 0.0
    Q[-1, 1] = 1.0
    # one finite row next to a NaN and an infinite increment
    P3 = np.repeat(P[:1], 3, axis=0)
    Q3 = np.repeat(Q[:1], 3, axis=0)
    Q3[1, d - 1] = np.nan
    Q3[2, 0] = np.inf
    for n in range(1, 9):
        b, h = rng.standard_normal((2, d))
        _assert_power_string(b, h, n, r)
        # a batch with one exactly real row and one zero row
        B, H = rng.standard_normal((2, 4, d))
        B[1, 1:] = 0.0
        B[2] = 0.0
        _assert_power_string(B, H, n, r)
        # one base against a batch of increments
        _assert_power_string(b, H, n, r)
        _assert_power_string(P, Q, n, r)
        got = _left_power_string(P3, Q3, n, r)
        want = _power_string_by_terms(P3[0], Q3[0], n, r)
        tol = 1e-12 * (1 + np.linalg.norm(P3[0])) ** n * np.linalg.norm(Q3[0])
        assert np.linalg.norm(got[0] - want) <= tol
        assert not np.isfinite(got[1:]).all(axis=-1).any()


def test_power_string_keeps_a_small_increment_out_of_the_plane():
    # |h| = 1e-15 lies far below 16*eps*|b|, but h points straight out of the
    # plane of b, so its cross terms stay: (conj(b)^2 + b*conj(b) + b^2)*h = 2h
    r, d = 2, 4
    b = np.array([[1.0, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
    h = np.array([[0.0, 0.0, 1e-15, 0.0], [0.5, 0.0, 0.0, 0.0]])
    got = _left_power_string(b, h, 3, r)
    assert np.allclose(got[0], 2.0 * h[0], rtol=0.0, atol=1e-29)
    assert np.allclose(got[1], 12.0 * h[1], rtol=0.0, atol=1e-14)
    _assert_power_string(b, h, 3, r)
    # a batch derivative is linear in the direction at any scale
    scale = np.array([1e-15, 1e-5, 1.0])[:, None]
    H = scale * np.eye(d)[2]
    got = derivative_apply(parse("z^3", r), np.repeat(b[:1], 3, axis=0), H)
    assert np.all(np.abs(got - 2.0 * H) <= 1e-14 * scale)


def test_plane_power_integral_at_level_8_makes_no_batch_product(tmp_path, monkeypatch):
    import contextlib
    import io
    import sys

    from cdfun import algebra, cli, expressions

    batch_products = []
    real_mul = algebra.mul_arrays

    def counting(x, y, lev):
        if np.ndim(x) > 1 and np.ndim(y) > 1:
            batch_products.append(lev)
        return real_mul(x, y, lev)

    def integrate(r):
        d = 1 << r
        path = tmp_path / f"circle{r}.json"
        path.write_text(json.dumps({"kind": "circle", "center": [0] * d, "radius": 1.0,
                                    "direction": [0, 1] + [0] * (d - 2)}))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["integrate", "--level", str(r), "--expr", "z^5", "--path-file", str(path)]) == 0
        rep = json.loads(buf.getvalue())
        assert rep["converged"] is True
        return np.array(rep["value"])

    with monkeypatch.context() as m:
        for module in [mod for key, mod in sys.modules.items() if key.split(".")[0] == "cdfun"]:
            for name, obj in list(vars(module).items()):
                if obj is real_mul:
                    m.setattr(module, name, counting)
        value = integrate(8)
    assert batch_products == []
    # the same circle in the level-1 copy of the plane, term by term
    monkeypatch.setattr(expressions, "_left_power_string",
                        lambda bv, inc, n, r: _power_string_by_terms(bv, inc, n, r))
    want = integrate(1)
    assert np.max(np.abs(value[:2] - want)) <= 1e-12
    assert not np.any(value[2:])


@pytest.mark.parametrize("r", [3, 5, 8])
def test_cube_derivative_at_a_real_point_is_12_h(r):
    h = random_element(r, _rng(21))
    got = derivative_apply(parse("z^3", r), from_real(r, 2.0), h)
    assert (got - h * 12.0).norm() <= 1e-15 * 12.0 * h.norm()


def test_level_8_products_by_basis_constants_gather_no_table(monkeypatch):
    # Every product in the value of (0.3*e5)*z^3*(0.7*e9), and in its
    # derivative at a point that is itself a scaled basis unit (so that the
    # power string multiplies by units too), has a scaled basis unit for an
    # operand: none gathers a d x d table, and the bits are the table forms'.
    from cdfun import algebra
    from cdfun.algebra import BasisTable

    r = 8
    P = parse("(0.3*e5)*z^3*(0.7*e9)", r)
    rng = _rng(37)
    z, h = random_element(r, rng), random_element(r, rng).coeffs
    u = 0.8 * basis_element(r, 3).coeffs

    def results():
        return evaluate(P, z).coeffs, derivative_apply(P, u, h), derivative_apply(P, u, np.eye(1 << r))

    with monkeypatch.context() as m:
        m.setattr(algebra, "_UNIT_LEVEL", algebra.MAX_LEVEL + 1)
        want = results()

    def refuse(self, v):
        raise AssertionError("a d x d multiplication table was gathered")

    monkeypatch.setattr(BasisTable, "right_table", refuse)
    monkeypatch.setattr(BasisTable, "left_table", refuse)
    for got, table_form in zip(results(), want):
        assert got.tobytes() == table_form.tobytes()


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
    (leaf,) = pr.leaves
    assert leaf.power == 0
    assert np.array_equal(leaf.center, zero(3).coeffs)
    assert [p.tobytes() for p in pr.poles] == [zero(3).coeffs.tobytes()]
    # the word e1*Ln(z)*e2 is X -> (e1*X)*e2 on the leaf increment X
    e1, e2 = basis_element(3, 1).coeffs, basis_element(3, 2).coeffs
    assert np.array_equal(leaf.matrix, mul_arrays(mul_arrays(e1, np.eye(8), 3), e2, 3))


def test_primitive_of_shifted_pole_tracks_center():
    pr = primitive(parse("(z-2)^-1", 2))
    (leaf,) = pr.leaves
    assert leaf.power == 0
    assert np.array_equal(leaf.center, from_real(2, 2.0).coeffs)
    assert np.array_equal(leaf.matrix, np.eye(4))


def test_primitive_polynomial_part_scales():
    # z^2 integrates to z^3/3; check against the derivative of z^3/3
    rng = _rng(16)
    z, h = random_element(3, rng), random_element(3, rng)
    pr = primitive(parse("z^2", 3))
    back = derivative_apply(parse("0.3333333333333333*z^3", 3), z, h)
    # derivative of primitive in direction h is the hat increment; at h=1 it is f
    assert hat_from_primitive(pr, z, one(3)).allclose(evaluate(parse("z^2", 3), z), 1e-9)
    assert back.allclose(hat_from_primitive(pr, z, h), 1e-12)


# each case's primitive written out by hand: the polynomial part as phrase
# text, and the logarithm words as products around ln(c) = dln(Z - c, H),
# with e(k) the basis element e_k and m the product
_PRIMITIVE_BY_HAND = {
    "e1*(e2*(z-e3)^2)*e4 + (e5*(z-e3)^2)*e6 - 2*e7*z^-1*e2 + e3": (
        "e1*(e2*(0.3333333333333333*(z-e3)^3))*e4 + (e5*(0.3333333333333333*(z-e3)^3))*e6 + e3*z",
        lambda ln, e, m: -m(m(2.0 * e(7), ln(0.0)), e(2)),
    ),
    "((e1*z^2)*e2)*e3 - e3*(e2*(z^2*e1)) + 0.5*z^2 + e6*(z-e5)^-2*(e1+e2)": (
        "((e1*(0.3333333333333333*z^3))*e2)*e3 - e3*(e2*((0.3333333333333333*z^3)*e1))"
        " + 0.5*(0.3333333333333333*z^3) - e6*(z-e5)^-1*(e1+e2)",
        None,
    ),
    "e1*(z-e3)^-1*e2 + (z-e3)^-1*e4 - e5*((z-e3)^-1*e6) + e2*(z-e3)^-1": (
        "0",
        lambda ln, e, m: (
            m(m(e(1), ln(e(3))), e(2)) + m(ln(e(3)), e(4)) - m(e(5), m(ln(e(3)), e(6))) + m(e(2), ln(e(3)))
        ),
    ),
    "e1*(z-0)^2*e2 + z^2": ("e1*(0.3333333333333333*(z-0)^3)*e2 + 0.3333333333333333*z^3", None),
}


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize(
    "text,leaves",
    [
        # two placements around the shared leaf (z-e3)^3, a logarithm, a constant
        ("e1*(e2*(z-e3)^2)*e4 + (e5*(z-e3)^2)*e6 - 2*e7*z^-1*e2 + e3", 3),
        ("((e1*z^2)*e2)*e3 - e3*(e2*(z^2*e1)) + 0.5*z^2 + e6*(z-e5)^-2*(e1+e2)", 2),
        ("e1*(z-e3)^-1*e2 + (z-e3)^-1*e4 - e5*((z-e3)^-1*e6) + e2*(z-e3)^-1", 1),
        # z - 0 is the leaf of z
        ("e1*(z-0)^2*e2 + z^2", 1),
    ],
)
def test_leaf_matrices_agree_with_term_by_term_words(r, text, leaves):
    rng = _rng(30 + r)
    d = 1 << r
    pr = primitive(parse(text, r))
    assert len(pr.leaves) == leaves
    assert all(leaf.matrix.shape == (d, d) for leaf in pr.leaves)
    Z = rng.standard_normal((40, d)) + 3.0  # away from the centres 0 and e3
    H = rng.standard_normal((40, d)) * np.logspace(-8, 0, 40)[:, None]
    poly, logs = _PRIMITIVE_BY_HAND[text]
    want = derivative_apply(parse(poly, r), Z, H)
    if logs is not None:
        want = want + logs(
            lambda c: dln_arrays(Z - c, H), lambda k: basis_element(r, k).coeffs, lambda a, b: mul_arrays(a, b, r)
        )
    got = hat_from_primitive(pr, Z, H)
    assert np.all(np.linalg.norm(got - want, axis=-1) <= 1e-12 * (1 + np.linalg.norm(want, axis=-1)))


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
    got = hat_from_primitive(primitive(f), z, one(3))
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
    assert all(leaf.power != 0 for leaf in pr.leaves)
    z = random_element(3, rng)
    assert hat_from_primitive(primitive(f), z, one(3)).allclose(evaluate(f, z), 1e-9)


@pytest.mark.parametrize(
    "text,same", [("((z-1)^-1)^-1", "z-1"), ("((1-z)^-1)^-1", "1-z"), ("(z^-1)^-1", "z"), ("((e1-z)^-3)^-1", "(e1-z)^3")]
)
def test_power_of_a_power_with_exponents_multiplying_to_one_is_expanded(text, same):
    # ((z - c)^-1)^-1 is z - c, a sum, and integrates term by term like it
    got, want = ({(leaf.center.tobytes(), leaf.power): leaf.matrix for leaf in primitive(parse(t, 3)).leaves}
                 for t in (text, same))
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[key], want[key]) for key in got)


@pytest.mark.parametrize(
    "text,same", [("(z+(z-1)^0)^2", "(z+1)^2"), ("(z-(e1*(z-2)^0))^-1", "(z-e1)^-1"), ("((z-1)^0)^2*e1", "e1")]
)
def test_zero_power_inside_a_base_is_the_unit(text, same):
    # X^0 is 1 even where X holds the variable, so it only shifts a base
    got, want = (primitive(parse(t, 3)).leaves for t in (text, same))
    assert [(leaf.center.tolist(), leaf.power) for leaf in got] == [(leaf.center.tolist(), leaf.power) for leaf in want]
    assert all(np.array_equal(g.matrix, w.matrix) for g, w in zip(got, want))


def test_base_that_zero_powers_leave_constant_is_a_constant():
    # (z-1)^0 + e1 is the constant 1 + e1, and (z-1)^0 - 1 vanishes like 1 - 1
    got, want = (primitive(parse(t, 3)).leaves for t in ("((z-1)^0+e1)^2*z", "(1+e1)^2*z"))
    assert [(leaf.center.tolist(), leaf.power) for leaf in got] == [(leaf.center.tolist(), leaf.power) for leaf in want]
    assert all(np.array_equal(g.matrix, w.matrix) for g, w in zip(got, want))
    for text in ("((z-1)^0-1)^-1*z", "(1-1)^-1*z"):
        with pytest.raises(PoleError):
            primitive(parse(text, 3))


@st.composite
def _sandwich_text(draw, level=3):
    """Sums of words a*V*b: constants a and b, some of them nested sums,
    around a variable factor V, which is z^n, (z-c)^n, (c-z)^n, a power of
    such a power, a base shifted by a zero power, or a shape primitive
    refuses; and constant words."""
    d = 1 << level

    def pick(options):
        return draw(st.sampled_from(options))

    def scalar():
        return repr(float(draw(_scalars)))

    def const():
        kind = draw(st.integers(0, 2))
        k = draw(st.integers(0, d - 1))
        if kind == 0:
            return scalar()
        if kind == 1:
            return f"e{k}"
        return f"(e{k}{pick('+-')}({scalar()}{pick('+-')}e{draw(st.integers(1, d - 1))}))"

    def var_factor():
        n = draw(st.integers(-3, 3))
        c = pick(["0", "0.5", "e1", "(0.5*e2)", "(e3-(0.25+e1))"])
        return pick([
            f"z^{n}",
            f"(z-{c})^{n}",
            f"({c}-z)^{n}",
            f"((z-{c})^{pick([-2, -1, 2])})^{pick([-1, 2])}",
            f"(({c}-z)^{pick([-2, -1, 2])})^{pick([-1, 2])}",
            f"(z{pick('+-')}(z-{c})^0)^{n}",
            f"(-(z-{c}))^{n}",
            pick(["(z^2+e1)^-1", "(2*z)^2", "z*z", "(z*e1+e2)^2"]),
        ])

    def word():
        v, a, b = var_factor(), const(), const()
        return pick([v, f"{a}*{v}*{b}", f"{a}*({v}*{b})", f"({a}*{v})*{b}", f"{v}*{b}", a])

    text = pick(["", "-"]) + word()
    for _ in range(draw(st.integers(0, 2))):
        text += pick("+-") + word()
    return pick([text, f"({text})*{const()}"])


@given(_sandwich_text(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_primitive_of_sandwich_phrases_recovers_f(text, seed):
    f = parse(text, 3)
    try:
        prim = primitive(f)
    except UnsupportedShapeError:
        return
    # away from every centre, which lies within 1.5 of 0
    z = from_real(3, 4.0) + random_element(3, _rng(seed)) * 0.3
    want = evaluate(f, z)
    got = hat_from_primitive(prim, z, one(3))
    assert (got - want).norm() <= 1e-9 * (1 + want.norm())


@pytest.mark.parametrize("r", [3, 8])
def test_constant_word_holding_z0_folds_to_one_element(r, monkeypatch):
    # z^0 is the unit and free of the variable, so the word folds to one
    # element before it meets the identity batch: no product of two batches
    from cdfun import expressions

    batch_products = []

    def counting(x, y, lev):
        batch_products.append(np.ndim(x) > 1 and np.ndim(y) > 1)
        return mul_arrays(x, y, lev)

    monkeypatch.setattr(expressions, "mul_arrays", counting)
    got = primitive(parse("(0.5*e1)*z^0*(0.7*e2)", r)).leaves
    assert batch_products and not any(batch_products)
    want = primitive(parse("(0.5*e1)*(0.7*e2)", r)).leaves
    assert [(leaf.center.tobytes(), leaf.power) for leaf in got] == [(zero(r).coeffs.tobytes(), 1)]
    assert len(want) == 1 and np.array_equal(got[0].matrix, want[0].matrix)


@pytest.mark.parametrize("r", [3, 5, 7])
def test_leaf_matrix_from_multiplication_tables_matches_the_identity_batch(r):
    # a word a*z^k*b was once evaluated at the identity batch, two d x d x d
    # products; the left table of a times b gives the same bits, signed
    # zeros included.  With one constant the table is the matrix, equal in
    # value, while the identity batch turned its -0.0 into 0.0, which no sum
    # that starts from 0.0 can tell apart.
    rng = _rng(40 + r)
    d = 1 << r
    eye = np.eye(d)
    for i in range(20):
        a, b = np.zeros(d), np.zeros(d)
        if i % 2:  # one basis unit each, as the benchmark's sandwiches
            a[rng.integers(d)], b[rng.integers(d)] = rng.uniform(0.3, 0.9, 2)
        else:
            a, b = rng.standard_normal((2, d))
        k = int(rng.choice([-3, -2, -1, 1, 2, 3]))  # z^0 would make a constant word
        scale = 1.0 if k == -1 else 1.0 / (k + 1)
        z = {"var": "z", "pow": k}
        sandwich = {"op": "mul", "args": [{"op": "mul", "args": [{"const": a.tolist()}, z]}, {"const": b.tolist()}]}
        (leaf,) = primitive(phrase_from_json(sandwich, r)).leaves
        want = scale * mul_arrays(mul_arrays(a, eye, r), b, r)
        assert np.array_equal(leaf.matrix, want) and np.array_equal(np.signbit(leaf.matrix), np.signbit(want))
        (left,) = primitive(phrase_from_json({"op": "mul", "args": [{"const": a.tolist()}, z]}, r)).leaves
        (right,) = primitive(phrase_from_json({"op": "mul", "args": [z, {"const": b.tolist()}]}, r)).leaves
        assert np.array_equal(left.matrix, scale * mul_arrays(a, eye, r))
        assert np.array_equal(right.matrix, scale * mul_arrays(eye, b, r))


def test_primitive_is_built_once_per_phrase(monkeypatch):
    from cdfun import expressions

    calls = []

    def counting(node, r):
        calls.append(node)
        return words(node, r)

    words = expressions._words
    monkeypatch.setattr(expressions, "_words", counting)
    f = parse("e1*z^2*e2 + (z-e3)^-1", 3)
    first = primitive(f)
    top = len(calls)
    assert primitive(f) is first and len(calls) == top
    assert not any(leaf.matrix.flags.writeable for leaf in first.leaves)
    # a phrase parsed again is a new phrase, with its own leaf table
    assert primitive(parse("e1*z^2*e2 + (z-e3)^-1", 3)) is not first


def test_structural_equality_discriminates():
    a = parse("z*(z*z)", 3)
    b = parse("z*z*z", 3)
    assert phrase_to_json(a) != phrase_to_json(b)
    assert phrase_to_json(a) == phrase_to_json(parse("z*(z*z)", 3))


@pytest.mark.parametrize("text", ["e1*z^3*e2 + (z-e3)^-2*e5 - z*e4*z^2", "e2", "zc^2*e1"])
def test_single_point_against_a_direction_batch_matches_each_direction(text):
    r = 4
    f = parse(text, r)
    x = random_element(r, np.random.default_rng(17)).coeffs
    eye = np.eye(1 << r)
    for wrt in ("z", "zc"):
        rows = derivative_apply(f, x, eye, wrt=wrt)
        assert rows.shape == eye.shape
        for i in range(1 << r):
            one = derivative_apply(f, x, eye[i], wrt=wrt)
            assert np.linalg.norm(rows[i] - one) <= 1e-12 * (1.0 + np.linalg.norm(one))


@pytest.mark.parametrize(
    "text,center,degree",
    [
        ("e2*z^3*e5 + z", 0.0, 3),
        ("3*e2 - e1", 0.0, 0),
        ("(z^2 + 1)^0*e3", 0.4, 0),
        ("(z*e1)^3 - zc^2", 0.4, 3),
        ("(z - e1)*(z + e2)*z", 0.0, 3),
        ("z^-1 + e4*z", 0.0, 1),
        ("(z-0.5)^-1", 0.5, 1),
        ("(0.5 - z)^-2*e3 + zc^2", 0.5, 2),
        ("(z-0.5)^-1", 0.0, None),
        ("z^-1", 0.5, None),
        ("zc^-1", 0.0, None),
        ("(z*z)^-1", 0.0, None),
    ],
)
def test_circle_degree_bounds_the_trigonometric_degree(text, center, degree):
    # f(c + rho*exp(theta*M)) sampled on 64 angles: every Fourier mode past
    # the degree vanishes, and the mode at the degree does not
    r = 3
    f = parse(text, r)
    c = from_real(r, center)
    assert _circle_degree(f.root, c.coeffs, r) == degree
    if degree is None:
        return
    m = random_unit_imaginary(r, np.random.default_rng(61)).coeffs
    theta = 2.0 * np.pi * np.arange(64) / 64
    z = c.coeffs + 0.7 * (np.cos(theta)[:, None] * np.eye(1 << r)[0] + np.sin(theta)[:, None] * m)
    modes = np.abs(np.fft.rfft(evaluate(f, z), axis=0)).max(axis=1) / 64
    assert modes[degree + 1:].max(initial=0.0) <= 1e-13 * modes.max()
    assert modes[degree] > 1e-3
