"""Noncommutative polynomial expressions in z (and its conjugate zc).

Grammar (left-associative, '*' explicit, brackets meaningful since the
algebras are nonassociative):

    phrase = ["-"] term { ("+" | "-") term }
    term   = factor { "*" factor }
    factor = scalar | basis ["^" int] | var ["^" int] | "(" phrase ")" ["^" int]
    var    = "z" | "zc"
    basis  = "e" index

A product chain a*b*c parses as (a*b)*c; any other bracketing must be written
explicitly.  Exponents are integers with |n| <= 60; negative exponents denote
powers of the inverse.  Brackets nest at most 100 deep, and a tree, parsed or
decoded from JSON, is at most 100 nodes deep; deeper input is a syntax error,
so no recursive walk of a tree can run out of stack.

A parsed tree has five node kinds: Const, VarPow (z^n or zc^n), PowNode (a
bracketed base or a basis symbol raised to n, so z^2 and (z)^2 stay apart),
binary Mul, and Sum, a tuple of (sign, term) pairs with sign +-1.  The
constructors Add, Sub and Neg keep every Sum in the parser's normal form: a
left-associated chain whose head may be negated, so a - b + c is one Sum of
three terms, while -x and a bracketed sum stay single terms of their own.

The superdifferential of a term follows the product rule with (Dz).h = h and
(D zc).h = conj(h); for a power the increment is summed over insertion slots
with the left-to-right bracket, e.g. D(z^3).h = (h*z)*z + (z*h)*z + (z*z)*h.
That power string runs one recurrence in the base's complex plane for every
batch, with n products (_left_power_string); an integral whose path lies in
a leaf's plane sums that leaf in complex arithmetic instead (integrate.py).
A negative power g^-n is the power string of the inverse g^-1 = conj(g)/|g|^2,
whose differential D(g^-1).h = (conj(Dg.h) - 2*g^-1*<g, Dg.h>)/|g|^2 (with
<.,.> the Euclidean inner product of coefficients) holds at every level.

primitive() integrates words of sandwich shape a*(z-c)^n*b term by term,
to a*(z-c)^(n+1)*b/(n+1), or to a*Ln(z-c)*b when n = -1, whose increments
come from the principal branch via dln.  A word is linear in its leaf
(z-c)^(n+1) or Ln(z-c), so a primitive is its leaf table: the constants of
the words around each leaf fold into one d x d matrix, and the hat increment
is the sum over leaves of (leaf increment) @ (matrix).  All evaluation entry
points accept a CDNumber or a batched coefficient array with the component
axis last.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraLevel,
    CDNumber,
    as_level,
    conj_arrays,
    inverse_arrays,
    mul_arrays,
    pow_arrays,
)
from .errors import (
    DomainError,
    ExprSyntaxError,
    PoleError,
    SingularElementError,
    UnsupportedShapeError,
)
from .transcendental import dln_arrays

MAX_EXPONENT = 60
MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Node:
    __slots__ = ()


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)


class VarPow(Node):
    """z**power or zc**power."""

    __slots__ = ("conjugated", "power")

    def __init__(self, conjugated: bool, power: int):
        self.conjugated = bool(conjugated)
        self.power = int(power)


class PowNode(Node):
    __slots__ = ("base", "power")

    def __init__(self, base: Node, power: int):
        self.base = base
        self.power = int(power)


class Mul(Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        self.left = left
        self.right = right


class Sum(Node):
    """Signed sum of terms: ``terms`` is a tuple of (sign, node), sign +1 or -1."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)


def Add(left: Node, right: Node) -> Sum:
    return _append(left, 1, right)


def Sub(left: Node, right: Node) -> Sum:
    return _append(left, -1, right)


def Neg(child: Node) -> Sum:
    """-child as one negative term; never merged into an enclosing sum."""
    return Sum(((-1, child),))


def _append(left: Node, sign: int, right: Node) -> Sum:
    """left +- right, where a Sum on the left grows by one term."""
    head = left.terms if isinstance(left, Sum) else ((1, left),)
    return Sum(head + ((sign, right),))


@dataclass(frozen=True)
class Phrase:
    """A parsed expression bound to an algebra level."""

    level: AlgebraLevel
    root: Node

    def __str__(self):
        return format_phrase(self)


def _children(node: Node) -> tuple:
    """Direct subtrees of a node, left to right."""
    if isinstance(node, Mul):
        return node.left, node.right
    if isinstance(node, Sum):
        return tuple(term for _, term in node.terms)
    if isinstance(node, PowNode):
        return (node.base,)
    return ()  # Const, VarPow


def _nodes(node: Node):
    """Preorder walk: the node, then each subtree left to right."""
    yield node
    for child in _children(node):
        yield from _nodes(child)


def _bounded(root: Node) -> Node:
    """root itself, or ExprSyntaxError when the tree is deeper than MAX_DEPTH
    nodes; the walk keeps its own stack, so any depth is measured."""
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression is nested deeper than {MAX_DEPTH} levels")
        stack.extend((child, depth + 1) for child in _children(node))
    return root


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z]+\d*)"
    r"|(?P<op>[()+\-*^])"
)


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), i))
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, level: AlgebraLevel):
        self.text = text
        self.level = level
        self.tokens = _tokenize(text)
        self.pos = 0
        self.brackets = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def _expect_op(self, op):
        tok = self._next()
        if tok[0] != "op" or tok[1] != op:
            raise ExprSyntaxError(f"expected {op!r}, got {tok[1]!r}", tok[2])

    def parse(self) -> Node:
        node = self.phrase()
        tok = self._peek()
        if tok is not None:
            raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def phrase(self) -> Node:
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self._next()
            node: Node = Neg(self.term())
        else:
            node = self.term()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return node
            self._next()
            rhs = self.term()
            node = Add(node, rhs) if tok[1] == "+" else Sub(node, rhs)

    def term(self) -> Node:
        node = self.factor()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                return node
            self._next()
            node = Mul(node, self.factor())

    def factor(self) -> Node:
        tok = self._next()
        kind = None
        if tok[0] == "op" and tok[1] == "(":
            self.brackets += 1
            if self.brackets > MAX_DEPTH:
                raise ExprSyntaxError(f"brackets nest deeper than {MAX_DEPTH} levels", tok[2])
            node: Node = self.phrase()
            self._expect_op(")")
            self.brackets -= 1
            kind = "group"
        elif tok[0] == "num":
            node = Const(self._scalar_vec(float(tok[1])))
            kind = "scalar"
        elif tok[0] == "name":
            name = tok[1]
            if name == "z":
                node, kind = VarPow(False, 1), "var"
            elif name == "zc":
                node, kind = VarPow(True, 1), "var"
            elif name[0] == "e" and name[1:].isdigit():
                k = int(name[1:])
                if k >= self.level.basis_dim:
                    raise ExprSyntaxError(
                        f"basis symbol e{k} out of range for level {self.level.r}", tok[2]
                    )
                vec = np.zeros(self.level.basis_dim)
                vec[k] = 1.0
                node, kind = Const(vec), "basis"
            else:
                raise ExprSyntaxError(f"unknown symbol {name!r}", tok[2])
        else:
            raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2])

        nxt = self._peek()
        if nxt is not None and nxt[0] == "op" and nxt[1] == "^":
            self._next()
            n = self._integer()
            if kind == "scalar":
                raise ExprSyntaxError("exponent not allowed on a scalar literal", nxt[2])
            if kind == "var":
                node = VarPow(node.conjugated, n)
            else:
                node = PowNode(node, n)
        return node

    def _integer(self) -> int:
        sign = 1
        tok = self._next()
        if tok[0] == "op" and tok[1] == "-":
            sign = -1
            tok = self._next()
        if tok[0] != "num" or not tok[1].isdigit():
            raise ExprSyntaxError("exponent must be an integer", tok[2])
        return _exponent(sign * int(tok[1]), tok[2])

    def _scalar_vec(self, v: float):
        vec = np.zeros(self.level.basis_dim)
        vec[0] = v
        return vec


def _exponent(n, position=None) -> int:
    """n itself when it is an integer (a bool is not) with |n| <= MAX_EXPONENT."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ExprSyntaxError(f"exponent must be an integer, got {n!r}", position)
    if abs(n) > MAX_EXPONENT:
        raise ExprSyntaxError(f"exponent overflow (|n| > {MAX_EXPONENT})", position)
    return n


def parse(text: str, level) -> Phrase:
    level = as_level(level)
    return Phrase(level, _bounded(_Parser(text, level).parse()))


# ---------------------------------------------------------------------------
# formatting + structural comparison + JSON trees
# ---------------------------------------------------------------------------

def _fmt_const(value: np.ndarray) -> str:
    nz = np.nonzero(value)[0]
    if len(nz) == 0:
        return "0"
    if len(nz) == 1:
        k = int(nz[0])
        v = float(value[k])
        if k == 0:
            return repr(v) if v >= 0 else f"(0-{repr(-v)})"
        if v == 1.0:
            return f"e{k}"
        if v == -1.0:
            return f"(0-e{k})"
        core = f"{repr(abs(v))}*e{k}"
        return f"({core})" if v > 0 else f"(0-{core})"
    parts = []
    for k in nz:
        v = float(value[int(k)])
        mag = repr(abs(v)) if k == 0 else (f"e{int(k)}" if abs(v) == 1.0 else f"{repr(abs(v))}*e{int(k)}")
        parts.append(("-" if v < 0 else "+") + mag)
    body = "".join(parts)
    body = body[1:] if body.startswith("+") else "0" + body
    return f"({body})"


def _fmt(node: Node) -> str:
    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, VarPow):
        name = "zc" if node.conjugated else "z"
        return name if node.power == 1 else f"{name}^{node.power}"
    if isinstance(node, PowNode):
        base = node.base
        if isinstance(base, Const):
            s = _fmt_const(base.value)
            # only a bare basis symbol may take an exponent without parens
            if s.startswith("e") and s[1:].isdigit():
                return f"{s}^{node.power}"
            return f"({s})^{node.power}"
        return f"({_fmt(base)})^{node.power}"
    if isinstance(node, Mul):
        left = _fmt(node.left)
        if isinstance(node.left, Sum):
            left = f"({left})"
        right = _fmt(node.right)
        if isinstance(node.right, (Sum, Mul)):
            right = f"({right})"
        return f"{left}*{right}"
    if isinstance(node, Sum):
        out = ""
        for k, (sign, term) in enumerate(node.terms):
            text = _fmt(term)
            if isinstance(term, Sum):
                text = f"({text})"
            out += ("-" if sign < 0 else "+" if k else "") + text
        return out
    raise DomainError(f"cannot format node {type(node).__name__}")


def format_phrase(f: Phrase) -> str:
    return _fmt(f.root)


def structural_equal(a: Node, b: Node) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        same = np.array_equal(a.value, b.value)
    elif isinstance(a, VarPow):
        same = a.conjugated == b.conjugated and a.power == b.power
    elif isinstance(a, PowNode):
        same = a.power == b.power
    elif isinstance(a, Sum):
        same = [s for s, _ in a.terms] == [s for s, _ in b.terms]
    else:
        same = True  # Mul
    return same and all(map(structural_equal, _children(a), _children(b)))


def phrase_to_json(f: Phrase):
    def enc(node):
        if isinstance(node, Const):
            return {"const": [float(v) for v in node.value]}
        if isinstance(node, VarPow):
            return {"var": "zc" if node.conjugated else "z", "pow": node.power}
        if isinstance(node, PowNode):
            return {"op": "pow", "base": enc(node.base), "pow": node.power}
        if isinstance(node, Mul):
            return {"op": "mul", "args": [enc(node.left), enc(node.right)]}
        if isinstance(node, Sum):
            # the binary add/sub chain the parser builds, negated head first
            (sign, head), *rest = node.terms
            out = enc(head) if sign > 0 else {"op": "neg", "args": [enc(head)]}
            for sign, term in rest:
                out = {"op": "add" if sign > 0 else "sub", "args": [out, enc(term)]}
            return out
        raise DomainError(f"cannot serialize node {type(node).__name__}")

    return enc(f.root)


_MAX_DOUBLE = int(np.finfo(float).max)


def _is_number(v) -> bool:
    """Whether a JSON value is a number that a double holds.

    A bool, a numeric string and an integer beyond the double range are not.
    """
    if isinstance(v, float):
        return True
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) <= _MAX_DOUBLE


def phrase_from_json(obj, level) -> Phrase:
    level = as_level(level)
    d = level.basis_dim

    def dec(o, depth: int) -> Node:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression is nested deeper than {MAX_DEPTH} levels")
        if not isinstance(o, dict):
            raise ExprSyntaxError(f"expression node must be an object, got {type(o).__name__}")
        if "const" in o:
            vals = o["const"]
            if not isinstance(vals, list) or len(vals) != d:
                raise ExprSyntaxError(f"const needs {d} coefficients at level {level.r}")
            if not all(map(_is_number, vals)):
                raise ExprSyntaxError("const coefficients must be numbers")
            return Const([float(v) for v in vals])
        if "var" in o:
            if o["var"] not in ("z", "zc"):
                raise ExprSyntaxError(f"unknown variable {o['var']!r}")
            return VarPow(o["var"] == "zc", _exponent(o.get("pow", 1)))
        op = o.get("op")
        if op == "pow":
            n = _exponent(o.get("pow"))
            if "base" not in o:
                raise ExprSyntaxError("pow needs a base")
            return PowNode(dec(o["base"], depth + 1), n)
        args = o.get("args", [])
        if op in ("mul", "add", "sub", "neg") and not isinstance(args, list):
            raise ExprSyntaxError(f"{op} arguments must be a JSON array")
        if op in ("mul", "add", "sub"):
            if len(args) < 2:
                raise ExprSyntaxError(f"{op} needs at least two arguments")
            nodes = [dec(a, depth + 1) for a in args]
            cls = {"mul": Mul, "add": Add, "sub": Sub}[op]
            out = nodes[0]
            for nxt in nodes[1:]:
                out = cls(out, nxt)
            return out
        if op == "neg":
            if len(args) != 1:
                raise ExprSyntaxError("neg takes exactly one argument")
            return Neg(dec(args[0], depth + 1))
        raise ExprSyntaxError(f"unknown expression node {o!r}")

    return Phrase(level, _bounded(dec(obj, 1)))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _as_batch(level: AlgebraLevel, z):
    if isinstance(z, CDNumber):
        if z.level.r != level.r:
            raise DomainError(f"point at level {z.level.r}, phrase at level {level.r}")
        return z.coeffs, True
    arr = np.asarray(z, dtype=np.float64)
    if arr.shape[-1] != level.basis_dim:
        raise DomainError("coefficient array does not match the phrase level")
    return arr, False


def _inverse(base, r):
    try:
        return inverse_arrays(base, r)
    except SingularElementError:
        raise PoleError("negative power of a vanishing base") from None


def _pow_value(base, n, r):
    return pow_arrays(_inverse(base, r), -n, r) if n < 0 else pow_arrays(base, n, r)


def _eval_slots(node: Node, Z1, Z2, r, slot=None, at=None) -> np.ndarray:
    """Evaluate with independent slots: plain z leaves read Z1, zc leaves Z2.

    A subtree free of the variables stays a single (d,) element; the callers
    that promise a batch spread it with _over_batch.  The node `slot` itself
    takes the value `at`: primitive binds a word's leaf that way.
    """
    if node is slot:
        return at
    if isinstance(node, Const):
        return node.value
    if isinstance(node, VarPow):
        return _pow_value(Z2 if node.conjugated else Z1, node.power, r)
    if isinstance(node, PowNode):
        return _pow_value(_eval_slots(node.base, Z1, Z2, r, slot, at), node.power, r)
    if isinstance(node, Mul):
        left = _eval_slots(node.left, Z1, Z2, r, slot, at)
        return mul_arrays(left, _eval_slots(node.right, Z1, Z2, r, slot, at), r)
    if isinstance(node, Sum):
        total = None
        for sign, term in node.terms:
            total = _add_signed(total, sign, _eval_slots(term, Z1, Z2, r, slot, at))
        return total
    raise DomainError(f"cannot evaluate node {type(node).__name__}")


def _add_signed(total, sign, value):
    """total + value or total - value by sign; None stands for a structural zero."""
    if value is None:
        return total
    if total is None:
        return value if sign > 0 else -value
    return total + value if sign > 0 else total - value


def _over_batch(out, Z) -> np.ndarray:
    return out if out.shape == Z.shape else np.broadcast_to(out, Z.shape).copy()


def eval_node_arrays(node: Node, Z, r) -> np.ndarray:
    return _over_batch(_eval_slots(node, Z, conj_arrays(Z), r), Z)


def evaluate(f: Phrase, z):
    Z, wrap = _as_batch(f.level, z)
    out = eval_node_arrays(f.root, Z, f.level.r)
    return CDNumber(f.level, out) if wrap else out


def evaluate_two_slot(f: Phrase, z1, z2):
    """Evaluate with zc leaves bound to the independent value z2 (not conj(z1))."""
    Z1, wrap = _as_batch(f.level, z1)
    Z2, _ = _as_batch(f.level, z2)
    Z1b, Z2b = np.broadcast_arrays(Z1, Z2)
    out = _over_batch(_eval_slots(f.root, Z1b, Z2b, f.level.r), Z1b)
    return CDNumber(f.level, out) if wrap else out


# ---------------------------------------------------------------------------
# superdifferentiation
# ---------------------------------------------------------------------------

def _left_power_string(bv, inc, n: int, r) -> np.ndarray:
    """sum_k (b^k * inc) * b * ... * b  (n-1-k single right factors), n >= 1.

    Each row of the base lies in its own complex plane: b = p + v with
    v = Im b and v^2 = -q^2, q = |v|, so by power-associativity
    b^j = c_j + s_j*v with real c_j, s_j (c_j + i*q*s_j is (p + i*q)^j).
    Right multiplication by b is linear, so the partial strings obey T_1 = inc,

        c_1 = p, s_1 = 1,  c_{j+1} = p*c_j - q^2*s_j,  s_{j+1} = c_j + p*s_j,
        T_{j+1} = T_j * b + c_j*inc + s_j*(v * inc),

    and T_n is the whole sum with every term bracketed from the left: n
    products (v * inc once, T_j * b per step), exact at every level.
    """
    if n == 1:
        return np.array(inc, copy=True)
    if np.ndim(bv) > 1 and bv.shape != np.shape(inc):
        bv, inc = np.broadcast_arrays(bv, inc)
    total = np.array(inc, copy=True)
    p = bv[..., :1]
    v = np.array(bv, copy=True)
    v[..., 0] = 0.0
    q2 = np.einsum("...i,...i->...", v, v)[..., None]
    v_inc = mul_arrays(v, inc, r)
    c, s = p, 1.0
    for j in range(1, n):
        total = mul_arrays(total, bv, r) + c * inc + s * v_inc
        if j < n - 1:
            c, s = p * c - q2 * s, c + p * s
    return total


def _power_derivative(bv, bd, n: int, r) -> np.ndarray:
    """Derivative of base**n, n != 0, given (base value, base derivative).

    A negative n differentiates the inverse in closed form (see the module
    docstring) and takes its power string.
    """
    if n < 0:
        u = _inverse(bv, r)
        inner = np.sum(bv * bd, axis=-1, keepdims=True)
        bd = (conj_arrays(bd) - 2.0 * inner * u) / np.sum(np.square(bv), axis=-1, keepdims=True)
        bv, n = u, -n
    return _left_power_string(bv, bd, n, r)


def _varies(node: Node, conj: bool) -> bool:
    """Whether the derivative wrt z (conj False) or zc is not structurally 0."""
    if isinstance(node, VarPow):
        return node.conjugated == conj and node.power != 0
    if isinstance(node, PowNode) and node.power == 0:
        return False
    return any(_varies(child, conj) for child in _children(node))


def _has_negative_power(node: Node) -> bool:
    return any(isinstance(n, (VarPow, PowNode)) and n.power < 0 for n in _nodes(node))


def _diff(node: Node, Z, Zc, H, conj: bool, r, want: bool):
    """(value, derivative) of the superdifferential wrt z or zc along H.

    The derivative is None where the node does not vary, and the value is
    None unless `want` asks for it: a Mul needs a factor's value only when the
    other factor varies.  A skipped subtree with a negative power is still
    evaluated, so a vanishing base raises PoleError whatever its derivative.
    """
    if not _varies(node, conj):
        if want or _has_negative_power(node):
            value = _eval_slots(node, Z, Zc, r)
            return (value if want else None), None
        return None, None
    if isinstance(node, VarPow):
        base, inc = (Zc, conj_arrays(H)) if conj else (Z, H)
        value = _pow_value(base, node.power, r) if want else None
        return value, _power_derivative(base, inc, node.power, r)
    if isinstance(node, PowNode):
        bv, bd = _diff(node.base, Z, Zc, H, conj, r, True)
        value = _pow_value(bv, node.power, r) if want else None
        return value, _power_derivative(bv, bd, node.power, r)
    if isinstance(node, Mul):
        lv, ld = _diff(node.left, Z, Zc, H, conj, r, want or _varies(node.right, conj))
        rv, rd = _diff(node.right, Z, Zc, H, conj, r, want or ld is not None)
        value = mul_arrays(lv, rv, r) if want else None
        left_term = None if ld is None else mul_arrays(ld, rv, r)
        right_term = None if rd is None else mul_arrays(lv, rd, r)
        return value, _add_signed(left_term, 1, right_term)
    if isinstance(node, Sum):
        value = der = None
        for sign, term in node.terms:
            v, d = _diff(term, Z, Zc, H, conj, r, want)
            value = _add_signed(value, sign, v)
            der = _add_signed(der, sign, d)
        return value, der
    raise DomainError(f"cannot differentiate node {type(node).__name__}")


def derivative_apply(f: Phrase, z, h, wrt: str = "z"):
    if wrt not in ("z", "zc"):
        raise DomainError("wrt must be 'z' or 'zc'")
    Z, wrap = _as_batch(f.level, z)
    Harr, _ = _as_batch(f.level, h)
    if Z.ndim > 1:
        Z, Harr = np.broadcast_arrays(Z, Harr)
    # a single point against a batch of directions stays single, so its
    # power strings multiply element by batch
    _, der = _diff(f.root, Z, conj_arrays(Z), Harr, wrt == "zc", f.level.r, False)
    if der is None:
        der = np.zeros(np.broadcast_shapes(Z.shape, Harr.shape))
    return CDNumber(f.level, der) if wrap else der


# ---------------------------------------------------------------------------
# primitives and hat-application
# ---------------------------------------------------------------------------

def _contains_var(node: Node) -> bool:
    return any(isinstance(n, VarPow) and n.power != 0 for n in _nodes(node))


def _cross(lhs, rhs):
    return [(sl * sr, Mul(ln, rn)) for sl, ln in lhs for sr, rn in rhs]


def _expand(node: Node, r: int) -> list[tuple[int, Node]]:
    """Signed product terms with no variable-bearing sums inside products;
    a subtree free of the variable stays one term."""
    if not _contains_var(node):
        return [(1, node)]
    if isinstance(node, Sum):
        return [(sign * s, n) for sign, term in node.terms for s, n in _expand(term, r)]
    if isinstance(node, Mul):
        return _cross(_expand(node.left, r), _expand(node.right, r))
    if isinstance(node, PowNode):
        if node.power == 0:
            return [(1, VarPow(False, 0))]
        # power 1 stays expanded: a (z - c) leaf is a sum, which primitive
        # cannot place as one variable factor
        match = _as_linear_power(node.base, r) if node.power != 1 else None
        if match is not None:
            center, s, m = match
            sign = s if node.power % 2 else 1
            leaf = _linear_power_leaf(center, m * node.power)
            if m * node.power == 1:  # ((z - c)^-1)^-1 is z - c, expanded for the same reason
                return [(sign * t, n) for t, n in _expand(leaf, r)]
            return [(sign, leaf)]
        if node.power != 1:
            # a negative power does not expand, and an expanded power n >= 2
            # always has a word with n variable factors, which primitive
            # rejects: keep the power whole so primitive names it
            return [(1, node)]
        return _expand(node.base, r)
    return [(1, node)]


def _as_linear(node: Node, r: int):
    """Match a z - c shape (up to overall sign): returns (center, sign) or None."""
    d = 1 << r
    const_acc = np.zeros(d)
    var_sign = None
    for sign, term in _expand(node, r):
        if isinstance(term, VarPow) and not term.conjugated and term.power == 1:
            if var_sign is not None:
                return None
            var_sign = sign
        elif not _contains_var(term):
            zpt = np.zeros(d)
            try:
                const_acc = const_acc + sign * _eval_slots(term, zpt, zpt, r)
            except DomainError:
                return None
        else:
            return None
    if var_sign is None:
        return None
    return -var_sign * const_acc, var_sign


def _as_linear_power(node: Node, r: int):
    """Match +-(z - c)^m: returns (center, sign, m) or None.

    Powers of one element associate, so (z - c)^m raised to n is (z - c)^(mn).
    """
    terms = _expand(node, r)
    if len(terms) == 1:
        sign, term = terms[0]
        if isinstance(term, VarPow) and not term.conjugated:
            return np.zeros(1 << r), sign, term.power
        if isinstance(term, PowNode) and (lin := _as_linear(term.base, r)) is not None:
            center, s = lin
            return center, sign * (s if term.power % 2 else 1), term.power
    lin = _as_linear(node, r)
    return None if lin is None else (*lin, 1)


def _linear_power_leaf(center: np.ndarray, power: int) -> Node:
    if not np.any(center):
        return VarPow(False, power)
    base = Sub(VarPow(False, 1), Const(center))
    if power == 1:
        return base
    return PowNode(base, power)


@dataclass
class Leaf:
    """Every word of a primitive around one leaf (z - center)^power, or
    Ln(z - center) for power 0, as one matrix: the words sum to X @ matrix
    at leaf increment X."""

    center: np.ndarray
    power: int
    matrix: np.ndarray

    def increment(self, Z, H, r) -> np.ndarray:
        """The leaf's increment along H at Z (rows of knot differences)."""
        if self.power == 0:
            return dln_arrays(Z - self.center, H)
        return _power_derivative(Z - self.center, H, self.power, r)


@dataclass
class PrimitiveResult:
    """A primitive as its leaf table, leaves in the order they first occur."""

    level: AlgebraLevel
    leaves: list[Leaf]

    @property
    def poles(self) -> list[np.ndarray]:
        """The centre c of every leaf (z - c)^m with m < 0 or Ln(z - c): the
        centres of the words (z - c)^n of f with n < 0."""
        return [leaf.center for leaf in self.leaves if leaf.power <= 0]


def _var_factor(node: Node, fmt_word: str) -> Node:
    """The one variable factor, z^n or a power node, of a product word."""
    while isinstance(node, Mul):
        in_left = _contains_var(node.left)
        if in_left and _contains_var(node.right):
            raise UnsupportedShapeError(
                f"word has more than one variable factor: {fmt_word}"
            )
        node = node.left if in_left else node.right
    if isinstance(node, (VarPow, PowNode)):
        return node
    raise UnsupportedShapeError(f"unsupported word shape: {fmt_word}")


def primitive(f: Phrase) -> PrimitiveResult:
    """Term-by-term primitive of f as a table of leaves.

    Each word must contain at most one variable factor of shape (z - c)^n
    (sandwich words a*(z-c)^n*b and their products with constants).  The
    word integrates to itself with that factor replaced by the leaf
    (z-c)^(n+1)/(n+1), or by Ln(z-c) when n = -1; a constant word c
    integrates to c*z.  Conjugated-variable words are rejected.

    A word is linear in its leaf, so it is evaluated once with its variable
    factor bound to the identity batch: row i is the word at leaf value e_i,
    and the word at X is X @ (those rows).  Its sign and 1/(n+1) are folded
    in, and words around the same leaf share one matrix.
    """
    if _varies(f.root, conj=True):
        raise UnsupportedShapeError(
            f"no primitive for words in the conjugated variable: {format_phrase(f)}"
        )
    r = f.level.r
    d = f.level.basis_dim
    words: list[tuple[np.ndarray, int, float, Node, Node]] = []  # (center, power, scale, word, slot)
    for sign, term in _expand(f.root, r):
        if not _contains_var(term):
            slot = VarPow(False, 1)
            words.append((np.zeros(d), 1, float(sign), Mul(term, slot), slot))
            continue
        word_text = _fmt(term)
        slot = _var_factor(term, word_text)
        if isinstance(slot, VarPow):
            center = np.zeros(d)
        else:  # PowNode; _expand has folded the sign of a (c - z)^n into the word's
            lin = _as_linear(slot.base, r)
            if lin is None:
                raise UnsupportedShapeError(
                    f"variable factor is not a power of (z - c): {word_text}"
                )
            center = lin[0]
        m = slot.power + 1
        scale = float(sign) if m == 0 else sign / m
        words.append((center, m, scale, term, slot))
    leaves: dict[tuple[bytes, int], Leaf] = {}
    eye = np.eye(d)
    for center, m, scale, word, slot in words:
        matrix = scale * _eval_slots(word, eye, eye, r, slot, eye)
        key = (center.tobytes(), m)
        if key in leaves:
            leaves[key].matrix += matrix
        else:
            leaves[key] = Leaf(center, m, matrix)
    return PrimitiveResult(f.level, list(leaves.values()))


def hat_from_primitive(prim: PrimitiveResult, z, h):
    """Increment functional of the primitive: f-hat(z).h, summed over its
    leaves as (leaf increment) @ (leaf matrix)."""
    level = prim.level
    Z, wrap = _as_batch(level, z)
    H, _ = _as_batch(level, h)
    Z, H = np.broadcast_arrays(Z, H)
    out = np.zeros(Z.shape)
    for leaf in prim.leaves:
        out += leaf.increment(Z, H, level.r) @ leaf.matrix
    return CDNumber(level, out) if wrap else out
