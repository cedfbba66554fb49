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
powers of the inverse.

The superdifferential of a term follows the product rule with (Dz).h = h and
(D zc).h = conj(h); for a power the increment is summed over insertion slots
with the left-to-right bracket, e.g. D(z^3).h = (h*z)*z + (z*h)*z + (z*z)*h.
A negative power g^-n is the power string of the inverse g^-1 = conj(g)/|g|^2,
whose differential D(g^-1).h = (conj(Dg.h) - 2*g^-1*<g, Dg.h>)/|g|^2 (with
<.,.> the Euclidean inner product of coefficients) holds at every level.

primitive() integrates words of sandwich shape a*(z-c)^n*b term by term;
n = -1 produces logarithm terms a*Ln(z-c)*b whose hat-increments come from
the principal branch via dln.  All evaluation entry points accept a CDNumber
or a batched coefficient array with the component axis last.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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


class Add(Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        self.left = left
        self.right = right


class Sub(Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        self.left = left
        self.right = right


class Neg(Node):
    __slots__ = ("child",)

    def __init__(self, child: Node):
        self.child = child


class LogLeaf(Node):
    """Ln(z - center): appears only inside primitives, never from parse()."""

    __slots__ = ("center",)

    def __init__(self, center):
        self.center = np.asarray(center, dtype=np.float64)


@dataclass(frozen=True)
class Phrase:
    """A parsed expression bound to an algebra level."""

    level: AlgebraLevel
    root: Node

    def __str__(self):
        return format_phrase(self)


@dataclass(frozen=True)
class Word:
    """One signed product term of a phrase."""

    sign: int
    node: Node


def phrase_words(f: Phrase) -> list[Word]:
    return [Word(sign, node) for sign, node in _signed_terms(f.root)]


def _children(node: Node) -> tuple:
    """Direct subtrees of a node, left to right."""
    if isinstance(node, (Mul, Add, Sub)):
        return node.left, node.right
    if isinstance(node, Neg):
        return (node.child,)
    if isinstance(node, PowNode):
        return (node.base,)
    return ()  # Const, VarPow, LogLeaf


def _nodes(node: Node):
    """Preorder walk: the node, then each subtree left to right."""
    yield node
    for child in _children(node):
        yield from _nodes(child)


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
            node: Node = self.phrase()
            self._expect_op(")")
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
        n = sign * int(tok[1])
        if abs(n) > MAX_EXPONENT:
            raise ExprSyntaxError(f"exponent overflow (|n| > {MAX_EXPONENT})", tok[2])
        return n

    def _scalar_vec(self, v: float):
        vec = np.zeros(self.level.basis_dim)
        vec[0] = v
        return vec


def parse(text: str, level) -> Phrase:
    level = as_level(level)
    return Phrase(level, _Parser(text, level).parse())


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


def _fmt(node: Node, head: bool = False) -> str:
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
        return f"({_fmt(base, head=True)})^{node.power}"
    if isinstance(node, Mul):
        left = _fmt(node.left)
        if isinstance(node.left, (Add, Sub, Neg)):
            left = f"({_fmt(node.left, head=True)})"
        right = _fmt(node.right)
        if isinstance(node.right, (Add, Sub, Neg, Mul)):
            right = f"({_fmt(node.right, head=True)})"
        return f"{left}*{right}"
    if isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        left = _fmt(node.left, head=head)
        if isinstance(node.left, Neg) and not head:
            left = f"({_fmt(node.left, head=True)})"
        right = _fmt(node.right)
        if isinstance(node.right, (Add, Sub, Neg)):
            right = f"({_fmt(node.right, head=True)})"
        return f"{left}{op}{right}"
    if isinstance(node, Neg):
        if head:
            inner = _fmt(node.child)
            if isinstance(node.child, (Add, Sub, Neg)):
                inner = f"({_fmt(node.child, head=True)})"
            return f"-{inner}"
        return f"(-{_fmt(node.child)})"
    if isinstance(node, LogLeaf):
        c = _fmt_const(node.center)
        return f"Ln(z-{c})" if np.any(node.center) else "Ln(z)"
    raise DomainError(f"cannot format node {type(node).__name__}")


def format_phrase(f: Phrase) -> str:
    return _fmt(f.root, head=True)


def structural_equal(a: Node, b: Node) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return np.array_equal(a.value, b.value)
    if isinstance(a, VarPow):
        return a.conjugated == b.conjugated and a.power == b.power
    if isinstance(a, PowNode):
        return a.power == b.power and structural_equal(a.base, b.base)
    if isinstance(a, (Mul, Add, Sub)):
        return structural_equal(a.left, b.left) and structural_equal(a.right, b.right)
    if isinstance(a, Neg):
        return structural_equal(a.child, b.child)
    if isinstance(a, LogLeaf):
        return np.array_equal(a.center, b.center)
    return False


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
        if isinstance(node, Add):
            return {"op": "add", "args": [enc(node.left), enc(node.right)]}
        if isinstance(node, Sub):
            return {"op": "sub", "args": [enc(node.left), enc(node.right)]}
        if isinstance(node, Neg):
            return {"op": "neg", "args": [enc(node.child)]}
        raise DomainError(f"cannot serialize node {type(node).__name__}")

    return enc(f.root)


def phrase_from_json(obj, level) -> Phrase:
    level = as_level(level)
    d = level.basis_dim

    def dec(o) -> Node:
        if not isinstance(o, dict):
            raise ExprSyntaxError(f"expression node must be an object, got {type(o).__name__}")
        if "const" in o:
            vals = o["const"]
            if not isinstance(vals, list) or len(vals) != d:
                raise ExprSyntaxError(f"const needs {d} coefficients at level {level.r}")
            try:
                return Const([float(v) for v in vals])
            except (TypeError, ValueError):
                raise ExprSyntaxError("const coefficients must be numbers") from None
        if "var" in o:
            if o["var"] not in ("z", "zc"):
                raise ExprSyntaxError(f"unknown variable {o['var']!r}")
            n = int(o.get("pow", 1))
            if abs(n) > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent overflow (|n| > {MAX_EXPONENT})")
            return VarPow(o["var"] == "zc", n)
        op = o.get("op")
        if op == "pow":
            n = int(o["pow"])
            if abs(n) > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent overflow (|n| > {MAX_EXPONENT})")
            return PowNode(dec(o["base"]), n)
        if op in ("mul", "add", "sub"):
            args = o.get("args", [])
            if len(args) < 2:
                raise ExprSyntaxError(f"{op} needs at least two arguments")
            nodes = [dec(a) for a in args]
            cls = {"mul": Mul, "add": Add, "sub": Sub}[op]
            out = nodes[0]
            for nxt in nodes[1:]:
                out = cls(out, nxt)
            return out
        if op == "neg":
            args = o.get("args", [])
            if len(args) != 1:
                raise ExprSyntaxError("neg takes exactly one argument")
            return Neg(dec(args[0]))
        raise ExprSyntaxError(f"unknown expression node {o!r}")

    return Phrase(level, dec(obj))


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


def _eval_slots(node: Node, Z1, Z2, r) -> np.ndarray:
    """Evaluate with independent slots: plain z leaves read Z1, zc leaves Z2.

    A subtree free of the variables stays a single (d,) element; the callers
    that promise a batch spread it with _over_batch.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, VarPow):
        return _pow_value(Z2 if node.conjugated else Z1, node.power, r)
    if isinstance(node, PowNode):
        return _pow_value(_eval_slots(node.base, Z1, Z2, r), node.power, r)
    if isinstance(node, Mul):
        return mul_arrays(_eval_slots(node.left, Z1, Z2, r), _eval_slots(node.right, Z1, Z2, r), r)
    if isinstance(node, Add):
        return _eval_slots(node.left, Z1, Z2, r) + _eval_slots(node.right, Z1, Z2, r)
    if isinstance(node, Sub):
        return _eval_slots(node.left, Z1, Z2, r) - _eval_slots(node.right, Z1, Z2, r)
    if isinstance(node, Neg):
        return -_eval_slots(node.child, Z1, Z2, r)
    if isinstance(node, LogLeaf):
        raise UnsupportedShapeError("logarithm terms cannot be evaluated directly")
    raise DomainError(f"cannot evaluate node {type(node).__name__}")


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

    Right multiplication by b is linear, so the partial strings obey
    T_1 = inc, T_{j+1} = T_j * b + b^j * inc, and T_n is the whole sum with
    every term bracketed from the left: 3n - 4 products instead of
    n(n-1)/2 + 2(n-1).
    """
    total = np.array(inc, copy=True)
    powj = bv
    for j in range(1, n):
        total = mul_arrays(total, bv, r) + mul_arrays(powj, inc, r)
        if j < n - 1:
            powj = mul_arrays(powj, bv, r)
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


def _minus(a):
    return None if a is None else -a


def _plus(a, b):
    if a is None:
        return b
    return a if b is None else a + b


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
        return value, _plus(left_term, right_term)
    if isinstance(node, (Add, Sub)):
        lv, ld = _diff(node.left, Z, Zc, H, conj, r, want)
        rv, rd = _diff(node.right, Z, Zc, H, conj, r, want)
        if isinstance(node, Sub):
            rv, rd = _minus(rv), _minus(rd)
        return (lv + rv if want else None), _plus(ld, rd)
    if isinstance(node, Neg):
        v, d = _diff(node.child, Z, Zc, H, conj, r, want)
        return _minus(v), _minus(d)
    raise DomainError(f"cannot differentiate node {type(node).__name__}")


def _derivative(node: Node, Z, H, conj: bool, r) -> np.ndarray:
    _, der = _diff(node, Z, conj_arrays(Z), H, conj, r, False)
    return np.zeros(Z.shape) if der is None else der


def derivative_apply(f: Phrase, z, h, wrt: str = "z"):
    if wrt not in ("z", "zc"):
        raise DomainError("wrt must be 'z' or 'zc'")
    Z, wrap = _as_batch(f.level, z)
    Harr, _ = _as_batch(f.level, h)
    Z, Harr = np.broadcast_arrays(Z, Harr)
    der = _derivative(f.root, Z, Harr, wrt == "zc", f.level.r)
    return CDNumber(f.level, der) if wrap else der


# ---------------------------------------------------------------------------
# primitives and hat-application
# ---------------------------------------------------------------------------

def _contains_var(node: Node) -> bool:
    return any(isinstance(n, VarPow) and n.power != 0 for n in _nodes(node))


def _signed_terms(node: Node, sign: int = 1):
    if isinstance(node, Add):
        return _signed_terms(node.left, sign) + _signed_terms(node.right, sign)
    if isinstance(node, Sub):
        return _signed_terms(node.left, sign) + _signed_terms(node.right, -sign)
    if isinstance(node, Neg):
        return _signed_terms(node.child, -sign)
    return [(sign, node)]


def _cross(lhs, rhs):
    return [(sl * sr, Mul(ln, rn)) for sl, ln in lhs for sr, rn in rhs]


def _expand(node: Node, d: int) -> list[tuple[int, Node]]:
    """Signed product terms with no variable-bearing sums inside products."""
    if isinstance(node, (Add, Sub, Neg)):
        out = []
        for sign, term in _signed_terms(node):
            out.extend((sign * s, n) for s, n in _expand(term, d))
        return out
    if isinstance(node, Mul):
        return _cross(_expand(node.left, d), _expand(node.right, d))
    if isinstance(node, PowNode):
        if not _contains_var(node.base):
            return [(1, node)]
        if node.power == 0:
            return [(1, VarPow(False, 0))]
        # power 1 stays expanded: a (z - c) leaf is a sum, which primitive
        # cannot place as one variable factor
        match = _as_linear_power(node.base, d) if node.power != 1 else None
        if match is not None and match[2] * node.power != 1:
            center, s, m = match
            sign = s if node.power % 2 else 1
            return [(sign, _linear_power_leaf(center, m * node.power))]
        if node.power != 1:
            # a negative power does not expand, and an expanded power n >= 2
            # always has a word with n variable factors, which primitive
            # rejects: keep the power whole so primitive names it
            return [(1, node)]
        return _expand(node.base, d)
    return [(1, node)]


def _as_linear(node: Node, d: int):
    """Match a z - c shape (up to overall sign): returns (center, sign) or None."""
    const_acc = np.zeros(d)
    var_sign = None
    for sign, term in _expand(node, d):
        if isinstance(term, VarPow) and not term.conjugated and term.power == 1:
            if var_sign is not None:
                return None
            var_sign = sign
        elif not _contains_var(term):
            zpt = np.zeros(d)
            try:
                const_acc = const_acc + sign * _eval_slots(term, zpt, zpt, _width_level(d))
            except (UnsupportedShapeError, DomainError):
                return None
        else:
            return None
    if var_sign is None:
        return None
    return -var_sign * const_acc, var_sign


def _as_linear_power(node: Node, d: int):
    """Match +-(z - c)^m: returns (center, sign, m) or None.

    Powers of one element associate, so (z - c)^m raised to n is (z - c)^(mn).
    """
    terms = _expand(node, d)
    if len(terms) == 1:
        sign, term = terms[0]
        if isinstance(term, VarPow) and not term.conjugated:
            return np.zeros(d), sign, term.power
        if isinstance(term, PowNode) and (lin := _as_linear(term.base, d)) is not None:
            center, s = lin
            return center, sign * (s if term.power % 2 else 1), term.power
    lin = _as_linear(node, d)
    return None if lin is None else (*lin, 1)


def _linear_power_leaf(center: np.ndarray, power: int) -> Node:
    if not np.any(center):
        return VarPow(False, power)
    base = Sub(VarPow(False, 1), Const(center))
    if power == 1:
        return base
    return PowNode(base, power)


@dataclass
class LogTerm:
    """scale * (tree with one Ln(z - center) leaf)."""

    tree: Node
    center: np.ndarray
    scale: float
    triple: tuple[np.ndarray, np.ndarray] | None

    def sandwich(self, level: AlgebraLevel):
        """(a, c, b) of a*Ln(z-c)*b when the word has that shape, else None."""
        if self.triple is None:
            return None
        a, b = self.triple
        return (
            CDNumber(level, a * self.scale),
            CDNumber(level, self.center),
            CDNumber(level, b),
        )


@dataclass
class PrimitiveResult:
    poly: Phrase
    log_terms: list[LogTerm] = field(default_factory=list)


def _locate_var_factor(node: Node, fmt_word: str):
    """(rebuild, leaf) where rebuild(replacement) rebuilds the product term."""
    if isinstance(node, (VarPow, PowNode)):
        return (lambda x: x), node
    if isinstance(node, Mul):
        in_left = _contains_var(node.left)
        in_right = _contains_var(node.right)
        if in_left and in_right:
            raise UnsupportedShapeError(
                f"word has more than one variable factor: {fmt_word}"
            )
        if in_left:
            rebuild, leaf = _locate_var_factor(node.left, fmt_word)
            return (lambda x: Mul(rebuild(x), node.right)), leaf
        rebuild, leaf = _locate_var_factor(node.right, fmt_word)
        return (lambda x: Mul(node.left, rebuild(x))), leaf
    raise UnsupportedShapeError(f"unsupported word shape: {fmt_word}")


def _extract_triple(tree: Node):
    """(a, b) coefficient arrays for shapes L, a*L, L*b, (a*L)*b; else None."""

    def const_value(n: Node):
        if _contains_var(n) or _has_log(n):
            return None
        width = _const_width(n)
        if width is None:
            return None
        return _eval_slots(n, np.zeros(width), np.zeros(width), _width_level(width))

    if isinstance(tree, LogLeaf):
        return "unit", "unit"
    if isinstance(tree, Mul):
        l, r = tree.left, tree.right
        if isinstance(r, LogLeaf):
            a = const_value(l)
            return (a, "unit") if a is not None else None
        if isinstance(l, LogLeaf):
            b = const_value(r)
            return ("unit", b) if b is not None else None
        if isinstance(l, Mul) and isinstance(l.right, LogLeaf):
            a = const_value(l.left)
            b = const_value(r)
            if a is not None and b is not None:
                return (a, b)
    return None


def _has_log(node: Node) -> bool:
    return any(isinstance(n, LogLeaf) for n in _nodes(node))


def _const_width(node: Node):
    return next((n.value.shape[0] for n in _nodes(node) if isinstance(n, Const)), None)


def _width_level(width: int) -> int:
    return int(width).bit_length() - 1


def primitive(f: Phrase) -> PrimitiveResult:
    """Term-by-term primitive: polynomial part plus logarithm terms.

    Each word must contain at most one variable factor of shape (z - c)^n
    (sandwich words a*(z-c)^n*b and their products with constants).  n = -1
    yields a LogTerm; other n go to the polynomial phrase with factor
    (z-c)^(n+1)/(n+1).  Conjugated-variable words are rejected.
    """
    if _varies(f.root, conj=True):
        raise UnsupportedShapeError(
            f"no primitive for words in the conjugated variable: {format_phrase(f)}"
        )
    r = f.level.r
    d = f.level.basis_dim
    poly_terms: list[tuple[int, Node]] = []
    log_terms: list[LogTerm] = []
    for sign, term in _expand(f.root, d):
        word_text = _fmt(term, head=True)
        if not _contains_var(term):
            poly_terms.append((sign, Mul(term, VarPow(False, 1))))
            continue
        rebuild, leaf = _locate_var_factor(term, word_text)
        if isinstance(leaf, VarPow):
            center = np.zeros(d)
            n = leaf.power
            extra = 1
        else:  # PowNode
            lin = _as_linear(leaf.base, d)
            if lin is None:
                raise UnsupportedShapeError(
                    f"variable factor is not a power of (z - c): {word_text}"
                )
            center, s = lin
            if center.shape[0] != d:
                raise UnsupportedShapeError(f"unsupported word shape: {word_text}")
            n = leaf.power
            extra = s if n % 2 else 1
        if n == -1:
            tree = rebuild(LogLeaf(center))
            scale = float(sign * extra)
            log_terms.append(LogTerm(tree=tree, center=center, scale=scale, triple=_tripled(tree, d)))
        else:
            m = n + 1
            new_leaf = _linear_power_leaf(center, m)
            tree = rebuild(new_leaf)
            scalar = sign * extra / m
            node = tree if scalar == 1 else Mul(Const(_scalar_vec(d, scalar)), tree)
            poly_terms.append((1, node))
    if poly_terms:
        root: Node = poly_terms[0][1] if poly_terms[0][0] == 1 else Neg(poly_terms[0][1])
        for sign, node in poly_terms[1:]:
            root = Add(root, node) if sign == 1 else Sub(root, node)
    else:
        root = Const(np.zeros(d))
    return PrimitiveResult(poly=Phrase(f.level, root), log_terms=log_terms)


def _tripled(tree: Node, d: int):
    got = _extract_triple(tree)
    if got is None:
        return None
    a, b = got
    unit = np.zeros(d)
    unit[0] = 1.0
    a = unit if isinstance(a, str) else np.asarray(a, dtype=np.float64)
    b = unit if isinstance(b, str) else np.asarray(b, dtype=np.float64)
    return a, b


def _scalar_vec(d: int, v: float):
    vec = np.zeros(d)
    vec[0] = float(v)
    return vec


def _eval_with_log(node: Node, Z, r, log_value) -> np.ndarray:
    if isinstance(node, LogLeaf):
        return log_value
    if isinstance(node, Mul):
        return mul_arrays(
            _eval_with_log(node.left, Z, r, log_value),
            _eval_with_log(node.right, Z, r, log_value),
            r,
        )
    if isinstance(node, (Add, Sub, Neg, PowNode)):
        raise UnsupportedShapeError("unexpected structure inside a logarithm word")
    return _eval_slots(node, Z, conj_arrays(Z), r)


def hat_from_primitive(prim: PrimitiveResult, z, h):
    """Increment functional of the primitive: f-hat(z).h."""
    level = prim.poly.level
    Z, wrap = _as_batch(level, z)
    H, _ = _as_batch(level, h)
    Z, H = np.broadcast_arrays(Z, H)
    r = level.r
    out = _derivative(prim.poly.root, Z, H, False, r)
    for lt in prim.log_terms:
        dl = dln_arrays(Z - lt.center, H)
        out = out + lt.scale * _eval_with_log(lt.tree, Z, r, dl)
    return CDNumber(level, out) if wrap else out


def hat_apply(f: Phrase, z, h):
    return hat_from_primitive(primitive(f), z, h)
