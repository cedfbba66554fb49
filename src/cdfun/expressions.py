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
parser builds each Sum whole, in the normal form that the constructors Add,
Sub and Neg keep for JSON trees: a left-associated chain whose head may be
negated, so a - b + c and (a + b) + c are one Sum of three terms, while -x
and a bracketed sum after the head stay single terms of their own.

The parser folds constants as it reads them, with the bits that evaluating
the unfolded tree gives: a product of two Consts is one Const (mul_arrays),
and so is a Sum of Consts (_add_signed in term order, so a negated head
keeps its -0.0); an unsigned number times a basis symbol without exponent,
s*e_k, is the one coefficient s at k, and z^0 is the unit.  So no product
or sum in a parsed tree is free of the variable, unless it holds a PowNode:
a power of constants stays one, so its PoleError comes at evaluation.  A
number past the range of a double is a syntax error.  JSON trees are kept
as given; their constant subtrees, and those around a PowNode, are read
where they are used, by _eval_slots and by primitive() (_linear,
_word_matrix).

Every node knows its shape from the moment it is built: ``flags`` ORs the
children's bits (_VAR: holds z or zc to a nonzero power; _DZ and _DZC: its
superdifferential in z or zc is not structurally 0, which X^0 never is;
_NEG: holds a negative power) and holds the depth in nodes above them,
flags // _DEPTH.  So the depth bound, the constant subtrees of a word and
the subtrees a derivative skips are read off one attribute, and no walk
re-descends a subtree.  The parser tokenizes in one findall pass and reads
the token texts up to an end sentinel.

The superdifferential of a term follows the product rule with (Dz).h = h and
(D zc).h = conj(h); for a power the increment is summed over insertion slots
with the left-to-right bracket, e.g. D(z^3).h = (h*z)*z + (z*h)*z + (z*z)*h.
That power string runs one recurrence in the base's complex plane for every
batch, with n products (_left_power_string); an integral whose path lies in
a leaf's plane sums that leaf in complex arithmetic instead (integrate.py).
A negative power g^-n is the power string of the inverse g^-1 = conj(g)/|g|^2,
whose differential D(g^-1).h = (conj(Dg.h) - 2*g^-1*<g, Dg.h>)/|g|^2 (with
<.,.> the Euclidean inner product of coefficients) holds at every level.

Every entry point above evaluates on coefficient arrays through the d x d
product tables.  A plane span(1, M), M a unit imaginary, is a subalgebra
and a copy of C, so a phrase whose constants all lie in it maps it into
itself.  There _eval_plane walks the tree on numpy complex scalars or (N,)
arrays instead: z is w, zc is conj(w), and a constant c is c_0 + i<c, M>,
read once by _plane_constants, which refuses a constant off the plane by
the rounding rule of _in_plane.  On request it carries the pair (dF/dw,
dF/d conj(w)) by forward mode, which gives the derivatives along 1 and M.
contour.find_root iterates on such a plane, and the contour kernel loop
and integrate's in-plane Ln leaves sum on one; _lift maps the complex
results back to Re w + Im w * M.

primitive() integrates words of sandwich shape a*(z-c)^n*b term by term,
to a*(z-c)^(n+1)*b/(n+1), or to a*Ln(z-c)*b when n = -1, whose increments
come from the principal branch via dln.  One walk of the tree (_words)
finds the words and the centre and power of each one's variable factor.  A
word is linear in its leaf (z-c)^(n+1) or Ln(z-c), so a primitive is its
leaf table: the constants of the words around each leaf fold into one d x d
matrix, the constant next to the leaf as its multiplication table (one
gather), and the hat increment is the sum over leaves of (leaf increment) @
(matrix).  The leaf table is built at the first primitive() of a phrase and
kept on the phrase (a cached property, freed with it, its matrices read
only), so a residue-theorem check takes its phrase apart once for the loop
integral and every residue.  All evaluation entry points accept a CDNumber
or a batched coefficient array with the component axis last.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .algebra import (
    EPS_ZERO,
    AlgebraLevel,
    CDNumber,
    as_level,
    basis_table,
    conj_arrays,
    inverse_arrays,
    mul_arrays,
    one,
    pow_arrays,
    scaled_norm_arrays,
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

#: Node.flags, set once when a node is built, from its children's flags: the
#: low bits say what the subtree holds, and flags // _DEPTH is its depth in
#: nodes (1 for a leaf).
_VAR = 1  # z or zc to a nonzero power
_DZ = 2  # a superdifferential in z that is not structurally 0
_DZC = 4  # the same in zc
_NEG = 8  # a negative power
_DEPTH = 16
_BITS = _DEPTH - 1


def _parent(bits: int, top: int) -> int:
    """The flags of a node over children whose flags OR to bits and whose
    largest flags are top."""
    return (top & ~_BITS) + _DEPTH | bits & _BITS


class Node:
    __slots__ = ("flags",)


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.flags = _DEPTH


class VarPow(Node):
    """z**power or zc**power."""

    __slots__ = ("conjugated", "power")

    def __init__(self, conjugated: bool, power: int):
        self.conjugated = bool(conjugated)
        self.power = int(power)
        if not self.power:
            self.flags = _DEPTH
        else:
            self.flags = _DEPTH | _VAR | (_DZC if self.conjugated else _DZ) | (_NEG if self.power < 0 else 0)


class PowNode(Node):
    __slots__ = ("base", "power")

    def __init__(self, base: Node, power: int):
        self.base = base
        self.power = int(power)
        flags = base.flags
        if not self.power:  # X^0 is the unit, whatever X holds
            flags &= ~(_DZ | _DZC)
        elif self.power < 0:
            flags |= _NEG
        self.flags = _parent(flags, flags)


class Mul(Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        self.left = left
        self.right = right
        self.flags = _parent(left.flags | right.flags, max(left.flags, right.flags))


class Sum(Node):
    """Signed sum of terms: ``terms`` is a tuple of (sign, node), sign +1 or -1."""

    __slots__ = ("terms",)

    def __init__(self, terms, flags=None):
        self.terms = tuple(terms)
        if flags is None:
            bits = top = 0
            for _, term in self.terms:
                bits |= term.flags
                top = max(top, term.flags)
            flags = _parent(bits, top)
        self.flags = flags


def Add(left: Node, right: Node) -> Sum:
    return _append(left, 1, right)


def Sub(left: Node, right: Node) -> Sum:
    return _append(left, -1, right)


def Neg(child: Node) -> Sum:
    """-child as one negative term; never merged into an enclosing sum."""
    return Sum(((-1, child),))


def _append(left: Node, sign: int, right: Node) -> Sum:
    """left +- right, where a Sum on the left grows by one term, its flags
    joined with the new term's (left.flags - _DEPTH is its terms' depth)."""
    if isinstance(left, Sum):
        flags = _parent(left.flags | right.flags, max(left.flags - _DEPTH, right.flags))
        return Sum(left.terms + ((sign, right),), flags)
    return Sum(((1, left), (sign, right)))


@dataclass(frozen=True)
class Phrase:
    """A parsed expression bound to an algebra level."""

    level: AlgebraLevel
    root: Node

    def __str__(self):
        return format_phrase(self)

    @functools.cached_property
    def _primitive(self) -> "PrimitiveResult":
        """The memo of primitive(self), freed with the phrase."""
        return _leaf_table(self)


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
    nodes."""
    if root.flags >= (MAX_DEPTH + 1) * _DEPTH:
        raise ExprSyntaxError(f"expression is nested deeper than {MAX_DEPTH} levels")
    return root


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

#: One token after optional whitespace: a number, a name or an operator in
#: group 1, or from a character that starts none of them, the rest of the
#: text in group 2.
_TOKEN = re.compile(
    r"\s*(?:((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[A-Za-z]+\d*|[()+\-*^])|(\S.*))",
    re.DOTALL,
)

#: the text of the sentinel token that ends every token list
_END = ""


class _Parser:
    """Recursive descent over one token list, read by its texts: an operator
    token's text is the operator, a number's starts with a digit or '.', a
    name's with a letter, and the list ends in the _END sentinel, so the
    parser compares the current text and never runs off the end.  Token
    positions are found again only for an error message."""

    def __init__(self, text: str, level: AlgebraLevel):
        self.text = text
        self.level = level
        self.dim = level.basis_dim
        tokens = _TOKEN.findall(text)
        if tokens and tokens[-1][1]:
            rest = tokens[-1][1]
            raise ExprSyntaxError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        self.texts = [tok for tok, _ in tokens]
        self.texts.append(_END)
        self.pos = 0
        self.tok = self.texts[0]
        self.brackets = 0

    def _start(self, i: int) -> int:
        """The position of token i in the text."""
        starts = [m.start(1) for m in _TOKEN.finditer(self.text)]
        return starts[i] if i < len(starts) else len(self.text)

    def _next(self) -> str:
        """Step past the current token and return its text; ExprSyntaxError at the end."""
        tok = self.tok
        if tok is _END:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        self.pos += 1
        self.tok = self.texts[self.pos]
        return tok

    def parse(self) -> Node:
        node = self.phrase()
        if self.tok is not _END:
            raise ExprSyntaxError(f"unexpected token {self.tok!r}", self._start(self.pos))
        return node

    def phrase(self) -> Node:
        """A lone unsigned term, or one Sum in the normal form of Add, Sub
        and Neg, its terms collected first: an unsigned head that is a
        bracketed Sum lends its terms, as Add would.  A sum of constants is
        one Const."""
        if self.tok == "-":
            self._next()
            terms = [(-1, self.term())]
        else:
            head = self.term()
            if self.tok != "+" and self.tok != "-":
                return head
            terms = list(head.terms) if isinstance(head, Sum) else [(1, head)]
        while self.tok == "+" or self.tok == "-":
            sign = 1 if self._next() == "+" else -1
            terms.append((sign, self.term()))
        if not all(type(term) is Const for _, term in terms):
            return Sum(terms)
        total = None
        for sign, term in terms:  # the order and bits of evaluating the Sum
            total = _add_signed(total, sign, term.value)
        return Const(total)

    def term(self) -> Node:
        """A left-associated product chain; a product of two constants is
        one Const with the bits of evaluating it."""
        node = self._scaled_unit() or self.factor()
        while self.tok == "*":
            self._next()
            right = self.factor()
            if type(node) is Const and type(right) is Const:
                node = Const(mul_arrays(node.value, right.value, self.level.r))
            else:
                node = Mul(node, right)
        return node

    def _scaled_unit(self):
        """The Const s*e_k when the term starts with an unsigned number s
        times a basis symbol e_k that takes no exponent, else None.  Written
        as the one coefficient s at k, which is the product s*e_k bit for
        bit, since s is finite."""
        texts, i = self.texts, self.pos
        if not _numeral(self.tok) or texts[i + 1] != "*":
            return None
        name = texts[i + 2]  # texts[i + 1] is no sentinel, so these exist
        if name[:1] != "e" or not name[1:].isdigit() or texts[i + 3] == "^":
            return None
        k = int(name[1:])
        if k >= self.dim:
            return None
        value = np.zeros(self.dim)
        value[k] = self._number(i)
        self.pos = i + 3
        self.tok = texts[i + 3]
        return Const(value)

    def _number(self, at: int) -> float:
        """The value of the number token at index at; ExprSyntaxError at its
        position when it overflows a double."""
        value = float(self.texts[at])
        if math.isinf(value):
            raise ExprSyntaxError(f"number {self.texts[at]} overflows a double", self._start(at))
        return value

    def factor(self) -> Node:
        tok = self._next()
        at = self.pos - 1  # the token's index, for an error's position
        scalar = _numeral(tok)
        if tok == "(":
            self.brackets += 1
            if self.brackets > MAX_DEPTH:
                raise ExprSyntaxError(f"brackets nest deeper than {MAX_DEPTH} levels", self._start(at))
            node: Node = self.phrase()
            if self.tok != ")":
                raise ExprSyntaxError(f"expected ')', got {self._next()!r}", self._start(self.pos - 1))
            self._next()
            self.brackets -= 1
        elif scalar:
            value = np.zeros(self.dim)
            value[0] = self._number(at)
            node = Const(value)
        elif tok == "z" or tok == "zc":
            node = VarPow(tok == "zc", 1)
        elif tok[0].isalpha():
            if tok[0] != "e" or not tok[1:].isdigit():
                raise ExprSyntaxError(f"unknown symbol {tok!r}", self._start(at))
            k = int(tok[1:])
            if k >= self.dim:
                raise ExprSyntaxError(f"basis symbol e{k} out of range for level {self.level.r}", self._start(at))
            vec = np.zeros(self.dim)
            vec[k] = 1.0
            node = Const(vec)
        else:
            raise ExprSyntaxError(f"unexpected token {tok!r}", self._start(at))

        if self.tok == "^":
            self._next()
            caret = self.pos - 1
            n = self._integer()
            if scalar:
                raise ExprSyntaxError("exponent not allowed on a scalar literal", self._start(caret))
            if not isinstance(node, VarPow) or tok == "(":
                node = PowNode(node, n)
            else:  # z^0 and zc^0 are the unit, as they evaluate
                node = VarPow(node.conjugated, n) if n else Const(one(self.level).coeffs)
        return node

    def _integer(self) -> int:
        sign = 1
        tok = self._next()
        if tok == "-":
            sign = -1
            tok = self._next()
        try:
            if not tok.isdigit():
                raise ExprSyntaxError("exponent must be an integer")
            return _exponent(sign * int(tok))
        except ExprSyntaxError as exc:
            raise ExprSyntaxError(str(exc), self._start(self.pos - 1)) from None


def _numeral(tok: str) -> bool:
    """Whether a token text is a number: it starts with a digit or '.'."""
    return tok[:1].isdigit() or tok[:1] == "."


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

def _fmt_terms(value: np.ndarray) -> str:
    """The nonzero coefficients as a signed sum of literals s, e_k or s*e_k,
    each +0.0 at every other index, so the zeros of the text parse as +0.0;
    bracketed unless it is one unsigned literal without '*'."""
    terms = []
    for k in np.flatnonzero(value):
        v = float(value[k])
        mag = repr(abs(v)) if k == 0 else (f"e{k}" if abs(v) == 1.0 else f"{repr(abs(v))}*e{k}")
        terms.append(("-" if v < 0 else "+") + mag)
    if not terms:
        return "0"
    if len(terms) == 1 and terms[0][0] == "+" and "*" not in terms[0]:
        return terms[0][1:]
    body = "".join(terms)
    return f"({body[1:] if body[0] == '+' else '0' + body})"


def _fmt_const(value: np.ndarray) -> str:
    """The text of a constant that parses back to the same bits, zero signs
    included.  A constant with a -0.0 coefficient is written as the negation
    of -value, which makes every zero -0.0, followed by +(-(0-u))-u for each
    +0.0 coefficient, u its basis unit: -(0-u) is 1 there and -0.0
    elsewhere, u is 1 there and +0.0 elsewhere, so that coefficient becomes
    1 - 1 = +0.0 and every other keeps its bits.  parse("-2") folds to
    [-2, -0, ...], written (-2.0)."""
    zero = value == 0.0
    if not np.signbit(value[zero]).any():
        return _fmt_terms(value)
    units = ("1.0" if k == 0 else f"e{k}" for k in np.flatnonzero(zero & ~np.signbit(value)))
    return "(-" + _fmt_terms(-value) + "".join(f"+(-(0-{u}))-{u}" for u in units) + ")"


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


def phrase_to_json(f: Phrase):
    """The JSON tree of a phrase, the form that ``phrase_from_json`` and
    ``--expr`` read.  Kept although only the tests call it: it writes what
    the CLI reads, so a phrase built in Python can be handed to the CLI."""
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


def _eval_slots(node: Node, Z1, Z2, r) -> np.ndarray:
    """Evaluate with plain z leaves reading Z1 and zc leaves Z2, which is conj(Z1).

    A subtree free of the variables stays a single (d,) element; the callers
    that promise a batch spread it with _over_batch.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, VarPow):
        if node.power == 0:  # free of the variable, like a constant
            return one(r).coeffs
        return _pow_value(Z2 if node.conjugated else Z1, node.power, r)
    if isinstance(node, PowNode):
        return _pow_value(_eval_slots(node.base, Z1, Z2, r), node.power, r)
    if isinstance(node, Mul):
        left = _eval_slots(node.left, Z1, Z2, r)
        return mul_arrays(left, _eval_slots(node.right, Z1, Z2, r), r)
    if isinstance(node, Sum):
        total = None
        for sign, term in node.terms:
            total = _add_signed(total, sign, _eval_slots(term, Z1, Z2, r))
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


# ---------------------------------------------------------------------------
# in-plane evaluation
# ---------------------------------------------------------------------------

#: The rounding allowed off a plane span(1, M), per unit of the norms
#: involved: ``_in_plane`` here, ``_in_circle_plane`` and ``_polyline_log``
#: in integrate.py.
_PLANE_EPS = 16.0 * np.finfo(float).eps

_ONE = np.complex128(1.0)


def _in_plane(v: np.ndarray, m: np.ndarray) -> bool:
    """Whether v lies in span(1, M), M a unit imaginary: the part of Im v off
    M has norm at most _PLANE_EPS * (|v| + 1), the rounding of v."""
    if not v[1:].any():
        return True
    off = v - float(v @ m) * m
    off[0] = 0.0
    return float(scaled_norm_arrays(off)) <= _PLANE_EPS * (float(scaled_norm_arrays(v)) + 1.0)


def _plane_constants(root: Node, m: np.ndarray, *points: np.ndarray):
    """The constants c of the tree read in span(1, M) as numpy complex
    numbers c_0 + i<c, M>, keyed by node id, when every one of them and
    every point given lies in that plane (``_in_plane``); else None."""
    if not all(_in_plane(p, m) for p in points):
        return None
    out = {}
    for node in _nodes(root):
        if isinstance(node, Const):
            if not _in_plane(node.value, m):
                return None
            out[id(node)] = np.complex128(complex(node.value[0], float(node.value @ m)))
    return out


def _lift(w, m: np.ndarray) -> np.ndarray:
    """The elements Re w + Im w * M of the complex numbers w, as (*w.shape, d)."""
    out = np.multiply.outer(np.imag(w), m)
    out[..., 0] = np.real(w)
    return out


def _plane_power(base, slope, n: int):
    """(base^n, its slope n * base^(n-1) * slope) in complex arithmetic, the
    slope a pair (d/dw, d/d conj(w)) or None where the base does not vary;
    a vanishing base of a negative power raises PoleError, as ``_inverse``
    does."""
    if n == 0:
        return _ONE, None
    if n < 0:
        if np.any(np.abs(base) <= EPS_ZERO):
            raise PoleError("negative power of a vanishing base")
        base, n = 1.0 / base, -n
        # d(b^-n) = -n * u^(n+1) * db with u = 1/b
        k = None if slope is None else -n * base ** (n + 1)
    else:
        k = None if slope is None else n * base ** (n - 1)
    value = base**n if n > 1 else base
    return value, None if slope is None else (k * slope[0], k * slope[1])


def _eval_plane(root: Node, w, consts: dict, slopes: bool = False):
    """f at the complex points w (a numpy complex scalar or (N,) array) of a
    plane span(1, M) that holds every constant, read by ``_plane_constants``:
    z is w and zc is conj(w).  The plane is a subalgebra isomorphic to C, so
    this is the value of ``eval_node_arrays`` at Re w + Im w * M, up to
    rounding, as a complex number.  With slopes, returns (F, D1, DM), the
    directional derivatives of f along 1 and M (scalars where f does not
    vary), from the pair (dF/dw,
    dF/d conj(w)) carried by forward mode: D1 = dF/dw + dF/d conj(w) and
    DM = i*(dF/dw - dF/d conj(w)).  numpy complex arithmetic overflows to
    inf, as the table products do, where Python's complex power would raise
    OverflowError."""
    zc = np.conj(w)
    dz, dzc = ((_ONE, 0.0), (0.0, _ONE)) if slopes else (None, None)

    def walk(node):
        kind = type(node)
        if kind is Const:
            return consts[id(node)], None
        if kind is VarPow:
            return _plane_power(zc, dzc, node.power) if node.conjugated else _plane_power(w, dz, node.power)
        if kind is PowNode:
            return _plane_power(*walk(node.base), node.power)
        if kind is Mul:
            a, da = walk(node.left)
            b, db = walk(node.right)
            if da is None:
                return a * b, None if db is None else (a * db[0], a * db[1])
            if db is None:
                return a * b, (da[0] * b, da[1] * b)
            return a * b, (da[0] * b + a * db[0], da[1] * b + a * db[1])
        if kind is Sum:
            value = slope = None
            for sign, term in node.terms:
                v, dv = walk(term)
                value = _add_signed(value, sign, v)
                if dv is not None:
                    dv = dv if sign > 0 else (-dv[0], -dv[1])
                    slope = dv if slope is None else (slope[0] + dv[0], slope[1] + dv[1])
            return value, slope
        raise DomainError(f"cannot evaluate node {kind.__name__}")

    value, slope = walk(root)
    shape = np.shape(w)
    if np.shape(value) != shape:  # free of the variable
        value = np.broadcast_to(value, shape).copy()
    if not slopes:
        return value
    dw, dwc = (0.0, 0.0) if slope is None else slope
    return value, dw + dwc, 1j * (dw - dwc)


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


def _diff(node: Node, Z, Zc, H, conj: bool, r, want: bool):
    """(value, derivative) of the superdifferential wrt z or zc along H.

    The derivative is None where the node does not vary (its flag _DZ or
    _DZC), and the value is None unless `want` asks for it: a Mul needs a
    factor's value only when the other factor varies.  A skipped subtree with
    a negative power is still evaluated, so a vanishing base raises PoleError
    whatever its derivative.
    """
    vary = _DZC if conj else _DZ
    if not node.flags & vary:
        if want or node.flags & _NEG:
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
        lv, ld = _diff(node.left, Z, Zc, H, conj, r, want or bool(node.right.flags & vary))
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

def _words(node: Node, r: int) -> list:
    """The signed words (sign, word, leaf) that sum to node, in order.

    A subtree free of the variable is one word, with leaf None.  Any other
    word has one variable factor, the node `slot`, and leaf (slot, center,
    m): the term is sign*word with slot read as (z - center)^m, the sign of
    a (c - z)^m folded into sign.  Products distribute over sums, X^0 is the
    unit and a power of +-(z - c)^m is (z - c)^(m*n).  zc is refused before.
    """
    if not node.flags & _VAR:
        return [(1, node, None)]
    if isinstance(node, VarPow):
        return [(1, node, (node, np.zeros(1 << r), node.power))]
    if isinstance(node, Sum):
        return [(sign * s, word, leaf) for sign, term in node.terms for s, word, leaf in _words(term, r)]
    if isinstance(node, Mul):
        words = []
        for sl, left, ll in _words(node.left, r):
            for sr, right, lr in _words(node.right, r):
                word = Mul(left, right)
                if ll and lr:
                    raise UnsupportedShapeError(f"word has more than one variable factor: {_fmt(word)}")
                words.append((sl * sr, word, ll or lr))
        return words
    n = node.power  # a PowNode
    if n == 0:
        return [(1, VarPow(False, 0), None)]
    words = _words(node.base, r)
    if n == 1:
        return words
    if all(leaf is None for _, _, leaf in words):  # its zero powers left the base constant
        return [(1, PowNode(Sum((s, word) for s, word, _ in words), n), None)]
    lin = _linear(words, r)
    if lin is None:
        raise UnsupportedShapeError(f"variable factor is not a power of (z - c): {_fmt(node)}")
    s, center, m = lin
    sign = s if n % 2 else 1
    if m * n != 1:
        return [(sign, node, (node, center, m * n))]
    # ((z - c)^-1)^-1 is the sum z - c, whose words are z and the constant -c
    z = VarPow(False, 1)
    words = [(sign, z, (z, np.zeros(1 << r), 1))]
    if np.any(center):
        words.append((-sign, Const(center), None))
    return words


def _linear(words, r: int):
    """(sign, center, m) when the words sum to sign*(z - center)^m, else None:
    one word is its own slot, and any others are constants shifting m = 1."""
    var = [(s, word, leaf) for s, word, leaf in words if leaf is not None]
    consts = [(s, word) for s, word, leaf in words if leaf is None]
    if len(var) != 1:
        return None
    ((s, word, (slot, center, m)),) = var
    if slot is not word or (consts and m != 1):
        return None
    for t, const in consts:
        center = center - s * t * _eval_slots(const, None, None, r)
    return s, center, m


def _circle_degree(node: Node, center: np.ndarray, r: int):
    """A bound on the degree in theta of the node at z = center +
    rho*exp(theta*M), for every radius rho and unit imaginary M, or None
    when the tree shows no trigonometric polynomial.  It is a bound, not
    always the degree: z*zc = |z|^2 counts 2.

    Each coordinate of z and zc is a real trigonometric polynomial of
    degree 1 in theta, and a product is bilinear in its factors'
    coordinates, so a subtree free of the variable has degree 0, z^m and
    zc^m with m >= 0 have degree m, a product adds its factors' degrees, a
    power multiplies its base's, and a sum takes the largest.  A negative
    power counts only when its base is z - center: with |z - center| = rho,
    (z - center)^-1 = conj(z - center)/rho^2 has degree 1.  Computed per
    call, since the trees of most phrases never reach a circle."""
    if not node.flags & _VAR:
        return 0
    if isinstance(node, VarPow):
        if node.power > 0:
            return node.power
        return -node.power if not node.conjugated and not np.any(center) else None
    if isinstance(node, Mul):
        left = _circle_degree(node.left, center, r)
        right = None if left is None else _circle_degree(node.right, center, r)
        return None if right is None else left + right
    if isinstance(node, Sum):
        top = 0
        for _, term in node.terms:
            degree = _circle_degree(term, center, r)
            if degree is None:
                return None
            top = max(top, degree)
        return top
    if node.power >= 0:  # a PowNode; X^0 is the unit
        base = _circle_degree(node.base, center, r) if node.power else 0
        return None if base is None else base * node.power
    if node.base.flags & _DZC:
        return None
    try:
        lin = _linear(_words(node.base, r), r)
    except UnsupportedShapeError:
        return None
    return -node.power if lin is not None and lin[2] == 1 and np.array_equal(lin[1], center) else None


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


def _word_matrix(word: Node, slot: Node, r: int):
    """The matrix T with word = X @ T at slot value X, or None when the word
    is its slot.

    A word is a product tree of constants around its one variable factor,
    the slot, the only subtree with the flag _VAR.  The constant next to the
    slot gives its left or right multiplication table (one gather), and each
    constant further out multiplies T as it would multiply the word's value
    on the identity batch.
    """
    if word is slot:
        return None
    if word.left.flags & _VAR:
        T = _word_matrix(word.left, slot, r)
        b = _eval_slots(word.right, None, None, r)
        return basis_table(r).right_table(b) if T is None else mul_arrays(T, b, r)
    a = _eval_slots(word.left, None, None, r)
    T = _word_matrix(word.right, slot, r)
    return basis_table(r).left_table(a) if T is None else mul_arrays(a, T, r)


def primitive(f: Phrase) -> PrimitiveResult:
    """Term-by-term primitive of f as a table of leaves, built once per phrase.

    Each word must contain at most one variable factor of shape (z - c)^n
    (sandwich words a*(z-c)^n*b and their products with constants).  The
    word integrates to itself with that factor replaced by the leaf
    (z-c)^(n+1)/(n+1), or by Ln(z-c) when n = -1; a constant word c
    integrates to c*z.  Conjugated-variable words are rejected.

    A word is linear in its leaf: it is X @ T at leaf value X, T the product
    of its constants' multiplication tables (see ``_word_matrix``).  Its sign
    and 1/(n+1) are folded in, and words around the same leaf share one
    matrix.  The result is kept on the phrase, so every later call returns
    the same leaf table; callers must not change its matrices.
    """
    return f._primitive


def _leaf_table(f: Phrase) -> PrimitiveResult:
    """primitive(f), built."""
    if f.root.flags & _DZC:
        raise UnsupportedShapeError(
            f"no primitive for words in the conjugated variable: {format_phrase(f)}"
        )
    r = f.level.r
    d = f.level.basis_dim
    leaves: dict[tuple[bytes, int], Leaf] = {}
    for sign, word, leaf in _words(f.root, r):
        if leaf is None:  # the constant word c is c*z^0
            slot = VarPow(False, 1)
            word, leaf = Mul(word, slot), (slot, np.zeros(d), 0)
        slot, center, n = leaf
        m = n + 1
        scale = float(sign) if m == 0 else sign / m
        T = _word_matrix(word, slot, r)
        matrix = scale * (np.eye(d) if T is None else T)
        key = (center.tobytes(), m)
        if key in leaves:
            leaves[key].matrix += matrix
        else:
            leaves[key] = Leaf(center, m, matrix)
    for leaf in leaves.values():  # shared by every caller of the memo
        leaf.matrix.flags.writeable = False
    return PrimitiveResult(f.level, list(leaves.values()))


def hat_from_primitive(prim: PrimitiveResult, z, h):
    """Increment functional of the primitive: f-hat(z).h, summed over its
    leaves as (leaf increment) @ (leaf matrix).  Kept by name: the
    benchmark's span recorder wraps it."""
    level = prim.level
    Z, wrap = _as_batch(level, z)
    H, _ = _as_batch(level, h)
    Z, H = np.broadcast_arrays(Z, H)
    out = np.zeros(Z.shape)
    for leaf in prim.leaves:
        out += leaf.increment(Z, H, level.r) @ leaf.matrix
    return CDNumber(level, out) if wrap else out
