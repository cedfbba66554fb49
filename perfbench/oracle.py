"""Reference arithmetic for checking cdfun reports.

Nothing here calls cdfun's product kernel.  Products use the textbook
doubling recursion

    (a, b) (c, d) = (a c - d~ b,  d a + b c~)

batched so that all four half-size products of one level are a single
recursive call; a level-8 product is then a few array operations instead of
the 4**8 scalar calls of ``cdfun.algebra._mul_by_doubling``.  ``check_against``
compares the two on random elements, so the oracle is tied to that
independent recursion and not to the basis-table kernel under test.

Phrases are small trees of tuples:

    ("c", vec)  constant        ("z",)  variable     ("zc",)  conjugate
    ("pow", node, n)            ("mul", a, b)        ("add", a, b)   ("sub", a, b)

``text`` renders a tree in the CLI expression grammar and ``jet`` evaluates
it along a line z + s*h as a truncated series c0 + c1 s + c2 s^2, which gives
values, directional derivatives and second derivatives without finite
differences.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def conj(x):
    out = np.array(x, dtype=np.float64, copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def _mul_rows(x, y):
    n = x.shape[1]
    if n == 1:
        return x * y
    h = n // 2
    k = x.shape[0]
    a, b = x[:, :h], x[:, h:]
    c, d = y[:, :h], y[:, h:]
    p = _mul_rows(np.concatenate([a, conj(d), d, b]), np.concatenate([c, b, a, conj(c)]))
    return np.concatenate([p[:k] - p[k : 2 * k], p[2 * k : 3 * k] + p[3 * k :]], axis=1)


def mul(x, y):
    """Cayley-Dickson product of two elements or two equal-shape batches."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x, y = np.broadcast_arrays(x, y)
    shape = x.shape
    out = _mul_rows(x.reshape(-1, shape[-1]), y.reshape(-1, shape[-1]))
    return out.reshape(shape)


def check_against(slow_mul, rng, levels=range(1, 6)):
    """Raise AssertionError unless ``mul`` matches ``slow_mul`` on random pairs."""
    for r in levels:
        x, y = rng.standard_normal((2, 1 << r))
        if not np.allclose(mul(x, y), slow_mul(x, y), rtol=0.0, atol=1e-12):
            raise AssertionError(f"reference product disagrees with the doubling recursion at r={r}")


def unit(d, k=0):
    out = np.zeros(d)
    out[k] = 1.0
    return out


def norm(x):
    return float(np.sqrt(np.sum(np.square(x))))


# ---------------------------------------------------------------------------
# phrase trees
# ---------------------------------------------------------------------------

def _num(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"constant {v!r} is not finite")
    return repr(float(v))  # the grammar reads exponents such as 9.2e-05


def const_text(vec) -> str:
    """A constant in the CLI grammar, e.g. (0.5-0.25*e3)."""
    parts = []
    for k, v in enumerate(vec):
        if v == 0.0:
            continue
        mag = _num(abs(v)) if k == 0 else f"{_num(abs(v))}*e{k}"
        parts.append(("-" if v < 0 else "+") + mag)
    if not parts:
        return "0"
    body = "".join(parts)
    return "(" + (body[1:] if body[0] == "+" else "0" + body) + ")"


def text(node) -> str:
    tag = node[0]
    if tag == "c":
        return const_text(node[1])
    if tag in ("z", "zc"):
        return tag
    if tag == "pow":
        base = node[1]
        inner = base[0] if base[0] in ("z", "zc") else f"({text(base)})"
        return f"{inner}^{node[2]}"
    if tag == "mul":
        left, right = text(node[1]), text(node[2])
        if node[1][0] in ("add", "sub"):
            left = f"({left})"
        if node[2][0] in ("add", "sub", "mul"):
            right = f"({right})"
        return f"{left}*{right}"
    op = " + " if tag == "add" else " - "
    right = text(node[2])
    if node[2][0] in ("add", "sub"):
        right = f"({right})"
    return text(node[1]) + op + right


def _jmul(a, b):
    out = [None, None, None]
    prods = mul(np.stack([a[i] for i in range(3) for j in range(3 - i)]),
                np.stack([b[j] for i in range(3) for j in range(3 - i)]))
    pos = 0
    for i in range(3):
        for j in range(3 - i):
            k = i + j
            out[k] = prods[pos] if out[k] is None else out[k] + prods[pos]
            pos += 1
    return out


def _jinv(v):
    n0 = float(v[0] @ v[0])
    if n0 == 0.0:
        raise ZeroDivisionError("inverse of zero")
    n1 = 2.0 * float(v[0] @ v[1])
    n2 = float(v[1] @ v[1]) + 2.0 * float(v[0] @ v[2])
    i0 = 1.0 / n0
    i1 = -n1 / (n0 * n0)
    i2 = n1 * n1 / n0**3 - n2 / (n0 * n0)
    c = [conj(x) for x in v]
    return [c[0] * i0, c[1] * i0 + c[0] * i1, c[2] * i0 + c[1] * i1 + c[0] * i2]


def jet(node, z, hz=None, hzc=None):
    """[f, f', f''/2] of the phrase along s -> (z + s*hz, conj(z) + s*hzc).

    The z leaves move with ``hz`` and the zc leaves with ``hzc``; leave one
    of them None to hold that slot fixed.
    """
    z = np.asarray(z, dtype=np.float64)
    zero = np.zeros_like(z)

    def go(nd):
        tag = nd[0]
        if tag == "c":
            return [np.asarray(nd[1], dtype=np.float64), zero, zero]
        if tag == "z":
            return [z, zero if hz is None else np.asarray(hz, dtype=np.float64), zero]
        if tag == "zc":
            return [conj(z), zero if hzc is None else np.asarray(hzc, dtype=np.float64), zero]
        if tag == "pow":
            base = go(nd[1])
            n = nd[2]
            if n < 0:
                base = _jinv(base)
                n = -n
            if n == 0:
                return [unit(len(z)), zero, zero]
            acc = base
            for _ in range(n - 1):
                acc = _jmul(acc, base)
            return acc
        if tag == "mul":
            return _jmul(go(nd[1]), go(nd[2]))
        a, b = go(nd[1]), go(nd[2])
        if tag == "add":
            return [a[i] + b[i] for i in range(3)]
        return [a[i] - b[i] for i in range(3)]

    return go(node)


def value(node, z):
    return jet(node, z)[0]


def coeff_bound(node, z) -> float:
    """Sum over terms of the product of factor norms: a scale for rounding tolerances."""
    tag = node[0]
    if tag == "c":
        return norm(node[1])
    if tag in ("z", "zc"):
        return norm(z)
    if tag == "pow":
        b = coeff_bound(node[1], z)
        return b ** node[2] if node[2] >= 0 else (1.0 / b) ** -node[2]
    if tag == "mul":
        return coeff_bound(node[1], z) * coeff_bound(node[2], z)
    return coeff_bound(node[1], z) + coeff_bound(node[2], z)


# ---------------------------------------------------------------------------
# the plane spanned by 1 and a unit imaginary M
# ---------------------------------------------------------------------------

def to_plane(w: complex, m) -> np.ndarray:
    out = w.imag * np.asarray(m, dtype=np.float64)
    out[0] = w.real
    return out


def from_plane(x, m) -> complex:
    return complex(float(x[0]), float(np.dot(x, m)))


def falling(n: int, k: int) -> int:
    return math.prod(range(n - k + 1, n + 1))
