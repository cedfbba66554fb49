#!/usr/bin/env python3
"""How large is the space of right-superlinear polynomial maps?

Solves the full Cauchy-Riemann coefficient system on homogeneous polynomial
maps and prints the nullspace dimension per (level, degree).  Degree 1 always
gives the left multiplications z -> c*z (dimension 2^r); from degree 2 on the
system is overdetermined enough that only the zero map survives, so the
everywhere-right-superlinear polynomials are exactly the affine maps a + c*z.
The script exits 1 when a table entry says otherwise.

A sampled degree-1 map is then pushed through the finite-difference check:
central differences are exact on affine maps, so its residual sits at rounding
level for every step, while z^3 (right-superlinear only at real points) shows
the generic O(step^2) decay there.

    python scripts/right_superlinear_demo.py [--seed 42] [--max-level 3] [--max-degree 3]
"""

import argparse
import functools
import itertools
import sys
from typing import Tuple

import numpy as np

from cdfun import (
    as_level,
    basis_element,
    cr_check,
    from_real,
    parse,
    random_element,
)
from cdfun.algebra import conj_arrays, mul_arrays
from cdfun.expressions import Const, Mul, Phrase, VarPow


def _monomials(d: int, degree: int) -> np.ndarray:
    """All exponent vectors of total degree ``degree`` over d variables."""
    out = []
    for combo in itertools.combinations_with_replacement(range(d), degree):
        alpha = np.zeros(d, dtype=int)
        for v in combo:
            alpha[v] += 1
        out.append(alpha)
    return np.array(out, dtype=int) if out else np.zeros((1, d), dtype=int)


@functools.lru_cache(maxsize=None)
def right_superlinear_nullspace(r: int, degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """Basis of homogeneous polynomial maps satisfying the CR system exactly.

    A degree-``degree`` homogeneous map F(w) = sum_m (prod w^alpha_m) c_m
    (with algebra-valued coefficients c_m stored as real d-vectors) satisfies
    dF/dw_1 = (dF/dw_q)*conj(e_q) identically iff its coefficient tensor lies
    in the null space of one real linear system per imaginary q.  Returns
    (monomial exponent matrix, null-space basis with shape (k, M, d)): each
    basis slice B[i] holds the coefficient vector of monomial m in row m.

    For degree 1 the null space is exactly the left multiplications w -> c*z
    (dimension 2^r).  For degree >= 2 it is empty whenever r >= 2: the system
    forces every partial into the form dF/dw_s = c(z)*e_s, and equality of
    mixed partials then demands (g*e_t)*e_s = (g*e_s)*e_t for g = dc/dw_1
    and all imaginary s != t, which anticommutation rules out unless g = 0.
    So maps whose differential is right linear at *every* point are affine.
    """
    level = as_level(r)
    d = level.basis_dim
    monos = _monomials(d, degree)
    lower = _monomials(d, degree - 1)
    mono_index = {tuple(a): i for i, a in enumerate(monos)}
    M, L = len(monos), len(lower)

    # right-multiplication by conj(e_q) as a signed permutation on coefficients
    right_ops = []
    for q in range(1, d):
        eq_conj = conj_arrays(basis_element(level, q).coeffs)
        op = np.empty((d, d))
        for s in range(d):
            op[:, s] = mul_arrays(basis_element(level, s).coeffs, eq_conj, r)
        right_ops.append(op)

    # rows: for each q, each degree-(n-1) monomial beta, each component t:
    #   (beta_0+1) C[beta+ê0, t] - (beta_q+1) sum_s op[t,s] C[beta+êq, s] = 0
    rows = np.zeros(((d - 1) * L * d, M * d))
    row = 0
    for qi, q in enumerate(range(1, d)):
        op = right_ops[qi]
        for li in range(L):
            beta = lower[li]
            up0 = beta.copy()
            up0[0] += 1
            upq = beta.copy()
            upq[q] += 1
            i0 = mono_index[tuple(up0)]
            iq = mono_index[tuple(upq)]
            for t in range(d):
                rows[row, i0 * d + t] += beta[0] + 1
                rows[row, iq * d: (iq + 1) * d] -= (beta[q] + 1) * op[t]
                row += 1
    _, sing, vt = np.linalg.svd(rows, full_matrices=True)
    tol = max(rows.shape) * np.finfo(float).eps * (sing[0] if sing.size else 1.0)
    rank = int(np.sum(sing > tol))
    null = vt[rank:]
    return monos, null.reshape(null.shape[0], M, d)


def degree_one_phrase(level, rng: np.random.Generator) -> Phrase:
    """A random degree-1 solution, written as the phrase c*z it equals.

    The degree-1 monomials are w_0, ..., w_{d-1} in that order, so the
    coefficient of w_0 is the map's value at z = 1, which is c.
    """
    level = as_level(level)
    _, basis = right_superlinear_nullspace(level.r, 1)
    coeff = np.tensordot(rng.standard_normal(basis.shape[0]), basis, axes=(0, 0))
    return Phrase(level, Mul(Const(coeff[0] / np.max(np.abs(coeff))), VarPow(False, 1)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--max-level", type=int, default=3)
    ap.add_argument("--max-degree", type=int, default=3)
    args = ap.parse_args()

    print("nullspace dimension of the right-superlinear system")
    header = " ".join(f"deg {n}" for n in range(1, args.max_degree + 1))
    print(f"{'level':>5}  {header}")
    wrong = []
    for r in range(2, args.max_level + 1):
        dims = []
        for degree in range(1, args.max_degree + 1):
            _, basis = right_superlinear_nullspace(r, degree)
            dims.append(len(basis))
            if len(basis) != (2**r if degree == 1 else 0):
                wrong.append((r, degree))
        print(f"{r:>5}  " + " ".join(f"{d:>5}" for d in dims))

    rng = np.random.default_rng(args.seed)
    level = min(args.max_level, 3)
    z = random_element(level, rng)
    a = from_real(level, 0.6)
    flat_map = degree_one_phrase(level, np.random.default_rng(args.seed))
    print(f"\nfinite-difference residuals at level {level}:")
    print(f"{'step':>8} {'degree-1 map':>14} {'z^3 at 0.6':>14}")
    for step in (1e-2, 5e-3, 2.5e-3):
        flat = cr_check(flat_map, z, threshold=1.0, step=step).max_residual
        curved = cr_check(parse("z^3", level), a, threshold=1.0, step=step).max_residual
        print(f"{step:>8.1e} {flat:>14.2e} {curved:>14.2e}")

    if wrong:
        print(f"\nunexpected nullspace dimension at (level, degree) {wrong}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
