#!/usr/bin/env python3
"""Time the product forms at every level, dense against unit.

For r = 1..8 this times ``mul_arrays`` in its four forms: element x element,
batch x element, element x batch and batch x batch, each batch of N = 1 or
256 rows.  In the three forms with a (d,) operand, that operand is either
dense or a scaled basis unit s e_k (the right factor of element x element);
the other operand is dense.  Batch x batch has no (d,) operand and is timed
dense only.  Each figure is the median microseconds per call over five
timed loops.  BLAS is pinned to one thread, as the benchmark runs.

Every unit product, with the unit on either side of element x element, is
also checked against the table product it stands in for (the gathered
right or left multiplication table of basis_table(r)) to the byte, and
every batch x batch product against its rows taken one at a time as
element x element products; the script exits 1 if one differs.  The last
line holds the table as one JSON object.

    python3 scripts/product_levels.py
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy is imported
os.environ.setdefault("OMP_NUM_THREADS", "1")

import json
import statistics
import sys
import time

import numpy as np

from cdfun.algebra import MAX_LEVEL, basis_table, mul_arrays

FORMS = (("element x element", 1), ("batch x element", 1), ("batch x element", 256),
         ("element x batch", 1), ("element x batch", 256), ("batch x batch", 1), ("batch x batch", 256))
LOOPS = 5
LOOP_SECONDS = 0.004


def _operands(rng, r, form, n, unit):
    """(x, y) for one form; the (d,) operand is a scaled basis unit when unit is set."""
    d = 1 << r
    if form == "batch x batch":
        return rng.standard_normal((2, n, d))
    const = rng.standard_normal(d)
    if unit:
        const = np.zeros(d)
        const[rng.integers(d)] = -2.5
    other = rng.standard_normal((n, d) if form != "element x element" else d)
    return (const, other) if form == "element x batch" else (other, const)


def _table_product(x, y, r):
    """The product through the gathered d x d table of the (d,) operand."""
    t = basis_table(r)
    if y.ndim == 1:
        return x @ t.right_table(y) if x.ndim > 1 else np.einsum("...a,...ac->...c", x, t.right_table(y))
    return y @ t.left_table(x)


def _microseconds(x, y, r):
    mul_arrays(x, y, r)
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            mul_arrays(x, y, r)
        if time.perf_counter() - t0 >= LOOP_SECONDS / 4 or number >= 1 << 14:
            break
        number *= 4
    times = []
    for _ in range(LOOPS):
        t0 = time.perf_counter()
        for _ in range(number):
            mul_arrays(x, y, r)
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times) * 1e6


def main() -> int:
    rng = np.random.default_rng(37)
    rows, mismatches = [], []
    print(f"{'r':>2}  {'form':<18} {'N':>4}  {'dense us':>9}  {'unit us':>9}")
    for r in range(1, MAX_LEVEL + 1):
        for form, n in FORMS:
            dense = _operands(rng, r, form, n, False)
            row = {"r": r, "form": form, "N": n, "dense_us": round(_microseconds(*dense, r), 2), "unit_us": None}
            if form == "batch x batch":
                x, y = dense
                if mul_arrays(x, y, r).tobytes() != np.stack([mul_arrays(a, b, r) for a, b in zip(x, y)]).tobytes():
                    mismatches.append(f"r={r} {form} N={n}: batch product differs from its element products")
            else:
                unit = _operands(rng, r, form, n, True)
                checks = [unit] + ([unit[::-1]] if form == "element x element" else [])
                for x, y in checks:
                    if mul_arrays(x, y, r).tobytes() != _table_product(x, y, r).tobytes():
                        mismatches.append(f"r={r} {form} N={n}: unit product differs from the table product")
                row["unit_us"] = round(_microseconds(*unit, r), 2)
            rows.append(row)
            unit_us = "-" if row["unit_us"] is None else f"{row['unit_us']:.2f}"
            print(f"{r:>2}  {form:<18} {n:>4}  {row['dense_us']:>9.2f}  {unit_us:>9}")
    for line in mismatches:
        print(line)
    print(json.dumps({"rows": rows, "mismatches": len(mismatches)}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
