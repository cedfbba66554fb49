"""Runnable acceptance checks covering the whole package, at tunable scale.

Each check exercises one advertised contract end to end and returns its
verdict and a short numeric summary, ``(passed, detail)``.  ``_criterion``
registers it as the next entry of ``CHECKS``: its number is its place there,
and the registered callable ``(scale, seed) -> CriterionResult`` times the
check and adds its number and name.  ``run_all`` executes them in order; the
CLI selftest runs the same list at reduced sample counts (``scale`` < 1) so
it stays fast while touching every code path.  Checks are deterministic:
randomness is drawn from generators seeded by (seed, criterion number).
Criteria 2 and 5 also time themselves, and at full scale criterion 14 times
the reduced run it nests, because those times are gates of the verdict.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    CDNumber,
    basis_element,
    conj,
    conj_via_generators,
    find_zero_divisor,
    from_real,
    mul,
    pow_int,
    random_element,
    random_unit_imaginary,
    zero,
)
from .contour import (
    argument_principle,
    cauchy_derivative,
    cauchy_eval,
    find_root,
    residue,
    residue_theorem_check,
    sum_residues_check,
    taylor_coeffs,
    laurent_coeffs,
)
from .diffcheck import cr_check, harmonic_check, zbar_check
from .errors import CDError
from .expressions import (
    Add,
    Const,
    Mul,
    Phrase,
    PowNode,
    Sub,
    VarPow,
    evaluate,
    parse,
)
from .integrate import Path, line_integral
from .transcendental import exp, exp_series, ln_principal, polar_decompose

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.number:2d} {self.name:28s} {self.detail} ({self.seconds:.2f}s)"


#: the criteria in order; criterion n is CHECKS[n - 1]
CHECKS: List[Callable[[float, int], CriterionResult]] = []


def _criterion(name: str):
    """Register a check returning (passed, detail) as the next criterion."""

    def register(check: Callable[[float, int], Tuple[bool, str]]) -> Callable[[float, int], CriterionResult]:
        number = len(CHECKS) + 1

        @functools.wraps(check)
        def run(scale: float = 1.0, seed: int = 42) -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = check(scale, seed)
            return CriterionResult(number, name, passed, detail, time.perf_counter() - t0)

        CHECKS.append(run)
        return run

    return register


def _count(base: int, scale: float, floor: int = 2) -> int:
    return max(floor, int(round(base * scale)))


def _rel(diff: CDNumber, ref: float) -> float:
    return diff.norm() / (1.0 + abs(ref))


# ---------------------------------------------------------------------------
# 1. algebraic identity suite
# ---------------------------------------------------------------------------

@_criterion("algebraic identities")
def check_identities(scale: float, seed: int) -> Tuple[bool, str]:
    n = _count(1000, scale, floor=25)
    worst = 0.0
    for r in range(1, 7):
        rng = np.random.default_rng([seed, 1, r])
        for _ in range(n):
            a = random_element(r, rng)
            b = random_element(r, rng)
            ab = mul(a, b)
            worst = max(worst, _rel(conj(ab) - mul(conj(b), conj(a)), ab.norm()))
            worst = max(worst, _rel(a + conj(a) - from_real(r, 2.0 * a.re), a.norm()))
            worst = max(worst, _rel(mul(a, conj(a)) - from_real(r, a.norm_sq()), a.norm_sq()))
            worst = max(worst, _rel(mul(conj(a), a) - from_real(r, a.norm_sq()), a.norm_sq()))
            if r >= 2:
                worst = max(worst, _rel(conj_via_generators(a) - conj(a), a.norm()))
            z = a * ((0.6 + 0.8 * rng.random()) / a.norm())
            m = int(rng.integers(-3, 9))
            k = int(rng.integers(-3, 9))
            lhs = mul(pow_int(z, m), pow_int(z, k))
            rhs = pow_int(z, m + k)
            worst = max(worst, _rel(lhs - rhs, rhs.norm()))
    passed = worst <= 1e-10
    return passed, f"max rel err {worst:.2e} ({n} pairs x levels 1..6)"


# ---------------------------------------------------------------------------
# 2. division-structure dichotomy
# ---------------------------------------------------------------------------

@_criterion("norm dichotomy")
def check_norm_dichotomy(scale: float, seed: int) -> Tuple[bool, str]:
    t0 = time.perf_counter()
    n = _count(1000, scale, floor=25)
    worst = 0.0
    for r in (1, 2, 3):
        rng = np.random.default_rng([seed, 2, r])
        for _ in range(n):
            a = random_element(r, rng)
            b = random_element(r, rng)
            worst = max(worst, abs(mul(a, b).norm() - a.norm() * b.norm()) / (a.norm() * b.norm()))
    a, b = find_zero_divisor(4)
    prod_norm = mul(a, b).norm()
    pair_norm = a.norm() * b.norm()
    elapsed = time.perf_counter() - t0
    passed = (
        worst <= 1e-12
        and prod_norm <= 1e-12
        and abs(pair_norm - 2.0) <= 1e-12
        and elapsed < 1.0
    )
    return passed, f"mult err {worst:.2e}; |ab|={prod_norm:.1e}, |a||b|={pair_norm:.3f}"


# ---------------------------------------------------------------------------
# 3. alternativity dichotomy
# ---------------------------------------------------------------------------

@_criterion("alternativity dichotomy")
def check_alternativity(scale: float, seed: int) -> Tuple[bool, str]:
    n = _count(1000, scale, floor=25)
    rng = np.random.default_rng([seed, 3])
    worst = 0.0
    for _ in range(n):
        a = random_element(3, rng)
        b = random_element(3, rng)
        s = 1.0 + a.norm_sq() * b.norm()
        worst = max(worst, (mul(a, mul(a, b)) - mul(mul(a, a), b)).norm() / s)
        worst = max(worst, (mul(mul(b, a), a) - mul(b, mul(a, a))).norm() / s)
    violation = 0.0
    for _ in range(200):
        a = random_element(4, rng)
        b = random_element(4, rng)
        s = 1.0 + a.norm_sq() * b.norm()
        violation = max(violation, (mul(a, mul(a, b)) - mul(mul(a, a), b)).norm() / s)
        if violation > 0.1:
            break
    passed = worst <= 1e-12 and violation > 0.1
    return passed, f"octonion err {worst:.2e}; sedenion violation {violation:.3f}"


# ---------------------------------------------------------------------------
# 4. exponential suite
# ---------------------------------------------------------------------------

@_criterion("exponential suite")
def check_exponential(scale: float, seed: int) -> Tuple[bool, str]:
    n = _count(200, scale, floor=12)
    worst_series = worst_mod = worst_period = worst_ln = 0.0
    for r in (1, 2, 3, 4):
        rng = np.random.default_rng([seed, 4, r])
        for _ in range(n):
            a = random_element(r, rng)
            z = a * (3.0 * rng.random() / a.norm())
            ez = exp(z)
            worst_series = max(worst_series, _rel(ez - exp_series(z, 40), ez.norm()))
            worst_mod = max(worst_mod, abs(ez.norm() - math.exp(z.re)) / math.exp(z.re))
            if z.imag().norm() > 0.1:
                mu = polar_decompose(z).direction
                for k in (1, 2, 3):
                    shifted = exp(z + mu * (TWO_PI * k))
                    worst_period = max(worst_period, _rel(shifted - ez, ez.norm()))
            w = random_element(r, rng)
            if w.imag().norm() > 1e-3 * w.norm():
                worst_ln = max(worst_ln, _rel(exp(ln_principal(w)) - w, w.norm()))
    passed = (
        worst_series <= 1e-10 and worst_mod <= 1e-12
        and worst_period <= 1e-10 and worst_ln <= 1e-12
    )
    return passed, (
        f"series {worst_series:.1e}, modulus {worst_mod:.1e}, "
        f"period {worst_period:.1e}, exp(ln) {worst_ln:.1e}"
    )


# ---------------------------------------------------------------------------
# 5. logarithmic loop integral
# ---------------------------------------------------------------------------

@_criterion("logarithmic loop integral")
def check_log_loop(scale: float, seed: int) -> Tuple[bool, str]:
    t0 = time.perf_counter()
    m_count = _count(8, scale, floor=2)
    worst = rho_dep = 0.0
    for r in (2, 3, 4):
        rng = np.random.default_rng([seed, 5, r])
        f = parse("z^-1", r)
        origin = zero(r)
        for _ in range(m_count):
            m = random_unit_imaginary(r, rng)
            for turns in (1, 2, 3):
                vals = []
                for rho in (0.5, 2.0):
                    res = line_integral(f, Path.circle(origin, rho, m, turns))
                    want = m * (TWO_PI * turns)
                    worst = max(worst, (res.value - want).norm())
                    vals.append(res.value)
                rho_dep = max(rho_dep, (vals[0] - vals[1]).norm())
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-5 and rho_dep <= 2e-5 and elapsed < 30.0
    return passed, f"max err {worst:.2e}, radius dependence {rho_dep:.2e}, {m_count} planes/level"


# ---------------------------------------------------------------------------
# 6. closed-loop vanishing for polynomials
# ---------------------------------------------------------------------------

def _random_poly(r: int, rng: np.random.Generator, max_degree: int = 3) -> Phrase:
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, max_degree + 1))
        c = Const(rng.standard_normal(2**r))
        body: object = VarPow(False, k)
        node = Mul(c, body) if rng.random() < 0.7 else Mul(body, c)
        terms.append(node)
    root = terms[0]
    for t in terms[1:]:
        root = Add(root, t)
    return Phrase(zero(r).level, root)


def _square_loop(center: CDNumber, half: float, m: CDNumber) -> Path:
    one_dir = from_real(center.level, 1.0)
    corners = [
        center + (one_dir + m) * half,
        center + (one_dir * -1.0 + m) * half,
        center + (one_dir + m) * -half,
        center + (one_dir - m) * half,
    ]
    return Path.polyline(corners + corners[:1])


@_criterion("closed-loop vanishing")
def check_loop_vanishing(scale: float, seed: int) -> Tuple[bool, str]:
    n = _count(20, scale, floor=4)
    rng = np.random.default_rng([seed, 6])
    worst = 0.0
    for _ in range(n):
        f = _random_poly(3, rng)
        center = random_element(3, rng) * 0.3
        m = random_unit_imaginary(3, rng)
        circle = Path.circle(center, 0.5 + rng.random(), m, 1)
        square = _square_loop(center, 0.4 + 0.4 * rng.random(), m)
        for gamma in (circle, square):
            worst = max(worst, line_integral(f, gamma).value.norm())
    passed = worst <= 1e-6
    return passed, f"max |loop integral| {worst:.2e} over {n} polynomials x 2 contours"


# ---------------------------------------------------------------------------
# 7. Cauchy evaluation + plane recovery
# ---------------------------------------------------------------------------

@_criterion("Cauchy evaluation")
def check_cauchy_eval(scale: float, seed: int) -> Tuple[bool, str]:
    n = _count(10, scale, floor=3)
    rng = np.random.default_rng([seed, 7])
    worst = worst_rec = 0.0
    for _ in range(n):
        f = _random_poly(3, rng)
        center = random_element(3, rng) * 0.2
        m = random_unit_imaginary(3, rng)
        radius = 1.0 + rng.random()
        psi = Path.circle(center, radius, m, 1)
        z = center + random_element(3, rng) * (0.4 * radius / 3.0)
        fz = evaluate(f, z)
        val = cauchy_eval(f, z, psi)
        tolscale = 1e-5 * (1.0 + fz.norm())
        worst = max(worst, (val - mul(fz, m)).norm() / tolscale)
        rec = mul(val, conj(m))
        worst_rec = max(worst_rec, (rec - fz).norm() / tolscale)
    passed = worst <= 1.0 and worst_rec <= 1.0
    return passed, f"worst err/tol {worst:.2e}, plane recovery {worst_rec:.2e} ({n} phrases)"


# ---------------------------------------------------------------------------
# 8. Cauchy derivatives
# ---------------------------------------------------------------------------

@_criterion("Cauchy derivatives")
def check_cauchy_derivative(scale: float, seed: int) -> Tuple[bool, str]:
    rng = np.random.default_rng([seed, 8])
    worst = 0.0
    square = parse("z^2", 3)
    cube = parse("z^3", 3)
    for _ in range(_count(4, scale, floor=2)):
        m = random_unit_imaginary(3, rng)
        center = from_real(3, float(rng.standard_normal() * 0.2))
        psi = Path.circle(center, 1.5, m, 1)
        # in-plane points: center + x + y*m
        z = center + from_real(3, float(rng.standard_normal() * 0.3)) + m * float(rng.standard_normal() * 0.3)
        pairs = [
            (square, 1, mul(z, m) * 2.0),
            (cube, 1, mul(mul(z, z), m) * 3.0),
            (cube, 2, mul(z, m) * 6.0),
        ]
        for f, k, want in pairs:
            got = cauchy_derivative(f, z, k, psi)
            worst = max(worst, (got - want).norm() / (1.0 + want.norm()))
    passed = worst <= 1e-4
    return passed, f"max rel err {worst:.2e} (orders 1,2 on squares and cubes)"


# ---------------------------------------------------------------------------
# 9. residue calculus
# ---------------------------------------------------------------------------

def _pole_term(b: CDNumber, p: CDNumber, c: Optional[CDNumber] = None):
    base = Sub(VarPow(False, 1), Const(np.array(p.coeffs)))
    node = Mul(Const(np.array(b.coeffs)), PowNode(base, -1))
    if c is not None:
        node = Mul(node, Const(np.array(c.coeffs)))
    return node


@_criterion("residue calculus")
def check_residues(scale: float, seed: int) -> Tuple[bool, str]:
    rng = np.random.default_rng([seed, 9])
    n = _count(10, scale, floor=3)
    level = zero(3).level
    worst_sandwich = 0.0
    for _ in range(n):
        b = random_element(3, rng)
        c = random_element(3, rng)
        m = random_unit_imaginary(3, rng)
        p = random_element(3, rng) * 0.5
        f = Phrase(level, _pole_term(b, p, c))
        got = residue(f, p, m, rho=0.4)
        want = mul(mul(b, m), c)
        worst_sandwich = max(worst_sandwich, (got - want).norm() / (1.0 + want.norm()))
    # two-pole residue theorem
    worst_theorem = 0.0
    for _ in range(max(2, n // 3)):
        p1 = random_element(3, rng) * 0.4
        p2 = p1 + random_element(3, rng) * 1.2
        f = Phrase(level, Add(
            _pole_term(random_element(3, rng), p1, random_element(3, rng)),
            _pole_term(random_element(3, rng), p2),
        ))
        mid = (p1 + p2) * 0.5
        radius = (p2 - p1).norm() * 0.5 + 1.0
        rep = residue_theorem_check(f, [p1, p2], Path.circle(mid, radius, random_unit_imaginary(3, rng), 1))
        worst_theorem = max(worst_theorem, rep.diff / (1.0 + rep.lhs.norm()))
    # total-residue sum with the far circle, poles in the plane of the circle
    m = random_unit_imaginary(3, rng)
    poles = [from_real(3, -0.7) + m * 0.4, from_real(3, 0.9) + m * -0.3]
    f = Phrase(level, Add(
        _pole_term(random_element(3, rng), poles[0], random_element(3, rng)),
        _pole_term(random_element(3, rng), poles[1]),
    ))
    total = sum_residues_check(f, poles, m)
    passed = worst_sandwich <= 1e-5 and worst_theorem <= 1e-4 and total <= 1e-3
    return passed, f"sandwich {worst_sandwich:.1e}, theorem {worst_theorem:.1e}, total {total:.1e}"


# ---------------------------------------------------------------------------
# 10. argument principle
# ---------------------------------------------------------------------------

@_criterion("argument principle")
def check_argument_principle(scale: float, seed: int) -> Tuple[bool, str]:
    rng = np.random.default_rng([seed, 10])
    worst = 0.0
    origin = zero(3)
    for n in (1, 2, 3):
        f = parse(f"z^{n}", 3)
        for _ in range(_count(3, scale, floor=1)):
            m = random_unit_imaginary(3, rng)
            gamma = Path.circle(origin, 1.0, m, 1)
            rep = argument_principle(f, gamma, [(origin, n)])
            worst = max(worst, (rep.lhs - m * float(n)).norm())
            worst = max(worst, rep.diff)
    passed = worst <= 1e-4
    return passed, f"max index err {worst:.2e} for orders 1..3"


# ---------------------------------------------------------------------------
# 11. coefficient extraction
# ---------------------------------------------------------------------------

@_criterion("coefficient extraction")
def check_coefficients(scale: float, seed: int) -> Tuple[bool, str]:
    rng = np.random.default_rng([seed, 11])
    worst = 0.0
    level = zero(3).level
    def real_const(c: float) -> Const:
        return Const(np.r_[c, np.zeros(7)])

    def chain(terms):
        root = terms[0]
        for tnode in terms[1:]:
            root = Add(root, tnode)
        return Phrase(level, root)

    for _ in range(_count(3, scale, floor=1)):
        # Taylor: a random real-coefficient quintic about a real center
        coeffs = rng.standard_normal(6)
        a = float(rng.standard_normal() * 0.4)
        f = chain([Mul(real_const(float(c)), VarPow(False, k)) for k, c in enumerate(coeffs)])
        shifted = np.polynomial.Polynomial(coeffs)(np.polynomial.Polynomial([a, 1.0]))
        center = from_real(3, a)
        psi = Path.circle(center, 1.0, basis_element(3, 1), 1)
        got = taylor_coeffs(f, center, 6, psi)
        for k in range(6):
            want = float(shifted.coef[k]) if k < len(shifted.coef) else 0.0
            worst = max(worst, (got[k] - from_real(3, want)).norm() / (1.0 + abs(want)))
        # Laurent: known central coefficients, degrees -3..5
        lc = {k: float(rng.standard_normal()) for k in range(-3, 6)}
        base = Sub(VarPow(False, 1), Const(np.array(center.coeffs)))
        g = chain([Mul(real_const(c), PowNode(base, k)) for k, c in lc.items()])
        lgot = laurent_coeffs(g, center, -3, 5, 0.5, 1.5)
        for i, k in enumerate(range(-3, 6)):
            worst = max(worst, (lgot[i] - from_real(3, lc[k])).norm() / (1.0 + abs(lc[k])))
    passed = worst <= 1e-5
    return passed, f"max rel err {worst:.2e} (degrees -3..5)"


# ---------------------------------------------------------------------------
# 12. cubic root search
# ---------------------------------------------------------------------------

@_criterion("cubic root search")
def check_roots(scale: float, seed: int) -> Tuple[bool, str]:
    n = _count(20, scale, floor=4)
    worst = 0.0
    failures = 0
    for i in range(n):
        r = 2 if i % 2 == 0 else 3
        rng = np.random.default_rng([seed, 12, i])
        level = zero(r).level
        root_node = Add(
            Add(
                VarPow(False, 3),
                Mul(Const(rng.standard_normal(2**r)), VarPow(False, 2)),
            ),
            Add(
                Mul(Const(rng.standard_normal(2**r)), VarPow(False, 1)),
                Const(rng.standard_normal(2**r)),
            ),
        )
        P = Phrase(level, root_node)
        try:
            star = find_root(P, random_element(r, rng), tol=1e-10)
            worst = max(worst, evaluate(P, star).norm())
        except CDError:
            failures += 1
    passed = failures == 0 and worst <= 1e-8
    return passed, f"{n - failures}/{n} converged, worst |P(root)| {worst:.1e}"


# ---------------------------------------------------------------------------
# 13. differentiability checks
# ---------------------------------------------------------------------------

@_criterion("differentiability checks")
def check_differentiability(scale: float, seed: int) -> Tuple[bool, str]:
    per_level = _count(10, scale, floor=2)
    ok = True
    worst_pass = 0.0
    for r in (2, 3):
        for i in range(per_level):
            rng = np.random.default_rng([seed, 13, r, i])
            # z -> c*z: its differential is right linear at every point
            c = random_element(r, rng)
            G = Phrase(c.level, Mul(Const(c.coeffs), VarPow(False, 1)))
            z = random_element(r, rng)
            rep = cr_check(G, z)
            ok = ok and rep.verdict
            worst_pass = max(worst_pass, rep.max_residual)
            ok = ok and harmonic_check(G, z, threshold=1e-3).verdict
    rng = np.random.default_rng([seed, 13])
    z3 = random_element(3, rng)
    ok = ok and not cr_check(parse("zc", 3), z3).verdict
    for text in ("z^2", "e2*z^3", "e5*z + z^2*e3"):
        ok = ok and zbar_check(parse(text, 3), z3).verdict
    for text in ("zc", "z*zc", "z + (0.5)*zc", "e2*zc^2 + z"):
        ok = ok and not zbar_check(parse(text, 3), z3).verdict
    a = from_real(3, 0.6)
    coarse = cr_check(parse("z^3", 3), a, threshold=1.0, step=2e-2).max_residual
    fine = cr_check(parse("z^3", 3), a, threshold=1.0, step=1e-2).max_residual
    ratio = coarse / fine
    ok = ok and 3.0 <= ratio <= 5.0
    return ok, f"worst passing residual {worst_pass:.1e}, step-halving ratio {ratio:.2f}"


# ---------------------------------------------------------------------------
# 14. CLI determinism (and, at full scale, the reduced selftest's own timing)
# ---------------------------------------------------------------------------

def _cli_capture(argv: Sequence[str]) -> str:
    from . import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return f"exit={code}\n{buf.getvalue()}"


@_criterion("CLI determinism")
def check_cli(scale: float, seed: int) -> Tuple[bool, str]:
    jobs = [
        ["eval", "--level", "2", "--expr", "e1*e2"],
        ["roots", "--level", "2", "--expr", "z^2 + (1.0)", "--seed", str(seed)],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path_file = os.path.join(tmp, "circle.json")
        with open(path_file, "w") as fh:
            json.dump({"kind": "circle", "center": [0, 0, 0, 0, 0, 0, 0, 0],
                       "radius": 1.0, "direction": [0, 1, 0, 0, 0, 0, 0, 0], "turns": 1}, fh)
        jobs.append(["integrate", "--level", "3", "--expr", "z^-1", "--path-file", path_file])
        outputs = [[_cli_capture(argv) for argv in jobs] for _ in range(2)]
    deterministic = outputs[0] == outputs[1]
    detail = "byte-identical reports" if deterministic else "reports differ between runs"
    passed = deterministic
    if scale >= 1.0:  # the reduced selftest, whose own criterion 14 nests nothing
        inner0 = time.perf_counter()
        inner = run_all(scale=0.12, seed=seed)
        inner_elapsed = time.perf_counter() - inner0
        all_pass = all(res.passed for res in inner)
        passed = passed and all_pass and inner_elapsed < 60.0
        detail += f"; reduced selftest {'all pass' if all_pass else 'FAILED'} in {inner_elapsed:.1f}s"
    return passed, detail


def run_all(scale: float = 1.0, seed: int = 42) -> List[CriterionResult]:
    return [fn(scale, seed) for fn in CHECKS]
