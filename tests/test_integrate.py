"""Path, partition, and line-integral tests.

Loop-integral oracles are analytic: the logarithmic loop integral around
the center is 2*pi*turns*direction, closed loops of polynomials vanish,
and open-path integrals of polynomials depend only on the endpoints.
"""

import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfun.algebra import (
    CDNumber,
    as_level,
    basis_element,
    from_real,
    mul,
    norm_arrays,
    random_element,
    random_unit_imaginary,
    zero,
)
from cdfun.contour import winding_index
from cdfun.errors import DomainError, LevelMismatchError, PoleError, StepControlError
from cdfun import integrate
from cdfun.expressions import parse
from cdfun.integrate import (
    START_KNOTS,
    Partition,
    Path,
    distance_range,
    integral_sum,
    line_integral,
    log_integral,
    path_from_json,
    _extrapolated,
    _offset_knots,
    total_variation,
)
from cdfun.transcendental import _ln_with_parts


def _square(r, half=1.0):
    pts = [(half, half), (-half, half), (-half, -half), (half, -half), (half, half)]
    out = []
    for a, b in pts:
        v = np.zeros(1 << r)
        v[0], v[1] = a, b
        out.append(CDNumber(r, v))
    return Path.polyline(out)


# ---------------------------------------------------------------------------
# paths and partitions
# ---------------------------------------------------------------------------

def test_circle_sampling_is_exact_polar():
    m = basis_element(2, 2)
    c = Path.circle(from_real(2, 1.0), 2.0, m, 1.0)
    z = c.point(0.25)  # quarter turn: center + radius * m
    assert z.allclose(from_real(2, 1.0) + m * 2.0, 1e-14)


def test_path_validation_errors():
    with pytest.raises(DomainError):
        Path.circle(zero(2), -1.0, basis_element(2, 1))
    with pytest.raises(DomainError):
        Path.circle(zero(2), 1.0, from_real(2, 1.0))  # not pure imaginary
    with pytest.raises(DomainError):
        Path.circle(zero(2), 1.0, basis_element(2, 1) * 0.5)  # not unit
    with pytest.raises(DomainError):
        Path.polyline([zero(2)])
    with pytest.raises(LevelMismatchError):
        Path.polyline([zero(2), zero(3)])


def test_reversed_and_subpath():
    c = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    rev = c.reversed()
    assert rev.point(0.0).allclose(c.point(0.0), 1e-14)
    assert rev.point(0.25).allclose(c.point(0.75), 1e-12)
    half = c.subpath(0.0, 0.5)
    assert half.point(1.0).allclose(c.point(0.5), 1e-12)
    assert rev.kind == half.kind == "circle"


def test_partition_validation():
    with pytest.raises(DomainError):
        Partition(np.array([0.0, 0.5]))
    with pytest.raises(DomainError):
        Partition(np.array([0.0, 0.5, 0.5, 1.0]))
    p = Partition.uniform(4)
    assert p.norm == 0.25


def test_total_variation_examples():
    circ = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    assert abs(total_variation(circ, Partition.uniform(4096)) - 2 * math.pi) < 1e-5
    a, b = from_real(2, -1.0), CDNumber(2, [2.0, 4.0, 0.0, 0.0])
    seg = Path.polyline([a, b])
    assert total_variation(seg, Partition.uniform(7)) == pytest.approx((b - a).norm(), abs=1e-14)
    const = Path.polyline([from_real(2, 3.0), from_real(2, 3.0)])
    assert total_variation(const, Partition.uniform(5)) == 0.0


def test_total_variation_monotone_under_refinement():
    tri = _square(2)
    prev = total_variation(tri, Partition.uniform(3))
    for k in range(1, 6):
        cur = total_variation(tri, Partition.uniform(3 * 2**k))
        assert cur >= prev - 1e-14
        prev = cur


def test_path_json_round_trip():
    c = Path.circle(from_real(3, 0.5), 2.0, basis_element(3, 5), -2.0)
    back = path_from_json(c.to_json())
    assert back.kind == "circle" and back.turns == -2.0 and back.level.r == 3
    assert back.center.allclose(c.center, 0) and back.direction.allclose(c.direction, 0)
    sq = _square(2)
    back = path_from_json(sq.to_json(), level=2)
    assert back.kind == "polyline" and len(back.points) == 5


@pytest.mark.parametrize(
    "bad",
    [
        42,
        {"kind": "helix"},
        {"kind": "circle", "center": [0, 0, 0], "radius": 1, "direction": [0, 1, 0]},
        {"kind": "circle", "center": [0, 0, 0, 0], "radius": "wide", "direction": [0, 1, 0, 0]},
        {"kind": "circle", "center": [0, 0, 0, 0], "radius": 1, "direction": [0, 1]},
        {"kind": "polyline", "points": [[0, 0]]},
        {"kind": "polyline", "points": [[0, 0], ["a", 0]]},
        {"kind": "polyline", "points": [[0, 0], ["1.5", 0]]},
        {"kind": "polyline", "points": [[0, 0], [True, 0]]},
        {"kind": "circle", "center": [0, 0, 0, 0], "radius": True, "direction": [0, 1, 0, 0]},
        {"kind": "circle", "center": [0, 0, 0, 0], "radius": 1, "direction": [0, 1, 0, 0], "turns": "2"},
    ],
)
def test_path_json_malformed(bad):
    with pytest.raises((DomainError, LevelMismatchError)):
        path_from_json(bad)


def test_parametric_path_has_no_json():
    p = Path.parametric(2, lambda t: from_real(2, t))
    with pytest.raises(DomainError):
        p.to_json()


# ---------------------------------------------------------------------------
# raw sums
# ---------------------------------------------------------------------------

def test_constant_integrand_telescopes():
    a, b = from_real(2, 1.0), basis_element(2, 1) * 2.0
    v = integral_sum(parse("1", 2), Path.polyline([a, b]), Partition.uniform(13))
    assert v.allclose(b - a, 1e-14)


def test_raw_sum_of_inverse_on_uniform_knots():
    # includes the angle-pi sample; branch alignment must keep it finite
    circ = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    v = integral_sum(parse("z^-1", 2), circ, Partition.uniform(2048))
    assert (v - basis_element(2, 1) * (2 * math.pi)).norm() < 0.05


def test_raw_sum_error_shrinks_linearly():
    circ = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    want = basis_element(2, 1) * (2 * math.pi)
    e1 = (integral_sum(parse("z^-1", 2), circ, Partition.uniform(256)) - want).norm()
    e2 = (integral_sum(parse("z^-1", 2), circ, Partition.uniform(512)) - want).norm()
    assert e2 < e1 and e2 > e1 / 4  # ~halves: first-order endpoint rule


def test_row_sums_run_in_bounded_memory():
    # near the pole the sum cannot converge and doubles to the cap; one
    # (16385, 256) layout of every array took 225 MiB
    r = 8
    circle = Path.circle(zero(r), 1.0, basis_element(r, 1))
    sampled = Path(level=circle.level, kind="parametric", sampler=circle.sample)
    f = parse("(z-1.0000001)^-1", r)
    line_integral(f, sampled, max_knots=128)
    tracemalloc.start()
    try:
        res = line_integral(f, sampled, max_knots=16384)
        integral_sum(f, circle, Partition.uniform(16384))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.converged and res.refinements == 8
    assert peak < 32 << 20


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_blocked_row_sums_match_one_block(r, monkeypatch):
    # the Ln leaves of a parametric path, and integral_sum over every leaf
    e1 = basis_element(r, 1)
    open_line = Path.polyline([from_real(r, 0.5), from_real(r, 1.0) + e1, e1 * -0.8])
    cases = [("z^-1", Path.circle(zero(r), 1.0, e1).subpath(0.0, 0.6)),
             ("z^2 + 0.5*(z-2)^-1", open_line)]
    for text, gamma in cases:
        f = parse(text, r)
        sampled = Path(level=gamma.level, kind="parametric", sampler=gamma.sample)
        got = []
        for elements in (1 << 40, 37 << r):  # one block, and blocks of 37 knots
            monkeypatch.setattr(integrate, "_ROW_BLOCK_ELEMENTS", elements)
            res = line_integral(f, sampled)
            assert res.converged and res.refinements > 0
            got.append((res.value.coeffs, integral_sum(f, gamma, Partition.uniform(1000)).coeffs))
        for one, blocked in zip(*got):
            assert np.linalg.norm(blocked - one) <= 1e-12 * np.linalg.norm(one)


def test_square_polyline_polynomial_sum_small():
    v = integral_sum(parse("z^2", 2), _square(2), Partition.uniform(4096))
    assert v.norm() < 1e-2


# ---------------------------------------------------------------------------
# extrapolated line integrals
# ---------------------------------------------------------------------------

def test_loop_integral_of_inverse_matches_winding():
    rng = np.random.default_rng(3)
    for r in (2, 3, 4):
        f = parse("z^-1", r)
        m = random_unit_imaginary(r, rng)
        for n in (1, 2, 3):
            for rho in (0.5, 2.0):
                res = line_integral(f, Path.circle(zero(r), rho, m, n), tol=1e-6)
                assert res.converged
                assert (res.value - m * (2 * math.pi * n)).norm() < 1e-5


def test_loop_integral_radius_independent():
    f = parse("z^-1", 3)
    m = basis_element(3, 6)
    a = line_integral(f, Path.circle(zero(3), 0.5, m, 1), tol=1e-6)
    b = line_integral(f, Path.circle(zero(3), 2.0, m, 1), tol=1e-6)
    assert (a.value - b.value).norm() < 2e-6


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_closed_polynomial_loops_vanish(seed):
    rng = np.random.default_rng(seed)
    r = 3
    coeffs = [random_element(r, rng) for _ in range(3)]
    text = "+".join(
        f"(({c.coeffs[0]})+({c.coeffs[1]})*e1+({c.coeffs[5]})*e5)*z^{k}" for k, c in enumerate(coeffs)
    )
    f = parse(text, r)
    m = random_unit_imaginary(r, rng)
    res = line_integral(f, Path.circle(random_element(r, rng), 1.2, m, 1), tol=1e-6)
    assert res.converged and res.value.norm() < 1e-6
    sq = _square(r, half=rng.uniform(0.5, 2.0))
    res = line_integral(f, sq, tol=1e-6)
    assert res.converged and res.value.norm() < 1e-6


@pytest.mark.parametrize(
    "text,scalar",
    [
        ("e1^2*z^-1", "(0-1)*z^-1"),
        ("z^-1*(e1+e2)^2", "z^-1*(0-2)"),
        ("e2^2*(z-e1)^-1*e3", "(0-1)*(z-e1)^-1*e3"),
    ],
)
def test_constant_powers_and_sums_inside_logarithm_words(text, scalar):
    # e_k^2 = -1 and (e1+e2)^2 = -2: each word is its real-scalar form; the
    # radius 2 keeps the pole at e1 off the path
    gamma = Path.circle(zero(3), 2.0, basis_element(3, 1))
    got = line_integral(parse(text, 3), gamma).value
    want = line_integral(parse(scalar, 3), gamma).value
    assert want.norm() > 1.0
    assert (got - want).norm() <= 1e-12 * want.norm()


def test_constant_sums_in_a_long_product_stay_one_word():
    # distributing the 39 constant sums would make 2^39 words; (e2+e1)^2 = -2,
    # so the constant is (-2)^19 * (e2+e1) and the integral over [0, 2] is twice it
    f = parse("*".join(["(e2+e1)"] * 39 + ["z"]), 2)
    start = time.perf_counter()
    got = line_integral(f, Path.polyline([zero(2), from_real(2, 2.0)]))
    assert time.perf_counter() - start < 1.0
    want = CDNumber(2, [0.0, 1.0, 1.0, 0.0]) * (2 * (-2.0) ** 19)
    assert got.converged
    assert (got.value - want).norm() <= 1e-12 * want.norm()


def test_open_paths_same_endpoints_agree_for_polynomials():
    # upper semicircle vs corner route, both from 1 to -1
    f = parse("z^2 - e2*z + 1", 2)
    arc = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0).subpath(0.0, 0.5)
    corner = Path.polyline(
        [from_real(2, 1.0), CDNumber(2, [1, 1, 0, 0]), CDNumber(2, [-1, 1, 0, 0]), from_real(2, -1.0)]
    )
    a = line_integral(f, arc, tol=1e-7)
    b = line_integral(f, corner, tol=1e-7)
    assert (a.value - b.value).norm() < 2e-7


def test_reversal_negates():
    f = parse("z^2*e3", 3)
    arc = Path.circle(zero(3), 1.0, basis_element(3, 1), 1.0).subpath(0.1, 0.7)
    a = line_integral(f, arc, tol=1e-7).value
    b = line_integral(f, arc.reversed(), tol=1e-7).value
    assert (a + b).norm() < 2e-7


def test_reversed_half_circle_runs_back_along_the_same_arc():
    e1 = basis_element(2, 1)
    arc = Path.circle(zero(2), 1.0, e1, 0.5)
    rev = arc.reversed()
    assert rev.point(0.0).allclose(from_real(2, -1.0), 1e-14)
    assert rev.point(1.0).allclose(from_real(2, 1.0), 1e-14)
    assert rev.point(0.5).allclose(e1, 1e-14)
    f = parse("(z+0.5*e1)^-1", 2)
    a = line_integral(f, arc, tol=1e-8)
    b = line_integral(f, rev, tol=1e-8)
    assert a.converged and b.converged
    assert abs(a.value.coeffs[1] - 2.214) < 1e-3
    assert (a.value + b.value).norm() < 1e-7


def test_concatenation_additivity():
    f = parse("z^3 - 2", 2)
    whole = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0).subpath(0.0, 0.8)
    first = whole.subpath(0.0, 0.5)
    second = whole.subpath(0.5, 1.0)
    w = line_integral(f, whole, tol=1e-7).value
    s = line_integral(f, first, tol=1e-7).value + line_integral(f, second, tol=1e-7).value
    assert (w - s).norm() < 2e-7


def test_two_sided_linearity_in_constants():
    rng = np.random.default_rng(11)
    r = 3
    lam1, lam2 = random_element(r, rng), random_element(r, rng)
    arc = Path.circle(zero(r), 1.0, basis_element(r, 2), 1.0).subpath(0.0, 0.3)

    def fmt(c):
        return "(" + "+".join(f"({v})*e{k}" if k else f"({v})" for k, v in enumerate(c.coeffs)) + ")"

    f1, f2 = "z^2", "z^-1"
    tol = 1e-7
    left = line_integral(parse(f"{fmt(lam1)}*{f1} + {fmt(lam2)}*{f2}", r), arc, tol=tol).value
    want = mul(lam1, line_integral(parse(f1, r), arc, tol=tol).value) + mul(
        lam2, line_integral(parse(f2, r), arc, tol=tol).value
    )
    assert (left - want).norm() < 3 * tol * (1 + lam1.norm() + lam2.norm())
    right = line_integral(parse(f"{f1}*{fmt(lam1)} + {f2}*{fmt(lam2)}", r), arc, tol=tol).value
    want = mul(line_integral(parse(f1, r), arc, tol=tol).value, lam1) + mul(
        line_integral(parse(f2, r), arc, tol=tol).value, lam2
    )
    assert (right - want).norm() < 3 * tol * (1 + lam1.norm() + lam2.norm())


def test_nonconvergence_is_flagged_not_raised():
    f = parse("z^-1", 2)
    circ = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    res = line_integral(f, circ, tol=1e-15, max_knots=1024)
    assert not res.converged
    assert res.est_error > 1e-15
    # the returned value is still the best available
    assert (res.value - basis_element(2, 1) * (2 * math.pi)).norm() < 1e-5


def test_pole_on_path_raises():
    f = parse("z^-1", 2)
    through_zero = Path.polyline([from_real(2, 1.0), zero(2)])
    with pytest.raises(PoleError):
        integral_sum(f, through_zero, Partition.uniform(8))


def test_level_mismatch_between_phrase_and_path():
    with pytest.raises(LevelMismatchError):
        line_integral(parse("z", 2), Path.circle(zero(3), 1.0, basis_element(3, 1), 1.0))


def test_results_are_reproducible_bitwise():
    f = parse("z^-1", 3)
    circ = Path.circle(zero(3), 1.0, basis_element(3, 4), 2.0)
    a = line_integral(f, circ)
    b = line_integral(f, circ)
    assert np.array_equal(a.value.coeffs, b.value.coeffs)
    assert a.est_error == b.est_error and a.refinements == b.refinements


def test_quadrature_json_round_trip():
    res = line_integral(parse("z", 2), Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0))
    obj = res.to_json()
    assert set(obj) == {"value", "est_error", "refinements", "converged"}


# ---------------------------------------------------------------------------
# logarithmic loop integral
# ---------------------------------------------------------------------------

def test_log_integral_circle_values():
    rng = np.random.default_rng(5)
    for r in (2, 3, 4):
        m = random_unit_imaginary(r, rng)
        center = random_element(r, rng)
        for n in (-6, -2, -1, 1, 2, 3, 5):
            got = log_integral(center, Path.circle(center, 1.5, m, n))
            assert (got - m * (2 * math.pi * n)).norm() < 1e-9


@pytest.mark.parametrize("turns", [200, 1000, -777])
def test_log_integral_many_turn_circle(turns):
    # a fixed 256-knot layout aliases here (turns 200 gave -55 * 2 pi e1);
    # circles take the closed form, which counts every turn
    e1 = basis_element(2, 1)
    got = log_integral(zero(2), Path.circle(zero(2), 1.0, e1, turns))
    assert (got - e1 * (2 * math.pi * turns)).norm() <= 1e-9 * abs(turns)


def test_log_integral_of_a_circle_of_1e7_turns_is_exact():
    e1 = basis_element(2, 1)
    got = log_integral(zero(2), Path.circle(zero(2), 1.0, e1, 1e7))
    assert (got - e1 * (2 * math.pi * 1e7)).norm() <= 1e-12 * (2 * math.pi * 1e7)


def test_log_integral_of_a_circle_of_too_many_turns_is_a_domain_error():
    # 2*pi*1e308 overflows; 1e300 turns still give an exact multiple of e1
    e1 = basis_element(2, 1)
    with pytest.raises(DomainError, match="overflows"):
        log_integral(zero(2), Path.circle(zero(2), 1.0, e1, 1e308))
    assert np.array_equal(log_integral(zero(2), Path.circle(zero(2), 1.0, e1, 1e300)).coeffs, [0.0, 2 * math.pi * 1e300, 0.0, 0.0])


def test_log_integral_non_enclosing_loop_vanishes():
    c = Path.circle(from_real(2, 5.0), 1.0, basis_element(2, 1), 1.0)
    assert log_integral(zero(2), c).norm() < 1e-12


def test_log_integral_square_matches_circle():
    got = log_integral(zero(2), _square(2))
    assert (got - basis_element(2, 1) * (2 * math.pi)).norm() < 1e-9


def test_log_integral_open_path_telescopes():
    # quarter turn: Ln(end) - Ln(start) = (pi/2) * direction
    m = basis_element(3, 3)
    quarter = Path.circle(zero(3), 2.0, m, 1.0).subpath(0.0, 0.25)
    got = log_integral(zero(3), quarter)
    assert (got - m * (math.pi / 2)).norm() < 1e-9


def test_log_integral_through_center_fails():
    seg = Path.polyline([from_real(2, 1.0), zero(2)])
    with pytest.raises(PoleError):
        log_integral(zero(2), seg)
    crossing = Path.polyline([from_real(2, 1.0), from_real(2, -1.0)])
    with pytest.raises((PoleError, StepControlError)):
        log_integral(zero(2), crossing)


def _log_integral_per_knot(center, gamma):
    """Reference: the argument continued knot by knot on full vectors.

    Each knot gets its own polar split; a numerically real knot inherits
    the direction of the previous argument vector, and the continuation
    picks the representation (theta + 2*pi*j)*mu nearest that vector,
    bisecting steps that move it by pi/2 or more.
    """
    knots = _reference_polyline_knots(gamma, 4 * START_KNOTS) if gamma.kind == "polyline" else _offset_knots(256)
    c = center.coeffs
    Z = gamma.sample(knots) - c[None, :]
    rho = norm_arrays(Z)

    def cont(arg_prev, w):
        _, rho_w, theta, mu = _ln_with_parts(w)
        if float(norm_arrays(w[1:])) <= 1e-12 * float(rho_w):
            nprev = float(norm_arrays(arg_prev))
            if nprev > 1e-12:
                mu = arg_prev / nprev
        j = round((float(np.dot(arg_prev, mu)) - float(theta)) / (2.0 * math.pi))
        arg = (float(theta) + 2.0 * math.pi * j) * mu
        return arg, float(norm_arrays(arg - arg_prev))

    def advance(arg_prev, w, t0, t1, depth):
        arg, gap = cont(arg_prev, w)
        if gap < math.pi / 2:
            return arg
        if depth >= 48:
            raise StepControlError("reference continuation failed")
        tm = (t0 + t1) / 2.0
        mid = advance(arg_prev, gamma.sample([tm])[0] - c, t0, tm, depth + 1)
        return advance(mid, w, tm, t1, depth + 1)

    _, _, theta0, mu0 = _ln_with_parts(Z[0])
    arg0 = float(theta0) * mu0
    y_all = norm_arrays(Z[:, 1:])
    live = np.nonzero(y_all > 1e-12 * rho)[0]
    if y_all[0] <= 1e-12 * rho[0] and live.size:
        mu = np.zeros_like(Z[0])
        mu[1:] = Z[live[0]][1:] / y_all[live[0]]
        arg0 = float(norm_arrays(arg0)) * mu
    arg = arg0
    for k in range(1, len(knots)):
        arg = advance(arg, Z[k], float(knots[k - 1]), float(knots[k]), 0)
    out = arg - arg0
    out[0] = float(np.log(rho[-1])) - float(np.log(rho[0]))
    return CDNumber(gamma.level, out)


def _offsets(r, m, rng):
    """Log centres relative to a path centre: in-plane and off-plane, near and far."""
    v = random_element(r, rng).coeffs.copy()
    v[0] = 0.0
    v -= np.dot(v, m.coeffs) * m.coeffs
    off = CDNumber(r, v / np.linalg.norm(v))
    return {
        "in-plane-inside": m * 0.4 + from_real(r, 0.3),
        "in-plane-outside": m * 1.5 + from_real(r, 7.0),
        "off-plane-inside": off * 0.5 + from_real(r, -0.2),
        "off-plane-outside": off * 9.0,
    }


_BATCH_TOL = 1e-12  # per unit of (1 + |turns|), fixed before the comparison was run


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_batched_log_integral_matches_per_knot_reference_on_circles(r):
    rng = np.random.default_rng(100 + r)
    for radius in (2.0, 5.0):
        m = random_unit_imaginary(r, rng)
        p = random_element(r, rng)
        for where, off in _offsets(r, m, rng).items():
            for turns in (-6, -1, 1, 2, 3, 5):
                gamma = Path.circle(p, radius, m, turns)
                got = log_integral(p + off, gamma)
                want = _log_integral_per_knot(p + off, gamma)
                assert (got - want).norm() <= _BATCH_TOL * (1 + abs(turns)), (radius, where, turns)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_batched_log_integral_matches_per_knot_reference_on_polylines(r):
    rng = np.random.default_rng(200 + r)
    m = random_unit_imaginary(r, rng)
    p = random_element(r, rng)
    for half in (2.0, 3.5):
        corners = [(1, 1), (-1, 1), (-1, -1), (1, -1), (1, 1)]
        square = Path.polyline([p + from_real(r, half * a) + m * (half * b) for a, b in corners])
        opened = Path.polyline([p + random_element(r, rng) * half for _ in range(4)])
        for gamma in (square, opened, square.reversed()):
            for where, off in _offsets(r, m, rng).items():
                got = log_integral(p + off, gamma)
                want = _log_integral_per_knot(p + off, gamma)
                assert (got - want).norm() <= _BATCH_TOL * 2, (half, where)


@pytest.mark.parametrize("turns", [100, 200])
def test_many_turn_parametric_circle_gives_its_turns(turns):
    # 100 turns step by -0.22 turns on 128 knots but by 0.39 on 256, past
    # pi/2, so the doubling goes on until 512 and 1024 knots agree; 200
    # turns, until 1024 and 2048 do
    m = basis_element(3, 5)
    circle = Path.circle(zero(3), 1.0, m, turns)
    got = log_integral(zero(3), Path(level=circle.level, kind="parametric", sampler=circle.sample))
    assert (got - m * (2 * math.pi * turns)).norm() < 1e-9
    assert (got - log_integral(zero(3), circle)).norm() <= _BATCH_TOL * (1 + turns)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_vectorised_continuation_matches_sequential_branch_steps(r, monkeypatch):
    # the reference continues every knot with _branch_step, as if the
    # vectorised prefix rejected the first step
    rng = np.random.default_rng(300 + r)
    m = random_unit_imaginary(r, rng)
    p = random_element(r, rng)
    fast = integrate._branch_prefix
    firsts = []

    def spy(theta, cosines):
        phi, first = fast(theta, cosines)
        firsts[-1].append((first, len(theta)))
        return phi, first

    def sequential(theta, cosines):
        return theta.copy(), 1

    circle100 = Path.circle(zero(r), 1.0, m, 100)
    hundred = Path(level=circle100.level, kind="parametric", sampler=circle100.sample)
    # circles and polylines take closed forms, so the circles go in as
    # parametric paths
    circles = [(p + off, Path.circle(p, 2.0, m, turns)) for off in _offsets(r, m, rng).values() for turns in (-1, 3)]
    circles += [(p, Path.circle(p, 2.0, m, turns)) for turns in (-1, 3)]
    cases = [(a, Path(level=g.level, kind="parametric", sampler=g.sample)) for a, g in circles]
    cases.append((zero(r), hundred))
    for a, gamma in cases:
        firsts.append([])
        monkeypatch.setattr(integrate, "_branch_prefix", spy)
        got = log_integral(a, gamma)
        monkeypatch.setattr(integrate, "_branch_prefix", sequential)
        want = log_integral(a, gamma)
        assert np.array_equal(got.coeffs, want.coeffs)
    assert len(firsts) == len(cases)
    # the circles about their own centre run whole on every layout
    assert all(first == n for layouts in firsts[-3:-1] for first, n in layouts)
    assert (want - m * (200 * math.pi)).norm() < 1e-9


def _pt(r, re, **imag):
    v = np.zeros(1 << r)
    v[0] = re
    for name, x in imag.items():
        v[int(name[1:])] = x
    return CDNumber(r, v)


@pytest.mark.parametrize(
    "corners",
    [
        # crosses the negative real axis at a corner knot, within one plane
        [(-1.0, {"e2": 1.0}), (-1.0, {}), (-1.0, {"e2": -1.0}), (2.0, {"e2": -1.0})],
        # crosses it between knots
        [(-2.0, {"e2": 1.0, "e5": 0.5}), (-2.0, {"e2": -1.0, "e5": -0.5})],
        # starts on it, then leaves in an off-axis plane
        [(-1.5, {}), (-1.5, {"e3": 1.0}), (1.0, {"e3": 1.0, "e6": 0.5})],
        # starts on it and winds back to it
        [(-1.0, {}), (-1.0, {"e1": 1.0}), (1.0, {"e1": 1.0}), (1.0, {"e1": -1.0}), (-1.0, {"e1": -1.0}), (-1.0, {})],
        # passes the positive real axis at a corner while changing plane
        [(1.0, {"e2": 1.0}), (1.0, {}), (1.0, {"e4": 1.0})],
        # never leaves the negative real axis
        [(-2.0, {}), (-0.5, {})],
    ],
)
def test_batched_log_integral_real_knot_rules_match_reference(corners):
    r = 3
    gamma = Path.polyline([_pt(r, re, **imag) for re, imag in corners])
    got = log_integral(zero(r), gamma)
    want = _log_integral_per_knot(zero(r), gamma)
    assert (got - want).norm() <= _BATCH_TOL * 2


def _sampled_log_integral(a, gamma):
    """log_integral on its sampled route: the same points as a parametric
    path, which for up to 32 turns takes the knots the closed forms replace."""
    return log_integral(a, Path(level=gamma.level, kind="parametric", sampler=gamma.sample))


def _unit_imaginary_or_axis(r, rng):
    if rng.random() < 0.3:
        return basis_element(r, int(rng.integers(1, 1 << r))) * float(rng.choice([-1.0, 1.0]))
    return random_unit_imaginary(r, rng)


def _off_plane(r, m, size, rng):
    """An imaginary element of norm size orthogonal to m."""
    v = rng.standard_normal(1 << r)
    v[0] = 0.0
    v -= np.dot(v, m.coeffs) * m.coeffs
    return CDNumber(r, v * (size / np.linalg.norm(v)))


_CLOSED_TOL = 1e-9  # per unit of (1 + |turns|), fixed before the comparison was run
_SQUARE = [(1, 1), (-1, 1), (-1, -1), (1, -1)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_closed_form_log_integral_matches_the_sampled_route_on_circles(r):
    rng = np.random.default_rng(700 + r)
    for i in range(120):
        m = _unit_imaginary_or_axis(r, rng)
        c = random_element(r, rng)
        rho = float(rng.uniform(0.5, 2.0))
        k = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        turns = (float(rng.uniform(-3.0, 3.0)), float(k), float(np.nextafter(k, math.inf)))[i % 3]
        gamma = Path.circle(c, rho, m, turns)
        if i % 5 == 1:
            gamma = gamma.subpath(*(float(t) for t in rng.uniform(0.0, 1.0, 2)))
        elif i % 5 == 2:
            gamma = gamma.reversed()
        elif i % 5 == 3:
            gamma = replace(gamma, start=float(rng.uniform(0.0, 1.0)))
        # in the plane inside and outside, then 0.02 to 0.5 radii off it
        where = i % 4 if r > 1 else i % 2
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        dist = rho * float(rng.uniform(0.0, 0.9) if where != 1 else rng.uniform(1.1, 3.0))
        a = c + from_real(r, dist * math.cos(ang)) + m * (dist * math.sin(ang))
        if where >= 2:
            a = a + _off_plane(r, m, rho * float(rng.uniform(0.02, 0.5)), rng)
        got = log_integral(a, gamma)
        want = _sampled_log_integral(a, gamma)
        assert (got - want).norm() <= _CLOSED_TOL * (1.0 + abs(gamma.turns)), (i, gamma.turns, where)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_closed_form_log_integral_matches_the_sampled_route_on_polylines(r):
    rng = np.random.default_rng(800 + r)
    for i in range(80):
        m = _unit_imaginary_or_axis(r, rng)
        c = random_element(r, rng)
        half = float(rng.uniform(0.5, 2.0))
        kind = i % 4
        if kind == 0:  # random corners, points anywhere
            corners = [c + random_element(r, rng, half) for _ in range(int(rng.integers(2, 7)))]
            a = c + random_element(r, rng, half)
        else:  # a square of 1 to 3 loops in c + span(1, m), either way round
            loops = 1 + i % 3
            corners = [c + from_real(r, half * x) + m * (half * y) for _ in range(loops) for x, y in _SQUARE]
            corners.append(corners[0])
            if rng.random() < 0.5:
                corners.reverse()
            ang = float(rng.uniform(0.0, 2.0 * math.pi))
            dist = half * float(rng.uniform(0.0, 0.9) if rng.random() < 0.6 else rng.uniform(1.6, 3.0))
            a = c + from_real(r, dist * math.cos(ang)) + m * (dist * math.sin(ang))
            if kind >= 2 and r > 1:  # the point off the square's plane
                a = a + _off_plane(r, m, half * float(rng.uniform(0.02, 0.5)), rng)
            if kind == 3:  # and corners off it after the loops
                corners += [c + random_element(r, rng, half) for _ in range(2)]
        gamma = Path.polyline(corners)
        got = log_integral(a, gamma)
        want = _sampled_log_integral(a, gamma)
        assert (got - want).norm() <= _CLOSED_TOL * 4.0, (i, kind)


def test_polyline_changing_plane_at_a_negative_real_corner_has_no_continuation():
    # at -1 the argument is pi*e2 coming in and pi*e3 going out; at +1 it is
    # 0, and the plane may change freely
    r = 3
    e2, e3 = basis_element(r, 2), basis_element(r, 3)
    for x, fails in ((-1.0, True), (1.0, False)):
        gamma = Path.polyline([from_real(r, x) + e2, from_real(r, x), from_real(r, x) + e3])
        for route in (log_integral, _sampled_log_integral):
            if fails:
                with pytest.raises(StepControlError):
                    route(zero(r), gamma)
            else:
                assert (route(zero(r), gamma) - (e3 - e2) * (math.pi / 4)).norm() < 1e-12


def test_circles_and_polylines_take_the_log_integral_without_sampling(monkeypatch):
    def no_sampling(self, ts):
        raise AssertionError("the path was sampled")

    cases = []
    for r in range(1, 9):
        e1 = basis_element(r, 1)
        circle = Path.circle(zero(r), 1.0, e1, 3.0)
        square = Path.polyline([from_real(r, x) + e1 * y for x, y in _SQUARE + _SQUARE[:1]])
        # the arc from phase 0.1 to 0.3 turns is nearest the point at its end;
        # a polyline's subpaths, either way along it, are polylines again
        points = (from_real(r, 0.3), from_real(r, -3.0), e1 * 0.5 + from_real(r, 0.2))
        cases += [(a, gamma, None) for gamma in (circle, circle.subpath(0.1, 0.3), circle.reversed(), square)
                  for a in points]
        for t0, t1 in ((0.1, 0.6), (0.95, 0.3)):
            cut = square.subpath(t0, t1)
            assert cut.kind == "polyline"
            # the same points on the sampled route, taken before sampling is refused
            cases += [(a, cut, log_integral(a, square._reparametrized(t0, t1))) for a in points]
    monkeypatch.setattr(Path, "sample", no_sampling)
    for a, gamma, want in cases:
        got = log_integral(a, gamma)
        assert want is None or (got - want).norm() <= _CLOSED_TOL


def test_many_turn_log_integral_at_level_8_is_exact_in_bounded_memory():
    # 1e5 turns took (800002, 256) knot arrays, 1.5 GiB, on the sampled route
    e1 = basis_element(8, 1)
    gamma = Path.circle(zero(8), 1.0, e1, 1e5)
    a = from_real(8, 0.3) + e1 * 0.1
    tracemalloc.start()
    try:
        got = log_integral(a, gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert (got - e1 * (2 * math.pi * 1e5)).norm() <= 1e-12 * (2 * math.pi * 1e5)


@pytest.mark.parametrize("off", [1e-3, 1e-6, 1e-10])
def test_log_integral_about_a_point_just_off_the_plane_of_a_circle_vanishes(off):
    # Im(gamma - a) never vanishes on the circle, so the principal Ln is
    # continuous and the closed loop gives 0; sampling gave 2*pi*(e1 + 10*off*e2)
    # up to off = 1e-3
    gamma = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    a = CDNumber(2, [0.3, 0.1, off, 0.0])
    assert not np.any(log_integral(a, gamma).coeffs)
    in_plane = log_integral(CDNumber(2, [0.3, 0.1, 0.0, 0.0]), gamma)
    assert np.array_equal(in_plane.coeffs, [0.0, 2 * math.pi, 0.0, 0.0])


@pytest.mark.parametrize("gap", [1e-7, 1e-10])
def test_log_integral_about_a_point_just_outside_a_closed_circle_is_exactly_0(gap):
    # the sampled route left 2.449e-9 * e1 at 1e-7 and 2.449e-6 * e1 at 1e-10
    gamma = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    assert not np.any(log_integral(from_real(2, 1.0 + gap), gamma).coeffs)


def test_log_integral_through_a_point_of_a_circle_between_knots_is_a_pole():
    ang = 2 * math.pi * 0.001
    gamma = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    with pytest.raises(PoleError):
        log_integral(CDNumber(2, [math.cos(ang), math.sin(ang), 0.0, 0.0]), gamma)


def test_pole_centres_on_the_path_are_refused_before_sampling():
    e1 = basis_element(3, 1)
    circle = Path.circle(zero(3), 1.0, e1)
    # the corner-free square side x = 0.5 passes through 0.5 + 0.1 e1, between
    # any two uniform samples
    square = Path.polyline([from_real(3, 0.5) + e1 * s for s in (-0.5, 0.5)])
    for text, path in (("(z-1)^-2", circle), ("e2*(z-e1)^-1*e3", circle), ("(z-(0.5+0.1*e1))^-3", square)):
        with pytest.raises(PoleError, match="pole at"):
            line_integral(parse(text, 3), path)
    # off the path the integral runs: the knot-capped logarithm 1e-7 off the circle
    res = line_integral(parse("(z-1.0000001)^-1", 3), circle, max_knots=1024)
    assert not res.converged
    # an arc of half a turn, either way round, meets a pole between two of
    # 4097 uniform samples and does not reach the pole on the other half
    ang = math.pi * (0.5 + 0.5 / 4096)
    for turns, sign in ((0.5, "+"), (-0.5, "-")):
        arc = Path.circle(zero(3), 1.0, e1, turns)
        on_arc = f"(z-(0-{abs(math.cos(ang)):.17f}{sign}{math.sin(ang):.17f}*e1))^-2"
        with pytest.raises(PoleError, match="pole at"):
            line_integral(parse(on_arc, 3), arc)
        assert distance_range(from_real(3, -1.0).coeffs, arc)[0] < 1e-12
        assert distance_range(from_real(3, 2.0).coeffs, arc)[0] == pytest.approx(1.0, rel=1e-15)
        assert line_integral(parse("(z+e1)^-2" if turns > 0 else "(z-e1)^-2", 3), arc).converged


def test_distance_range_of_polyline_is_exact():
    e1 = basis_element(2, 1)
    square = Path.polyline([from_real(2, 0.5) + e1 * s for s in (-0.5, 0.5)])
    near, far = distance_range(np.array([0.5, 1e-3 / 3, 0.2, 0.0]), square)
    assert near == pytest.approx(0.2, rel=1e-15)
    assert far == pytest.approx(math.sqrt((0.5 + 1e-3 / 3) ** 2 + 0.04), rel=1e-15)


# ---------------------------------------------------------------------------
# circle arcs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("turns", [200, 1000])
def test_many_turn_subpath_keeps_eight_knots_per_turn(turns):
    # 256 knots over 200 turns alias; the arc stays a circle, which takes
    # the closed form
    e1 = basis_element(2, 1)
    gamma = Path.circle(zero(2), 1.0, e1, turns).subpath(0.0, 1.0)
    assert gamma.kind == "circle"
    got = log_integral(zero(2), gamma)
    assert (got - e1 * (2 * math.pi * turns)).norm() <= 1e-9 * turns
    assert winding_index(zero(2), gamma).per_plane[1] == turns


def test_pole_on_a_half_circle_subpath_is_refused_before_sampling(monkeypatch):
    # the pole lies between two of 4097 uniform samples of the half circle
    e1 = basis_element(3, 1)
    ang = math.pi * (0.5 + 1.0 / 24576)
    f = parse(f"(z-(0-{abs(math.cos(ang)):.17f}+{math.sin(ang):.17f}*e1))^-2", 3)
    half = Path.circle(zero(3), 1.0, e1).subpath(0.0, 0.5)

    def no_sampling(self, ts):
        raise AssertionError("the path was sampled")

    monkeypatch.setattr(Path, "sample", no_sampling)
    for arc in (half, half.reversed()):
        with pytest.raises(PoleError, match="pole at"):
            line_integral(f, arc)


def test_distance_range_of_started_arcs_is_exact():
    rng = np.random.default_rng(31)
    ts = np.linspace(0.0, 1.0, 200001)
    for _ in range(40):
        r = int(rng.integers(2, 5))
        m = random_unit_imaginary(r, rng)
        center = random_element(r, rng)
        circle = Path.circle(center, float(rng.uniform(0.5, 1.5)), m, float(rng.uniform(-1.5, 1.5)))
        a, b = rng.uniform(0.0, 1.0, 2)
        arc = circle.subpath(float(a), float(b))
        assert arc.kind == "circle"
        # a point 0.5 to 1 off the arc's plane, its shadow anywhere in the
        # square of side 4 about the centre
        off = rng.standard_normal(1 << r)
        off[0] = 0.0
        off -= np.dot(off, m.coeffs) * m.coeffs
        off *= float(rng.uniform(0.5, 1.0)) / float(np.linalg.norm(off))
        x, y = rng.uniform(-2.0, 2.0, 2)
        point = center.coeffs + off + y * m.coeffs
        point[0] += x
        near, far = distance_range(point, arc)
        dense = norm_arrays(arc.sample(ts) - point)
        assert dense.min() - 1e-9 <= near <= dense.min() + 1e-12
        assert far >= dense.max() - 1e-12


def test_subpath_of_a_subpath_is_the_direct_arc():
    circle = Path.circle(from_real(3, 0.5), 2.0, basis_element(3, 6), 1.7)
    nested = circle.subpath(0.2, 0.9).subpath(0.25, 0.5)
    direct = circle.subpath(0.2 + 0.7 * 0.25, 0.2 + 0.7 * 0.5)
    assert nested.kind == direct.kind == "circle"
    assert nested.turns == pytest.approx(direct.turns, abs=1e-15)
    assert nested.start == pytest.approx(direct.start, abs=1e-15)
    ts = np.linspace(0.0, 1.0, 33)
    assert np.max(np.abs(nested.sample(ts) - direct.sample(ts))) < 1e-12


def test_started_arcs_have_no_json_form():
    circle = Path.circle(zero(2), 1.0, basis_element(2, 1), 2.0)
    assert circle.reversed().start == 0.0
    assert path_from_json(circle.reversed().to_json()).turns == -2.0
    with pytest.raises(DomainError):
        circle.subpath(0.25, 1.0).to_json()


# ---------------------------------------------------------------------------
# the extrapolation tableau
# ---------------------------------------------------------------------------

def _stacked_raw(n):
    """Four rows with different tails: an exact 1/N error the tableau strips
    at once, a cubic tail, a quintic tail that the tableau strips two
    doublings later, and an N^(-1/2) tail that never meets the tolerance."""
    v = np.array([1.0, -0.5, 0.25, 2.0])
    return np.stack([
        v + 0.3 / n,
        2.0 * v + 1.0 / n - 5.0 / n**2 + 7.0 / n**3,
        -v + sum(v[::-1] * (-64.0 / n) ** p for p in range(1, 6)),
        v + 1e-2 / math.sqrt(n),
    ])


def test_extrapolation_stops_each_tail_at_its_own_refinement():
    results = []
    for i in range(4):
        calls = []

        def raw(n):
            calls.append(n)
            return _stacked_raw(n)[i]

        res = _extrapolated(raw, as_level(2), 1e-9, 1 << 12)
        assert len(calls) == len(set(calls)) == 1 + res.refinements
        results.append(res)
    assert [res.converged for res in results] == [True, True, True, False]
    early = max(results[0].refinements, results[1].refinements)
    assert results[2].refinements > early
    assert results[3].refinements == 6  # 64 * 2^6 knots, the last layout under the cap


def _reference_polyline_geometry(path):
    """Corners, segment lengths, total length and arc-length fractions,
    computed afresh for each use: the reference for Path._polyline."""
    pts = np.stack([p.coeffs for p in path.points])
    seg = norm_arrays(np.diff(pts, axis=0))
    total = float(seg.sum())
    fracs = np.concatenate([[0.0], np.cumsum(seg) / total]) if total > 0.0 else None
    if fracs is not None:
        fracs[-1] = 1.0
    return pts, seg, total, fracs


def _reference_polyline_sample(path, ts):
    pts, _, _, fracs = _reference_polyline_geometry(path)
    if fracs is None:
        return np.repeat(pts[:1], len(ts), axis=0)
    return np.stack([np.interp(ts, fracs, pts[:, c]) for c in range(pts.shape[1])], axis=1)


def _reference_polyline_knots(path, n):
    _, seg, total, fracs = _reference_polyline_geometry(path)
    if fracs is None:
        return np.array([0.0, 1.0])
    counts = 2 * np.maximum(1, np.round(seg / total * START_KNOTS / 2.0).astype(np.int64)) * (n // START_KNOTS)
    counts[seg <= 0.0] = 0
    knots = [0.0, 1.0] + [float(f) for f in fracs[1:-1]]
    for i, c in enumerate(counts):
        if c > 0:
            knots.extend(fracs[i] + (fracs[i + 1] - fracs[i]) * (np.arange(c) + 0.5) / c)
    return np.unique(np.asarray(knots, dtype=np.float64))


@pytest.mark.parametrize("r", [2, 3, 5])
def test_polyline_geometry_is_shared_and_bitwise_unchanged(r):
    rng = np.random.default_rng(40 + r)
    pts = [random_element(r, rng) for _ in range(5)]
    paths = [
        _square(r, half=0.7),
        Path.polyline(pts),
        Path.polyline(pts[:2] + [pts[1], pts[1]] + pts[2:]),  # zero-length segments
        Path.polyline([pts[0], pts[0], pts[0]]),  # no length at all
    ]
    ts = np.concatenate([np.linspace(0.0, 1.0, 101), rng.uniform(0.0, 1.0, 50)])
    for path in paths:
        assert np.array_equal(path.sample(ts), _reference_polyline_sample(path, ts))


@pytest.mark.parametrize(
    "text",
    ["e1*(e2*(z-e3)^2)*e4 + (e5*(z-e3)^2)*e6 - 2*e7*z^-1*e2 + e3", "e2*(z-1)^-3*e5 + 4", "(0.3*e7)*z^2*(0.9*e5)"],
)
def test_integral_sum_is_the_row_sum_of_hat_increments(text):
    from cdfun.expressions import hat_from_primitive, primitive

    f = parse(text, 3)
    for gamma in (Path.circle(from_real(3, 0.5), 2.0, random_unit_imaginary(3, np.random.default_rng(41))),
                  _square(3, half=1.5)):
        partition = Partition.uniform(300)
        Z = gamma.sample(partition.knots)
        rows = hat_from_primitive(primitive(f), Z[1:], np.diff(Z, axis=0))
        want = rows.sum(axis=0)
        got = integral_sum(f, gamma, partition).coeffs
        assert np.linalg.norm(got - want) <= 1e-12 * (1 + np.abs(rows).sum())


def test_in_plane_sandwich_at_level_8_makes_no_product_on_knot_batches(tmp_path, monkeypatch):
    import contextlib
    import io
    import json
    import sys

    from cdfun import algebra, cli

    d = 256
    path = tmp_path / "circle8.json"
    center = [1.0] + [0.0] * (d - 1)
    path.write_text(json.dumps({"kind": "circle", "center": center, "radius": 1.0, "direction": [0, 1] + [0] * (d - 2)}))
    real_mul = algebra.mul_arrays
    operands = []

    def counting(x, y, lev):
        operands.append((np.shape(x), np.shape(y)))
        return real_mul(x, y, lev)

    def integrate(tol):
        operands.clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["integrate", "--level", "8", "--expr", "(0.3*e7)*(z-1.5)^-1*(0.9*e100)",
                             "--path-file", str(path), "--tol", tol])
        assert code == 0
        return json.loads(buf.getvalue()), list(operands)

    for module in [mod for key, mod in sys.modules.items() if key.split(".")[0] == "cdfun"]:
        for name, obj in list(vars(module).items()):
            if obj is real_mul:
                monkeypatch.setattr(module, name, counting)
    coarse, coarse_ops = integrate("1e-4")
    fine, fine_ops = integrate("1e-13")
    assert coarse["refinements"] < fine["refinements"]
    assert coarse["converged"] and fine["converged"]
    # only the setup products of the word's constants, single elements and the
    # identity batch, as many whatever the number of knot layouts
    assert coarse_ops and coarse_ops == fine_ops
    assert all(shape in ((d,), (d, d)) for shapes in coarse_ops for shape in shapes)
    assert any((d, d) in shapes for shapes in coarse_ops)
    # a loop about the pole gives 2*pi * a*M*b
    a, m, b = (basis_element(8, k) for k in (7, 1, 100))
    want = mul(mul(a * 0.3, m), b * 0.9).coeffs * (2 * math.pi)
    assert np.max(np.abs(np.array(fine["value"]) - want)) <= 1e-12


@pytest.mark.parametrize("text", ["(e1-e1)^-1*z", "e1*(z-2)^-1*e2 + (e1-e1)^-1"])
def test_vanishing_constant_inverse_is_a_pole(text):
    with pytest.raises(PoleError):
        line_integral(parse(text, 3), Path.circle(zero(3), 1.0, basis_element(3, 1)))


# ---------------------------------------------------------------------------
# the plane route: leaves summed in complex coordinates
# ---------------------------------------------------------------------------

def _count_leaf_increments(monkeypatch) -> list:
    from cdfun.expressions import Leaf

    calls = []
    real = Leaf.increment

    def counting(self, Z, H, r):
        calls.append(self.power)
        return real(self, Z, H, r)

    monkeypatch.setattr(Leaf, "increment", counting)
    return calls


def _in_plane(r, m, a, b):
    """a + b*m as an element of level r."""
    return CDNumber(r, a * np.eye(1 << r)[0] + b * m.coeffs)


def _plane_phrase(r, center, rng):
    """sum over n in -4..4, n != 0, 1, of a_n*(z - center)^n*b_n: leaves
    (z - center)^m for m = -3..5 except 1, 2 and Ln(z - center), plus the
    leaves z^1 and z^2 about 0 of the terms n = 0 and 1."""
    from cdfun.expressions import phrase_from_json

    def const(v):
        return {"const": [float(x) for x in v]}

    base = {"op": "sub", "args": [{"var": "z"}, const(center)]}
    terms = [const(random_element(r, rng).coeffs), {"op": "mul", "args": [const(random_element(r, rng).coeffs), base]}]
    for n in (-4, -3, -2, -1, 2, 3, 4):
        a, b = random_element(r, rng).coeffs, random_element(r, rng).coeffs
        terms.append({"op": "mul", "args": [{"op": "mul", "args": [const(a), {"op": "pow", "base": base, "pow": n}]}, const(b)]})
    return phrase_from_json({"op": "add", "args": terms}, r)


@pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
def test_plane_route_matches_the_row_sums_of_hat_increments(r, monkeypatch):
    from cdfun.expressions import hat_from_primitive, primitive

    rng = np.random.default_rng(70 + r)
    m = random_unit_imaginary(r, rng)
    d = 1 << r
    c = _in_plane(r, m, 0.3, -0.4)
    off = np.zeros(d)
    if r > 1:
        # a unit imaginary orthogonal to m
        u = np.array(random_element(r, rng).coeffs)
        u[0] = 0.0
        u -= np.dot(u, m.coeffs) * m.coeffs
        off = u / np.linalg.norm(u)
    p = _in_plane(r, m, -0.2, 0.5)
    h = 1.3
    paths = [
        Path.circle(p, 1.7, m, 1.0),
        Path.circle(p, 1.7, m, 1.0).subpath(0.3, 0.85),
        Path.circle(p, 1.7, m * -1.0, -1.0),
        Path.circle(p, 1.7, m, 3.0),
        Path.polyline([_in_plane(r, m, -0.2 + x, 0.5 + y) for x, y in [(h, h), (-h, h), (-h, -h), (h, -h), (h, h)]]),
        Path.polyline([_in_plane(r, m, x, y) for x, y in [(1.5, 0.2), (0.8, 1.9), (-1.6, 0.7), (-0.5, -1.8)]]),
    ]
    centers = [c.coeffs] + ([c.coeffs + 1e-9 * off] if r > 1 else [])
    knots = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 97)]))
    partition = Partition(knots)
    calls = _count_leaf_increments(monkeypatch)
    logs = []
    for name in ("_circle_log", "_polyline_log"):
        def counting_log(c, gamma, *args, real=getattr(integrate, name), **kwargs):
            logs.append(c)
            return real(c, gamma, *args, **kwargs)

        monkeypatch.setattr(integrate, name, counting_log)
    for center in centers:
        f = _plane_phrase(r, center, rng)
        prim = primitive(f)
        assert sorted(leaf.power for leaf in prim.leaves if np.array_equal(leaf.center, center)) == [-3, -2, -1, 0, 3, 4, 5]
        assert sorted(leaf.power for leaf in prim.leaves if not np.any(leaf.center)) == [1, 2]
        in_plane = center is centers[0]
        # off the plane the Ln leaf takes log_integral, so a full circle and
        # the square suffice there
        for gamma in paths if in_plane else paths[::4]:
            if r < 8:  # at r = 8 the same row sums as at r = 5, on (N, 256) rows
                Z = gamma.sample(partition.knots)
                rows = hat_from_primitive(prim, Z[1:], np.diff(Z, axis=0))
                got = integral_sum(f, gamma, partition).coeffs
                assert np.linalg.norm(got - rows.sum(axis=0)) <= 1e-12 * (1 + np.abs(rows).sum())
            # line_integral takes no (N, d) increments: on a circle in its
            # plane the Ln leaf sums in complex coordinates on knots; on a
            # polyline, and 1e-9 off the plane, it takes its closed form
            calls.clear()
            logs.clear()
            res = line_integral(f, gamma)
            assert calls == []
            on_knots = in_plane and gamma.kind == "circle"
            assert (len(logs), res.refinements > 0) == ((0, True) if on_knots else (1, False))


@pytest.mark.parametrize("n", [-2, -3])
def test_knot_on_an_in_plane_leaf_centre_is_a_pole(n):
    m = random_unit_imaginary(3, np.random.default_rng(5))
    c = _in_plane(3, m, 0.25, 0.75)
    f = parse(f"(z-{_fmt(c)})^{n}", 3)
    ends_on_centre = Path.polyline([c + _in_plane(3, m, 1.0, -0.5), c])
    with pytest.raises(PoleError):
        integral_sum(f, ends_on_centre, Partition.uniform(8))


def _fmt(x: CDNumber) -> str:
    from cdfun.expressions import _fmt_const

    return _fmt_const(x.coeffs)


def test_near_pole_at_level_8_stays_in_complex_coordinates(tmp_path, monkeypatch):
    import contextlib
    import io
    import json

    from cdfun import cli

    calls = _count_leaf_increments(monkeypatch)
    d = 256
    path = tmp_path / "circle8.json"
    path.write_text(json.dumps({"kind": "circle", "center": [0.0] * d, "radius": 1.0, "direction": [0, 1] + [0] * (d - 2)}))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["integrate", "--level", "8", "--expr", "(z-1.0000001)^-1", "--path-file", str(path),
                         "--max-knots", "65536"])
    assert code == 0
    report = json.loads(buf.getvalue())
    assert report["converged"] is False and report["refinements"] == 10
    assert calls == []


# ---------------------------------------------------------------------------
# Newton-Leibniz: power leaves in closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [3, 8])
def test_riemann_sums_tend_to_the_closed_form_at_rate_one_over_n(r):
    # the paper defines the integral as the limit of increment sums; the right-
    # endpoint sums on uniform partitions must reach the closed form as 1/N
    d = 1 << r
    rng = np.random.default_rng([r, 18])
    f = parse("(0.5*e1)*z*e2 + e3*(z-0.2)^-2", r)
    line = Path.polyline([CDNumber(r, 0.8 * v / np.linalg.norm(v)) for v in rng.standard_normal((3, d))])
    # an arc whose plane holds neither leaf centre, so its knots take the (N, d) route
    arc = Path.circle(random_element(r, rng) * 0.3, 0.7, random_unit_imaginary(r, rng)).subpath(0.1, 0.6)
    for gamma in (line, arc):
        exact = line_integral(f, gamma)
        assert exact.refinements == 0 and exact.converged
        errs = np.array([(integral_sum(f, gamma, Partition.uniform(n)) - exact.value).norm()
                         for n in (64, 128, 256, 512, 1024)])
        ratios = errs[:-1] / errs[1:]
        assert np.all((ratios > 1.9) & (ratios < 2.1)), ratios


def _no_knot_layouts(monkeypatch):
    def refuse(*args):
        raise AssertionError("a leaf took a knot layout")

    monkeypatch.setattr(integrate, "_offset_knots", refuse)


@pytest.mark.parametrize("r", [3, 8])
def test_power_leaves_vanish_exactly_on_closed_paths(r, monkeypatch):
    _no_knot_layouts(monkeypatch)
    e1 = basis_element(r, 1)
    m = random_unit_imaginary(r, np.random.default_rng([r, 19]))
    paths = [Path.circle(zero(r), 1.0, e1, turns) for turns in (1, -1, 3)]
    paths += [Path.circle(from_real(r, 0.25), 2.0, m, 2).subpath(0.0, 0.5), _square(r, 0.5), _square(r, 1.5)]
    # sin(2*pi) is not 0 in floating point, and (z - 1.0000001)^-1 magnifies
    # that gap 1e7 times on the unit circle: the closed form reuses gamma(0)
    for text in ("(z-1.0000001)^-2", "e2*z^3*e5 + (0.3*e1)*(z-0.5*e2)^-3*e4 - 2*z"):
        f = parse(text, r)
        for gamma in paths:
            res = line_integral(f, gamma)
            assert not np.any(res.value.coeffs), (text, gamma.kind, gamma.turns)
            assert (res.est_error, res.refinements, res.converged) == (0.0, 0, True)


@pytest.mark.parametrize("r", [2, 5])
def test_closed_paths_raise_one_end_and_keep_the_two_end_bits(r):
    # X(gamma(1)) - X(gamma(0)) for bit-equal ends is X - X of one end: 0
    # exactly, or NaN where X overflows, then taken through each matrix
    from cdfun.algebra import pow_arrays
    from cdfun.expressions import primitive

    e1 = basis_element(r, 1)
    texts = ("e2*z^3*e1 + (0.3*e1)*(z-0.5*e2)^-3*e1 - 2*z", "z^59*e1", "(1e200*e1)*(1e200*e2)*z^2")
    for gamma in (Path.circle(zero(r), 1.0, e1, 2), Path.circle(zero(r), 1e6, e1, 1), _square(r, 0.5)):
        ends = gamma.endpoints()
        assert np.array_equal(ends[0], ends[1])
        for text in texts:
            leaves = primitive(parse(text, r)).leaves
            with np.errstate(all="ignore"):  # the overflow is the point
                value, bound = integrate._newton_leibniz(leaves, gamma)
                want = np.zeros(1 << r)
                for leaf in leaves:
                    X = pow_arrays(ends - leaf.center, leaf.power, r)
                    want += (X[1] - X[0]) @ leaf.matrix
            assert bound == 0.0
            assert np.array_equal(value.view(np.int64), want.view(np.int64)), (text, gamma.kind)


def test_open_polyline_matches_the_primitive_at_its_ends(monkeypatch):
    _no_knot_layouts(monkeypatch)
    from cdfun.expressions import evaluate

    r = 4
    rng = np.random.default_rng(20)
    f = parse("e2*z^3*e5 + (0.3*e1)*(z-0.5*e2)^-3*e4 - 2*z", r)
    F = parse("e2*z^4*e5*0.25 + (0.3*e1)*(z-0.5*e2)^-2*e4*(-0.5) - z^2", r)
    for _ in range(5):
        pts = [random_element(r, rng) for _ in range(4)]
        res = line_integral(f, Path.polyline(pts))
        want = evaluate(F, pts[-1]) - evaluate(F, pts[0])
        assert (res.value - want).norm() <= 1e-13 * want.norm()
        assert 0.0 < res.est_error <= 1e-12 * want.norm()


def test_closed_form_reports_are_byte_identical(tmp_path):
    import contextlib
    import io
    import json

    from cdfun import cli

    # the Ln leaf of z^-1 takes its closed form on both polylines, off the
    # plane through 0 and in span(1, e1), and is summed on knots on the
    # circle in span(1, e1)
    circle = {"kind": "circle", "center": [0.1, 0.2, 0, 0], "radius": 0.5, "direction": [0, 1, 0, 0]}
    for obj, on_knots in (({"kind": "polyline", "points": [[0.1, 0.2, 0.3, 0.4], [1, -1, 0.5, 2], [-0.3, 0, 1, 1]]},
                           False),
                          ({"kind": "polyline", "points": [[0.1, 0.2, 0, 0], [1, -1, 0, 0], [-0.3, 0.5, 0, 0]]},
                           False),
                          (circle, True)):
        path = tmp_path / "path.json"
        path.write_text(json.dumps(obj))
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(["integrate", "--level", "2", "--expr", "e1*z^4*e2 + (z-3)^-2 + z^-1",
                                 "--path-file", str(path)]) == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        assert (json.loads(outputs[0])["refinements"] > 0) is on_knots


# ---------------------------------------------------------------------------
# Ln leaves on polylines: the closed form, in the leaf's plane and off it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [2, 3, 8])
def test_in_plane_polyline_ln_leaf_is_the_log_integral(r, monkeypatch):
    # each segment of a polyline in the plane of c adds its own turn about c,
    # which on one plane sums to log_integral's continued change of Ln
    _no_knot_layouts(monkeypatch)
    from cdfun.expressions import primitive

    rng = np.random.default_rng([r, 29])
    m = random_unit_imaginary(r, rng)
    c = _in_plane(r, m, 0.2, -0.1)
    h = 1.1
    corners = [(h, h), (-h, h), (-h, -h), (h, -h)]
    paths = [Path.polyline([_in_plane(r, m, x, y) for x, y in corners * turns + corners[:1]]) for turns in (1, 2)]
    paths += [Path.polyline([_in_plane(r, m, *rng.uniform(-2.0, 2.0, 2)) for _ in range(5)]) for _ in range(3)]
    f = parse(f"(z-{_fmt(c)})^-1", r)
    (leaf,) = primitive(f).leaves
    for gamma in paths:
        res = line_integral(f, gamma)
        want = log_integral(CDNumber(r, leaf.center), gamma).coeffs @ leaf.matrix
        assert np.linalg.norm(res.value.coeffs - want) <= 1e-14 * np.linalg.norm(want)
        assert (res.refinements, res.converged) == (0, True)
    # the closed squares wind once and twice about c in span(1, m)
    for turns, gamma in zip((1, 2), paths):
        assert (line_integral(f, gamma).value - m * (2 * math.pi * turns)).norm() <= 1e-14 * turns


def test_near_pole_in_plane_square_at_level_8_is_exact(monkeypatch):
    # the pole of (z - 1.0000001)^-1 lies 1e-7 outside the square in
    # span(1, e1); summed on knots it ended unconverged after 14 refinements
    _no_knot_layouts(monkeypatch)
    res = line_integral(parse("(z-1.0000001)^-1", 8), _square(8))
    assert not np.any(res.value.coeffs)
    assert (res.est_error, res.refinements, res.converged) == (0.0, 0, True)


# ---------------------------------------------------------------------------
# Ln leaves off their plane: log_integral through the leaf's matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [2, 8])
def test_ln_leaf_just_off_its_plane_is_exact(r, monkeypatch):
    # the pole lies 1e-6 off the plane of the unit (1, e1) circle, over a
    # point inside it; a closed loop off the centre's plane gives 0 exactly,
    # where knot doubling ended unconverged at r = 2 and out of memory at r = 8
    _no_knot_layouts(monkeypatch)
    f = parse("(z-(0.3+0.1*e1+0.000001*e2))^-1", r)
    res = line_integral(f, Path.circle(zero(r), 1.0, basis_element(r, 1)))
    assert not np.any(res.value.coeffs)
    assert (res.est_error, res.refinements, res.converged) == (0.0, 0, True)


def test_off_plane_sandwich_is_the_log_integral_through_its_matrix(monkeypatch):
    _no_knot_layouts(monkeypatch)
    from cdfun.expressions import primitive

    r = 3
    rng = np.random.default_rng(28)
    a, b, c = random_element(r, rng), random_element(r, rng), random_element(r, rng) * 0.5
    f = parse(f"{_fmt(a)}*(z-{_fmt(c)})^-1*{_fmt(b)}", r)
    (leaf,) = primitive(f).leaves
    line = Path.polyline([random_element(r, rng) * 2.0 for _ in range(4)])
    arc = Path.circle(random_element(r, rng) * 0.3, 1.5, random_unit_imaginary(r, rng)).subpath(0.1, 0.7)
    for gamma in (line, arc):
        res = line_integral(f, gamma)
        log = log_integral(CDNumber(r, leaf.center), gamma)
        # the arc's closed form is log_integral's; the polyline sums its
        # segments, which carry no winding here
        want = log.coeffs @ leaf.matrix
        assert np.linalg.norm(res.value.coeffs - want) <= (0.0 if gamma is arc else 1e-14 * np.linalg.norm(want))
        assert (res.est_error, res.refinements, res.converged) == (0.0, 0, True)
        want = mul(mul(a, log), b)
        assert (res.value - want).norm() <= 1e-13 * want.norm()


def test_polyline_changing_plane_at_a_negative_real_corner_has_a_line_integral(monkeypatch):
    # log_integral has no continuation through the real corner -1, where the
    # plane turns from span(1, e2) to span(1, e3) with argument pi; each
    # segment lies in one plane through 0 and adds its own change of Ln
    _no_knot_layouts(monkeypatch)
    r = 2
    e2, e3 = basis_element(r, 2), basis_element(r, 3)
    gamma = Path.polyline([from_real(r, -1.0) + e2, from_real(r, -1.0), from_real(r, -1.0) + e3])
    with pytest.raises(StepControlError):
        log_integral(zero(r), gamma)
    res = line_integral(parse("z^-1", r), gamma)
    assert (res.value - (e2 - e3) * (math.pi / 4)).norm() <= 1e-15
    assert (res.refinements, res.converged) == (0, True)


def test_polyline_leaving_its_plane_after_a_turn_carries_no_winding():
    # a turn about 0 in span(1, e1), then a segment off that plane: the
    # increment sums take the principal angle at every knot, so the last
    # segment adds its principal change, where log_integral's continued
    # argument carries the turn onto the new direction
    r = 2
    one, e1, e2 = from_real(r, 1.0), basis_element(r, 1), basis_element(r, 2)
    gamma = Path.polyline([one + e1 * 0.1, e1, one * -1, e1 * -1, one - e1 * 0.1, one + e1 * 0.1 + e2])
    f = parse("z^-1", r)
    res = line_integral(f, gamma)
    riemann = integral_sum(f, gamma, Partition.uniform(1 << 16))
    assert (res.value - riemann).norm() <= 1e-3
    assert (log_integral(zero(r), gamma) - riemann).norm() > 1.0
    assert abs(res.value.coeffs[1] - 2 * math.pi) < 0.05


def test_parametric_ln_leaves_sum_on_knots():
    # a parametric circle of 1000 turns steps 8 - 3/16 turns per knot of
    # _doubled's first layout, and its sampled log_integral reads -24 turns;
    # the increment sums double their knots until they agree
    r = 1
    e1 = basis_element(r, 1)
    circle = Path.circle(zero(r), 1.0, e1, 1000)
    gamma = Path(level=circle.level, kind="parametric", sampler=circle.sample)
    assert (log_integral(zero(r), gamma) - e1 * (-48 * math.pi)).norm() <= 1e-6
    res = line_integral(parse("z^-1 + 3*z^2", r), gamma)
    assert res.converged and res.refinements > 0
    assert (res.value - e1 * (2000 * math.pi)).norm() <= 1e-9 * 2000 * math.pi


def test_mixed_phrase_adds_the_closed_form_to_the_ln_quadrature():
    r = 3
    e1 = basis_element(r, 1)
    circle = Path.circle(zero(r), 1.0, e1, 2)
    tol = 1e-9
    logs = line_integral(parse("e2*z^-1*e3", r), circle, tol=tol)
    mixed = line_integral(parse("e2*z^-1*e3 + e4*(z-1.0000001)^-2*e5", r), circle, tol=tol)
    assert (mixed.refinements, mixed.converged) == (logs.refinements, logs.converged)
    assert mixed.converged and mixed.est_error == logs.est_error
    want = mul(mul(basis_element(r, 2), e1), basis_element(r, 3)) * (4 * math.pi)
    assert (mixed.value - want).norm() <= 10 * tol
    with pytest.raises(DomainError):
        line_integral(parse("z^2", r), circle, tol=0.0)
