"""Path, partition, and line-integral tests.

Loop-integral oracles are analytic: the logarithmic loop integral around
the center is 2*pi*turns*direction, closed loops of polynomials vanish,
and open-path integrals of polynomials depend only on the endpoints.
"""

import math

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
from cdfun.errors import DomainError, LevelMismatchError, PoleError, StepControlError
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
    _quadrature_knots,
    stieltjes_integral,
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
    assert half.kind == "parametric"


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
    # circles get at least 8 knots per turn
    e1 = basis_element(2, 1)
    got = log_integral(zero(2), Path.circle(zero(2), 1.0, e1, turns))
    assert (got - e1 * (2 * math.pi * turns)).norm() <= 1e-9 * abs(turns)


def test_log_integral_refuses_turns_beyond_the_knot_cap():
    with pytest.raises(StepControlError):
        log_integral(zero(2), Path.circle(zero(2), 1.0, basis_element(2, 1), 1e7))


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
    knots = _quadrature_knots(gamma, 256 if gamma.kind != "polyline" else 4 * START_KNOTS)
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


def test_hundred_turn_circle_takes_the_bisection_path():
    m = basis_element(3, 5)
    circle = Path.circle(zero(3), 1.0, m, 100)
    singles = []

    def sample(ts):
        ts = np.asarray(ts, dtype=np.float64)
        if ts.size == 1:
            singles.append(float(ts[0]))
        return circle.sample(ts)

    gamma = Path(level=circle.level, kind="parametric", batch_sampler=sample)
    got = log_integral(zero(3), gamma)
    assert singles, "256 knots over 100 turns must bisect"
    assert (got - m * (200 * math.pi)).norm() < 1e-9
    assert (got - _log_integral_per_knot(zero(3), circle)).norm() <= _BATCH_TOL * 101


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


# ---------------------------------------------------------------------------
# stieltjes integrals
# ---------------------------------------------------------------------------

def test_stieltjes_with_identity_integrator_reduces():
    circ = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    a = stieltjes_integral(parse("z^-1", 2), parse("z", 2), circ)
    b = line_integral(parse("z^-1", 2), circ)
    assert np.array_equal(a.value.coeffs, b.value.coeffs)


def test_stieltjes_constant_f_closed_path_telescopes_to_zero():
    circ = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    res = stieltjes_integral(parse("1", 2), parse("z^3 - e2*z", 2), circ)
    assert res.value.norm() < 1e-10


def test_stieltjes_against_fine_direct_sum():
    # f = z^-1 against q = z^2 on the unit circle: reference is the raw
    # increment sum at 2^16 knots
    circ = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    f, q = parse("z^-1", 2), parse("z^2", 2)
    res = stieltjes_integral(f, q, circ, tol=1e-7)
    from cdfun.expressions import eval_node_arrays, hat_from_primitive, primitive

    knots = np.linspace(0.0, 1.0, (1 << 16) + 1)
    Z = circ.sample(knots)
    Q = eval_node_arrays(q.root, Z, 2)
    vals = hat_from_primitive(primitive(f), Z[1:], np.diff(Q, axis=0))
    ref = CDNumber(2, vals.sum(axis=0))
    assert (res.value - ref).norm() < 1e-3
    assert res.converged


def test_pole_centres_on_the_path_are_refused_before_sampling():
    e1 = basis_element(3, 1)
    circle = Path.circle(zero(3), 1.0, e1)
    # the corner-free square side x = 0.5 passes through 0.5 + 0.1 e1, between
    # any two uniform samples
    square = Path.polyline([from_real(3, 0.5) + e1 * s for s in (-0.5, 0.5)])
    for text, path in (("(z-1)^-2", circle), ("e2*(z-e1)^-1*e3", circle), ("(z-(0.5+0.1*e1))^-3", square)):
        with pytest.raises(PoleError, match="pole at"):
            line_integral(parse(text, 3), path)
    # off the path the integral runs: the knot-capped pole 1e-7 off the circle
    res = line_integral(parse("(z-1.0000001)^-2", 3), circle, max_knots=1024)
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
# the stacked extrapolation
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


def test_stacked_extrapolation_matches_single_row_runs_bitwise():
    calls = []

    def raw(n):
        calls.append(n)
        return _stacked_raw(n)

    stacked = _extrapolated(raw, as_level(2), 1e-9, 1 << 12)
    assert len(calls) == len(set(calls)) == 1 + max(res.refinements for res in stacked)
    for i, res in enumerate(stacked):
        (alone,) = _extrapolated(lambda n: _stacked_raw(n)[i : i + 1], as_level(2), 1e-9, 1 << 12)
        assert np.array_equal(res.value.coeffs, alone.value.coeffs)
        assert (res.est_error, res.refinements, res.converged) == (
            alone.est_error, alone.refinements, alone.converged)
    assert [res.converged for res in stacked] == [True, True, True, False]
    early = max(stacked[0].refinements, stacked[1].refinements)
    assert stacked[2].refinements > early
    assert stacked[3].refinements == 6  # 64 * 2^6 knots, the last layout under the cap
