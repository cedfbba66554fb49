"""Contour functionals: indices, residues, Cauchy formulas, coefficients, roots."""

import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cdfun.algebra import (
    CDNumber,
    basis_element,
    from_real,
    mul,
    mul_arrays,
    random_element,
    random_unit_imaginary,
    zero,
)
from cdfun.contour import (
    TWO_PI,
    _kernel_loop,
    ar_index,
    argument_principle,
    cauchy_derivative,
    cauchy_eval,
    coefficient_mode,
    find_root,
    is_central,
    laurent_coeffs,
    residue,
    residue_theorem_check,
    sum_residues_check,
    taylor_coeffs,
    winding_index,
)
from cdfun import contour, expressions
from cdfun.errors import (
    CDError,
    DomainError,
    LevelMismatchError,
    NonConvergenceError,
    PoleError,
    StepControlError,
    UnsupportedShapeError,
)
from cdfun.expressions import Const, Mul, Phrase, Sub, VarPow, derivative_apply, eval_node_arrays, evaluate, parse
from cdfun.integrate import Path, _on_arc, _plane_circle, _sampled_log
from paper_sums import reversed_path, subpath

E1 = basis_element(3, 1)
E2 = basis_element(3, 2)
E3 = basis_element(3, 3)
E5 = basis_element(3, 5)


def _vec(r, **comps):
    v = np.zeros(1 << r)
    for key, val in comps.items():
        v[int(key[1:])] = val
    return CDNumber(r, v)


# ---------------------------------------------------------------------------
# winding_index
# ---------------------------------------------------------------------------

def test_winding_two_turn_circle():
    iv = winding_index(zero(3), Path.circle(zero(3), 1.0, E1, 2.0))
    assert iv.per_plane[1] == 2
    # off-plane projections collapse onto segments through the origin
    assert iv.undefined == frozenset(range(2, 8))


def test_winding_many_turn_circle():
    # 1024 turns on the 1024-knot start layout put every knot on one point
    iv = winding_index(zero(2), Path.circle(zero(2), 1.0, basis_element(2, 1), 1024))
    assert iv.per_plane == {1: 1024}


def test_winding_refuses_turns_beyond_the_sampling_cap():
    # a circle's entry is closed form, so 1e7 turns count exactly
    e1 = basis_element(2, 1)
    assert winding_index(zero(2), Path.circle(zero(2), 1.0, e1, 1e7)).per_plane == {1: 10**7}


_CAPPED_AT_LEVEL_8 = """
import math, resource
import numpy as np
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cdfun.algebra import basis_element, zero
from cdfun.errors import StepControlError
from cdfun.integrate import _plane_circle, _sampled_log
e1 = basis_element(8, 1)
chirp = lambda ts: _plane_circle(np.zeros(256), e1.coeffs, 1.0, 2 * math.pi * 1e7 * ts * ts)
try:
    _sampled_log(zero(8).coeffs, chirp)
except StepControlError:
    print("sampled continuation capped")
"""


def test_parametric_path_at_level_8_runs_to_the_cap_in_bounded_memory():
    # a chirp winding 1e7 times doubles to the largest layout of (knots, 256)
    # arrays, which must fit with everything else in 1 GiB of address space
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(contour.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _CAPPED_AT_LEVEL_8], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n") == ["sampled continuation capped", ""]


def test_winding_non_enclosing_all_zero():
    center = from_real(3, 2.0)
    iv = winding_index(zero(3), Path.circle(center, 1.0, E1, 1.0))
    assert iv.undefined == frozenset()
    assert all(iv.per_plane[s] == 0 for s in range(1, 8))


def test_winding_off_center_point_inside():
    a = _vec(3, e0=0.2, e1=0.3)
    iv = winding_index(a, Path.circle(zero(3), 1.0, E1, 1.0))
    assert iv.per_plane[1] == 1


def test_winding_square_polyline():
    pts = [_vec(2, e0=s * 0.8, e2=t * 0.8) for s, t in
           [(1, 1), (-1, 1), (-1, -1), (1, -1), (1, 1)]]
    iv = winding_index(zero(2), Path.polyline(pts))
    assert iv.per_plane[2] == 1
    # the e1-plane projection collapses to a segment through the origin
    assert 1 in iv.undefined


def test_winding_reversed_circle_negative():
    iv = winding_index(zero(2), Path.circle(zero(2), 1.0, basis_element(2, 2), -1.0))
    assert iv.per_plane[2] == -1


def test_winding_undefined_entry_raises():
    iv = winding_index(zero(3), Path.circle(zero(3), 1.0, E1, 1.0))
    assert 2 in iv.undefined
    with pytest.raises(KeyError):
        iv.per_plane[2]


def test_winding_json_shape():
    iv = winding_index(zero(2), Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0))
    js = iv.to_json()
    assert js["e1"] == 1 and set(js["undefined"]) == {"e2", "e3"}


def _winding_per_plane(a, gamma, n):
    """Reference: one projected plane at a time, at a fixed knot count."""
    from cdfun.contour import _segment_distance

    knots = np.concatenate([[0.0], (np.arange(n) + 0.5) / n, [1.0]])  # midpoints and both ends
    if gamma.kind == "polyline":  # the corners are knots too
        knots = np.union1d(knots, gamma._polyline[3])
    Z = gamma.sample(knots)
    scale = 1.0 + a.norm() + float(np.max(np.linalg.norm(Z, axis=1)))
    per_plane, undefined, widest = {}, set(), 0.0
    for s in range(1, a.level.basis_dim):
        x = Z[:, 0] - a.coeffs[0]
        y = Z[:, s] - a.coeffs[s]
        if float(_segment_distance(x, y)) <= 1e-9 * scale:
            undefined.add(s)
            continue
        ang = np.unwrap(np.arctan2(y, x))
        widest = max(widest, float(np.abs(np.diff(ang)).max()))
        per_plane[s] = int(round((ang[-1] - ang[0]) / (2 * math.pi)))
    return per_plane, frozenset(undefined), widest


@pytest.mark.parametrize("r", [2, 3, 4])
def test_winding_all_planes_at_once_matches_per_plane_loop(r):
    rng = np.random.default_rng(60 + r)
    m = random_unit_imaginary(r, rng)
    e1 = basis_element(r, 1)
    square = Path.polyline([_vec(r, e0=s, e1=t) for s, t in [(1, 1), (-1, 1), (-1, -1), (1, -1), (1, 1)]])
    cases = [
        (zero(r), Path.circle(zero(r), 1.0, m, 3.0)),
        (_vec(r, e0=0.2, e1=0.3), Path.circle(zero(r), 1.0, e1, -2.0)),
        (from_real(r, 0.5) + m * 0.1, Path.circle(from_real(r, 0.4), 1.0, m, 1.0)),
        (zero(r), square),
        (from_real(r, 4.0), square),
    ]
    for a, gamma in cases:
        got = winding_index(a, gamma)
        n = 1024
        while True:
            per_plane, undefined, widest = _winding_per_plane(a, gamma, n)
            if widest < math.pi / 2:
                break
            n *= 2
        assert got.per_plane == per_plane and got.undefined == undefined


def _sampled_reference(a, gamma, n=1024):
    """The per-plane reference, doubling until no step turns more than pi/2."""
    while True:
        per_plane, undefined, widest = _winding_per_plane(a, gamma, n)
        if widest < math.pi / 2:
            return per_plane, undefined
        n *= 2


def _direction(r, rng, kind):
    """A unit imaginary direction: random, a basis unit, or a basis unit
    tilted by 1e-6 into a second one, whose plane then sees a thin ellipse."""
    if kind == "random" or r == 1:
        return random_unit_imaginary(r, rng)
    s, t = rng.choice(np.arange(1, 1 << r), 2, replace=False)
    m = np.zeros(1 << r)
    m[s] = 1.0
    if kind == "thin":
        m[t] = float(rng.choice([-1e-6, 1e-6]))
        m /= np.linalg.norm(m)
    return CDNumber(r, m)


def _winding_case(r, rng, shape, where):
    """A point and a circle, arc or polyline of level r, the point inside,
    outside, or 1e-7 from the curve as projected to one plane (near)."""
    d = 1 << r
    if shape in ("polyline", "open polyline"):
        pts = [CDNumber(r, rng.uniform(-1.0, 1.0, d)) for _ in range(int(rng.integers(3, 7)))]
        gamma = Path.polyline(pts + pts[:1] if shape == "polyline" else pts)
        a = rng.uniform(-1.2, 1.2, d)
        if where == "near":
            corners = gamma._polyline[0]
            i, s = int(rng.integers(0, len(corners) - 1)), int(rng.integers(1, d))
            foot = corners[i] + rng.uniform(0.0, 1.0) * (corners[i + 1] - corners[i])
            dx, dy = corners[i + 1, 0] - corners[i, 0], corners[i + 1, s] - corners[i, s]
            a[0], a[s] = foot[0] + 1e-7 * dy / math.hypot(dx, dy), foot[s] - 1e-7 * dx / math.hypot(dx, dy)
        return CDNumber(r, a), gamma
    m = _direction(r, rng, rng.choice(["random", "basis", "thin"]))
    center, rho = rng.uniform(-0.5, 0.5, d), float(rng.uniform(0.5, 1.5))
    circle = Path.circle(CDNumber(r, center), rho, m, float(rng.choice([1, 2, 3, -1, -2])))
    if shape == "arc":
        gamma = Path.circle(CDNumber(r, center), rho, m, float(rng.uniform(0.3, 3.7) * rng.choice([-1, 1])))
    elif shape == "subpath":
        gamma = subpath(circle, *rng.uniform(0.0, 1.0, 2))
    elif shape == "reversed":
        gamma = reversed_path(subpath(circle, 0.15, float(rng.uniform(0.3, 0.9))))
    else:
        gamma = circle
    scale = {"inside": 0.3, "outside": 3.0, "near": 1.0}[where]
    a = center + rng.uniform(-scale, scale, d) * rho
    if where == "near":
        s = int(rng.integers(1, d))
        phi = TWO_PI * (gamma.start + gamma.turns * rng.uniform(0.0, 1.0))
        ms = float(m.coeffs[s])
        normal = np.array([ms * math.cos(phi), math.sin(phi)]) / math.hypot(ms * math.cos(phi), math.sin(phi))
        off = float(rng.choice([-1e-7, 1e-7])) * normal
        a[0] = center[0] + rho * math.cos(phi) + off[0]
        a[s] = center[s] + rho * ms * math.sin(phi) + off[1]
    return CDNumber(r, a), gamma


_SHAPES = ["closed", "arc", "subpath", "reversed", "polyline", "open polyline"]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 8])
def test_closed_form_winding_matches_the_sampled_reference(r):
    rng = np.random.default_rng(240 + r)
    cases = [(shape, where) for shape in _SHAPES for where in ("inside", "outside", "near")]
    if r == 8:
        cases = cases[::4]
    for shape, where in cases:
        a, gamma = _winding_case(r, rng, shape, where)
        got = winding_index(a, gamma)
        if where == "near":
            # 2^16 knots keep every chord within 2e-8 of the projected curve,
            # which is convex (or straight), so a point 1e-7 off it lies on the
            # same side of the chords as of the curve, and no chord turns pi
            per_plane, undefined, _ = _winding_per_plane(a, gamma, 1 << 16)
        else:
            per_plane, undefined = _sampled_reference(a, gamma)
        assert (got.per_plane, got.undefined) == (per_plane, undefined), (shape, where)


def test_winding_undefined_band_uses_the_exact_distance_to_a_thin_ellipse():
    # plane e2 sees an ellipse of semi-axes 1 and 1e-6; tau is about 3e-9
    m = CDNumber(2, [0.0, 1.0, 1e-6, 0.0])
    m = m * (1.0 / m.norm())
    for start, turns in ((0.0, 1.0), (0.0, -2.0), (0.9, 0.2), (0.2, -0.4)):
        circle = Path.circle(zero(2), 1.0, m, turns)
        gamma = replace(circle, start=start)
        for phi in (0.0, 1e-4, 0.5, math.pi - 2e-4):
            if not _on_arc(gamma, phi):
                continue
            x, y = math.cos(phi), float(m.coeffs[2]) * math.sin(phi)
            nx, ny = float(m.coeffs[2]) * math.cos(phi), math.sin(phi)
            for off, undefined in ((1e-9, True), (-1e-9, True), (1e-8, False), (-1e-8, False)):
                # along the normal; inward near the tip the far side is closer
                if off < 0 and phi in (0.0, 1e-4):
                    continue
                k = off / math.hypot(nx, ny)
                a = CDNumber(2, [x + k * nx, 0.0, y + k * ny, 0.0])
                assert (2 in winding_index(a, gamma).undefined) is undefined, (start, turns, phi, off)
    # -1 lies on every plane's projection of the whole circle, at phase pi,
    # and a whole radius from that of the quarter arc from phase 0
    a = from_real(2, -1.0)
    assert winding_index(a, Path.circle(zero(2), 1.0, m, 1.0)).undefined == frozenset({1, 2, 3})
    assert winding_index(a, Path.circle(zero(2), 1.0, m, 0.25)).undefined == frozenset()


def test_circles_and_polylines_are_wound_without_sampling(monkeypatch):
    def no_sampling(self, ts):
        raise AssertionError("the path was sampled")

    monkeypatch.setattr(Path, "sample", no_sampling)
    m = random_unit_imaginary(3, np.random.default_rng(7))
    circle = Path.circle(zero(3), 1.0, m, 2.0)
    square = Path.polyline([_vec(3, e0=s, e1=t) for s, t in [(1, 1), (-1, 1), (-1, -1), (1, -1), (1, 1)]])
    for gamma in (circle, subpath(circle, 0.1, 0.7), reversed_path(circle), square):
        winding_index(_vec(3, e0=0.1, e2=0.05), gamma)


def test_winding_of_a_circle_of_1e300_turns_is_an_integer():
    iv = winding_index(zero(2), Path.circle(zero(2), 1.0, basis_element(2, 1), 1e300))
    assert iv.per_plane == {1: int(1e300)}
    assert iv.to_json()["e1"] == int(1e300)


def test_near_curve_index_at_level_8_stays_in_bounded_memory():
    # 1e-6 outside the unit (1, e1) circle: sampling this plane would need
    # millions of knots, and (2^18, 255) arrays ran out of memory
    a = basis_element(8, 1) * (1.0 + 1e-6)
    gamma = Path.circle(zero(8), 1.0, basis_element(8, 1), 1.0)
    tracemalloc.start()
    try:
        iv = winding_index(a, gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert iv.per_plane == {1: 0}
    assert iv.undefined == frozenset(range(2, 256))


def test_winding_level_mismatch():
    with pytest.raises(LevelMismatchError):
        winding_index(zero(2), Path.circle(zero(3), 1.0, E1, 1.0))


# ---------------------------------------------------------------------------
# ar_index
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [-2, 1, 3])
@pytest.mark.parametrize("rho", [0.5, 2.0])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_ar_index_circle_values(n, rho, r):
    rng = np.random.default_rng(1000 + 10 * n + r)
    for _ in range(2):
        m = random_unit_imaginary(r, rng)
        idx = ar_index(zero(r), Path.circle(zero(r), rho, m, float(n)))
        assert (idx - m * float(n)).norm() <= 1e-5


def test_ar_index_not_enclosing_vanishes():
    g = Path.circle(from_real(3, 3.0), 1.0, E2, 1.0)
    assert ar_index(zero(3), g).norm() <= 1e-8


def test_ar_index_shifted_center():
    a = _vec(3, e0=-0.2, e2=0.4)
    idx = ar_index(a, Path.circle(a, 0.7, E5, 1.0))
    assert (idx - E5).norm() <= 1e-7


# ---------------------------------------------------------------------------
# residue
# ---------------------------------------------------------------------------

def test_residue_sandwich_oracle():
    p = _vec(3, e0=0.3, e1=0.2)
    f = parse("e2*((z - (0.3+0.2*e1))^-1)*e3", 3)
    rng = np.random.default_rng(7)
    for _ in range(4):
        m = random_unit_imaginary(3, rng)
        got = residue(f, p, m, 0.4)
        assert (got - mul(mul(E2, m), E3)).norm() <= 1e-8


def test_residue_polynomial_zero():
    assert residue(parse("z^3 - 2*z", 3), zero(3), E1, 1.0).norm() <= 1e-9


def test_residue_second_order_pole_zero():
    f = parse("((z - 0.2)^-2)", 3)
    assert residue(f, from_real(3, 0.2), E2, 0.5).norm() <= 1e-8


def test_residue_radius_independence():
    p = _vec(3, e1=0.1)
    f = parse("e5*((z - (0.1*e1))^-1) + z^2", 3)
    a = residue(f, p, E2, 0.3, 1e-7)
    b = residue(f, p, E2, 1.7, 1e-7)
    assert (a - b).norm() <= 2e-7


def test_residue_direction_additivity():
    # res(p, f) is R-linear in the direction probe
    p = from_real(2, 0.1)
    f = parse("e2*((z - 0.1)^-1)*e3 + 1", 2)
    m1 = basis_element(2, 1)
    m2 = basis_element(2, 3)
    comb = (m1 + m2) * (1.0 / math.sqrt(2.0))
    lhs = residue(f, p, comb, 0.5) * math.sqrt(2.0)
    rhs = residue(f, p, m1, 0.5) + residue(f, p, m2, 0.5)
    assert (lhs - rhs).norm() <= 1e-5


def test_residue_rejects_non_unit_direction():
    with pytest.raises(DomainError):
        residue(parse("z^-1", 2), zero(2), from_real(2, 1.0), 0.5)


# ---------------------------------------------------------------------------
# cauchy_eval
# ---------------------------------------------------------------------------

def test_cauchy_eval_octonion_point():
    z0 = _vec(3, e1=0.3, e5=0.2)
    psi = Path.circle(zero(3), 1.0, E1, 1.0)
    f = parse("z^2", 3)
    got = cauchy_eval(f, z0, psi, 1e-6)
    want = mul(evaluate(f, z0), E1)
    assert (got - want).norm() <= 1e-6 * (1.0 + want.norm())


def test_cauchy_eval_recovery_r3():
    rng = np.random.default_rng(21)
    f = parse("z^3 - 2*z + 1", 3)
    psi = Path.circle(zero(3), 1.5, E2, 1.0)
    for _ in range(3):
        z0 = CDNumber(3, rng.normal(scale=0.25, size=8))
        got = mul(cauchy_eval(f, z0, psi, 1e-6), E2.conj())
        assert (got - evaluate(f, z0)).norm() <= 1e-5 * (1.0 + evaluate(f, z0).norm())


def test_cauchy_eval_noncentral_phrase():
    f = parse("e2*z^2*e3 + e1*z", 3)
    z0 = _vec(3, e0=0.1, e2=0.25, e4=0.15)
    psi = Path.circle(zero(3), 1.0, E5, 1.0)
    got = cauchy_eval(f, z0, psi, 1e-6)
    want = mul(evaluate(f, z0), E5)
    assert (got - want).norm() <= 1e-6 * (1.0 + want.norm())


def test_cauchy_eval_sedenion_central():
    r = 4
    m = basis_element(r, 9)
    z0 = CDNumber(r, np.r_[0.05, 0.2, np.zeros(13), 0.1])
    f = parse("z^2 + z", r)
    got = cauchy_eval(f, z0, Path.circle(zero(r), 1.0, m, 1.0), 1e-6)
    want = mul(evaluate(f, z0), m)
    assert (got - want).norm() <= 1e-5


def test_cauchy_eval_off_center_contour():
    f = parse("z^2", 2)
    e1q = basis_element(2, 1)
    psi = Path.circle(from_real(2, 0.3), 1.0, e1q, 1.0)
    z0 = _vec(2, e0=0.5, e1=-0.2)
    got = cauchy_eval(f, z0, psi, 1e-7)
    assert (got - mul(evaluate(f, z0), e1q)).norm() <= 1e-6


def test_cauchy_eval_outside_rejected():
    psi = Path.circle(zero(3), 0.5, E1, 1.0)
    with pytest.raises(DomainError):
        cauchy_eval(parse("z", 3), from_real(3, 0.9), psi)


def test_cauchy_eval_too_close_rejected():
    psi = Path.circle(zero(3), 1.0, E1, 1.0)
    z0 = _vec(3, e1=1.0 - 1e-9)
    with pytest.raises(DomainError):
        cauchy_eval(parse("z", 3), z0, psi)


def test_cauchy_eval_requires_circle():
    pts = [from_real(2, -1.0), from_real(2, 1.0), _vec(2, e1=1.0), from_real(2, -1.0)]
    with pytest.raises(UnsupportedShapeError):
        cauchy_eval(parse("z", 2), zero(2), Path.polyline(pts))


def test_cauchy_eval_requires_single_turn():
    psi = Path.circle(zero(2), 1.0, basis_element(2, 1), 2.0)
    with pytest.raises(DomainError):
        cauchy_eval(parse("z", 2), zero(2), psi)


# ---------------------------------------------------------------------------
# cauchy_derivative
# ---------------------------------------------------------------------------

def test_derivative_real_point():
    psi = Path.circle(zero(3), 1.0, E1, 1.0)
    z0 = from_real(3, 0.25)
    got = cauchy_derivative(parse("z^2", 3), z0, 1, psi, 1e-7)
    assert (got - mul(z0 * 2.0, E1)).norm() <= 1e-6


def test_derivative_in_plane_points():
    psi = Path.circle(zero(3), 1.2, E1, 1.0)
    z0 = _vec(3, e0=0.3, e1=0.4)
    d1 = cauchy_derivative(parse("z^2", 3), z0, 1, psi, 1e-7)
    assert (d1 - mul(z0 * 2.0, E1)).norm() <= 1e-6
    d2 = cauchy_derivative(parse("z^3", 3), z0, 2, psi, 1e-7)
    assert (d2 - mul(z0 * 6.0, E1)).norm() <= 1e-5


def test_derivative_order_exceeding_degree_vanishes():
    psi = Path.circle(zero(3), 1.0, E2, 1.0)
    got = cauchy_derivative(parse("z^2", 3), from_real(3, 0.1), 3, psi, 1e-7)
    assert got.norm() <= 1e-6


def test_derivative_nonconvergence_best_carries_the_factorial():
    # a pole just outside the larger of the two small circles about z keeps
    # them from converging; best is the smaller one's value, scaled as the
    # derivative is: k!/(2*pi), not 1/(2*pi)
    r = 2
    p = 0.2 + 0.06 * (1 + 1e-9)
    psi = Path.circle(zero(r), 1.0, basis_element(r, 1), 1.0)
    with pytest.raises(NonConvergenceError) as info:
        cauchy_derivative(parse(f"(z-{p!r})^-1", r), from_real(r, 0.2), 3, psi)
    want = basis_element(r, 1) * (-6.0 * (0.2 - p) ** -4)
    assert (info.value.best - want).norm() <= 1e-6 * want.norm()


def test_derivative_radius_independent():
    z0 = _vec(2, e0=0.1, e1=0.2)
    f = parse("z^3 + z", 2)
    e1q = basis_element(2, 1)
    a = cauchy_derivative(f, z0, 1, Path.circle(zero(2), 1.0, e1q, 1.0), 1e-7)
    b = cauchy_derivative(f, z0, 1, Path.circle(zero(2), 2.5, e1q, 1.0), 1e-7)
    assert (a - b).norm() <= 2e-6


@pytest.mark.parametrize("r", [1, 8])
@pytest.mark.parametrize("k", [20, 40, 59])
def test_derivative_far_from_its_contour_vanishes_past_the_degree(r, k):
    # 50 from the contour, the extrapolation over two circles of radius 5.05
    # and 2.525 read 6.3 + 5.0*e1 at k = 20 and 8.6e47 at k = 59, with no
    # error; z^3 is a polynomial about z in the contour plane, so one circle
    # of radius 25 takes it exactly
    psi = Path.circle(from_real(r, 100.0), 50.0, basis_element(r, 1), 1.0)
    assert cauchy_derivative(parse("z^3", r), from_real(r, 100.0), k, psi).norm() <= 1e-9


@pytest.mark.parametrize("r", [1, 8])
@pytest.mark.parametrize("expr, radius, k, want", [
    ("z^3", 1e6, 0, 0.0), ("z^3", 1e6, 1, 0.0), ("z^3", 1e6, 3, 6.0),
    ("z^20", 10.0, 1, 0.0), ("z^60*z^60", 1e3, 2, 0.0),
])
def test_orders_up_to_the_degree_keep_the_small_circle(r, expr, radius, k, want):
    # on a circle of half the distance to the contour, rho^(D - k) * max|f|
    # rounds far past tol when k <= D: z^3 on a radius-5e5 circle doubled to
    # its knot cap, and z^120 on a radius-500 one overflowed
    m = basis_element(r, 1)
    psi = Path.circle(zero(r), radius, m, 1.0)
    f = parse(expr, r)
    got = cauchy_eval(f, zero(r), psi) if k == 0 else cauchy_derivative(f, zero(r), k, psi)
    assert (got - m * want).norm() <= 1e-9


def test_derivative_rejects_nonpositive_order():
    psi = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    with pytest.raises(DomainError):
        cauchy_derivative(parse("z", 2), zero(2), 0, psi)


def test_derivative_order_whose_factorial_overflows_is_a_domain_error():
    # 171! exceeds the largest double, and scaling by k! raised OverflowError
    psi = Path.circle(from_real(1, 100.0), 50.0, basis_element(1, 1), 1.0)
    for k in (171, 200):
        with pytest.raises(DomainError, match="overflows"):
            cauchy_derivative(parse("z", 1), from_real(1, 100.0), k, psi)


# ---------------------------------------------------------------------------
# taylor / laurent coefficients
# ---------------------------------------------------------------------------

def test_taylor_monomial():
    psi = Path.circle(zero(3), 1.0, E1, 1.0)
    cs = taylor_coeffs(parse("z^2", 3), zero(3), 4, psi, 1e-8)
    for k, c in enumerate(cs):
        want = 1.0 if k == 2 else 0.0
        assert (c - from_real(3, want)).norm() <= 1e-7


def test_taylor_shifted_cubic():
    # expand 1 + 2z - z^3/2 about a = 0.2 by hand
    a = 0.2
    shifted = [1 + 2 * a - 0.5 * a**3, 2 - 1.5 * a**2, -1.5 * a, -0.5, 0.0]
    f = parse("1 + 2*z - (0.5)*z^3", 3)
    psi = Path.circle(from_real(3, a), 1.0, E2, 1.0)
    cs = taylor_coeffs(f, from_real(3, a), 5, psi, 1e-8)
    for c, want in zip(cs, shifted):
        assert (c - from_real(3, want)).norm() <= 1e-7


def test_taylor_left_constant_recovery():
    # e1*z^2 at level 2: the conj(M) recovery returns the left coefficient
    e1q = basis_element(2, 1)
    psi = Path.circle(zero(2), 1.0, e1q, 1.0)
    cs = taylor_coeffs(parse("e1*z^2", 2), zero(2), 3, psi, 1e-8)
    assert (cs[2] - e1q).norm() <= 1e-7
    assert cs[0].norm() <= 1e-8 and cs[1].norm() <= 1e-8


def test_taylor_center_must_match_contour():
    psi = Path.circle(from_real(3, 0.5), 1.0, E1, 1.0)
    with pytest.raises(DomainError):
        taylor_coeffs(parse("z", 3), zero(3), 2, psi)


def test_taylor_count_positive():
    psi = Path.circle(zero(3), 1.0, E1, 1.0)
    with pytest.raises(DomainError):
        taylor_coeffs(parse("z", 3), zero(3), 0, psi)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_taylor_failures_come_in_coefficient_order_and_an_overflowing_kernel_is_typed():
    psi = Path.circle(zero(1), 1e-30, basis_element(1, 1), 1.0)
    # rho^-12 overflows a double; for z^2 the k = 3 sum drowns in rounding
    # first, and that failure is the one reported
    with pytest.raises(NonConvergenceError, match="coefficient k=3 did not converge"):
        taylor_coeffs(parse("z^2", 1), zero(1), 12, psi)
    with pytest.raises(DomainError, match="kernel power -12 overflows"):
        taylor_coeffs(parse("0", 1), zero(1), 12, psi)


def test_coefficient_mode_detection():
    assert is_central(parse("z^2 - 1.5*z + 2", 4))
    assert not is_central(parse("e2*z^2", 4))
    assert coefficient_mode(parse("e2*z^2", 3)) == "value"
    assert coefficient_mode(parse("e2*z^2", 4)) == "functional"
    assert coefficient_mode(parse("z^2 - 1", 4)) == "value"


def test_laurent_pole_and_polynomial():
    a = from_real(3, 0.1)
    f = parse("3*((z - 0.1)^-2) + z", 3)
    cs = laurent_coeffs(f, a, -3, 2, 0.5, 2.0, 1e-8)
    want = {-3: 0.0, -2: 3.0, -1: 0.0, 0: 0.1, 1: 1.0, 2: 0.0}
    for c, k in zip(cs, range(-3, 3)):
        assert (c - from_real(3, want[k])).norm() <= 1e-7


def test_laurent_matches_residue_for_left_word():
    # left-multiplied simple pole: c_{-1}*M is the residue functional
    # value, and the recovery returns the left factor
    a = from_real(3, 0.1)
    f = parse("e5*((z - 0.1)^-1) + z^2", 3)
    cs = laurent_coeffs(f, a, -1, 0, 0.5, 2.0, 1e-8)
    res = residue(f, a, E1, 0.7, 1e-8)
    assert (mul(cs[0], E1) - res).norm() <= 1e-7
    assert (cs[0] - E5).norm() <= 1e-7


def test_laurent_polynomial_negative_coeffs_vanish():
    cs = laurent_coeffs(parse("z^3 - 2", 2), zero(2), -3, -1, 0.3, 1.5, 1e-8)
    assert all(c.norm() <= 1e-7 for c in cs)


def test_laurent_taylor_agree_on_holomorphic():
    f = parse("z^3 + 0.5*z - 2", 3)
    a = from_real(3, -0.2)
    psi = Path.circle(a, math.sqrt(0.5 * 2.0), E1, 1.0)
    ts = taylor_coeffs(f, a, 4, psi, 1e-8)
    ls = laurent_coeffs(f, a, 0, 3, 0.5, 2.0, 1e-8)
    for t, l in zip(ts, ls):
        assert (t - l).norm() <= 1e-7


def test_laurent_detects_pole_in_annulus():
    a = from_real(3, 0.1)
    for offset in (0.7, 1.0, 1.3):
        f = parse(f"((z - (0.1 + {offset}*e1))^-1)", 3)
        with pytest.raises(PoleError):
            laurent_coeffs(f, a, -1, 0, 0.5, 2.0, 1e-8)


@pytest.mark.parametrize("r", [2, 8])
def test_laurent_coefficients_at_large_k_stop_at_the_rounding_floor(r):
    # z^-2 + z is exact on every layout, but rho^60 scales the k = -60 kernel
    # on the outer circle (rho = 1.68) to 3.5e13, so the sums round far above
    # an absolute tol; that circle stops at its rounding floor
    t0 = time.perf_counter()
    cs = laurent_coeffs(parse("z^-2+z", r), zero(r), -60, 59, 0.5, 2.0)
    elapsed = time.perf_counter() - t0
    assert len(cs) == 120
    for k, c in zip(range(-60, 60), cs):
        want = 1.0 if k in (-2, 1) else 0.0
        assert (c - from_real(r, want)).norm() <= 1e-12, k
    assert elapsed < 10.0
    # one layout doubling at each outer radius; the powers past tol stop at
    # their floors and report them, the others keep their own estimates
    m = basis_element(r, 1)
    for rho in (0.5 * 4**0.125, 0.5 * 4**0.875):
        powers = range(-60, 60)
        results = list(_kernel_loop(parse("z^-2+z", r), zero(r), m, [(rho, True)], powers, 1e-6))
        assert {res.refinements for res in results} == {1}
        assert all(res.converged != res.at_floor for res in results)
        assert any(res.at_floor for res in results)
        assert all(res.est_error < 1e-6 for res in results if res.converged)
        plain = list(_kernel_loop(parse("z^-2+z", r), zero(r), m, [(rho, False)], powers[:5], 1e-6))
        assert not any(res.at_floor for res in plain)


def test_small_circle_coefficients_need_no_rounding_floor():
    # rho^-k is 1e7 at k = 7 on the radius-0.1 circle, so n*eps*2*pi*rho^-k*|f|
    # passes tol, yet the sums themselves agree to within tol
    e1 = basis_element(2, 1)
    cs = taylor_coeffs(parse("z^2+10", 2), zero(2), 8, Path.circle(zero(2), 0.1, e1, 1.0), 1e-6)
    for k, c in enumerate(cs):
        assert (c - from_real(2, {0: 10.0, 2: 1.0}.get(k, 0.0))).norm() <= 1e-6, k
    # the fifth derivative is past the degree 2, so it takes one circle of
    # half the distance to the contour, where rho^-5 = 32
    d5 = cauchy_derivative(parse("z^2+10", 2), zero(2), 5, Path.circle(zero(2), 1.0, e1, 1.0))
    assert d5.norm() <= 1e-4


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("r", [1, 8])
def test_laurent_on_an_annulus_whose_radii_multiply_below_the_doubles(r):
    # 1e-300 * 4e-300 underflows to 0, so a middle radius taken from the
    # product was 0 and its scales 0.0 ** -k a ZeroDivisionError; rho^-k
    # overflows on these radii, and the failure must be a CDError
    with pytest.raises(CDError):
        laurent_coeffs(parse("z^2+z^-2", r), zero(r), -3, 3, 1e-300, 4e-300)


def test_laurent_validates_inputs():
    with pytest.raises(DomainError):
        laurent_coeffs(parse("z", 2), zero(2), 1, 0, 0.5, 2.0)
    with pytest.raises(DomainError):
        laurent_coeffs(parse("z", 2), zero(2), -1, 1, 2.0, 0.5)


# ---------------------------------------------------------------------------
# the shared kernel loop
# ---------------------------------------------------------------------------

def _per_power_kernel_loop(f, center, m, rho, power, tol, max_knots=1 << 18):
    """Reference: one loop per power by the periodic midpoint rule and plain
    knot doubling, each knot multiplied by its weight K'(theta_j)*2*pi/n as
    a full batch-by-batch product.  Returns (value, refinements, converged)."""
    r = f.level.r
    mv, cv = m.coeffs, center.coeffs

    def raw(n):
        ang = TWO_PI * ((np.arange(n) + 0.5) / n)
        F = eval_node_arrays(f.root, _plane_circle(cv, mv, rho, ang), r)
        q = power + 1
        W = mul_arrays(_plane_circle(np.zeros_like(cv), mv, 1.0, q * ang), mv, r) * (rho**q * TWO_PI / n)
        return mul_arrays(F, W, r).sum(axis=0)

    n, refinements, value = 64, 0, raw(64)
    while True:
        n, refinements = 2 * n, refinements + 1
        prev, value = value, raw(n)
        est = np.linalg.norm(value - prev)
        if est < tol or 2 * n > max_knots:
            return CDNumber(f.level, value), refinements, bool(est < tol)


@pytest.mark.parametrize("r", range(2, 9))
@pytest.mark.parametrize("off_plane", [False, True])
def test_shared_kernel_loop_matches_per_power_loops(r, off_plane):
    # in the plane of e1; off it, about a direction with three components
    m = _vec(r, e1=1.0, e2=1.0, e3=-1.0) * (1.0 / math.sqrt(3.0)) if off_plane else basis_element(r, 1)
    center = from_real(r, 0.2) + m * -0.1 + (_vec(r, e3=0.3) if off_plane else zero(r))
    f = parse("e2*z*e3 + (z - 2)^-1 + 0.5", r)
    powers = list(range(-6, 3))
    got = list(_kernel_loop(f, center, m, [(0.7, False)], powers, 1e-6))
    assert len(got) == len(powers)
    refs = [_per_power_kernel_loop(f, center, m, 0.7, power, 1e-6) for power in powers]
    assert {res.refinements for res in got} == {max(ref[1] for ref in refs)}
    for res, (value, _, converged) in zip(got, refs):
        assert res.converged == converged
        assert (res.value - value).norm() <= 1e-12 * (1.0 + value.norm())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_loop_estimate_does_not_overflow_on_finite_sums():
    # k = 8 of a Taylor expansion of z^2 on a circle of radius 1e-30: the
    # sums reach 2.9e164, whose squared differences overflow
    (res,) = _kernel_loop(parse("z^2", 1), zero(1), basis_element(1, 1), [(1e-30, False)], [-9], 1e-6)
    assert np.all(np.isfinite(res.value.coeffs)) and np.abs(res.value.coeffs).max() > 1e164
    assert math.isfinite(res.est_error) and not res.converged


def _count_evaluations(monkeypatch) -> list:
    """Record the knot count of every integrand evaluation of the kernel
    loop, on either route: the table products or the complex plane."""
    rows = []

    def table(node, Z, r):
        rows.append(len(Z))
        return eval_node_arrays(node, Z, r)

    def plane(root, w, consts, slopes=False):
        rows.append(len(w))
        return expressions._eval_plane(root, w, consts, slopes)

    monkeypatch.setattr(contour, "eval_node_arrays", table)
    monkeypatch.setattr(contour, "_eval_plane", plane)
    return rows


def test_taylor_evaluates_the_integrand_once_per_knot_layout(monkeypatch):
    f = parse("e2*z^3 + z", 3)
    psi = Path.circle(zero(3), 1.0, E1, 1.0)
    layouts = 1 + max(res.refinements for res in _kernel_loop(f, zero(3), E1, [(1.0, False)], range(-12, 0), 1e-6))
    calls = _count_evaluations(monkeypatch)
    taylor_coeffs(f, zero(3), 12, psi)
    assert len(calls) == layouts < 12


def test_kernel_loop_of_a_polynomial_takes_one_layout_sized_by_its_degree(monkeypatch):
    # e2*z^3 + z has degree 3 about 0 and the kernels of k = 0..11 degree at
    # most 11, so 16 knots integrate every power exactly on both circles
    rows = _count_evaluations(monkeypatch)
    results = list(_kernel_loop(parse("e2*z^3 + z", 3), zero(3), E1, [(1.0, False), (0.5, False)], range(-12, 0), 1e-6))
    assert rows == [2 * 16]
    assert all(res.converged and res.refinements == 0 and 0.0 < res.est_error < 1e-6 for res in results)
    # rho^-7 = 1e7 on the radius-0.1 circle lifts the rounding floor of k = 7
    # past tol on that layout, so the circle doubles from it
    rows.clear()
    (res,) = _kernel_loop(parse("z^2+10", 2), zero(2), basis_element(2, 1), [(0.1, False)], [-8], 1e-6)
    assert rows == [16, 32] and res.converged and res.refinements == 1


@pytest.mark.parametrize("r", range(2, 9))
def test_kernel_loop_is_exact_for_a_laurent_polynomial_about_the_centre(r):
    # u = zeta - c = rho*exp(theta*M) with M = e1; e1, e2, e3 span the
    # quaternions, so a*u^k*u^q*M integrates to 2*pi*a*M when k + q = 0,
    # and u*e3 = e3*conj(u) to 2*pi*rho^2*e3*M when q = 1
    m = basis_element(r, 1)
    c = from_real(r, 0.2) + m * -0.1
    rho = 0.7
    u = "(z - (0.2 - 0.1*e1))"
    f = parse(f"e2*{u}^3 + {u}*e3 + 0.5 + e1*{u}^-2", r)
    e = {k: basis_element(r, k) for k in (1, 2, 3)}
    left = {3: e[2], 0: from_real(r, 0.5), -2: e[1]}
    powers = list(range(-6, 3))
    got = list(_kernel_loop(f, c, m, [(rho, False)], powers, 1e-6))
    for power, res in zip(powers, got):
        q = power + 1
        want = zero(r)
        if -q in left:
            want = want + mul(left[-q], m) * TWO_PI
        if q == 1:
            want = want + mul(e[3], m) * (TWO_PI * rho**2)
        scale = TWO_PI * (rho ** (3 + q) + rho ** (1 + q) + 0.5 * rho**q + rho ** (q - 2))
        assert (res.converged, res.refinements) == (True, 0)
        assert (res.value - want).norm() <= 1e-13 * scale


@pytest.mark.parametrize("r", [2, 3, 5, 8])
def test_kernel_loop_converges_with_a_pole_just_outside_the_circle(r):
    # f = (z - p)^-1 with p - c = 1.2*rho: the integral of f*u^q*M d(theta)
    # is 2*pi*M times the u^-q coefficient -1/(p - c)^(1-q) of f, for q <= 0
    m = basis_element(r, 2)
    rho = 0.5
    c = from_real(r, 0.3) + basis_element(r, 1) * 0.1
    f = parse(f"(z - (0.3 + {1.2 * rho!r} + 0.1*e1))^-1", r)
    powers = [-4, -3, -2, -1]
    for power, res in zip(powers, _kernel_loop(f, c, m, [(rho, False)], powers, 1e-10)):
        q = power + 1
        want = m * (-TWO_PI / (1.2 * rho) ** (1 - q))
        assert res.converged and res.refinements == 3
        assert (res.value - want).norm() <= 1e-9 * want.norm()


@pytest.mark.parametrize("r", [2, 8])
def test_blocked_kernel_sums_match_one_block(monkeypatch, r):
    # 37 knots per block divide no layout, so every layout ends on a short block
    m = basis_element(r, 1)
    f = parse("(z - 1.3)^-1 + e2*z*e3", r)
    powers = range(-4, 2)
    whole = list(_kernel_loop(f, zero(r), m, [(1.0, False)], powers, 1e-10))
    monkeypatch.setattr(contour, "_KERNEL_BLOCK_ELEMENTS", 37 << r)
    blocked = list(_kernel_loop(f, zero(r), m, [(1.0, False)], powers, 1e-10))
    assert [res.refinements for res in whole] == [res.refinements for res in blocked]
    for a, b in zip(whole, blocked):
        assert a.converged and b.converged
        assert (a.value - b.value).norm() <= 1e-13 * (1.0 + a.value.norm())


def test_near_pole_kernel_loop_ends_as_nonconvergence_in_bounded_memory(monkeypatch):
    # the pole 1e-7 outside the unit circle leaves a geometric rate of about
    # 1 - 1e-7, so no layout under the cap converges; blocks of 64 knots keep
    # every array far below one (8192, 256) layout of 16 MB
    monkeypatch.setattr(contour, "_KERNEL_BLOCK_ELEMENTS", 1 << 14)
    monkeypatch.setattr(contour, "_KERNEL_MAX_KNOTS", 1 << 13)
    f = parse("(z-1.0000001)^-1", 8)
    psi = Path.circle(zero(8), 1.0, basis_element(8, 1), 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergenceError, match="coefficient k=0 did not converge"):
            taylor_coeffs(f, zero(8), 3, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_near_pole_laurent_loop_stays_in_bounded_memory_on_three_circles(monkeypatch):
    # a pole 1e-7 outside each of Laurent's three circles keeps all three
    # running to the cap, each layout stacked over three circles of 64-knot
    # blocks, where one (3 * 8192, 256) layout is 48 MB
    monkeypatch.setattr(contour, "_KERNEL_BLOCK_ELEMENTS", 1 << 14)
    monkeypatch.setattr(contour, "_KERNEL_MAX_KNOTS", 1 << 13)
    radii = (0.5 * 4**0.125, 1.0, 0.5 * 4**0.875)
    f = parse(" + ".join(f"(z-{rho * (1 + 1e-7)!r})^-1" for rho in radii), 8)
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergenceError, match="coefficient k=0 did not converge"):
            laurent_coeffs(f, zero(8), 0, 1, 0.5, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # three times the block of one circle, and a sixth of one stacked layout
    assert peak < 8 << 20


def _read_in_order(loops, count):
    """The results of one kernel loop per circle, read power-major and
    circle-minor up to the first failure, which ends the list as (type,
    message)."""
    out = []
    try:
        for _ in range(count):
            for loop in loops:
                out.append(next(loop))
    except CDError as e:
        out.append((type(e), str(e)))
    return out


def _pole_on_knot(center, m, rho, layout):
    """(z - p)^-1 + z with p the first knot of the layout's midpoints on the
    circle center + rho*exp(theta*M)."""
    knot = _plane_circle(center.coeffs, m.coeffs, rho, np.array([TWO_PI * 0.5 / layout]))[0]
    return parse(f"(z-{expressions._fmt_const(knot)})^-1 + z", center.level.r)


def _merged_and_separate(f, center, m, circles, powers, tol):
    # the merged loop is one iterator, read once per circle in each round
    merged = _read_in_order([iter(_kernel_loop(f, center, m, circles, powers, tol))] * len(circles), len(powers))
    separate = [iter(_kernel_loop(f, center, m, [circle], powers, tol)) for circle in circles]
    return merged, _read_in_order(separate, len(powers))


@pytest.mark.parametrize("r", [2, 4, 8])
def test_merged_kernel_loop_matches_one_loop_per_circle_bitwise(r):
    m = basis_element(r, 1)
    f = parse("z^-2+z + 0.5*(z-(0.1+1.9*e1))^-1", r)
    # Cauchy's two radii about an off-centre point, at a derivative order
    z = from_real(r, 0.2) + m * 0.1
    for power in (-1, -4):
        merged, separate = _merged_and_separate(f, z, m, [(0.3, False), (0.15, False)], [power], 1e-10)
        assert len(merged) == 2 and merged == separate
    # Laurent's three radii about 0; k = -40..39 takes the outer circles to
    # their rounding floors
    radii = (0.5 * 4**0.125, 1.0, 0.5 * 4**0.875)
    powers = [-k - 1 for k in range(-40, 40)]
    merged, separate = _merged_and_separate(f, zero(r), m, list(zip(radii, (True, False, True))), powers, 1e-6)
    assert len(merged) == 3 * len(powers) and merged == separate
    assert any(res.at_floor for res in merged)
    assert len({res.refinements for res in merged}) > 1


def test_merged_kernel_loop_fails_where_the_loops_per_circle_fail():
    r = 3
    m = basis_element(r, 1)
    # rho^-k overflows past k = 102 on the radius-1e-3 circle, past k = 308 on
    # the radius-0.1 one: the first failure is at k = 103, radius 1e-3; the
    # sums are rounding far above tol, so every circle stops at its floor
    circles = [(0.5, True), (1e-3, True), (0.1, True)]
    powers = [-k - 1 for k in range(95, 110)]
    merged, separate = _merged_and_separate(parse("z", r), zero(r), m, circles, powers, 1e-6)
    assert merged == separate
    assert merged[-1] == (DomainError, "kernel power -104 overflows on a circle of radius 0.001")
    assert len(merged) == 3 * 8 + 2
    # a pole on the first knot of the 64-knot layout, or of the 128-knot one
    # only (midpoint layouts share no knot), of either circle ends the merged
    # loop at its first result, ahead of the other circle's
    for layout in (64, 128):
        g = _pole_on_knot(zero(r), m, 0.5, layout)
        for circles in ([(1.0, False), (0.5, False)], [(0.5, False), (1.0, False)]):
            with pytest.raises(PoleError, match="^negative power of a vanishing base$"):
                next(_kernel_loop(g, zero(r), m, circles, [-1, -2], 1e-6))
    # rho^61 overflows on every circle at the first power, so no layout runs
    circles = [(1e6, True), (1.5e6, False), (2e6, True)]
    merged, separate = _merged_and_separate(parse("z", r), zero(r), m, circles, [60, 59], 1e-6)
    assert merged == separate == [(DomainError, "kernel power 60 overflows on a circle of radius 1e+06")]


@pytest.mark.parametrize("r", [2, 8])
def test_a_pole_on_a_knot_of_any_circle_is_a_pole_error(r):
    # a pole exactly on the first knot of the 64-knot layout, or of the
    # 128-knot one only, of each circle that Cauchy, Laurent and Taylor
    # integrate over
    m = basis_element(r, 1)
    psi = Path.circle(zero(r), 1.0, m, 1.0)
    z = from_real(r, 0.2)
    rho = 0.05 * (1.0 + z.norm())  # Cauchy's radius: half the distance to psi is larger
    radii = (0.5 * 4.0**0.125, 1.0, 0.5 * 4.0**0.875)  # Laurent's, for the annulus 0.5..2
    cauchy = (lambda g: cauchy_eval(g, z, psi), lambda g: cauchy_derivative(g, z, 2, psi))
    calls = [(call, z, s) for call in cauchy for s in (rho, rho / 2.0)]
    calls += [(lambda g: laurent_coeffs(g, zero(r), -2, 2, 0.5, 2.0), zero(r), s) for s in radii]
    calls.append((lambda g: taylor_coeffs(g, zero(r), 4, psi), zero(r), 1.0))
    for layout in (64, 128):
        for call, center, s in calls:
            with pytest.raises(PoleError, match="^negative power of a vanishing base$"):
                call(_pole_on_knot(center, m, s, layout))


def test_cauchy_and_laurent_evaluate_the_integrand_once_per_knot_layout(monkeypatch):
    r = 3
    f = parse("(z-(0.1+1.9*e1))^-1 + e2*z^3", r)
    psi = Path.circle(zero(r), 1.0, E1, 1.0)
    calls = _count_evaluations(monkeypatch)
    z = from_real(r, 0.2) + E1 * 0.1
    cauchy_derivative(f, z, 2, psi)
    # the two radii share each layout, 64 knots per circle on the first
    assert calls[0] == 128 and len(calls) <= 5
    calls.clear()
    laurent_coeffs(f, zero(r), -3, 3, 0.5, 1.5)
    assert calls[0] == 3 * 64 and len(calls) <= 5


def test_taylor_count_at_the_cap_takes_two_knot_layouts_at_level_8(monkeypatch):
    f = parse("e2*z^3 + z", 8)
    psi = Path.circle(zero(8), 1.0, basis_element(8, 1), 1.0)
    calls = _count_evaluations(monkeypatch)
    cs = taylor_coeffs(f, zero(8), 60, psi)
    assert len(calls) <= 2
    assert max(c.norm() for k, c in enumerate(cs) if k not in (1, 3)) < 1e-12


def _count_batch_products(monkeypatch) -> list:
    """Record the row count of every mul_arrays call whose operands are both
    (N, d) batches, as the phrase evaluators and the kernel loop make them."""
    rows = []

    def counting(x, y, r):
        if np.ndim(x) == 2 and np.ndim(y) == 2:
            rows.append(len(x))
        return mul_arrays(x, y, r)

    monkeypatch.setattr(expressions, "mul_arrays", counting)
    monkeypatch.setattr(contour, "mul_arrays", counting)
    return rows


def test_in_plane_laurent_at_level_8_makes_no_batch_product(monkeypatch):
    # the centre 0 and the constant 0.1 lie in every plane, so the loop runs
    # on complex knots; z*(z-0.1)^-1 = sum of 0.1^k * z^-k outside |z| = 0.1
    rows = _count_batch_products(monkeypatch)
    cs = laurent_coeffs(parse("z*(z-0.1)^-1", 8), zero(8), -3, 5, 0.5, 2.0)
    assert rows == []
    want = [0.1**3, 0.1**2, 0.1, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert all((c - from_real(8, v)).norm() <= 1e-9 for c, v in zip(cs, want))


@pytest.mark.parametrize("r", [3, 8])
def test_in_plane_kernel_loop_matches_the_table_reference(r):
    # every constant is real and the centre is 0, so any plane holds them
    m = random_unit_imaginary(r, np.random.default_rng(40 + r))
    f = parse("z*(z-0.1)^-1+(z+2)*(z-3)*zc", r)
    powers = list(range(-4, 2))
    got = list(_kernel_loop(f, zero(r), m, [(0.7, False)], powers, 1e-6))
    refs = [_per_power_kernel_loop(f, zero(r), m, 0.7, power, 1e-6) for power in powers]
    assert {res.refinements for res in got} == {max(ref[1] for ref in refs)}
    for res, (value, _, converged) in zip(got, refs):
        assert res.converged == converged
        assert (res.value - value).norm() <= 1e-12 * (1.0 + value.norm())


# ---------------------------------------------------------------------------
# theorem checks
# ---------------------------------------------------------------------------

def test_residue_theorem_two_poles():
    p1 = _vec(3, e0=0.3, e1=0.2)
    p2 = _vec(3, e0=-0.4, e2=0.3)
    f = parse(
        "e2*((z - (0.3+0.2*e1))^-1)*e3 + ((z - (-0.4+0.3*e2))^-1) + z^2", 3
    )
    rep = residue_theorem_check(f, [p1, p2], Path.circle(zero(3), 2.0, E1, 1.0), 1e-7)
    assert rep.diff <= 1e-6
    assert rep.mode == "value"


def test_residue_theorem_check_takes_each_phrase_apart_once(monkeypatch):
    # the left side and the residue at each enclosed pole share one primitive
    f = parse("e2*((z - (0.3+0.2*e1))^-1)*e3 + ((z - (-0.4+0.3*e2))^-1) + z^2", 3)
    roots = []

    def counting(node, r):
        roots.append(node is f.root)
        return words(node, r)

    words = expressions._words
    monkeypatch.setattr(expressions, "_words", counting)
    poles = [_vec(3, e0=0.3, e1=0.2), _vec(3, e0=-0.4, e2=0.3)]
    rep = residue_theorem_check(f, poles, Path.circle(zero(3), 2.0, E1, 1.0), 1e-7)
    assert rep.diff <= 1e-6
    assert roots.count(True) == 1


def test_residue_theorem_pole_outside_drops():
    p_in = from_real(3, 0.2)
    p_out = from_real(3, 5.0)
    f = parse("((z - 0.2)^-1) + ((z - 5)^-1)", 3)
    rep = residue_theorem_check(f, [p_in, p_out], Path.circle(zero(3), 1.0, E2, 1.0), 1e-7)
    assert rep.diff <= 1e-6
    assert (rep.rhs - E2 * (2.0 * math.pi)).norm() <= 1e-5


def test_residue_theorem_double_winding():
    p = from_real(2, 0.1)
    f = parse("((z - 0.1)^-1)", 2)
    e2q = basis_element(2, 2)
    rep = residue_theorem_check(f, [p], Path.circle(zero(2), 1.0, e2q, 2.0), 1e-7)
    assert rep.diff <= 1e-6
    assert (rep.lhs - e2q * (4.0 * math.pi)).norm() <= 1e-5


def test_residue_theorem_pole_on_path_rejected():
    f = parse("((z - 1)^-1)", 2)
    psi = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    with pytest.raises(DomainError):
        residue_theorem_check(f, [from_real(2, 1.0)], psi)


def test_contour_report_json_schema():
    p = from_real(2, 0.0)
    f = parse("z^-1", 2)
    rep = residue_theorem_check(f, [p], Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0), 1e-7)
    js = rep.to_json()
    assert set(js) == {"lhs", "rhs", "diff", "est_error", "mode"}
    assert len(js["lhs"]) == 4 and isinstance(js["diff"], float)


def test_sum_residues_two_plane_poles():
    f = parse("e2*((z - (0.3+0.2*e1))^-1)*e3 + ((z - (-0.4-0.5*e1))^-1)", 3)
    poles = [_vec(3, e0=0.3, e1=0.2), _vec(3, e0=-0.4, e1=-0.5)]
    assert sum_residues_check(f, poles, E1, 1e-7) <= 1e-6


def test_sum_residues_single_pole():
    f = parse("((z - 1)^-1)", 2)
    total = sum_residues_check(f, [from_real(2, 1.0)], basis_element(2, 1), 1e-7)
    assert total <= 1e-6


def test_sum_residues_quadratic_decay_no_finite_residue():
    f = parse("z^-2", 2)
    total = sum_residues_check(f, [zero(2)], basis_element(2, 1), 1e-7)
    assert total <= 1e-6


def test_sum_residues_refuses_a_pole_off_the_far_circle_plane():
    # the far circle gives 0 for the Ln leaf of a pole off its plane, while
    # the pole's small circle gives its residue: two random poles at r = 3
    # once totalled 4 with no error
    rng = np.random.default_rng(29)
    poles = [random_element(3, rng) for _ in range(2)]
    text = " + ".join(f"2*(z-{expressions._fmt_const(p.coeffs)})^-1" for p in poles)
    with pytest.raises(DomainError, match=r"pole .* off the plane of the far circle"):
        sum_residues_check(parse(text, 3), poles, E1, 1e-7)


@pytest.mark.parametrize(
    "n,turns",
    # single-turn cases keep the plain id of the exponent
    [pytest.param(n, t, id=str(n) if t == 1 else f"{n}-turns{t}") for t in (1, 2, 3) for n in (1, 2, 3)]
    # sampled whole, the images of 100, 1e3 and 1e4 turns of z^3 read 45, -72
    # and 37 turns, not 300, 3000 and 30000
    + [pytest.param(3, t, id=f"3-turns{t}") for t in (100, 1000, 10000)],
)
def test_argument_principle_powers(n, turns):
    rng = np.random.default_rng(40 + n)
    m = random_unit_imaginary(3, rng)
    g = Path.circle(zero(3), 1.0, m, float(turns))
    rep = argument_principle(parse(f"z^{n}", 3), g, [(zero(3), n)])
    assert rep.diff <= 1e-6
    assert (rep.lhs - m * float(n * turns)).norm() <= 1e-6


def _off_plane(r, m, size, rng):
    """An imaginary element of norm size orthogonal to m."""
    v = rng.standard_normal(1 << r)
    v[0] = 0.0
    v -= np.dot(v, m.coeffs) * m.coeffs
    return CDNumber(r, v * (size / np.linalg.norm(v)))


def _whole_image_index(f, gamma):
    """The index about 0 of the whole image t -> f(gamma(t)), its sampler
    handed to the sampled continuation without a speed bound."""
    r = f.level.r
    image = _sampled_log(zero(r).coeffs, lambda ts: eval_node_arrays(f.root, gamma.sample(ts), r))
    return CDNumber(r, image) * (1.0 / TWO_PI)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_argument_principle_over_whole_turns_matches_the_whole_image(r):
    # (z - a)*(z - b) with zeros inside and outside the circle, in its plane
    # or off it: the left side, taken over two turns (and one, when two
    # cancel), equals the image of all n turns sampled at once
    rng = np.random.default_rng(870 + r)
    wound = 0
    for i in range(30):
        m = random_unit_imaginary(r, rng)
        c = random_element(r, rng)
        rho = float(rng.uniform(0.5, 1.5))
        zeros = []
        for _ in range(2):
            ang = float(rng.uniform(0.0, TWO_PI))
            dist = rho * float(rng.uniform(0.0, 0.9) if rng.random() < 0.7 else rng.uniform(1.1, 2.0))
            a = c + from_real(r, dist * math.cos(ang)) + m * (dist * math.sin(ang))
            if rng.random() < 0.4:
                a = a + _off_plane(r, m, rho * float(rng.uniform(0.02, 0.5)), rng)
            zeros.append(Sub(VarPow(False, 1), Const(a.coeffs)))
        f = Phrase(zero(r).level, Mul(*zeros))
        turns = float(rng.choice([2.0, 3.0, -2.0]))
        gamma = replace(Path.circle(c, rho, m, turns), start=float(rng.uniform(0.0, 1.0)))
        whole = _whole_image_index(f, gamma)
        lhs = argument_principle(f, gamma, []).lhs
        assert (lhs - whole).norm() <= 1e-12 * abs(turns), i
        wound += lhs.norm() > 0.5
    assert wound >= 10


@pytest.mark.parametrize("turns,index", [(1, -1), (2, 0), (3, -1), (4, 0), (5, -1), (-1, -1), (-2, 0), (-3, -1)])
def test_argument_principle_over_whole_turns_through_the_real_line(turns, index):
    # the image -1 + (1 + cos t)*e2 + sin t*e3 meets the real line once a
    # turn, at -1, and each crossing reverses the continued direction of the
    # argument, so one turn maps the count m to -m - 1 either way round: the
    # index alternates between -e2 and 0, where |n| times the image of one
    # turn gave n*(-e2)
    r = 2
    f = parse("z*e2+e2-1", r)
    gamma = Path.circle(zero(r), 1.0, basis_element(r, 1), float(turns))
    lhs = argument_principle(f, gamma, []).lhs
    assert (lhs - basis_element(r, 2) * float(index)).norm() <= 1e-12
    if abs(turns) <= 3:
        assert (lhs - _whole_image_index(f, gamma)).norm() <= 1e-12


@pytest.mark.parametrize("r,gap", [(2, 1e-5), (2, 1e-9), (2, 1e-12), (8, 4e-4), (8, 1e-7)])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_argument_principle_with_a_zero_next_to_the_circle(r, gap, side):
    # the image of z - a passes within gap of 0, between two knots of every
    # layout up to the cap (2^18 knots at r = 2, 16384 at r = 8); halving
    # the steps that turn pi/2 or more resolves it
    e1 = basis_element(r, 1)
    ang = 0.7371
    a = from_real(r, (1.0 + side * gap) * math.cos(ang)) + e1 * ((1.0 + side * gap) * math.sin(ang))
    f = Phrase(zero(r).level, Sub(VarPow(False, 1), Const(a.coeffs)))
    rep = argument_principle(f, Path.circle(zero(r), 1.0, e1, 1.0), [(a, 1)])
    want = e1 if side < 0.0 else zero(r)
    assert (rep.lhs - want).norm() <= 1e-9 and (rep.rhs - want).norm() <= 1e-9


@pytest.mark.parametrize("r,gap", [(2, 1e-5), (8, 1e-7)])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_parametric_log_integral_about_a_point_next_to_the_path(r, gap, side):
    # uniform layouts up to the cap leave the point between two knots; the
    # halved steps of the sampled continuation count it, inside or outside
    e1 = basis_element(r, 1)
    circle = Path.circle(zero(r), 1.0, e1, 1.0)
    a = from_real(r, (1.0 + side * gap) * math.cos(0.7371)) + e1 * ((1.0 + side * gap) * math.sin(0.7371))
    got = CDNumber(r, _sampled_log(a.coeffs, circle.sample))
    want = e1 * TWO_PI if side < 0.0 else zero(r)
    assert (got - want).norm() <= 1e-9


@pytest.mark.parametrize("r", [2, 8])
@pytest.mark.parametrize("turns", [1000.0, 1000.5, 1e5 + 0.5])
def test_argument_principle_over_many_turns_is_exact_or_refused(r, turns):
    # an arc's whole image is sampled; 1000.5 and 1e5 + 0.5 turns aliased
    # alike on two layouts and gave lhs -70.5*e1 and -30.5*e1.  A layout
    # whose every step is certified needs about 4e4 knots for 1000.5 turns,
    # within the cap at r = 2 (2^18) but not at r = 8 (16384), and 4e6 for
    # 1e5 + 0.5; 1000 whole turns take the image of two
    e1 = basis_element(r, 1)
    f, gamma = parse("z^3", r), Path.circle(zero(r), 1.0, e1, turns)
    if turns > 1e4 or (r == 8 and not turns.is_integer()):
        with pytest.raises(StepControlError):
            argument_principle(f, gamma, [(zero(r), 3)])
        return
    rep = argument_principle(f, gamma, [(zero(r), 3)])
    assert (rep.lhs - e1 * (3.0 * turns)).norm() <= 1e-6 * turns and rep.diff <= 1e-6 * turns


@pytest.mark.parametrize("r", [2, 3, 8])
@pytest.mark.parametrize("turns", [0.3, 0.75, -0.5, 1.5])
def test_certified_image_of_an_arc_matches_the_sampled_image(r, turns):
    # an arc shorter than one turn bounds max|f| over the whole circle; both
    # the arc's zero (0.2, inside) and the outside one (1.9) lie in the plane
    m = random_unit_imaginary(r, np.random.default_rng(90 + r))
    f = parse("(z - 0.2)*(z - 1.9)*(z + 0.1)", r)
    gamma = replace(Path.circle(zero(r), 1.0, m, turns), start=0.137)
    lhs = argument_principle(f, gamma, []).lhs
    assert (lhs - _whole_image_index(f, gamma)).norm() <= 1e-12


def test_certified_image_samples_one_layout(monkeypatch):
    # one turn of z^2 steps at most 2*pi*2/128 * max|f| per knot of the first
    # layout, far inside the bound, so no knot is added and no second layout
    # is sampled, where the agreement rule sampled 256
    r = 3
    gamma = Path.circle(zero(r), 1.0, E1, 1.0)
    sampled = []
    real = Path.sample

    def counting(self, ts):
        if self.kind == "circle":
            sampled.append(len(np.atleast_1d(ts)))
        return real(self, ts)

    monkeypatch.setattr(Path, "sample", counting)
    rep = argument_principle(parse("z^2", r), gamma, [(zero(r), 2)])
    assert sampled == [129]
    assert (rep.lhs - E1 * 2.0).norm() <= 1e-12 and rep.diff <= 1e-12


def test_certified_image_of_an_overflowing_arc_is_a_domain_error():
    # |z^3| = 1e900 leaves the doubles on the whole circle that bounds the
    # arc's image; numpy's overflow warnings are silenced as the CLI does
    e1 = basis_element(2, 1)
    with np.errstate(all="ignore"), pytest.raises(DomainError):
        argument_principle(parse("z^3", 2), Path.circle(zero(2), 1e300, e1, 0.5), [])


def test_argument_principle_two_simple_zeros():
    f = parse("(z - 0.3)*(z + 0.5)", 3)
    g = Path.circle(zero(3), 1.0, E2, 1.0)
    zeros = [(from_real(3, 0.3), 1), (from_real(3, -0.5), 1)]
    rep = argument_principle(f, g, zeros)
    assert rep.diff <= 1e-6
    assert (rep.lhs - E2 * 2.0).norm() <= 1e-6


def test_argument_principle_zero_outside():
    f = parse("z - 3", 2)
    g = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    rep = argument_principle(f, g, [])
    assert rep.lhs.norm() <= 1e-7 and rep.diff <= 1e-7


def test_argument_principle_zero_on_path_errors():
    f = parse("z - 1", 2)
    g = Path.circle(zero(2), 1.0, basis_element(2, 1), 1.0)
    with pytest.raises((PoleError, StepControlError)):
        argument_principle(f, g, [(from_real(2, 1.0), 1)])


# ---------------------------------------------------------------------------
# find_root
# ---------------------------------------------------------------------------

def test_find_root_linear():
    c = _vec(2, e0=0.4, e1=-0.3, e3=0.2)
    root = find_root(parse("z - (0.4-0.3*e1+0.2*e3)", 2), zero(2))
    assert (root - c).norm() <= 1e-8


@pytest.mark.parametrize("r", [2, 3])
def test_find_root_random_cubics(r):
    rng = np.random.default_rng(17 + r)
    for _ in range(5):
        c = rng.normal(scale=0.7, size=6)
        text = (
            f"z^3 + (({c[0]})+({c[1]})*e1+({c[2]})*e2)*z"
            f" + (({c[3]})+({c[4]})*e1+({c[5]})*e3)"
        )
        P = parse(text, r)
        z_star = find_root(P, from_real(r, 0.3), 200, 1e-10)
        assert evaluate(P, z_star).norm() <= 1e-8


def test_find_root_deterministic():
    P = parse("z^2 + e1*z - 2", 3)
    a = find_root(P, from_real(3, 0.5))
    b = find_root(P, from_real(3, 0.5))
    assert np.array_equal(a.coeffs, b.coeffs)


def test_find_root_reports_best_on_failure():
    P = parse("z^2 + 1", 2)
    with pytest.raises(NonConvergenceError) as info:
        find_root(P, from_real(2, 0.7), max_iter=1, tol=1e-14)
    assert info.value.best is not None
    assert evaluate(P, info.value.best).norm() < evaluate(P, from_real(2, 0.7)).norm()


def test_find_root_draws_no_restart_when_the_seed_converges(monkeypatch):
    def no_generator(*args):
        raise AssertionError("a restart was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    root = find_root(parse("z - (0.4-0.3*e1)", 2), zero(2))
    assert (root - _vec(2, e0=0.4, e1=-0.3)).norm() <= 1e-8


@pytest.mark.parametrize("r", [1, 3, 8])
def test_restarts_drawn_lazily_follow_the_eager_order(r):
    # the seed, then each restart from one generator, as when all were drawn first
    P = parse("z^3 + (0.5*e1)*z - 2", r)
    seed = random_element(r, np.random.default_rng(3))
    d = 1 << r
    radius = 1.0 + 0.5 + 2.0  # the parser reads 0.5*e1 as one constant of norm 0.5
    rng = np.random.default_rng(0x5EED)
    want = [seed.coeffs]
    for _ in range(16):
        v = rng.standard_normal(d)
        v *= radius * rng.uniform(0.0, 1.0) ** (1.0 / d) / math.sqrt(float(np.dot(v, v)))
        want.append(v)
    got = list(contour._starts(P, seed))
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _refuse_derivative_apply(*args, **kwargs):
    raise AssertionError("derivative_apply was called")


def _plane_root(root: CDNumber, m: np.ndarray) -> complex:
    """root as a complex number of span(1, M), checked to lie in that plane."""
    y = float(root.coeffs @ m)
    off = root.coeffs - y * m
    off[0] = 0.0
    assert np.linalg.norm(off) <= 1e-14 * (1.0 + root.norm())
    return complex(root.coeffs[0], y)


@pytest.mark.parametrize("r", range(1, 9))
def test_find_root_of_a_real_cubic_stays_in_the_plane_of_its_start(r, monkeypatch):
    # one real root and a complex pair; Newton runs in span(1, Im seed) and
    # reaches a root of the complex cubic, lifted into that plane
    monkeypatch.setattr(contour, "derivative_apply", _refuse_derivative_apply)
    P = parse("z^3 + (1.106)*z + (0.425)", r)
    roots = np.roots([1.0, 0.0, 1.106, 0.425])
    for seed in (1, 2, 3):
        start = random_element(r, np.random.default_rng(seed))
        im = np.array(start.coeffs)
        im[0] = 0.0
        w = _plane_root(find_root(P, start, tol=1e-12), im / np.linalg.norm(im))
        assert min(abs(w - lam) for lam in roots) <= 1e-8


@pytest.mark.parametrize("r", [1, 3])
def test_find_root_of_a_real_valued_phrase_takes_the_plane_least_squares(r, monkeypatch):
    # z*zc = |z|^2 is real on the plane, so its 2 x 2 Jacobian has a zero row
    monkeypatch.setattr(contour, "derivative_apply", _refuse_derivative_apply)
    shapes = []
    lstsq = np.linalg.lstsq

    def recording(a, b, rcond=None):
        shapes.append(np.shape(a))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", recording)
    P = parse("z*zc - (2.0)", r)
    root = find_root(P, random_element(r, np.random.default_rng(7)))
    assert shapes and set(shapes) == {(2, 2)}
    assert evaluate(P, root).norm() <= 1e-8


def test_find_root_keeps_the_table_route_for_a_start_off_the_constants_plane(monkeypatch):
    # e1 lies in span(1, e1) but not in span(1, e2)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return derivative_apply(*args, **kwargs)

    monkeypatch.setattr(contour, "derivative_apply", counting)
    P = parse("z^2 + e1*z - 2", 3)
    in_plane = find_root(P, from_real(3, 0.5) + E1 * 0.3)
    assert calls == [] and evaluate(P, in_plane).norm() <= 1e-8
    off_plane = find_root(P, from_real(3, 0.5) + E2 * 0.3)
    assert calls and evaluate(P, off_plane).norm() <= 1e-8


def test_find_root_level_mismatch():
    with pytest.raises(LevelMismatchError):
        find_root(parse("z - 1", 2), zero(3))
