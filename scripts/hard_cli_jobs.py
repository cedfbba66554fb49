#!/usr/bin/env python3
"""Hard CLI jobs at level 8, each in its own process under a 1 GiB address-space limit.

Every row of ROWS is one ``cdfun`` command line on a level-8 input that once
ran out of memory, ran too long, aliased, wrote more than one report, or
ended with the wrong kind of error: a pole 1e-7 from a circle or a square, a
point 1e-6 from the curve, 4096, 4096.25, 1e4 and 1e5 turns, a polynomial
whose square overflows, the exponent cap, out-of-range flag values, a step
lost to rounding, an image or an index past the range of a double, a false
pole at radius 1e100, an error estimate printed as Infinity, the inverse of
a point whose squared norm leaves the range of a double, a kernel power
that overflows on every circle, an annulus whose radii multiply below the
least double.  A row names its argv, the path object written to the
``--path-file`` it gets (or None), the exit code it must end with, and
either the error kind its report must name or a predicate on its report.
The whole of stdout must be one strict JSON report, without Infinity or
NaN.

Each row runs as a child process with ``RLIMIT_AS`` set to 1 GiB on the
child alone, and with its own timeout.  The script prints one line per row
with its wall time, and exits 1 naming every row that failed.

    python scripts/hard_cli_jobs.py
"""

import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

SRC = Path(__file__).resolve().parent.parent / "src"
LIMIT_BYTES = 1 << 30
D = 256


def _circle(turns: float = 1.0, radius: float = 1.0) -> dict:
    """The (1, e1) circle about 0 at level 8, of unit radius by default."""
    return {"kind": "circle", "center": [0.0] * D, "radius": radius, "direction": [0.0, 1.0] + [0.0] * (D - 2),
            "turns": turns}


def _square() -> dict:
    """The square with corners +-1 +- e1 at level 8, once around."""
    corners = [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)]
    return {"kind": "polyline", "points": [[x, y] + [0.0] * (D - 2) for x, y in corners]}


def _vector(*head: float) -> str:
    return json.dumps(list(head) + [0.0] * (D - len(head)))


def _norm(v) -> float:
    return math.sqrt(sum(x * x for x in v))


# the integral of (z-0.5)^-1 over 4096.25 turns of _circle: z - 0.5 runs from
# 0.5 to -0.5 + e1 and winds 4096 times about 0 on the way
_ARC_4096_25 = [math.log(math.sqrt(5.0)), 2.0 * math.pi * 4096 + math.atan2(1.0, -0.5)] + [0.0] * (D - 2)


@dataclass(frozen=True)
class Row:
    name: str
    argv: list
    path: Optional[dict]
    code: int
    # the error kind of the report, or a predicate on the report
    expect: Union[str, Callable[[dict], bool]]
    timeout_s: float = 60.0


ROWS = (
    # (z - 1.0000001)^-1 is an Ln leaf in the circle's plane, which cannot
    # converge and doubles to 2^20 knots; the plane route keeps it on (N,)
    # complex arrays, where (N, 256) knot arrays would not fit in 1 GiB
    Row("in-plane near-pole integral", ["integrate", "--level", "8", "--expr", "(z-1.0000001)^-1"], _circle(), 0,
        lambda rep: rep["converged"] is False),
    # every midpoint of a layout spread over 4096 whole turns is a whole turn,
    # and the sums read 2*pi*8192*e1; one turn, repeated, gives 2*pi*4096*e1
    Row("many-turn in-plane pole integral", ["integrate", "--level", "8", "--expr", "(z-0.5)^-1"], _circle(4096), 0,
        lambda rep: rep["converged"] is True and abs(rep["value"][1] - 8192 * math.pi) <= 1e-9 * 8192 * math.pi),
    # midpoint sums over a whole arc of 4096.25 turns read 13185.3 + 33334.4*e1
    # as converged; the arc takes the closed form of the complex logarithm
    Row("many-turn in-plane pole arc", ["integrate", "--level", "8", "--expr", "(z-0.5)^-1"], _circle(4096.25), 0,
        lambda rep: rep["converged"] is True and rep["refinements"] == 0
        and _norm([a - b for a, b in zip(rep["value"], _ARC_4096_25)]) <= 1e-9 * _norm(_ARC_4096_25)),
    # the same pole 1e-7 outside a square in its plane: a polyline's Ln leaf
    # takes its closed form, where knot doubling ended unconverged
    Row("near-pole in-plane square", ["integrate", "--level", "8", "--expr", "(z-1.0000001)^-1"], _square(), 0,
        lambda rep: rep["converged"] is True and rep["refinements"] == 0 and not any(rep["value"])),
    # the pole lies 1e-6 off the circle's plane, where knot doubling ran out of
    # memory; log_integral gives the Ln leaf exactly, and a closed loop gives 0
    Row("off-plane pole integral",
        ["integrate", "--level", "8", "--expr", "(z-(0.3+0.1*e1+0.000001*e2))^-1"], _circle(), 0,
        lambda rep: rep["converged"] is True and rep["refinements"] == 0 and not any(rep["value"])),
    # e2*z^3 + z is a polynomial about the centre, which the periodic midpoint
    # rule integrates exactly on one layout of 64 knots, sized by its degree:
    # every coefficient other than c1 and c3 must vanish to rounding
    Row("taylor at the exponent cap",
        ["taylor", "--level", "8", "--expr", "e2*z^3+z", "--count", "60", "--center", _vector()], _circle(), 0,
        lambda rep: len(rep["coefficients"]) == 60
        and max(_norm(c) for k, c in enumerate(rep["coefficients"]) if k not in (1, 3)) < 1e-12,
        timeout_s=30.0),
    # |P|^2 overflows at every start; a least-squares step on that system made
    # LAPACK write to fd 1 ahead of the report
    Row("roots of an overflowing polynomial", ["roots", "--level", "2", "--expr", "z^2+1e300"], None, 2,
        "nonconvergence"),
    # converges at a rate of about 1 - 1e-7 per knot, so the kernel loop
    # doubles to its 2^18-knot cap in blocks, where one (2^18, 255) array of
    # the whole layout is 510 MiB
    Row("near-pole taylor",
        ["taylor", "--level", "8", "--expr", "(z-1.0000001)^-1", "--count", "3", "--center", _vector()],
        _circle(), 2, "nonconvergence"),
    # 1e-6 outside the circle, where sampling plane e1 took (2^18, 255) angle
    # arrays; the closed form works on (255,) arrays
    Row("near-curve index", ["index", "--level", "8", "--point", _vector(0.0, 1.000001)], _circle(), 0,
        lambda rep: rep["winding"]["e1"] == 0 and len(rep["undefined"]) == D - 2),
    # sampling 8 knots per turn took (800002, 256) arrays, 1.53 GiB
    Row("many-turn logint", ["logint", "--level", "8", "--point", _vector(0.3, 0.1)], _circle(1e5), 0,
        lambda rep: abs(rep["value"][1] - 2e5 * math.pi) <= 1e-9 * 2e5 * math.pi),
    # sampled whole, the image of 3e4 turns aliased alike on two layouts and
    # gave lhs 37*e1; the left side is 1e4 times the image of one turn
    Row("many-turn argument principle",
        ["argprinciple", "--level", "8", "--expr", "z^3", "--zeros", json.dumps([[[0.0] * D, 3]])], _circle(1e4), 0,
        lambda rep: all(abs(rep[side][1] - 3e4) <= 1e-6 for side in ("lhs", "rhs"))),
    # the kernel power -k-1 of order 1e7 lies far outside the exponent range,
    # and the job ran past a minute
    Row("cauchy order past the exponent cap",
        ["cauchy", "--level", "8", "--expr", "z^3", "--point", _vector(100.0), "--order", "10000000"], _circle(), 1,
        "usage", timeout_s=10.0),
    # rho^61 overflows on all three circles at the first power, and the
    # merged kernel loop ended as an internal error
    Row("laurent power overflow on all circles",
        ["laurent", "--level", "8", "--expr", "z", "--center", _vector(), "--kmin", "-61", "--kmax", "-61",
         "--rho-inner", "1e6", "--rho-outer", "2e6"], None, 2, "domain"),
    # 1e-300 * 4e-300 underflows to 0, and a middle radius taken from that
    # product made 0.0 ** -k an internal error; rho^-k overflows on these radii
    Row("laurent on an annulus of radius 1e-300",
        ["laurent", "--level", "8", "--expr", "z^2+z^-2", "--center", _vector(), "--kmin", "-3", "--kmax", "3",
         "--rho-inner", "1e-300", "--rho-outer", "4e-300"], None, 2, "domain"),
    # numpy's generator refuses a negative seed, which ended as an internal error
    Row("negative roots seed", ["roots", "--level", "8", "--expr", "z^2+1", "--seed", "-1"], None, 1, "usage"),
    # 0.3 + 1e-320 rounds to 0.3, and crcheck of zc, which is not
    # superdifferentiable, passed with residual 0
    Row("crcheck step lost to rounding",
        ["crcheck", "--level", "8", "--expr", "zc", "--point", _vector(0.3, 0.1, -0.2, 0.5), "--step", "1e-320"],
        None, 2, "domain"),
    # |z^3| = 1e900 on the image overflows, and NaN reached the rounding of
    # the continued argument, an internal error
    Row("argprinciple of an overflowing image",
        ["argprinciple", "--level", "8", "--expr", "z^3", "--zeros", json.dumps([[[0.0] * D, 3]])],
        _circle(radius=1e300), 2, "domain"),
    # the pole's index 1e300*e1 has a norm past a double, which ended internal
    # when rounded to a winding count
    Row("residue theorem over 1e300 turns",
        ["restheorem", "--level", "8", "--expr", "(z-0.1)^-1", "--poles", json.dumps([[0.1] + [0.0] * (D - 1)])],
        _circle(1e300), 2, "domain"),
    # |Im z^3| = 1e300 is finite, but its square overflowed in the
    # logarithm's imaginary norm, a false pole
    Row("argprinciple at radius 1e100",
        ["argprinciple", "--level", "8", "--expr", "z^3", "--zeros", json.dumps([[[0.0] * D, 3]])],
        _circle(radius=1e100), 0, lambda rep: rep["lhs"] == rep["rhs"] and rep["lhs"][1] == 3.0),
    # the extrapolation's error estimate squared a difference near 1e186 and
    # printed Infinity
    Row("integrate at scale 1e200", ["integrate", "--level", "8", "--expr", "(1e200)*(z-0.1)^-1"], _circle(), 0,
        lambda rep: math.isfinite(rep["est_error"])),
    # the inverse's squared norm 1e400 overflowed, and the report read 0
    Row("inverse at 1e200", ["eval", "--level", "8", "--expr", "z^-1", "--point", _vector(1e200)], None, 0,
        lambda rep: rep["value"][0] == 1e-200),
    # the squared norm 1e-400 underflowed to 0, a false pole
    Row("inverse at 1e-200", ["eval", "--level", "8", "--expr", "z^-1", "--point", _vector(1e-200)], None, 0,
        lambda rep: rep["value"][0] == 1e200),
)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))


def run_row(row: Row, workdir: str) -> Optional[str]:
    """None when the row passes, else why it failed."""
    argv = list(row.argv)
    if row.path is not None:
        path = os.path.join(workdir, "path.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(row.path, fh)
        argv += ["--path-file", path]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-m", "cdfun.cli", *argv], env=env, capture_output=True, text=True,
                              timeout=row.timeout_s, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return f"no report within {row.timeout_s:g} s"
    try:
        report = json.loads(proc.stdout, parse_constant=_refuse_constant)
    except ValueError:
        return f"stdout is not one strict JSON report: {proc.stdout[:200]!r} {proc.stderr[-300:]!r}"
    if proc.returncode != row.code:
        return f"exit {proc.returncode}, expected {row.code}: {proc.stdout[:300]}"
    if isinstance(row.expect, str):
        kind = report.get("error", {}).get("kind")
        return None if kind == row.expect else f"error kind {kind!r}, expected {row.expect!r}"
    try:
        return None if row.expect(report) else f"report fails its check: {proc.stdout[:300]}"
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"report fails its check ({exc!r}): {proc.stdout[:300]}"


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as workdir:
        for row in ROWS:
            t0 = time.perf_counter()
            why = run_row(row, workdir)
            print(f"{'FAIL' if why else 'ok  '} {row.name:<36} {time.perf_counter() - t0:6.2f} s"
                  + (f"  {why}" if why else ""), flush=True)
            if why:
                failed.append(row.name)
    if failed:
        print("failed rows: " + ", ".join(failed))
        return 1
    print(f"all {len(ROWS)} rows pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
