"""Command-line front end with JSON input/output.

Subcommand style: one job per invocation, every report is JSON on stdout (or
--output FILE), and all numbers travel as arrays of 2**r doubles in basis
order.  Exit codes: 0 success, 1 usage/parse problems, 2 domain errors; every
failure is reported as {"error": {"kind": ..., "detail": ...}} rather than a
traceback.  A job may also be supplied as a single JSON file via the ``job``
subcommand, with the same field names as the flags.

Reports are deterministic: fixed reduction orders everywhere, and anything
randomized (root-search restarts, the selftest) draws from --seed, default 42.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from .algebra import (
    CDNumber,
    basis_table,
    find_zero_divisor,
    random_element,
    zero,
)
from .contour import (
    ar_index,
    argument_principle,
    cauchy_derivative,
    cauchy_eval,
    find_root,
    laurent_coeffs,
    residue,
    residue_theorem_check,
    taylor_coeffs,
    winding_index,
)
from .diffcheck import RealFieldSample, cr_check, harmonic_check, zbar_check
from .errors import CDError
from .expressions import Phrase, derivative_apply, evaluate, parse, phrase_from_json
from .integrate import (
    DEFAULT_TOL,
    MAX_KNOTS,
    Path,
    line_integral,
    log_integral,
    path_from_json,
)

COMMANDS = (
    "eval", "diff", "integrate", "logint", "index", "residue", "cauchy",
    "taylor", "laurent", "restheorem", "argprinciple", "roots", "crcheck",
    "harmonic", "zbarcheck", "zerodiv",
)

MAX_CLI_LEVEL = 8


class UsageError(Exception):
    """Bad flags, malformed job files, or out-of-range parameters."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# parameter extraction (shared by the flag route and the job-file route)
# ---------------------------------------------------------------------------

def _level_of(params: Dict) -> int:
    raw = params.get("level")
    if raw is None:
        raise UsageError("--level is required")
    try:
        r = int(raw)
    except (TypeError, ValueError):
        raise UsageError(f"level must be an integer, got {raw!r}") from None
    if not 1 <= r <= MAX_CLI_LEVEL:
        raise UsageError(f"level must be in 1..{MAX_CLI_LEVEL}, got {r}")
    return r


def _float_of(params: Dict, key: str, default: float) -> float:
    raw = params.get(key)
    if raw is None:
        return default
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be a number, got {raw!r}") from None
    if not np.isfinite(val):
        raise UsageError(f"{key} must be finite")
    return val


def _int_of(params: Dict, key: str, default: Optional[int]) -> int:
    raw = params.get(key)
    if raw is None:
        if default is None:
            raise UsageError(f"{key} is required")
        return default
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be an integer, got {raw!r}") from None


def _json_value(raw, key: str):
    if isinstance(raw, str):
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{key} is not valid JSON: {exc}") from None
    return raw


def _element_of(params: Dict, key: str, r: int, default: Optional[CDNumber] = None) -> CDNumber:
    raw = params.get(key)
    if raw is None:
        if default is not None:
            return default
        raise UsageError(f"--{key} is required for this command")
    data = _json_value(raw, key)
    if not isinstance(data, list) or not all(isinstance(v, (int, float)) for v in data):
        raise UsageError(f"{key} must be a JSON array of numbers")
    if len(data) != 2**r:
        raise UsageError(f"{key} needs {2**r} coordinates at level {r}, got {len(data)}")
    try:
        return CDNumber(r, [float(v) for v in data])
    except CDError as exc:
        raise UsageError(f"{key}: {exc}") from None


def _phrase_of(params: Dict, r: int) -> Phrase:
    raw = params.get("expr")
    if raw is None:
        raise UsageError("an expression is required (--expr or --expr-file)")
    if isinstance(raw, (dict, list)):
        return phrase_from_json(raw, r)
    text = str(raw).strip()
    if text.startswith("{") or text.startswith("["):
        return phrase_from_json(_json_value(text, "expr"), r)
    return parse(text, r)


def _path_of(params: Dict, r: int) -> Path:
    raw = params.get("path")
    if raw is None:
        raise UsageError("--path-file is required for this command")
    obj = _json_value(raw, "path")
    try:
        return path_from_json(obj, r)
    except CDError as exc:
        raise UsageError(f"path: {exc}") from None


def _coeffs(z: CDNumber) -> List[float]:
    return [float(v) for v in z.coeffs]


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _run_command(command: str, params: Dict) -> Dict:
    r = _level_of(params)
    tol = _float_of(params, "tol", DEFAULT_TOL)
    if tol <= 0:
        raise UsageError("tol must be positive")
    max_knots = _int_of(params, "max_knots", MAX_KNOTS)
    seed = _int_of(params, "seed", 42)

    if command == "zerodiv":
        pair = find_zero_divisor(r)
        if pair is None:
            return {"found": False}
        x, y = pair
        return {
            "found": True,
            "x": _coeffs(x),
            "y": _coeffs(y),
            "product_norm": (x * y).norm(),
        }

    if command == "eval":
        f = _phrase_of(params, r)
        z = _element_of(params, "point", r, default=zero(r))
        return {"value": _coeffs(evaluate(f, z))}

    if command == "diff":
        f = _phrase_of(params, r)
        z = _element_of(params, "point", r)
        h = _element_of(params, "direction", r)
        wrt = params.get("wrt") or "z"
        if wrt not in ("z", "zc"):
            raise UsageError("wrt must be 'z' or 'zc'")
        return {"value": _coeffs(derivative_apply(f, z, h, wrt=wrt))}

    if command == "integrate":
        f = _phrase_of(params, r)
        gamma = _path_of(params, r)
        return line_integral(f, gamma, tol=tol, max_knots=max_knots).to_json()

    if command == "logint":
        center = _element_of(params, "point", r, default=zero(r))
        gamma = _path_of(params, r)
        return {"value": _coeffs(log_integral(center, gamma, tol=tol))}

    if command == "index":
        a = _element_of(params, "point", r, default=zero(r))
        gamma = _path_of(params, r)
        vec = winding_index(a, gamma)
        return {
            "ar_index": _coeffs(ar_index(a, gamma, tol=tol)),
            "winding": {f"e{s}": int(n) for s, n in sorted(vec.per_plane.items())},
            "undefined": [f"e{s}" for s in sorted(vec.undefined)],
        }

    if command == "residue":
        f = _phrase_of(params, r)
        pole = _element_of(params, "pole", r)
        direction = _element_of(params, "direction", r)
        rho = _float_of(params, "rho", 0.5)
        if rho <= 0:
            raise UsageError("rho must be positive")
        return {"value": _coeffs(residue(f, pole, direction, rho, tol=tol))}

    if command == "cauchy":
        f = _phrase_of(params, r)
        z = _element_of(params, "point", r)
        gamma = _path_of(params, r)
        order = _int_of(params, "order", 0)
        if order < 0:
            raise UsageError("order must be >= 0")
        if order == 0:
            return {"value": _coeffs(cauchy_eval(f, z, gamma, tol=tol))}
        return {"value": _coeffs(cauchy_derivative(f, z, order, gamma, tol=tol))}

    if command == "taylor":
        f = _phrase_of(params, r)
        center = _element_of(params, "center", r)
        count = _int_of(params, "count", 6)
        if count < 1:
            raise UsageError("count must be >= 1")
        gamma = _path_of(params, r)
        coeffs = taylor_coeffs(f, center, count, gamma, tol=tol)
        return {"coefficients": [_coeffs(c) for c in coeffs]}

    if command == "laurent":
        f = _phrase_of(params, r)
        center = _element_of(params, "center", r)
        k_min = _int_of(params, "kmin", -3)
        k_max = _int_of(params, "kmax", 5)
        if k_min > k_max:
            raise UsageError("kmin must not exceed kmax")
        rho_inner = _float_of(params, "rho_inner", 0.5)
        rho_outer = _float_of(params, "rho_outer", 2.0)
        if not 0 < rho_inner < rho_outer:
            raise UsageError("need 0 < rho_inner < rho_outer")
        coeffs = laurent_coeffs(f, center, k_min, k_max, rho_inner, rho_outer, tol=tol)
        return {"k_min": k_min, "coefficients": [_coeffs(c) for c in coeffs]}

    if command == "restheorem":
        f = _phrase_of(params, r)
        raw_poles = _json_value(params.get("poles"), "poles")
        if not isinstance(raw_poles, list) or not raw_poles:
            raise UsageError("poles must be a non-empty JSON array of points")
        poles = [_element_of({"poles": p}, "poles", r) for p in raw_poles]
        gamma = _path_of(params, r)
        return residue_theorem_check(f, poles, gamma, tol=tol).to_json()

    if command == "argprinciple":
        f = _phrase_of(params, r)
        raw_zeros = _json_value(params.get("zeros"), "zeros")
        if not isinstance(raw_zeros, list) or not raw_zeros:
            raise UsageError("zeros must be a non-empty JSON array of [point, multiplicity]")
        zeros = []
        for item in raw_zeros:
            if not isinstance(item, list) or len(item) != 2:
                raise UsageError("each zero must be [point, multiplicity]")
            zeros.append((_element_of({"zeros": item[0]}, "zeros", r), _int_of({"m": item[1]}, "m", None)))
        gamma = _path_of(params, r)
        return argument_principle(f, gamma, zeros, tol=tol).to_json()

    if command == "roots":
        f = _phrase_of(params, r)
        rng = np.random.default_rng(seed)
        start = random_element(r, rng)
        root = find_root(f, start, tol=tol)
        return {"root": _coeffs(root), "residual": evaluate(f, root).norm()}

    if command in ("crcheck", "harmonic", "zbarcheck"):
        step = _float_of(params, "step", 1e-5)
        threshold = _float_of(params, "threshold", 1e-4)
        f = _phrase_of(params, r)
        sample = RealFieldSample.from_phrase(f, step=step)
        z = _element_of(params, "point", r)
        checker = {"crcheck": cr_check, "harmonic": harmonic_check, "zbarcheck": zbar_check}[command]
        return checker(sample, z, threshold=threshold).to_json()

    raise UsageError(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# job files
# ---------------------------------------------------------------------------

_JOB_KEYS = {
    "command", "level", "expression", "expr", "path", "tol", "max_knots",
    "seed", "point", "direction", "center", "pole", "poles", "zeros", "rho",
    "rho_inner", "rho_outer", "order", "count", "kmin", "kmax", "step",
    "threshold", "wrt", "output",
}


def _run_job(obj) -> Dict:
    if not isinstance(obj, dict):
        raise UsageError("a job must be a JSON object")
    unknown = set(obj) - _JOB_KEYS
    if unknown:
        raise UsageError(f"unknown job fields: {sorted(unknown)}")
    command = obj.get("command")
    if command not in COMMANDS:
        raise UsageError(f"job command must be one of {', '.join(COMMANDS)}")
    params = dict(obj)
    params.pop("command")
    if "expression" in params:
        params["expr"] = params.pop("expression")
    return _run_command(command, params)


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _selftest(seed: int, scale: float, inject_sign_error: bool) -> int:
    from . import criteria

    table = basis_table(2)
    saved = table.sign_ac.copy()
    if inject_sign_error:
        table.sign_ac[1, 2] = -table.sign_ac[1, 2]
    try:
        t0 = time.perf_counter()
        results = criteria.run_all(scale=scale, seed=seed, include_cli_selftest=False)
        elapsed = time.perf_counter() - t0
    finally:
        table.sign_ac[...] = saved
    for res in results:
        print(res.line())
    failures = sum(1 for res in results if not res.passed)
    verdict = "all criteria passed" if failures == 0 else f"{failures} criteria FAILED"
    print(f"{verdict} in {elapsed:.1f}s")
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _build_parser() -> _ArgumentParser:
    top = _ArgumentParser(prog="cdfun", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command")

    def add(name: str, **extra_flags):
        p = sub.add_parser(name, add_help=True)
        p.add_argument("--level", type=str, default=None)
        p.add_argument("--expr", type=str, default=None)
        p.add_argument("--expr-file", type=str, default=None)
        p.add_argument("--path-file", type=str, default=None)
        p.add_argument("--tol", type=str, default=None)
        p.add_argument("--max-knots", type=str, default=None)
        p.add_argument("--seed", type=str, default=None)
        p.add_argument("--output", type=str, default=None)
        p.add_argument("--format", choices=["json"], default="json")
        for flag, kwargs in extra_flags.items():
            p.add_argument(flag, **kwargs)
        return p

    s = {"type": str, "default": None}
    add("eval", **{"--point": s})
    add("diff", **{"--point": s, "--direction": s, "--wrt": s})
    add("integrate")
    add("logint", **{"--point": s})
    add("index", **{"--point": s})
    add("residue", **{"--pole": s, "--direction": s, "--rho": s})
    add("cauchy", **{"--point": s, "--order": s})
    add("taylor", **{"--center": s, "--count": s})
    add("laurent", **{"--center": s, "--kmin": s, "--kmax": s,
                      "--rho-inner": s, "--rho-outer": s})
    add("restheorem", **{"--poles": s})
    add("argprinciple", **{"--zeros": s})
    add("roots")
    add("crcheck", **{"--point": s, "--step": s, "--threshold": s})
    add("harmonic", **{"--point": s, "--step": s, "--threshold": s})
    add("zbarcheck", **{"--point": s, "--step": s, "--threshold": s})
    add("zerodiv")

    job = sub.add_parser("job", add_help=True)
    job.add_argument("job_file", type=str)
    job.add_argument("--output", type=str, default=None)
    job.add_argument("--format", choices=["json"], default="json")

    st = sub.add_parser("selftest", add_help=True)
    st.add_argument("--seed", type=str, default=None)
    st.add_argument("--scale", type=str, default=None)
    st.add_argument("--inject-sign-error", action="store_true",
                    help=argparse.SUPPRESS)
    return top


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _params_from_args(args: argparse.Namespace) -> Dict:
    params: Dict = {}
    for key in ("level", "tol", "max_knots", "seed", "point", "direction",
                "center", "pole", "poles", "zeros", "rho", "rho_inner",
                "rho_outer", "order", "count", "kmin", "kmax", "step",
                "threshold", "wrt"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if getattr(args, "expr", None) is not None and getattr(args, "expr_file", None) is not None:
        raise UsageError("give --expr or --expr-file, not both")
    if getattr(args, "expr", None) is not None:
        params["expr"] = args.expr
    elif getattr(args, "expr_file", None) is not None:
        params["expr"] = _read_file(args.expr_file)
    if getattr(args, "path_file", None) is not None:
        params["path"] = _read_file(args.path_file)
    return params


def _emit(report: Dict, output: Optional[str]) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (try --help)")
        if args.command == "selftest":
            seed = _int_of({"seed": args.seed}, "seed", 42)
            scale = _float_of({"scale": args.scale}, "scale", 0.12)
            if scale <= 0:
                raise UsageError("scale must be positive")
            return _selftest(seed, scale, args.inject_sign_error)
        if args.command == "job":
            obj = _json_value(_read_file(args.job_file), "job file")
            report = _run_job(obj)
        else:
            report = _run_command(args.command, _params_from_args(args))
        _emit(report, args.output)
        return 0
    except UsageError as exc:
        _emit({"error": {"kind": "usage", "detail": str(exc)}}, None)
        return 1
    except CDError as exc:
        code = 1 if exc.kind == "parse" else 2
        _emit({"error": {"kind": exc.kind, "detail": str(exc)}}, None)
        return code
    except Exception as exc:  # never a bare crash on malformed input
        _emit({"error": {"kind": "internal", "detail": f"{type(exc).__name__}: {exc}"}}, None)
        return 2


if __name__ == "__main__":
    sys.exit(main())
