"""Command-line front end with JSON input/output.

Subcommand style: one job per invocation, every report is JSON on stdout (or
--output FILE), and all numbers travel as arrays of 2**r doubles in basis
order.  Exit codes: 0 success, 1 usage/parse problems, 2 domain errors; every
failure is reported as {"error": {"kind": ..., "detail": ...}} rather than a
traceback.

``COMMAND_TABLE`` maps each command to a handler whose keyword parameters
are the parameters the command reads (required when they have no default);
``_READERS`` parses and range-checks each parameter by name.  The flags of
``cdfun <command>`` are ``--level``, ``--output`` and ``--<parameter>``
(``--expr`` or ``--expr-file``; ``--path-file``).  A ``job`` file is one JSON
object with the fields ``command``, ``level``, ``output`` (the report file)
and the command's parameters, ``expression`` standing for ``expr``; any
other field is a usage error, like a flag the command does not read.

Reports are deterministic: fixed reduction orders everywhere, and anything
randomized (root-search restarts, the selftest) draws from --seed, default 42.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from .algebra import CDNumber, basis_table, find_zero_divisor, random_element, zero
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
from .diffcheck import DEFAULT_STEP, DEFAULT_THRESHOLD, RealFieldSample, cr_check, harmonic_check, zbar_check
from .errors import CDError
from .expressions import MAX_EXPONENT, Phrase, _is_number, derivative_apply, evaluate, parse, phrase_from_json
from .integrate import DEFAULT_TOL, MAX_KNOTS, START_KNOTS, Path, line_integral, log_integral, path_from_json

MAX_CLI_LEVEL = 8


class UsageError(Exception):
    """Bad flags, malformed job files, or out-of-range parameters."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# readers: a raw flag string or job field value -> a checked parameter
# ---------------------------------------------------------------------------

def _level(raw) -> int:
    if raw is None:
        raise UsageError("--level is required")
    r = _int(raw, "level")
    if not 1 <= r <= MAX_CLI_LEVEL:
        raise UsageError(f"level must be in 1..{MAX_CLI_LEVEL}, got {r}")
    return r


def _float(raw, key: str, r: Optional[int] = None) -> float:
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be a number, got {raw!r}") from None
    if not np.isfinite(val):
        raise UsageError(f"{key} must be finite")
    return val


def _positive(raw, key: str, r: Optional[int] = None) -> float:
    val = _float(raw, key)
    if val <= 0:
        raise UsageError(f"{key} must be positive")
    return val


def _int(raw, key: str, r: Optional[int] = None) -> int:
    """An integer from a flag string or a JSON integer; JSON floats and
    booleans are refused rather than truncated, as the string "2.9" is."""
    try:
        if isinstance(raw, (bool, float)):
            raise TypeError
        return int(raw)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{key} must be an integer, got {raw!r}") from None


def _int_range(lo: int, hi: Optional[int] = None):
    """Reader of integers in lo..hi, unbounded above when hi is None."""
    span = f">= {lo}" if hi is None else f"in {lo}..{hi}"

    def read(raw, key: str, r: Optional[int] = None) -> int:
        val = _int(raw, key)
        if val < lo or (hi is not None and val > hi):
            raise UsageError(f"{key} must be {span}, got {val}")
        return val

    return read


def _wrt(raw, key: str, r: Optional[int] = None) -> str:
    if raw not in ("z", "zc"):
        raise UsageError("wrt must be 'z' or 'zc'")
    return raw


def _json_value(raw, key: str):
    if isinstance(raw, str):
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{key} is not valid JSON: {exc}") from None
        except RecursionError:
            raise UsageError(f"{key} nests too deeply to decode") from None
    return raw


def _element(raw, key: str, r: int) -> CDNumber:
    data = _json_value(raw, key)
    if not isinstance(data, list) or not all(map(_is_number, data)):
        raise UsageError(f"{key} must be a JSON array of numbers")
    if len(data) != 2**r:
        raise UsageError(f"{key} needs {2**r} coordinates at level {r}, got {len(data)}")
    try:
        return CDNumber(r, [float(v) for v in data])
    except CDError as exc:
        raise UsageError(f"{key}: {exc}") from None


def _poles(raw, key: str, r: int) -> List[CDNumber]:
    items = _json_value(raw, key)
    if not isinstance(items, list) or not items:
        raise UsageError(f"{key} must be a non-empty JSON array of points")
    return [_element(item, key, r) for item in items]


def _zeros(raw, key: str, r: int) -> list:
    items = _json_value(raw, key)
    if not isinstance(items, list) or not items:
        raise UsageError(f"{key} must be a non-empty JSON array of [point, multiplicity]")
    if not all(isinstance(item, list) and len(item) == 2 for item in items):
        raise UsageError("each zero must be [point, multiplicity]")
    return [(_element(point, key, r), _int(m, "multiplicity")) for point, m in items]


def _phrase(raw, key: str, r: int) -> Phrase:
    if isinstance(raw, (dict, list)):
        return phrase_from_json(raw, r)
    text = str(raw).strip()
    if text.startswith("{") or text.startswith("["):
        return phrase_from_json(_json_value(text, key), r)
    return parse(text, r)


def _path(raw, key: str, r: int) -> Path:
    obj = _json_value(raw, key)
    try:
        return path_from_json(obj, r)
    except CDError as exc:
        raise UsageError(f"{key}: {exc}") from None


_READERS = {
    "expr": _phrase, "path": _path, "poles": _poles, "zeros": _zeros, "wrt": _wrt,
    "point": _element, "direction": _element, "center": _element, "pole": _element,
    "rho": _positive, "tol": _positive,
    "rho_inner": _float, "rho_outer": _float, "step": _positive, "threshold": _float,
    "kmin": _int, "kmax": _int, "seed": _int, "order": _int_range(0),
    # the kernel of coefficient k has the power -k-1, so every count keeps it
    # inside the exponent range the parser accepts
    "count": _int_range(1, MAX_EXPONENT),
    "max_knots": _int_range(2 * START_KNOTS, MAX_KNOTS),
}

# flags other than --<name>; a flag ending in -file names a file holding the value
_FLAGS = {"expr": ("--expr", "--expr-file"), "path": ("--path-file",)}


def _flags(name: str) -> tuple:
    return _FLAGS.get(name, ("--" + name.replace("_", "-"),))


def _coeffs(z: CDNumber) -> List[float]:
    return [float(v) for v in z.coeffs]


# ---------------------------------------------------------------------------
# commands: each handler takes the level and the parameters it reads.  They
# call the library through this module's names at call time, so a caller
# that rebinds cdfun.cli.<function> sees every call.
# ---------------------------------------------------------------------------

def _eval(r, expr, point=None):
    """Value of the expression at --point (default 0)."""
    return {"value": _coeffs(evaluate(expr, zero(r) if point is None else point))}


def _diff(r, expr, point, direction, wrt="z"):
    """Directional derivative at --point along --direction, in z or zc."""
    return {"value": _coeffs(derivative_apply(expr, point, direction, wrt=wrt))}


def _integrate(r, expr, path, tol=DEFAULT_TOL, max_knots=MAX_KNOTS):
    """Line integral along the path: power leaves of the primitive in closed
    form, Ln leaves by extrapolated knot doubling."""
    return line_integral(expr, path, tol=tol, max_knots=max_knots).to_json()


def _logint(r, path, point=None, tol=DEFAULT_TOL):
    """Logarithmic loop integral about --point (default 0)."""
    return {"value": _coeffs(log_integral(zero(r) if point is None else point, path, tol=tol))}


def _index(r, path, point=None, tol=DEFAULT_TOL):
    """Winding numbers per plane and the algebra-valued index about --point."""
    a = zero(r) if point is None else point
    winding = winding_index(a, path).to_json()
    undefined = winding.pop("undefined")
    return {"ar_index": _coeffs(ar_index(a, path, tol=tol)), "winding": winding, "undefined": undefined}


def _residue(r, expr, pole, direction, rho=0.5, tol=DEFAULT_TOL):
    """Residue at --pole from a circle of radius --rho in the --direction plane."""
    return {"value": _coeffs(residue(expr, pole, direction, rho, tol=tol))}


def _cauchy(r, expr, point, path, order=0, tol=DEFAULT_TOL):
    """Cauchy integral formula at --point, or its --order-th derivative."""
    if order == 0:
        return {"value": _coeffs(cauchy_eval(expr, point, path, tol=tol))}
    return {"value": _coeffs(cauchy_derivative(expr, point, order, path, tol=tol))}


def _taylor(r, expr, center, path, count=6, tol=DEFAULT_TOL):
    """The first --count Taylor coefficients about --center."""
    return {"coefficients": [_coeffs(c) for c in taylor_coeffs(expr, center, count, path, tol=tol)]}


def _laurent(r, expr, center, kmin=-3, kmax=5, rho_inner=0.5, rho_outer=2.0, tol=DEFAULT_TOL):
    """Laurent coefficients kmin..kmax about --center on an annulus."""
    if kmin > kmax:
        raise UsageError("kmin must not exceed kmax")
    if not 0 < rho_inner < rho_outer:
        raise UsageError("need 0 < rho_inner < rho_outer")
    coeffs = laurent_coeffs(expr, center, kmin, kmax, rho_inner, rho_outer, tol=tol)
    return {"k_min": kmin, "coefficients": [_coeffs(c) for c in coeffs]}


def _restheorem(r, expr, poles, path, tol=DEFAULT_TOL):
    """Residue theorem check for the given --poles inside the path."""
    return residue_theorem_check(expr, poles, path, tol=tol).to_json()


def _argprinciple(r, expr, zeros, path, tol=DEFAULT_TOL):
    """Argument principle check for --zeros given as [point, multiplicity]."""
    return argument_principle(expr, path, zeros, tol=tol).to_json()


def _roots(r, expr, tol=DEFAULT_TOL, seed=42):
    """A root by damped Newton search from a start drawn from --seed."""
    root = find_root(expr, random_element(r, np.random.default_rng(seed)), tol=tol)
    return {"root": _coeffs(root), "residual": evaluate(expr, root).norm()}


def _crcheck(r, expr, point, step=DEFAULT_STEP, threshold=DEFAULT_THRESHOLD):
    """Finite-difference Cauchy-Riemann check at --point."""
    return cr_check(RealFieldSample.from_phrase(expr, step=step), point, threshold=threshold).to_json()


def _harmonic(r, expr, point, step=DEFAULT_STEP, threshold=DEFAULT_THRESHOLD):
    """Finite-difference pair-harmonicity check at --point."""
    return harmonic_check(RealFieldSample.from_phrase(expr, step=step), point, threshold=threshold).to_json()


def _zbarcheck(r, expr, point, step=DEFAULT_STEP, threshold=DEFAULT_THRESHOLD):
    """Conjugate-slot derivative check at --point."""
    return zbar_check(RealFieldSample.from_phrase(expr, step=step), point, threshold=threshold).to_json()


def _zerodiv(r):
    """A pair of nonzero basis-sum elements whose product is zero, if any."""
    pair = find_zero_divisor(r)
    if pair is None:
        return {"found": False}
    x, y = pair
    return {"found": True, "x": _coeffs(x), "y": _coeffs(y), "product_norm": (x * y).norm()}


COMMAND_TABLE = {
    "eval": _eval, "diff": _diff, "integrate": _integrate, "logint": _logint, "index": _index,
    "residue": _residue, "cauchy": _cauchy, "taylor": _taylor, "laurent": _laurent,
    "restheorem": _restheorem, "argprinciple": _argprinciple, "roots": _roots,
    "crcheck": _crcheck, "harmonic": _harmonic, "zbarcheck": _zbarcheck, "zerodiv": _zerodiv,
}

COMMANDS = tuple(COMMAND_TABLE)

#: command -> {parameter: required}, in the handler's order
_PARAMETERS = {
    command: {p.name: p.default is p.empty for p in list(inspect.signature(handler).parameters.values())[1:]}
    for command, handler in COMMAND_TABLE.items()
}

#: command -> the fields its job file may carry
_JOB_FIELDS = {
    command: {"command", "level", "output", *reads, *(["expression"] if "expr" in reads else [])}
    for command, reads in _PARAMETERS.items()
}

_JOB_KEYS = set().union(*_JOB_FIELDS.values())


def _run_command(command: str, params: Dict) -> Dict:
    r = _level(params.get("level"))
    values = {}
    for name, required in _PARAMETERS[command].items():
        raw = params.get(name)
        if raw is not None:
            values[name] = _READERS[name](raw, name, r)
        elif required:
            raise UsageError(f"{' or '.join(_flags(name))} is required for this command")
    return COMMAND_TABLE[command](r, **values)


def _job_params(obj, output_flag: Optional[str]) -> tuple:
    """Command, parameters and report file of a job object, every field checked."""
    if not isinstance(obj, dict):
        raise UsageError("a job must be a JSON object")
    command = obj.get("command")
    if command not in COMMANDS:
        raise UsageError(f"job command must be one of {', '.join(COMMANDS)}")
    unknown = set(obj) - _JOB_FIELDS[command]
    if unknown:
        raise UsageError(f"unknown job fields for {command}: {sorted(unknown)}")
    params = dict(obj)
    if "expression" in params:
        if "expr" in params:
            raise UsageError("give expr or expression, not both")
        params["expr"] = params.pop("expression")
    output = params.get("output")
    if output is None:
        return command, params, output_flag
    if output_flag is not None:
        raise UsageError("give the job's output field or --output, not both")
    if not isinstance(output, str):
        raise UsageError("output must be a file name")
    return command, params, output


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
    for command, handler in COMMAND_TABLE.items():
        p = sub.add_parser(command, help=handler.__doc__, description=handler.__doc__)
        p.add_argument("--level")
        p.add_argument("--output")
        for name in _PARAMETERS[command]:
            group = p.add_mutually_exclusive_group()
            for flag in _flags(name):
                group.add_argument(flag)

    job = sub.add_parser("job", help="Run one job given as a JSON file.")
    job.add_argument("job_file")
    job.add_argument("--output")

    st = sub.add_parser("selftest", help="Run the acceptance criteria at reduced scale.")
    st.add_argument("--seed")
    st.add_argument("--scale")
    st.add_argument("--inject-sign-error", action="store_true", help=argparse.SUPPRESS)
    return top


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _params_from_args(args: argparse.Namespace) -> Dict:
    params = {"level": args.level}
    for name in _PARAMETERS[args.command]:
        for flag in _flags(name):
            val = getattr(args, flag[2:].replace("-", "_"))
            if val is not None:
                params[name] = _read_file(val) if flag.endswith("-file") else val
    return params


def _emit(report: Dict, output: Optional[str]) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {output}: {exc}") from None


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # numpy's overflow and invalid-value warnings would reach stderr ahead of
    # the report; a non-finite result still ends as a typed error
    with np.errstate(all="ignore"):
        try:
            args = _build_parser().parse_args(argv)
            if args.command is None:
                raise UsageError("a subcommand is required (try --help)")
            if args.command == "selftest":
                seed = 42 if args.seed is None else _int(args.seed, "seed")
                scale = 0.12 if args.scale is None else _positive(args.scale, "scale")
                return _selftest(seed, scale, args.inject_sign_error)
            if args.command == "job":
                obj = _json_value(_read_file(args.job_file), "job file")
                command, params, output = _job_params(obj, args.output)
            else:
                command, params, output = args.command, _params_from_args(args), args.output
            _emit(_run_command(command, params), output)
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
