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
(``--expr`` or ``--expr-file``; ``--path-file``), and ``_FLAG_NAMES`` holds
them for the command-line reader.  A flag is named exactly (no
abbreviations), given at most once, as ``--flag value`` or ``--flag=value``;
the token after a flag is its value even when it starts with ``-``.
``-h``/``--help`` prints the command list, or after a command its text and
flags, built from the same tables.  A ``job`` file is one JSON object with
the fields ``command``, ``level``, ``output`` (the report file) and the
command's parameters, ``expression`` standing for ``expr``; any other field
is a usage error, like a flag the command does not read.  Both routes build
one dict of raw parameters, which ``_run_command`` reads.

Reports are deterministic: fixed reduction orders everywhere, and anything
randomized (root-search restarts, the selftest) draws from --seed, default 42.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from json.encoder import encode_basestring_ascii
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
        return CDNumber(r, data)
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
    "seed": _int_range(0),
    # the kernel of coefficient k, or of derivative order k, has the power
    # -k-1, so every order, count and coefficient index keeps it inside the
    # exponent range the parser accepts
    "order": _int_range(0, MAX_EXPONENT - 1), "count": _int_range(1, MAX_EXPONENT),
    "kmin": _int_range(-MAX_EXPONENT - 1, MAX_EXPONENT - 1), "kmax": _int_range(-MAX_EXPONENT - 1, MAX_EXPONENT - 1),
    "max_knots": _int_range(2 * START_KNOTS, MAX_KNOTS),
}

# flags other than --<name>; a flag ending in -file names a file holding the value
_FLAGS = {"expr": ("--expr", "--expr-file"), "path": ("--path-file",)}


def _flags(name: str) -> tuple:
    return _FLAGS.get(name, ("--" + name.replace("_", "-"),))


def _coeffs(z: CDNumber) -> List[float]:
    return z.coeffs.tolist()


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
    """Line integral along the path.

    Power leaves of the primitive, and Ln leaves on a polyline, on an arc
    or on a closed circle off their plane, in closed form; Ln leaves on a
    closed circle in their plane by the midpoint rule, which --tol and
    --max-knots control: one knot layout is sized by an error bound,
    est_error is that bound plus rounding, and refinements counts the
    doublings of the layout from 64 knots.  converged is est_error <
    --tol."""
    return line_integral(expr, path, tol=tol, max_knots=max_knots).to_json()


def _logint(r, path, point=None):
    """Logarithmic loop integral about --point (default 0)."""
    return {"value": _coeffs(log_integral(zero(r) if point is None else point, path))}


def _index(r, path, point=None):
    """Winding numbers per plane and the algebra-valued index about --point."""
    a = zero(r) if point is None else point
    winding = winding_index(a, path).to_json()
    undefined = winding.pop("undefined")
    return {"ar_index": _coeffs(ar_index(a, path)), "winding": winding, "undefined": undefined}


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


def _argprinciple(r, expr, zeros, path):
    """Argument principle check for --zeros given as [point, multiplicity]."""
    return argument_principle(expr, path, zeros).to_json()


def _roots(r, expr, tol=DEFAULT_TOL, seed=42):
    """A root by damped Newton search from a start drawn from --seed."""
    root = find_root(expr, random_element(r, np.random.default_rng(seed)), tol=tol)
    return {"root": _coeffs(root), "residual": evaluate(expr, root).norm()}


def _crcheck(r, expr, point, step=DEFAULT_STEP, threshold=DEFAULT_THRESHOLD):
    """Finite-difference Cauchy-Riemann check at --point."""
    return cr_check(RealFieldSample(expr, step), point, threshold=threshold).to_json()


def _harmonic(r, expr, point, step=DEFAULT_STEP, threshold=DEFAULT_THRESHOLD):
    """Finite-difference pair-harmonicity check at --point."""
    return harmonic_check(RealFieldSample(expr, step), point, threshold=threshold).to_json()


def _zbarcheck(r, expr, point, step=DEFAULT_STEP, threshold=DEFAULT_THRESHOLD):
    """Conjugate-slot derivative check at --point."""
    return zbar_check(RealFieldSample(expr, step), point, threshold=threshold).to_json()


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
    """Run the acceptance criteria at reduced scale (--scale in (0, 1], default 0.12)."""
    from . import criteria

    table = basis_table(2)
    saved = table.right.copy()
    if inject_sign_error:
        table.right[1, 2] ^= 4  # bit d = 4 of an entry is its sign
    try:
        t0 = time.perf_counter()
        results = criteria.run_all(scale=scale, seed=seed)
        elapsed = time.perf_counter() - t0
    finally:
        table.right[...] = saved
    for res in results:
        print(res.line())
    failures = sum(1 for res in results if not res.passed)
    verdict = "all criteria passed" if failures == 0 else f"{failures} criteria FAILED"
    print(f"{verdict} in {elapsed:.1f}s")
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# command lines: read against the flag table, help built from it
# ---------------------------------------------------------------------------

#: command -> {flag: the parameter it sets}, in help order
_FLAG_NAMES = {
    command: {flag: name for name in ("level", "output", *reads) for flag in _flags(name)}
    for command, reads in _PARAMETERS.items()
}
_FLAG_NAMES["job"] = {"--output": "output"}
_FLAG_NAMES["selftest"] = {"--seed": "seed", "--scale": "scale", "--inject-sign-error": "inject_sign_error"}

_SWITCHES = ("--inject-sign-error",)  # flags that take no value

_HELP = ("-h", "--help")

#: the help text of each command; its first line is its entry in the list
_DOCS = {
    **{command: handler.__doc__ for command, handler in COMMAND_TABLE.items()},
    "job": """Run one job given as a JSON file: cdfun job FILE.

    The file holds one object with the fields command, level, output and
    the command's parameters, expression standing for expr.""",
    "selftest": _selftest.__doc__,
}


def _help(command: Optional[str]) -> str:
    """The command list, or one command's text and flags, required ones marked."""
    if command is None:
        width = max(map(len, _DOCS))
        rows = [f"  {name:<{width}}  {doc.splitlines()[0]}" for name, doc in _DOCS.items()]
        usage = ["usage: cdfun <command> [--flag value | --flag=value] ...", "       cdfun <command> --help"]
        return "\n".join([*usage, "", "commands:", *rows]) + "\n"
    table = _FLAG_NAMES[command]
    required = {"level": True, **_PARAMETERS[command]} if command in COMMAND_TABLE else {}
    rows = []
    for name in dict.fromkeys(table.values()):
        flags = " | ".join(flag for flag, n in table.items() if n == name)
        rows.append(f"  {flags}{'  (required)' if required.get(name) else ''}")
    usage = f"usage: cdfun {command}{' FILE' if command == 'job' else ''} [--flag value | --flag=value] ..."
    return "\n".join([usage, "", inspect.cleandoc(_DOCS[command]), "", "flags:", *rows]) + "\n"


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name, or bytes that are not UTF-8
        raise UsageError(f"cannot read {path}: {exc}") from None


def _read_argv(argv: List[str]) -> tuple:
    """The command and its raw parameters by name; (command, None) asks for help.

    argv[0] names the command.  Each flag after it is one of the command's
    table, named exactly and given once, as --flag value or --flag=value; the
    token after a flag is its value even when it starts with '-'.  A flag
    ending in -file names the file that holds the value.  job also takes its
    file as the one argument that is not a flag.
    """
    if not argv:
        raise UsageError("a subcommand is required (try --help)")
    command = argv[0]
    if command in _HELP:
        return None, None
    table = _FLAG_NAMES.get(command)
    if table is None:
        raise UsageError(f"unknown subcommand {command!r} (try --help)")
    params, given, positional = {}, {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            return command, None
        if not token.startswith("--"):
            positional.append(token)
            continue
        flag, eq, value = token.partition("=")
        name = table.get(flag)
        if name is None:
            raise UsageError(f"{command} has no flag {flag} (try cdfun {command} --help)")
        if name in given:
            twice = given[name] == flag
            raise UsageError(f"{flag} is given twice" if twice else f"give {given[name]} or {flag}, not both")
        if flag in _SWITCHES:
            if eq:
                raise UsageError(f"{flag} takes no value")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"{flag} needs a value")
        given[name] = flag
        params[name] = value
    if command == "job":
        if len(positional) != 1:
            raise UsageError(f"job takes one job file, got {len(positional)}")
        params["job_file"] = positional[0]
    elif positional:
        raise UsageError(f"unexpected argument {positional[0]!r}")
    for name, flag in given.items():
        if flag.endswith("-file"):
            params[name] = _read_file(params[name])
    return command, params


def _encode(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2), built by joins rather than json's
    pure-Python indenting encoder: finite floats by float.__repr__, keys and
    strings escaped to ASCII, every other scalar by json.dumps."""
    if isinstance(obj, float) and obj - obj == 0.0:
        return float.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{encode_basestring_ascii(key)}: {_encode(value, inner)}" for key, value in obj.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [float.__repr__(v) if type(v) is float and v - v == 0.0 else _encode(v, inner) for v in obj]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    return json.dumps(obj)


def _emit(report: Dict, output: Optional[str]) -> None:
    text = _encode(report) + "\n"
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot write {output}: {exc}") from None


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # numpy's overflow and invalid-value warnings would reach stderr ahead of
    # the report; a non-finite result still ends as a typed error
    with np.errstate(all="ignore"):
        try:
            command, params = _read_argv(argv)
            if params is None:
                sys.stdout.write(_help(command))
                return 0
            output = params.pop("output", None)
            if command == "selftest":
                seed = _READERS["seed"](params.get("seed", 42), "seed")
                scale = _positive(params.get("scale", 0.12), "scale")
                if scale > 1.0:
                    raise UsageError(f"scale must be in (0, 1], got {scale!r}")
                return _selftest(seed, scale, params.get("inject_sign_error", False))
            if command == "job":
                obj = _json_value(_read_file(params["job_file"]), "job file")
                command, params, output = _job_params(obj, output)
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
