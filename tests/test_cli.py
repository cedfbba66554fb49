"""CLI behavior: report schemas, exit codes, determinism, and fuzz robustness.

Everything runs in-process through cli.main so exit codes and stdout bytes
are observable directly.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfun import cli
from cdfun.algebra import CDNumber, basis_element, mul
from cdfun.expressions import parse, phrase_to_json


def invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def invoke_json(argv):
    code, out = invoke(argv)
    return code, json.loads(out)


def circle_json(center, radius, direction, turns=1):
    return {"kind": "circle", "center": center, "radius": radius,
            "direction": direction, "turns": turns}


@pytest.fixture
def circle3(tmp_path):
    path = tmp_path / "circle3.json"
    path.write_text(json.dumps(circle_json([0] * 8, 1.0, [0, 1] + [0] * 6)))
    return str(path)


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_eval_basis_product():
    code, rep = invoke_json(["eval", "--level", "2", "--expr", "e1*e2"])
    assert code == 0
    assert rep["value"] == [0.0, 0.0, 0.0, 1.0]


def test_integrate_reciprocal_unit_circle(circle3):
    code, rep = invoke_json(["integrate", "--level", "3", "--expr", "z^-1",
                             "--path-file", circle3])
    assert code == 0
    assert rep["converged"] is True
    value = np.array(rep["value"])
    assert abs(value[1] - 2.0 * math.pi) <= 1e-5
    assert np.max(np.abs(np.delete(value, 1))) <= 1e-5


def test_integrate_power_of_a_power_is_its_linear_form(tmp_path):
    # ((z-1)^-1)^-1 is z - 1: both integrate in closed form from 0 to 2 + e1
    path = tmp_path / "segment.json"
    path.write_text(json.dumps({"kind": "polyline", "points": [[0, 0, 0, 0], [2, 1, 0, 0]]}))
    reports = [invoke_json(["integrate", "--level", "2", "--expr", text, "--path-file", str(path)])
               for text in ("((z-1)^-1)^-1", "z-1")]
    assert reports[0] == reports[1]
    code, rep = reports[0]
    assert code == 0 and (rep["refinements"], rep["converged"]) == (0, True)
    assert rep["value"] == [-0.5, 1.0, 0.0, 0.0]


def test_zerodiv_division_algebra():
    code, rep = invoke_json(["zerodiv", "--level", "3"])
    assert code == 0
    assert rep == {"found": False}


def test_zerodiv_sedenions():
    code, rep = invoke_json(["zerodiv", "--level", "4"])
    assert code == 0
    assert rep["found"] is True
    assert rep["product_norm"] == 0.0
    x = np.array(rep["x"])
    y = np.array(rep["y"])
    assert abs(np.linalg.norm(x) * np.linalg.norm(y) - 2.0) <= 1e-12


# ---------------------------------------------------------------------------
# exit codes and error JSON
# ---------------------------------------------------------------------------

def test_level_cap_is_usage_error():
    code, rep = invoke_json(["eval", "--level", "9", "--expr", "z"])
    assert code == 1
    assert rep["error"]["kind"] == "usage"


def test_missing_level_is_usage_error():
    code, rep = invoke_json(["eval", "--expr", "z"])
    assert code == 1
    assert rep["error"]["kind"] == "usage"


def test_shared_parser_keeps_no_state_between_calls():
    # the parser is built once per process; a flag given to one call must not
    # leak into the next
    missing_level = ["eval", "--expr", "z", "--point", "[1, 0, 0, 0]"]
    code, first = invoke_json(missing_level)
    assert code == 1
    assert invoke_json(["eval", "--level", "2"] + missing_level[1:])[0] == 0
    code, again = invoke_json(missing_level)
    assert code == 1
    assert again == first == {"error": {"kind": "usage", "detail": "--level is required"}}


def test_expression_syntax_error_exits_1():
    code, rep = invoke_json(["eval", "--level", "2", "--expr", "z +* 2"])
    assert code == 1
    assert rep["error"]["kind"] == "parse"


@pytest.mark.parametrize(
    "tree",
    [
        {"var": "z", "pow": "x"},
        {"op": "pow", "base": {"var": "z"}, "pow": None},
        {"op": "pow", "pow": 2},
        {"var": "z", "pow": 2.7},
        {"var": "z", "pow": True},
        {"op": "pow", "base": {"var": "z"}, "pow": 61},
        {"op": "add", "args": 5},
        {"op": "neg", "args": None},
    ],
    ids=["string", "null", "no-base", "float", "bool", "overflow", "add-args", "neg-args"],
)
def test_malformed_json_expression_is_a_parse_error(tree):
    code, rep = invoke_json(["eval", "--level", "2", "--expr", json.dumps(tree),
                             "--point", "[1, 0, 0, 0]"])
    assert (code, rep["error"]["kind"]) == (1, "parse")


def _nested_neg(depth):
    # written out, since json.dumps itself cannot encode 600 levels
    return '{"op": "neg", "args": [' * depth + '{"var": "z"}' + "]}" * depth


@pytest.mark.parametrize(
    "expr,point,kind",
    [
        ("(" * 400 + "z" + ")" * 400, "[1, 0]", "parse"),
        ("*".join(["z"] * 1500), "[1, 0]", "parse"),
        (_nested_neg(600), "[1, 0]", "usage"),
        (_nested_neg(300), "[1, 0]", "parse"),
        ('{"const": [true, false]}', "[1, 0]", "parse"),
        ('{"const": ["1.5", 0]}', "[1, 0]", "parse"),
        ("z", "[true, 0]", "usage"),
        ("(" * 100 + "z" + ")" * 100, "[1, 0]", None),
        ("*".join(["z"] * 100), "[1, 0]", None),
        (_nested_neg(99), "[1, 0]", None),
    ],
    ids=["brackets-400", "chain-1500", "json-neg-600", "json-neg-300", "const-bool", "const-string",
         "point-bool", "brackets-100", "chain-100", "json-neg-99"],
)
def test_deep_or_non_numeric_input_is_a_typed_error(expr, point, kind):
    code, rep = invoke_json(["eval", "--level", "1", "--expr", expr, "--point", point])
    if kind is None:
        assert code == 0
        assert abs(abs(rep["value"][0]) - 1.0) < 1e-12
    else:
        assert (code, rep["error"]["kind"]) == (1, kind)


HUGE = "1" + "0" * 400  # a JSON integer beyond the double range


@pytest.mark.parametrize(
    "argv,kind",
    [
        (["eval", "--expr", "z", "--point", f"[{HUGE}, 0]"], "usage"),
        (["integrate", "--expr", "z", "--path-file",
          f'{{"kind": "circle", "center": [{HUGE}, 0], "radius": 1.0, "direction": [0, 1]}}'], "usage"),
        (["eval", "--expr", f'{{"const": [{HUGE}, 0]}}', "--point", "[1, 0]"], "parse"),
        (["eval", "--expr", f'{{"const": [{HUGE[:300]}, 0]}}', "--point", "[1, 0]"], None),
        (["eval", "--expr", "1e999*z", "--point", "[1, 0]"], "parse"),
        (["eval", "--expr", "1e999*e1", "--point", "[1, 0]"], "parse"),
    ],
    ids=["point", "path-center", "const", "const-in-range", "literal", "literal-times-unit"],
)
def test_integer_beyond_the_double_range_is_a_typed_error(argv, kind, tmp_path):
    if "--path-file" in argv:
        path = tmp_path / "huge.json"
        path.write_text(argv[-1])
        argv = [*argv[:-1], str(path)]
    code, rep = invoke_json([argv[0], "--level", "1", *argv[1:]])
    if kind is None:
        assert code == 0 and rep["value"][0] == 1e299
    else:
        assert (code, rep["error"]["kind"]) == (1, kind)


def test_pole_hit_exits_2():
    code, rep = invoke_json(["eval", "--level", "2", "--expr", "z^-1",
                             "--point", "[0, 0, 0, 0]"])
    assert code == 2
    assert rep["error"]["kind"] == "pole"


@pytest.mark.parametrize("level", [2, 8])
@pytest.mark.parametrize("size", [1e200, 1e-200])
def test_inverse_of_a_huge_or_tiny_point(level, size):
    # the squared norm 1e400 overflowed to a value of 0, and 1e-400 underflowed
    # to a false pole
    d = 1 << level
    code, rep = invoke_json(["eval", "--level", str(level), "--expr", "z^-1",
                             "--point", json.dumps([size, 0.0, 3.0 * size] + [0.0] * (d - 3))])
    assert code == 0
    want = [0.1 / size, 0.0, -0.3 / size] + [0.0] * (d - 3)
    assert max(abs(u - v) for u, v in zip(rep["value"], want)) <= 1e-15 / size


def test_power_of_non_linear_base_is_rejected_without_expansion(circle3):
    # (z*e1+e2)^60 would expand to 2^60 words; it must be refused as a whole
    start = time.perf_counter()
    code, rep = invoke_json(["integrate", "--level", "3", "--expr", "(z*e1+e2)^60",
                             "--path-file", circle3])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert rep["error"]["kind"] == "unsupported"
    assert "(z*e1+e2)^60" in rep["error"]["detail"]


def test_nonconvergence_exits_2():
    # |z|^2 + 1 has no zeros anywhere
    code, rep = invoke_json(["roots", "--level", "1", "--expr", "z*zc + (1.0)"])
    assert code == 2
    assert rep["error"]["kind"] == "nonconvergence"


@pytest.mark.parametrize(
    "level,expr", [(2, "z^2+1e300"), (2, "1e200*z^2+1"), (3, "z^2+1e200")]
)
def test_roots_of_an_overflowing_polynomial_do_not_converge(level, expr):
    # |P|^2 overflows at every start, so no least-squares step is attempted
    code, rep = invoke_json(["roots", "--level", str(level), "--expr", expr])
    assert code == 2
    assert rep["error"]["kind"] == "nonconvergence"


def _refuse_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


@pytest.mark.parametrize("level", [1, 8])
def test_argument_principle_on_a_circle_of_radius_1e100(level, tmp_path):
    # |Im z^3| = 1e300 is finite, but its square overflowed in the logarithm's
    # imaginary norm, which read the path as passing through the centre
    d = 1 << level
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(circle_json([0] * d, 1e100, [0, 1] + [0] * (d - 2))))
    code, rep = invoke_json(["argprinciple", "--level", str(level), "--expr", "z^3",
                             "--zeros", json.dumps([[[0] * d, 3]]), "--path-file", str(path)])
    assert code == 0
    assert rep["lhs"] == rep["rhs"] == [0.0, 3.0] + [0.0] * (d - 2)


@pytest.mark.parametrize("level", [2, 8])
def test_integrate_at_scale_1e200_reports_a_finite_error(level, tmp_path):
    # the extrapolation's error estimate squared a finite difference past the
    # float range and printed Infinity, which is not JSON
    d = 1 << level
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(circle_json([0] * d, 1.0, [0, 1] + [0] * (d - 2))))
    code, out = invoke(["integrate", "--level", str(level), "--expr", "(1e200)*(z-0.1)^-1",
                        "--path-file", str(path)])
    rep = json.loads(out, parse_constant=_refuse_constant)
    assert code == 0
    assert math.isfinite(rep["est_error"])
    assert abs(rep["value"][1] - 2e200 * math.pi) <= 1e-10 * 2e200 * math.pi


def test_unknown_subcommand_is_usage_error():
    code, rep = invoke_json(["transmogrify", "--level", "2"])
    assert code == 1
    assert rep["error"]["kind"] == "usage"


def test_no_subcommand_is_usage_error():
    code, rep = invoke_json([])
    assert code == 1
    assert rep["error"]["kind"] == "usage"


def test_bad_path_kind_is_usage_error(tmp_path):
    bad = tmp_path / "path.json"
    bad.write_text(json.dumps({"kind": "sphere", "center": [0, 0, 0, 0]}))
    code, rep = invoke_json(["integrate", "--level", "2", "--expr", "z",
                             "--path-file", str(bad)])
    assert code == 1
    assert rep["error"]["kind"] == "usage"


def test_wrong_point_width_is_usage_error():
    code, rep = invoke_json(["eval", "--level", "3", "--expr", "z",
                             "--point", "[1, 0]"])
    assert code == 1
    assert "8 coordinates" in rep["error"]["detail"]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_reports_are_byte_identical(circle3, tmp_path):
    # the argprinciple jobs take both image routes: z^3 has a certified
    # speed bound, and the constant 0.05*e5 off the circle's plane leaves
    # z^2 + 0.05*e5 to the agreement of two layouts
    two_turns = tmp_path / "two_turns.json"
    two_turns.write_text(json.dumps(circle_json([0] * 8, 1.0, [0, 1] + [0] * 6, turns=2)))
    image = ["argprinciple", "--level", "3", "--path-file", str(two_turns), "--zeros"]
    jobs = [
        ["eval", "--level", "2", "--expr", "e1*e2"],
        ["roots", "--level", "2", "--expr", "z^2 + (1.0)", "--seed", "7"],
        ["integrate", "--level", "3", "--expr", "z^-1", "--path-file", circle3],
        ["crcheck", "--level", "2", "--expr", "zc", "--point", "[0.3, 0.1, -0.2, 0.5]"],
        [*image, json.dumps([[[0] * 8, 3]]), "--expr", "z^3"],
        [*image, json.dumps([[[0] * 8, 2]]), "--expr", "z^2+0.05*e5"],
    ]
    first = [invoke(argv) for argv in jobs]
    second = [invoke(argv) for argv in jobs]
    assert first == second


def test_roots_seed_changes_start_but_stays_valid():
    f = ["roots", "--level", "2", "--expr", "z^2 + (1.0)"]
    code_a, rep_a = invoke_json(f + ["--seed", "1"])
    code_b, rep_b = invoke_json(f + ["--seed", "2"])
    assert code_a == 0 and code_b == 0
    for rep in (rep_a, rep_b):
        assert rep["residual"] <= 1e-6
        root = np.array(rep["root"])
        # any root of z^2 + 1 is a unit imaginary
        assert abs(root[0]) <= 1e-6
        assert abs(np.linalg.norm(root) - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# input plumbing: job files, expr files, output files
# ---------------------------------------------------------------------------

def test_job_file_matches_flag_route(tmp_path, circle3):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "command": "integrate", "level": 3, "expression": "z^-1",
        "path": circle_json([0] * 8, 1.0, [0, 1] + [0] * 6),
    }))
    code_a, out_a = invoke(["job", str(job)])
    code_b, out_b = invoke(["integrate", "--level", "3", "--expr", "z^-1",
                            "--path-file", circle3])
    assert code_a == code_b == 0
    assert out_a == out_b


def test_job_rejects_unknown_fields(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "eval", "level": 2, "expr": "z", "extra": 1}))
    code, rep = invoke_json(["job", str(job)])
    assert code == 1
    assert "unknown job fields" in rep["error"]["detail"]


def test_job_rejects_selftest_command(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "selftest"}))
    code, rep = invoke_json(["job", str(job)])
    assert code == 1


def test_expr_file_accepts_json_tree(tmp_path):
    f = parse("z^2 + e1", 2)
    tree = tmp_path / "expr.json"
    tree.write_text(json.dumps(phrase_to_json(f)))
    point = "[0.4, -0.3, 0.2, 0.1]"
    code_a, out_a = invoke(["eval", "--level", "2", "--expr-file", str(tree),
                            "--point", point])
    code_b, out_b = invoke(["eval", "--level", "2", "--expr", "z^2 + e1",
                            "--point", point])
    assert code_a == code_b == 0
    assert out_a == out_b


def test_output_flag_writes_file(tmp_path):
    out_file = tmp_path / "report.json"
    code, out = invoke(["eval", "--level", "2", "--expr", "e1*e2",
                        "--output", str(out_file)])
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["value"] == [0.0, 0.0, 0.0, 1.0]


def test_job_output_field_writes_file(tmp_path):
    out_file = tmp_path / "report.json"
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "eval", "level": 2, "expr": "e1*e2", "output": str(out_file)}))
    code, out = invoke(["job", str(job)])
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["value"] == [0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("route", ["flag", "job"])
def test_unwritable_output_is_usage_error(tmp_path, route):
    target = str(tmp_path / "missing-dir" / "report.json")
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "eval", "level": 2, "expr": "z", "output": target}))
    argv = ["job", str(job)] if route == "job" else ["eval", "--level", "2", "--expr", "z", "--output", target]
    code, rep = invoke_json(argv)
    assert code == 1
    assert rep["error"]["kind"] == "usage"


def test_job_output_field_and_flag_together_are_refused(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "eval", "level": 2, "expr": "z",
                               "output": str(tmp_path / "a.json")}))
    code, rep = invoke_json(["job", str(job), "--output", str(tmp_path / "b.json")])
    assert code == 1
    assert rep["error"]["kind"] == "usage"
    assert not (tmp_path / "a.json").exists() and not (tmp_path / "b.json").exists()


def test_job_expr_and_expression_together_are_refused(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "eval", "level": 2, "expr": "z", "expression": "z^2"}))
    code, rep = invoke_json(["job", str(job)])
    assert code == 1
    assert rep["error"]["kind"] == "usage"


@pytest.mark.parametrize("max_knots", ["0", "127", str(2**20 + 1), "-5"])
def test_max_knots_out_of_range_is_usage_error(circle3, max_knots):
    code, rep = invoke_json(["integrate", "--level", "3", "--expr", "z^-1",
                             "--path-file", circle3, "--max-knots", max_knots])
    assert code == 1
    assert rep["error"]["kind"] == "usage"


@pytest.mark.parametrize("max_knots", ["128", "65536"])
def test_max_knots_in_range_runs(circle3, max_knots):
    code, rep = invoke_json(["integrate", "--level", "3", "--expr", "z^-1",
                             "--path-file", circle3, "--max-knots", max_knots])
    assert code == 0
    assert math.isfinite(rep["est_error"])


# one valid job per command, giving every parameter the command reads
_UNIT_CIRCLE = circle_json([0, 0, 0, 0], 1.0, [0, 1, 0, 0])
_P = [0.3, -0.1, 0.2, 0.4]
ROUTE_JOBS = {
    "eval": {"expr": "z^2 + e1", "point": _P},
    "diff": {"expr": "z^2*zc", "point": _P, "direction": [0.1, 0.2, 0.3, 0.4], "wrt": "zc"},
    "integrate": {"expr": "z^-1", "path": _UNIT_CIRCLE, "tol": 1e-3, "max_knots": 4096},
    "logint": {"path": _UNIT_CIRCLE, "point": [0.1, 0.2, 0, 0]},
    "index": {"path": _UNIT_CIRCLE, "point": [0.1, 0.2, 0, 0]},
    "residue": {"expr": "z^-1", "pole": [0, 0, 0, 0], "direction": [0, 0, 1, 0], "rho": 0.7, "tol": 1e-3},
    "cauchy": {"expr": "z^2", "point": [0.3, 0.2, 0, 0], "path": _UNIT_CIRCLE, "order": 1, "tol": 1e-3},
    "taylor": {"expr": "(z-0.2)^2", "center": [0, 0, 0, 0], "path": _UNIT_CIRCLE, "count": 3, "tol": 1e-3},
    "laurent": {"expr": "z^-1", "center": [0, 0, 0, 0], "kmin": -2, "kmax": 1,
                "rho_inner": 0.4, "rho_outer": 1.5, "tol": 1e-3},
    "restheorem": {"expr": "z^-1", "poles": [[0, 0, 0, 0]], "path": _UNIT_CIRCLE, "tol": 1e-3},
    "argprinciple": {"expr": "z^2", "zeros": [[[0, 0, 0, 0], 2]], "path": _UNIT_CIRCLE},
    "roots": {"expr": "z^2 + (1.0)", "tol": 1e-3, "seed": 7},
    "crcheck": {"expr": "zc", "point": _P, "step": 2e-5, "threshold": 1e-3},
    "harmonic": {"expr": "z*zc", "point": _P, "step": 2e-5, "threshold": 1e-3},
    "zbarcheck": {"expr": "e2*z^3", "point": _P, "threshold": 1e-3},
    "zerodiv": {},
}


def _flag_argv(command, fields, tmp_path):
    argv = [command, "--level", "2"]
    for name, value in fields.items():
        if name == "path":
            path_file = tmp_path / f"{command}-path.json"
            path_file.write_text(json.dumps(value))
            argv += ["--path-file", str(path_file)]
        else:
            argv += [cli._flags(name)[0], value if isinstance(value, str) else json.dumps(value)]
    return argv


def _job_argv(command, fields, tmp_path):
    job = tmp_path / f"{command}-job.json"
    job.write_text(json.dumps({"command": command, "level": 2, **fields}))
    return ["job", str(job)]


def test_route_jobs_cover_the_command_table():
    assert set(ROUTE_JOBS) == set(cli.COMMANDS)
    for command, fields in ROUTE_JOBS.items():
        assert set(fields) == set(cli._PARAMETERS[command])


@pytest.mark.parametrize("command", sorted(ROUTE_JOBS))
def test_flag_and_job_routes_agree(tmp_path, command):
    fields = ROUTE_JOBS[command]
    code_flag, out_flag = invoke(_flag_argv(command, fields, tmp_path))
    code_job, out_job = invoke(_job_argv(command, fields, tmp_path))
    assert code_flag == code_job == 0
    assert out_flag == out_job
    # a parameter only other commands read is refused on both routes
    donors = {name: f[name] for f in ROUTE_JOBS.values() for name in f}
    for name in sorted(set(donors) - set(fields)):
        extra = {**fields, name: donors[name]}
        for argv in (_flag_argv(command, extra, tmp_path), _job_argv(command, extra, tmp_path)):
            code, rep = invoke_json(argv)
            assert (code, rep["error"]["kind"]) == (1, "usage"), (name, argv[0])
    if "expr" not in fields:
        code, rep = invoke_json(_job_argv(command, {**fields, "expression": "z"}, tmp_path))
        assert (code, rep["error"]["kind"]) == (1, "usage")


# ---------------------------------------------------------------------------
# command lines: flags read against the command table, help built from it
# ---------------------------------------------------------------------------

def test_flag_equals_value_matches_separate_value():
    spaced = invoke(["eval", "--level", "2", "--expr", "z^2 + e1", "--point", "[0.3, 0.1, -0.2, 0.5]"])
    joined = invoke(["eval", "--level=2", "--expr=z^2 + e1", "--point=[0.3, 0.1, -0.2, 0.5]"])
    assert spaced == joined and spaced[0] == 0


@pytest.mark.parametrize("expr", [["--expr", "-z"], ["--expr=-z"], ["--expr", "-1*z"]])
def test_value_starting_with_a_dash_is_a_value(expr):
    code, rep = invoke_json(["eval", "--level", "1", *expr, "--point", "[2, 0]"])
    assert code == 0
    assert rep["value"] == [-2.0, -0.0]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--level", "2", "--level", "3", "--expr", "z"],
        ["eval", "--level", "2", "--expr", "z", "--expr=z"],
        ["eval", "--level", "2", "--expr", "z", "--expr-file", "unread.json"],
        ["eval", "--level", "2", "--expr-file", "unread.json", "--expr", "z"],
        ["eval", "--level", "2", "--expr"],
        ["eval", "--expr", "z", "--level"],
        ["eval", "--lev", "2", "--expr", "z"],
        ["integrate", "--level", "2", "--expr", "z", "--path", "{}"],
        ["eval", "--level", "2", "--expr", "z", "--max-knots", "128"],
        ["eval", "--level", "2", "--expr", "z", "--scale", "1"],
        ["zerodiv", "--level", "2", "--seed", "1"],
        ["job", "--level", "2"],
        ["job"],
        ["job", "a.json", "b.json"],
        ["eval", "--level", "2", "--expr", "z", "stray"],
        ["eval", "--level", "2", "-x", "z"],
        ["selftest", "--inject-sign-error=1"],
        ["selftest", "--output", "report.json"],
        ["--level", "2"],
        ["EVAL", "--level", "2", "--expr", "z"],
        ["eval", "--level", "2", "--expr-file", "a\x00b"],
        ["eval", "--level", "2", "--expr", "z", "--output", "a\x00b"],
    ],
    ids=["level-twice", "expr-twice", "expr-and-file", "file-and-expr", "no-value", "no-level-value",
         "abbreviated", "path-not-a-flag", "other-commands-flag", "selftest-flag", "seed-on-zerodiv",
         "level-on-job", "job-no-file", "job-two-files", "positional", "single-dash", "switch-with-value",
         "selftest-output", "flag-first", "unknown-subcommand", "nul-in-file-name", "nul-in-output-name"],
)
def test_command_line_mistakes_are_usage_errors(argv):
    code, rep = invoke_json(argv)
    assert (code, rep["error"]["kind"]) == (1, "usage")


def test_file_that_is_not_utf8_is_a_usage_error(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfez")
    for argv in (["eval", "--level", "2", "--expr-file", str(binary)], ["job", str(binary)]):
        code, rep = invoke_json(argv)
        assert (code, rep["error"]["kind"]) == (1, "usage")


def _help_text(argv):
    code, out = invoke(argv)
    assert code == 0
    return out


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_top_level_help_lists_every_command(flag):
    out = _help_text([flag])
    docs = {**{c: h.__doc__ for c, h in cli.COMMAND_TABLE.items()}, "job": None, "selftest": None}
    for command, doc in docs.items():
        line = next(line for line in out.splitlines() if line.split()[:1] == [command])
        if doc is not None:
            assert doc.splitlines()[0] in line


@pytest.mark.parametrize("command", [*cli.COMMAND_TABLE, "job", "selftest"])
def test_command_help_lists_its_flags(command):
    out = _help_text([command, "--help"])
    assert _help_text([command, "-h"]) == out
    if command in cli.COMMAND_TABLE:
        assert _help_text([command, "--level", "2", "--help"]) == out
    reads = cli._PARAMETERS.get(command, {})
    if command in cli.COMMAND_TABLE:
        assert cli.COMMAND_TABLE[command].__doc__.splitlines()[0] in out
        reads = {"level": True, "output": False, **reads}
    rows = [line.strip() for line in out.splitlines() if line.startswith("  --")]
    for name, required in reads.items():
        row = next(row for row in rows if row.split(" | ")[0].split()[0] == cli._flags(name)[0])
        assert all(flag in row for flag in cli._flags(name))
        assert ("(required)" in row) == required, row
    listed = {flag for row in rows for flag in row.replace("(required)", "").replace("|", " ").split()}
    assert listed == set(cli._FLAG_NAMES[command])


def _fuzz_argv(rng, valid, path_file):
    """A valid command line or a bare command, with a flag's value replaced,
    a flag dropped or added, or a token inserted, from every flag, values and
    junk."""
    commands = [*cli.COMMAND_TABLE, "job", "", "EVAL", "--level", "-h2"]
    # --output is left out: a report written to a file leaves nothing to check on stdout
    flags = sorted({flag for table in cli._FLAG_NAMES.values() for flag in table} - {"--output"})
    flags += ["--lev", "--expr-", "--", "-", "-e", "--bogus", "--level=", "--expr=z", "--tol=-1"]
    values = ["1", "2", "9", "0", "-1", "2.5", "x", "", "z", "-z", "z^2+e1", "z^-1", "(z-1)^-2", "zc",
              "e1*e2", "][", "[0.3, 0.1]", "[0.3, 0.1, -0.2, 0.5]", "[0, 0, 0, 0]", "[[[0, 0, 0, 0], 2]]",
              "[[0, 0, 0, 0]]", "1e-3", "128", "3", "nan", "1e400", "{}", '{"var": "z"}', path_file,
              "missing.json", "\u00e9", "\x00"]

    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    argv = list(pick(valid)) if rng.random() < 0.7 else [pick(commands), "--level", pick(["1", "2"])]
    for _ in range(int(rng.integers(1, 3))):
        pair = 1 + 2 * int(rng.integers((len(argv) - 1) // 2)) if len(argv) > 2 else None
        draw = rng.random()
        if draw < 0.5 and pair is not None:
            argv[pair + 1] = pick(values)
        elif draw < 0.7 and pair is not None:
            del argv[pair: pair + 2]
        elif draw < 0.9:
            argv += [pick(flags), pick(values)]
        else:
            argv.insert(int(rng.integers(1, len(argv) + 1)), pick(flags + values))
    return argv


def test_fuzz_command_lines_never_bare_crash(tmp_path):
    # each run ends as a report on stdout with the exit code of its kind,
    # never internal and never a traceback (help prints text, not a report)
    path_file = tmp_path / "circle.json"
    path_file.write_text(json.dumps(_UNIT_CIRCLE))
    valid = [_flag_argv(command, fields, tmp_path) for command, fields in ROUTE_JOBS.items()]
    rng = np.random.default_rng(20261019)
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(1500):
        argv = _fuzz_argv(rng, valid, str(path_file))
        if "-h" in argv or "--help" in argv:
            continue
        code, out = invoke(argv)
        rep = json.loads(out)
        codes[code] += 1
        if code != 0:
            assert set(rep["error"]) == {"kind", "detail"}
            assert rep["error"]["kind"] != "internal", (argv, rep)
            assert code == (1 if rep["error"]["kind"] in ("usage", "parse") else 2), (argv, rep)
    # the corpus reaches past the reader as well as into it
    assert codes[1] >= 1000 and codes[0] + codes[2] >= 40


# ---------------------------------------------------------------------------
# reports: the joined encoder writes json.dumps(report, indent=2)
# ---------------------------------------------------------------------------

@pytest.fixture
def checked_encoder(monkeypatch):
    """cli._encode, checked against json.dumps on every report it writes."""
    encoded = []
    encode = cli._encode

    def checked(obj, indent=""):
        text = encode(obj, indent)
        if not indent:  # a whole report, not one of its parts
            assert text == json.dumps(obj, indent=2)
            encoded.append(obj)
        return text

    monkeypatch.setattr(cli, "_encode", checked)
    return encoded


@pytest.mark.parametrize("command", sorted(ROUTE_JOBS))
def test_reports_match_json_dumps(tmp_path, command, checked_encoder):
    fields = ROUTE_JOBS[command]
    assert invoke(_flag_argv(command, fields, tmp_path))[0] == 0
    invoke(_flag_argv(command, {**fields, "bogus_field": "1"}, tmp_path))  # usage
    invoke(_job_argv(command, {**fields, "level": 9}, tmp_path))  # usage
    if "expr" in fields:
        invoke(_flag_argv(command, {**fields, "expr": "z +* 2"}, tmp_path))  # parse
        invoke(_flag_argv(command, {**fields, "expr": "é"}, tmp_path))  # parse, non-ASCII detail
    kinds = {rep["error"]["kind"] for rep in checked_encoder if "error" in rep}
    assert len(checked_encoder) >= 3 and {"usage"} <= kinds


_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300, 1e300, 5e-324,
                     0.1, 1 / 3, 2**0.5, -1.2345678901234567e-7, 9007199254740993.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_SCALARS = st.one_of(_FLOATS, st.integers(), st.booleans(), st.none(),
                     st.text(), st.sampled_from(["", "é", "\u2603", "\"\\\n\t\x00", "\ud83d\ude00", "\x7f"]))
_REPORTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_REPORTS)
def test_encoder_matches_json_dumps(obj):
    assert cli._encode(obj) == json.dumps(obj, indent=2)


# ---------------------------------------------------------------------------
# per-command output shapes
# ---------------------------------------------------------------------------

def test_diff_command_matches_algebra():
    z0 = CDNumber(2, [0.3, -0.2, 0.5, 0.1])
    h = CDNumber(2, [0.7, 0.4, -0.1, 0.2])
    code, rep = invoke_json([
        "diff", "--level", "2", "--expr", "z^2",
        "--point", json.dumps(list(z0.coeffs)),
        "--direction", json.dumps(list(h.coeffs)),
    ])
    assert code == 0
    want = mul(z0, h) + mul(h, z0)
    assert np.max(np.abs(np.array(rep["value"]) - want.coeffs)) <= 1e-12


def test_logint_and_index_unit_circle(tmp_path):
    path = tmp_path / "circle2.json"
    path.write_text(json.dumps(circle_json([0, 0, 0, 0], 1.0, [0, 1, 0, 0], 2)))
    code, rep = invoke_json(["logint", "--level", "2", "--path-file", str(path)])
    assert code == 0
    want = np.array([0.0, 4.0 * math.pi, 0.0, 0.0])
    assert np.max(np.abs(np.array(rep["value"]) - want)) <= 1e-9

    code, rep = invoke_json(["index", "--level", "2", "--path-file", str(path)])
    assert code == 0
    assert np.max(np.abs(np.array(rep["ar_index"]) - [0, 2, 0, 0])) <= 1e-6
    assert rep["winding"]["e1"] == 2


def test_logint_of_a_circle_of_1e7_turns_is_exact_at_once(tmp_path):
    path = tmp_path / "circle2.json"
    path.write_text(json.dumps(circle_json([0, 0, 0, 0], 1.0, [0, 1, 0, 0], 1e7)))
    start = time.perf_counter()
    code, rep = invoke_json(["logint", "--level", "2", "--path-file", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    want = np.array([0.0, 2.0 * math.pi * 1e7, 0.0, 0.0])
    assert np.max(np.abs(np.array(rep["value"]) - want)) <= 1e-12 * want[1]


def test_index_about_points_just_off_the_plane_of_a_circle(tmp_path):
    # Im(gamma - a) never vanishes on the circle once a leaves its plane
    path = tmp_path / "circle2.json"
    path.write_text(json.dumps(circle_json([0, 0, 0, 0], 1.0, [0, 1, 0, 0])))
    for off, want in ((0.0, [0, 1, 0, 0]), (1e-10, [0, 0, 0, 0]), (1e-6, [0, 0, 0, 0]), (1e-3, [0, 0, 0, 0])):
        point = json.dumps([0.3, 0.1, off, 0.0])
        code, rep = invoke_json(["index", "--level", "2", "--point", point, "--path-file", str(path)])
        assert code == 0
        assert rep["ar_index"] == want, off


def test_logint_through_a_point_of_the_circle_is_a_pole(tmp_path):
    path = tmp_path / "circle2.json"
    path.write_text(json.dumps(circle_json([0, 0, 0, 0], 1.0, [0, 1, 0, 0])))
    ang = 2 * math.pi * 0.001  # between any two of 256 uniform knots
    point = json.dumps([math.cos(ang), math.sin(ang), 0.0, 0.0])
    code, rep = invoke_json(["logint", "--level", "2", "--point", point, "--path-file", str(path)])
    assert code == 2
    assert rep["error"]["kind"] == "pole"


def test_residue_command():
    code, rep = invoke_json([
        "residue", "--level", "2", "--expr", "z^-1",
        "--pole", "[0, 0, 0, 0]", "--direction", "[0, 0, 1, 0]", "--rho", "0.5",
    ])
    assert code == 0
    assert np.max(np.abs(np.array(rep["value"]) - [0, 0, 1, 0])) <= 1e-6


def test_cauchy_command_orders(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(circle_json([0, 0, 0, 0], 1.5, [0, 1, 0, 0])))
    z = CDNumber(2, [0.3, 0.2, 0.0, 0.0])  # in the plane of the circle
    m = basis_element(2, 1)
    code, rep = invoke_json(["cauchy", "--level", "2", "--expr", "z^2",
                             "--point", json.dumps(list(z.coeffs)),
                             "--path-file", str(path)])
    assert code == 0
    want = mul(mul(z, z), m)
    assert np.max(np.abs(np.array(rep["value"]) - want.coeffs)) <= 1e-5

    code, rep = invoke_json(["cauchy", "--level", "2", "--expr", "z^2",
                             "--point", json.dumps(list(z.coeffs)),
                             "--order", "1", "--path-file", str(path)])
    assert code == 0
    want = mul(z, m) * 2.0
    assert np.max(np.abs(np.array(rep["value"]) - want.coeffs)) <= 1e-4


def test_taylor_command(tmp_path):
    center = [0.2, 0.0, 0.0, 0.0]
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(circle_json(center, 1.0, [0, 1, 0, 0])))
    code, rep = invoke_json(["taylor", "--level", "2", "--expr", "z^2",
                             "--center", json.dumps(center), "--count", "3",
                             "--path-file", str(path)])
    assert code == 0
    got = np.array(rep["coefficients"])
    want = np.zeros((3, 4))
    want[:, 0] = [0.04, 0.4, 1.0]  # (w + 0.2)^2 about the center
    assert np.max(np.abs(got - want)) <= 1e-6


def test_laurent_command():
    code, rep = invoke_json(["laurent", "--level", "2", "--expr", "z^-1",
                             "--center", "[0, 0, 0, 0]",
                             "--kmin", "-2", "--kmax", "1"])
    assert code == 0
    assert rep["k_min"] == -2
    got = np.array(rep["coefficients"])
    want = np.zeros((4, 4))
    want[1, 0] = 1.0  # the k = -1 coefficient
    assert np.max(np.abs(got - want)) <= 1e-6


@pytest.mark.parametrize("kmin,kmax", [("0", "1000000000"), ("-1000000000", "0"), ("-62", "0"), ("0", "60")])
def test_laurent_indices_beyond_the_exponent_range_are_usage_errors(kmin, kmax):
    # the kernel of coefficient k has the power -k-1; --kmax 1000000000 used
    # to build a billion-entry coefficient range and end in MemoryError
    start = time.perf_counter()
    code, rep = invoke_json(["laurent", "--level", "2", "--expr", "z^-1", "--center", "[0, 0, 0, 0]",
                             "--kmin", kmin, "--kmax", kmax])
    assert (code, rep["error"]["kind"]) == (1, "usage")
    assert time.perf_counter() - start < 1.0


def test_laurent_indices_at_the_exponent_range_ends_run():
    # a thin annulus keeps rho^(k+1) near 1 for every k
    code, rep = invoke_json(["laurent", "--level", "2", "--expr", "z^-1", "--center", "[0, 0, 0, 0]",
                             "--kmin", "-61", "--kmax", "59", "--rho-inner", "0.9", "--rho-outer", "1.1"])
    assert code == 0
    got = np.array(rep["coefficients"])
    assert rep["k_min"] == -61 and got.shape == (121, 4)
    assert abs(got[60, 0] - 1.0) <= 1e-6  # the k = -1 coefficient


@pytest.mark.parametrize("r", [1, 8])
def test_argument_principle_of_an_overflowing_image_is_a_domain_error(r, tmp_path):
    # |z^3| = 1e900 on the radius-1e300 circle leaves the doubles, and the
    # continued argument of the image read NaN
    d = 1 << r
    path = tmp_path / "far.json"
    path.write_text(json.dumps(circle_json([0] * d, 1e300, [0, 1] + [0] * (d - 2))))
    code, rep = invoke_json(["argprinciple", "--level", str(r), "--expr", "z^3",
                             "--zeros", json.dumps([[[0] * d, 3]]), "--path-file", str(path)])
    assert (code, rep["error"]["kind"]) == (2, "domain")


@pytest.mark.parametrize("r", [1, 8])
def test_pole_index_that_overflows_is_a_domain_error(r, tmp_path):
    # 1e300 turns give the pole the index 1e300*e1, whose norm squares past
    # a double
    d = 1 << r
    path = tmp_path / "turns.json"
    path.write_text(json.dumps(circle_json([0] * d, 1.0, [0, 1] + [0] * (d - 2), 1e300)))
    code, rep = invoke_json(["restheorem", "--level", str(r), "--expr", "(z-0.1)^-1",
                             "--poles", json.dumps([[0.1] + [0] * (d - 1)]), "--path-file", str(path)])
    assert (code, rep["error"]["kind"]) == (2, "domain")
    assert "pole 0.1" in rep["error"]["detail"]


def test_restheorem_command_via_job(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "command": "restheorem", "level": 2, "expression": "z^-1",
        "poles": [[0, 0, 0, 0]],
        "path": circle_json([0, 0, 0, 0], 2.0, [0, 0, 1, 0]),
    }))
    code, rep = invoke_json(["job", str(job)])
    assert code == 0
    assert rep["mode"] == "value"
    assert rep["diff"] <= 1e-5
    assert abs(rep["lhs"][2] - 2.0 * math.pi) <= 1e-5


def test_argprinciple_command(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(circle_json([0, 0, 0, 0], 1.0, [0, 1, 0, 0])))
    code, rep = invoke_json(["argprinciple", "--level", "2", "--expr", "z^2",
                             "--zeros", "[[[0, 0, 0, 0], 2]]",
                             "--path-file", str(path)])
    assert code == 0
    assert np.max(np.abs(np.array(rep["lhs"]) - [0, 2, 0, 0])) <= 1e-4
    assert rep["diff"] <= 1e-4


def test_differentiability_commands():
    point3 = json.dumps([0.3, -0.1, 0.4, 0.2, -0.3, 0.1, 0.0, 0.5])
    code, rep = invoke_json(["crcheck", "--level", "3", "--expr", "zc",
                             "--point", point3])
    assert code == 0
    assert rep["verdict"] == "fail"
    assert set(rep) == {"max_residual", "per_pair", "verdict"}

    code, rep = invoke_json(["zbarcheck", "--level", "3", "--expr", "e2*z^3",
                             "--point", point3])
    assert code == 0
    assert rep["verdict"] == "pass"

    code, rep = invoke_json(["harmonic", "--level", "2", "--expr", "z*zc",
                             "--point", "[0.3, 0.1, -0.2, 0.5]"])
    assert code == 0
    assert rep["verdict"] == "fail"


@pytest.mark.parametrize("step", [["--step", "0"], ["--step=-1e-5"]], ids=["zero", "negative"])
@pytest.mark.parametrize("command", ["crcheck", "harmonic"])
def test_non_positive_step_is_usage_error(command, step):
    # --step is read like --rho and --tol: a bad flag value is a usage error
    code, rep = invoke_json([command, "--level", "2", "--expr", "z",
                             "--point", "[0.3, 0.1, -0.2, 0.5]"] + step)
    assert (code, rep["error"]["kind"]) == (1, "usage")


def test_zbarcheck_takes_no_step():
    # the zc superdifferential is read in closed form, with no stencil to size
    code, rep = invoke_json(["zbarcheck", "--level", "2", "--expr", "zc",
                             "--point", "[0.3, 0.1, -0.2, 0.5]", "--step", "1e-5"])
    assert (code, rep["error"]["kind"]) == (1, "usage")
    assert "--step" in rep["error"]["detail"]


@pytest.mark.parametrize("step,expr", [("1e-320", "zc"), ("1e-200", "zc*z")])
@pytest.mark.parametrize("command", ["crcheck", "harmonic"])
def test_step_lost_to_rounding_is_a_domain_error(command, step, expr):
    # 0.3 + 1e-320 is 0.3, so crcheck of zc passed with residual 0, and
    # harmonic of zc*z at 1e-200, where h^2 underflows, wrote NaN
    code, out = invoke([command, "--level", "2", "--expr", expr, "--point", "[0.3, 0.1, -0.2, 0.5]", "--step", step])
    assert (code, json.loads(out)["error"]["kind"]) == (2, "domain")


def _refuse(*args, **kwargs):
    raise AssertionError("an out-of-range value reached the library")


@pytest.mark.parametrize("order", ["60", "200", "10000000"])
def test_cauchy_order_beyond_the_exponent_range_is_a_usage_error(tmp_path, monkeypatch, order):
    # the kernel of order k has the power -k-1: --order 200 ended internal
    # on k! as a float, and --order 10000000 ran past a minute
    monkeypatch.setattr(cli, "cauchy_derivative", _refuse)
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(circle_json([100, 0], 50.0, [0, 1])))
    code, rep = invoke_json(["cauchy", "--level", "1", "--expr", "z", "--point", "[100, 0]",
                             "--order", order, "--path-file", str(path)])
    assert (code, rep["error"]["kind"]) == (1, "usage")


@pytest.mark.parametrize(
    "argv",
    [["roots", "--level", "2", "--expr", "z^2+1", "--seed", "-1"], ["selftest", "--seed", "-5"],
     ["selftest", "--scale", "1e12"], ["selftest", "--scale", "1.5"]],
    ids=["roots-seed", "selftest-seed", "selftest-huge-scale", "selftest-scale"],
)
def test_negative_seeds_and_scales_above_one_are_usage_errors(monkeypatch, argv):
    # a negative seed ended internal in numpy's generator; --scale 1e12 ran
    # past a minute
    from cdfun import criteria

    monkeypatch.setattr(criteria, "run_all", _refuse)
    monkeypatch.setattr(cli, "find_root", _refuse)
    code, rep = invoke_json(argv)
    assert (code, rep["error"]["kind"]) == (1, "usage")


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def test_selftest_reduced_all_pass():
    code, out = invoke(["selftest", "--scale", "0.05"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 15  # 14 criteria + the summary line
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert "all criteria passed" in lines[-1]


def test_selftest_sign_error_hook_fails_and_restores():
    code, out = invoke(["selftest", "--scale", "0.05", "--inject-sign-error"])
    assert code == 2
    first = out.strip().splitlines()[0]
    assert first.startswith("[FAIL]") and "algebraic identities" in first
    # the corrupted table must be restored afterwards
    e1 = basis_element(2, 1)
    e2 = basis_element(2, 2)
    assert mul(e1, e2) == basis_element(2, 3)


# ---------------------------------------------------------------------------
# fuzz: malformed job specs never crash bare
# ---------------------------------------------------------------------------

def _fuzz_spec(rng: np.random.Generator):
    commands = list(cli.COMMANDS) + ["", "selftest", "EVAL", "z", None, 3]
    keys = sorted(set().union(*cli._JOB_FIELDS.values())) + ["bogus", "PATH", "Command", ""]
    scalars = [None, True, False, 0, 3, -1, 9999, 0.5, -1e308, "z", "z^2",
               "e1*e2", "][", "circle", "", "NaN", [1, 2], [0, 0, 0, 0],
               [0] * 8, [], {}, {"kind": "circle"}, {"kind": "sphere"},
               {"a": {"b": [1, {}]}}, [[0, 0, 0, 0], 1], "1e-6"]

    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    variant = rng.random()
    if variant < 0.1:
        return "not json at all {{{"
    if variant < 0.2:
        return json.dumps(pick(scalars))
    spec = {}
    if rng.random() < 0.9:
        spec["command"] = pick(commands)
    for _ in range(int(rng.integers(0, 6))):
        spec[pick(keys)] = pick(scalars)
    return json.dumps(spec)


def test_fuzz_malformed_specs_never_bare_crash(tmp_path):
    rng = np.random.default_rng(20260818)
    spec_file = tmp_path / "spec.json"
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(1000):
        spec_file.write_text(_fuzz_spec(rng))
        code, out = invoke(["job", str(spec_file)])
        assert code in (0, 1, 2)
        codes[code] += 1
        rep = json.loads(out)
        if code != 0:
            assert set(rep["error"]) == {"kind", "detail"}
    # the corpus must actually exercise the error paths
    assert codes[1] >= 900


# ---------------------------------------------------------------------------
# integer fields, taylor --count, poles on the path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,value", [("level", 2.9), ("level", True), ("seed", 1.5)])
def test_non_integer_job_fields_are_usage_errors(tmp_path, field, value):
    job = tmp_path / "job.json"
    fields = {"command": "roots", "level": 2, "expr": "z^2 + (1.0)", field: value}
    job.write_text(json.dumps(fields))
    code, rep = invoke_json(["job", str(job)])
    assert (code, rep["error"]["kind"]) == (1, "usage")
    assert "must be an integer" in rep["error"]["detail"]


def _taylor_routes(tmp_path, count):
    fields = {"expr": "z^2", "center": [0, 0, 0, 0], "path": _UNIT_CIRCLE, "count": count}
    return _flag_argv("taylor", fields, tmp_path), _job_argv("taylor", fields, tmp_path)


def test_taylor_count_above_the_exponent_cap_is_refused_at_once(tmp_path):
    for argv in _taylor_routes(tmp_path, 61):
        start = time.perf_counter()
        code, rep = invoke_json(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, rep["error"]["kind"]) == (1, "usage")


def test_taylor_count_at_the_exponent_cap_runs(tmp_path):
    code, rep = invoke_json(_taylor_routes(tmp_path, 60)[0])
    assert code == 0
    assert len(rep["coefficients"]) == 60


def test_taylor_count_at_the_exponent_cap_runs_at_level_8_within_10s(tmp_path):
    d = 256
    path = tmp_path / "circle8.json"
    path.write_text(json.dumps(circle_json([0] * d, 1.0, [0, 1] + [0] * (d - 2))))
    start = time.perf_counter()
    code, rep = invoke_json(["taylor", "--level", "8", "--expr", "z^2", "--center", json.dumps([0] * d),
                             "--count", "60", "--path-file", str(path)])
    assert time.perf_counter() - start < 10.0
    assert code == 0
    got = np.array(rep["coefficients"])
    want = np.zeros((60, d))
    want[2, 0] = 1.0
    assert np.max(np.abs(got - want)) <= 1e-6


def test_pole_on_the_contour_is_a_pole_error(circle3):
    code, rep = invoke_json(["integrate", "--level", "3", "--expr", "(z-1)^-2", "--path-file", circle3])
    assert (code, rep["error"]["kind"]) == (2, "pole")
    assert "1.0" in rep["error"]["detail"]


def test_a_vanishing_base_in_the_shift_of_a_power_is_a_pole(circle3):
    # the constant shift of (z - c)^2 is evaluated when the primitive takes
    # the power apart, and c holds (e1-e1)^-1
    code, rep = invoke_json(["integrate", "--level", "3", "--expr", "(z + (e1-e1)^-1)^2", "--path-file", circle3])
    assert (code, rep["error"]) == (2, {"kind": "pole", "detail": "negative power of a vanishing base"})


def test_overflow_is_a_typed_error_with_nothing_on_stderr(circle3, capfd):
    # a power or a product that overflows reports kind domain and leaves no
    # numpy warning on stderr; each job runs as its own process, since pytest
    # would record an in-process warning instead of printing it
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    jobs = [
        ["eval", "--level", "2", "--expr", "z^60", "--point", "[1e10, 0, 0, 0]"],
        ["crcheck", "--level", "2", "--expr", "z^60", "--point", "[1e10, 0, 0, 0]"],
        ["integrate", "--level", "3", "--expr", "(1e200*e1)*z^3*(1e200*e2)", "--path-file", circle3],
    ]
    for argv in jobs:
        code = subprocess.run([sys.executable, "-m", "cdfun.cli", *argv], env=env).returncode
        out, err = capfd.readouterr()
        assert (code, json.loads(out)["error"]["kind"]) == (2, "domain"), argv
        assert err == "", argv
