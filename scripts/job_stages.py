#!/usr/bin/env python3
"""Where one CLI job spends its time, stage by stage, for one job of each benchmark workload.

Each job is taken apart as ``cdfun.cli.main`` runs it, and every stage is
timed on its own:

    argv       reading the command line, path files included (_read_argv)
    readers    the level and every parameter other than the expression
    parse      reading the expression into a phrase
    primitive  the phrase's primitive, for commands that integrate it
    integral   the command itself, the primitive already built (for eval,
               the evaluation)
    emit       encoding and writing the JSON report

The jobs stand for the three workloads of perfbench/: an integral of a
sandwich word around a circle (quad-poly), a residue-theorem check with two
poles inside a circle and a level-4 loop integral b*(z-p)^-1*c about its
pole (contour-log), and a level-8 evaluation (pointwise).  The loop's pole
is written coefficient by coefficient, 16 terms s*e_k, as the benchmark
writes it: the longest constant the parser reads in any of these jobs.
Every job runs 200 times with a fresh phrase each time; the table gives the
median microseconds per stage, and the last line holds the same figures as
one JSON object.  BLAS is pinned to one thread, as the benchmark runs.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy is imported
os.environ.setdefault("OMP_NUM_THREADS", "1")

import contextlib
import io
import json
import statistics
import tempfile
import time

from cdfun import cli
from cdfun.expressions import primitive

REPEATS = 200
STAGES = ("argv", "readers", "parse", "primitive", "integral", "emit")
INTEGRATING = ("integrate", "residue", "restheorem")


def _vector(d, **coords):
    out = [0.0] * d
    for key, value in coords.items():
        out[int(key[1:])] = value
    return out


def _const_text(v):
    """The text of the constant v, term by term: v0 + v1*e1 + ..."""
    text = repr(abs(v[0])) if v[0] >= 0 else f"0-{abs(v[0])!r}"
    for k, x in enumerate(v[1:], 1):
        text += f"{'-' if x < 0 else '+'}{abs(x)!r}*e{k}"
    return f"({text})"


def _circle_file(workdir, name, center, radius, direction):
    """The path of the circle file written to workdir under name."""
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": "circle", "center": center, "radius": radius, "direction": direction}, fh)
    return path


def _jobs(workdir):
    """(name, argv) of each job, with its path file written to workdir."""
    circle3 = _circle_file(workdir, "circle3.json", _vector(8), 1.0, _vector(8, e3=1.0))
    pole4 = [-0.157, -0.048, -0.17, 0.231, 0.4, -0.062, 0.118, -0.305, 0.027, 0.49, -0.213, 0.08, -0.366, 0.145,
             -0.009, 0.274]
    loop4 = _circle_file(workdir, "loop4.json", pole4, 0.5, _vector(16, e5=0.6, e11=0.8))
    poles = [_vector(8, e0=-0.2, e3=0.1), _vector(8, e0=0.1, e3=0.3)]
    pole_text = "(0.5*e2)*(z - (0-0.2+0.1*e3))^-1*(0.7*e5) + (0.4*e1)*(z - (0.1+0.3*e3))^-1*(0.6*e6)"
    return [
        ("quad-poly integrate r3", ["integrate", "--level", "3", "--expr", "(0.7*e7)*z^2*(0.7*e4)",
                                    "--path-file", circle3]),
        ("contour-log restheorem r3", ["restheorem", "--level", "3", "--expr", pole_text,
                                       "--poles", json.dumps(poles), "--path-file", circle3]),
        ("contour-log loop r4", ["integrate", "--level", "4", "--expr",
                                 f"(0.61*e3)*(z - {_const_text(pole4)})^-1*(0.45*e9)", "--path-file", loop4]),
        ("pointwise eval r8", ["eval", "--level", "8", "--expr", "(0.837)*z^-3*(0.423*e1)",
                               "--point", json.dumps(_vector(256, e0=0.8, e1=0.25, e7=-0.3))]),
    ]


def _stages(argv) -> dict:
    """Seconds per stage of one run of the job argv."""
    clock = time.perf_counter
    t = {}
    t0 = clock()
    command, params = cli._read_argv(argv)
    t1 = clock()
    r = cli._level(params.get("level"))
    values = {name: cli._READERS[name](raw, name, r) for name, raw in params.items()
              if name not in ("level", "expr")}
    t2 = clock()
    values["expr"] = cli._READERS["expr"](params["expr"], "expr", r)
    t3 = clock()
    if command in INTEGRATING:
        primitive(values["expr"])
    t4 = clock()
    report = cli.COMMAND_TABLE[command](r, **values)
    t5 = clock()
    with contextlib.redirect_stdout(io.StringIO()):
        cli._emit(report, None)
    t6 = clock()
    for stage, a, b in zip(STAGES, (t0, t1, t2, t3, t4, t5), (t1, t2, t3, t4, t5, t6)):
        t[stage] = b - a
    return t


def main() -> None:
    table = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv in _jobs(workdir):
            runs = [_stages(argv) for _ in range(REPEATS)]
            table[name] = {stage: round(statistics.median(run[stage] for run in runs) * 1e6, 1) for stage in STAGES}
    width = max(map(len, table))
    print(f"{'job':<{width}} " + " ".join(f"{stage:>9}" for stage in STAGES) + f" {'total':>9}")
    for name, row in table.items():
        cells = " ".join(f"{row[stage]:>9.1f}" for stage in STAGES)
        print(f"{name:<{width}} {cells} {sum(row.values()):>9.1f}")
    print("median microseconds per stage over", REPEATS, "runs")
    print(json.dumps(table))


if __name__ == "__main__":
    main()
