"""cdfun benchmark: seeded mixes of CLI jobs in one closed loop.

    python3 perfbench/run.py --workload quad-poly --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src.  Each
job runs in-process through ``cdfun.cli.main``: one client, one job at a
time, single-threaded, BLAS/OpenMP pinned to one thread.  The loop repeats
the workload's whole job list until at least ``--seconds`` have passed, so
every run measures complete passes of the same mix.  Every report is checked
against its reference (see workloads.py) and every pass must print the same
bytes as the first.  For each workload in turn:

    for w in quad-poly contour-log pointwise; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 18 --trace 0; done

Job latencies are paced: see ``Pace``.  job_p50_ms and job_p90_ms are
percentiles of the paced latencies of every job in every pass, and
jobs_per_s is the number of jobs over their summed paced latency.  The raw
figures are printed too.  setup_s is the median of cold starts taken half
before and half after the loop.

--trace 0 prints the end-to-end metrics; --trace 1 runs one pass untraced
and one pass with the span recorder of spans.py installed, requires
byte-identical reports from both, and prints the per-layer metrics with the
tracing overhead (paced job time traced minus untraced; self times are raw).  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A run record (machine, seed,
workload rationale, metrics, failures) and, when tracing, the spans are
written to perfbench/_out/.

``correct`` is false when a report disagrees with its reference, a pass
prints different bytes, or the cold-start probe misreports.  ``failed``
also counts jobs that end in an error kind other than the expected one,
such as the argument-principle defect kept in contour-log.
"""

from __future__ import annotations

import os

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy is imported anywhere

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUP_STARTS = 11
SETUP_ARGV = ["-m", "cdfun.cli", "eval", "--level", "2", "--expr", "e1*e2"]
SETUP_VALUE = [0.0, 0.0, 0.0, 1.0]  # e1*e2 = e3
REPEAT_CHECKS = 3  # jobs run again after the loop; their bytes must not change

END_TO_END_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms", "peak_rss_mb": "MB",
    "failed_ratio": "1", "worst_err_ratio": "1",
}
# printed and recorded but left out of the result line: failed_ratio is 0 on
# two workloads and worst_err_ratio changes with the seed by orders of
# magnitude, so neither can carry a bound; failures are counted in "failed"
REPORTED_ONLY = ("failed_ratio", "worst_err_ratio")


def _import_cdfun():
    if not (SRC / "cdfun" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'cdfun'} not found; run from a cdfun checkout")
    sys.path.insert(0, str(SRC))
    import cdfun
    from cdfun import cli

    if Path(cdfun.__file__).resolve().parent != SRC / "cdfun":
        sys.exit(f"error: imported cdfun from {cdfun.__file__}, expected {SRC / 'cdfun'}")
    return cdfun, cli


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads_env": {key: os.environ.get(key) for key in PINNED},
    }


def cold_starts(env, count) -> tuple:
    """Wall times of fresh CLI processes, and whether all of them reported e3."""
    times, ok = [], True
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        try:
            ok &= proc.returncode == 0 and json.loads(proc.stdout) == {"value": SETUP_VALUE}
        except json.JSONDecodeError:
            ok = False
    return times, ok


def materialise(jobs, workdir: Path):
    """Write each job's files and replace its @name placeholders by their paths."""
    for i, job in enumerate(jobs):
        names = {}
        for name, obj in job.files.items():
            path = workdir / f"{i:04d}-{name}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            names["@" + name] = str(path)
        job.argv = [names.get(a, a) for a in job.argv]


def run_job(cli, argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


class Pace:
    """The host's momentary speed, from a fixed task timed after every job.

    The task (an argparse build, a gather and einsum, a 3 MB array sum, a
    JSON dump) runs no cdfun code, so a change to cdfun leaves its time
    alone, while neighbours on a shared host slow it together with the jobs.
    A job's paced latency is its wall latency times REF_S over the median
    task time of the 2*WINDOW+1 jobs around it: its latency on a host that
    runs the task in REF_S.  On a shared two-vCPU Xeon host, neighbours
    slowed stretches of seconds to minutes by up to 2x; raw pass
    totals of one job list spread 10% within a process and 20-45% between
    runs of one seed, paced totals 1.4% within a process.
    """

    REF_S = 0.003
    WINDOW = 5

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x, self.y = rng.standard_normal((2, 256, 16))
        self.gather = np.arange(16)[:, None] ^ np.arange(16)[None, :]
        self.signs = rng.choice([-1.0, 1.0], (16, 16))
        self.big = rng.standard_normal(400_000)

    def _task(self):
        top = argparse.ArgumentParser(prog="pace")
        sub = top.add_subparsers(dest="command")
        for i in range(4):
            p = sub.add_parser(f"c{i}")
            for k in range(8):
                p.add_argument(f"--a{k}", type=str, default=None)
        top.parse_args(["c1", "--a3", "x"])
        np.einsum("...a,...ac->...c", self.x, self.y[..., self.gather] * self.signs)
        json.dumps({"v": [float(v) for v in self.big[:64] * self.big.sum()]}, indent=2)

    def time(self) -> float:
        t0 = time.perf_counter()
        self._task()
        return time.perf_counter() - t0

    @classmethod
    def factors(cls, task_times) -> np.ndarray:
        """REF_S over the local median task time, one factor per job of a pass."""
        t = np.asarray(task_times)
        local = [np.median(t[max(0, i - cls.WINDOW): i + cls.WINDOW + 1]) for i in range(len(t))]
        return cls.REF_S / np.asarray(local)


def run_pass(cli, jobs, latencies=None, pace=None, task_times=None) -> tuple:
    outputs = []
    t0 = time.perf_counter()
    for job in jobs:
        t = time.perf_counter()
        outputs.append(run_job(cli, job.argv))
        if latencies is not None:
            latencies.append(time.perf_counter() - t)
        if pace is not None:
            task_times.append(pace.time())
    return time.perf_counter() - t0, outputs


def judge(jobs, outputs, mismatch_type) -> dict:
    """Check every (exit code, stdout) against its job; tally failures by job kind.

    An error report with the wrong exit code, or a report that misses its
    reference, is wrong; an error of a kind the job does not expect is a
    failure only.
    """
    failures, wrong, worst, worst_kind = Counter(), 0, 0.0, None
    for job, (rc, out) in zip(jobs, outputs):
        try:
            rep = json.loads(out)
        except json.JSONDecodeError:
            rep = {"error": {"kind": "unparsable"}}
        err = rep.get("error") if isinstance(rep, dict) else None
        if err is not None:
            kind = err.get("kind")
            if rc != (1 if kind in ("usage", "parse") else 2):
                wrong += 1
                failures[f"{job.kind}: exit {rc} for {kind}"] += 1
            elif kind not in job.ok_errors:
                failures[f"{job.kind}: {kind}"] += 1
            continue
        ratio = float("inf")
        if job.check is not None and rc == 0:
            try:
                ratio = job.check(rep)
            except mismatch_type:
                pass
        if ratio > 1.0:
            wrong += 1
            failures[f"{job.kind}: wrong report"] += 1
        if ratio >= worst:
            worst, worst_kind = ratio, job.kind
    return {"failed": sum(failures.values()), "wrong": wrong, "worst": worst, "worst_kind": worst_kind,
            "failures": dict(failures)}


def composition(jobs) -> dict:
    return dict(Counter(job.argv[0] for job in jobs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cdfun, cli = _import_cdfun()
    sys.path.insert(0, str(HERE))
    import oracle
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    index = list(workloads.WORKLOADS).index(args.workload)
    oracle.check_against(cdfun.algebra._mul_by_doubling, np.random.default_rng(args.seed), range(1, 7))
    jobs = workloads.WORKLOADS[args.workload](np.random.default_rng([index, args.seed]))

    info = machine_info()
    print(f"machine: nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} numpy={info['numpy']} "
          f"threads={info['threads_env']}")
    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    print(f"jobs per pass: {len(jobs)} {composition(jobs)}")

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    starts, setup_ok = cold_starts(env, 0 if args.trace else SETUP_STARTS // 2)

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "why": workloads.WHY[args.workload], "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": info, "jobs_per_pass": len(jobs),
              "composition": composition(jobs)}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        materialise(jobs, Path(workdir))
        for r in range(1, 9):
            cdfun.algebra.basis_table(r)  # a shell user pays this per call; here it is per process

        if args.trace:
            # passes are paced, so the overhead is not buried under host noise,
            # and a first untraced pass pays the page faults of first use
            pace, timed = Pace(), {}
            for traced in (False, False, True):
                latencies, tasks = [], []
                rec = spans.Recorder()
                if traced:
                    rec.install()
                try:
                    _, outputs = run_pass(cli, jobs, latencies, pace, tasks)
                finally:
                    rec.uninstall()
                timed[traced] = (outputs, float(np.sum(np.array(latencies) * Pace.factors(tasks))))
            (first, untraced_s), (outputs, traced_s) = timed[False], timed[True]
            identical = outputs == first
            verdict = judge(jobs, outputs, workloads.Mismatch)
            attempted = len(jobs)
            values = rec.metrics()
            values.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                           "trace.overhead_s": traced_s - untraced_s})
            units = spans.metric_units()
            rec.write(OUT / f"spans-{tag}.tsv")
            print(f"traced reports byte-identical to untraced: {identical}; paced overhead "
                  f"{traced_s - untraced_s:.3f} s on {untraced_s:.3f} s untraced, {len(rec.spans)} spans")
        else:
            pace, passes, tasks, outputs, identical = Pace(), [], [], None, True
            t0 = time.perf_counter()
            while not passes or time.perf_counter() - t0 < args.seconds:
                passes.append([])
                tasks.append([])
                _, out = run_pass(cli, jobs, passes[-1], pace, tasks[-1])
                identical &= outputs is None or out == outputs
                outputs = out
            wall = time.perf_counter() - t0
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            step = max(1, len(jobs) // REPEAT_CHECKS)
            for i in range(0, len(jobs), step)[:REPEAT_CHECKS]:
                identical &= run_job(cli, jobs[i].argv) == outputs[i]
            more, more_ok = cold_starts(env, SETUP_STARTS - len(starts))
            starts, setup_ok = starts + more, setup_ok and more_ok
            verdict = judge(jobs, outputs, workloads.Mismatch)
            attempted = len(jobs) * len(passes)
            raw_ms = np.array(passes) * 1e3
            paced_ms = raw_ms * np.array([Pace.factors(t) for t in tasks])
            values = {
                "setup_s": statistics.median(starts),
                "jobs_per_s": attempted / (paced_ms.sum() / 1e3),
                "job_p50_ms": float(np.percentile(paced_ms, 50)),
                "job_p90_ms": float(np.percentile(paced_ms, 90)),
                "peak_rss_mb": peak_rss_mb,
                "failed_ratio": verdict["failed"] / len(jobs),
                "worst_err_ratio": verdict["worst"],
            }
            units = END_TO_END_UNITS
            print(f"{len(passes)} passes, {attempted} jobs in {wall:.3f} s; {int(np.sum(paced_ms > values['job_p90_ms']))} "
                  f"samples above p90; setup from {len(starts)} cold starts; every pass byte-identical: {identical}")
            record["raw"] = {"jobs_per_s": attempted / (raw_ms.sum() / 1e3), "job_p50_ms": np.percentile(raw_ms, 50),
                             "job_p90_ms": np.percentile(raw_ms, 90), "pace_task_ms": np.median(tasks) * 1e3,
                             "pace_ref_ms": Pace.REF_S * 1e3, "passes": len(passes), "wall_s": wall}
            print("raw: " + ", ".join(f"{k} {v:.4g}" for k, v in record["raw"].items()))

    failed = verdict["failed"] * (attempted // len(jobs))
    correct = verdict["wrong"] == 0 and identical and setup_ok
    for what, count in sorted(verdict["failures"].items()):
        print(f"failed per pass: {count} x {what}")
    print(f"largest error ratio {verdict['worst']:.3g} on {verdict['worst_kind']}")
    for name, val in values.items():
        print(f"{name:45s} {val:>18.6g} {units[name]}{' (computed)' if name in spans.COMPUTED else ''}")
    record.update({"correct": correct, "attempted": attempted, "failed": failed,
                   "failures_per_pass": verdict["failures"], "worst_err_job": verdict["worst_kind"],
                   "computed_not_measured": list(spans.COMPUTED) if args.trace else [],
                   "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}})
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1, default=float), encoding="utf-8")

    shown = {k: {"value": v, "unit": units[k]} for k, v in values.items() if k not in REPORTED_ONLY}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
