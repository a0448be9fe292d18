"""Benchmark for mmseq: two workloads, end-to-end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload tabu-large --seed 1 --seconds 45 --trace 0

Each workload runs in processes of its own (worker.py) with numerical
thread pools capped at the core count, against the package in src/.
With --trace 0 the run reports the end-to-end metrics: three processes,
one after the other, share the measured rounds; set-up time is the
median of their three set-ups, and each timing is the mean time per
round over all their rounds.  With --trace 1 one process runs one
round untraced and one traced and reports the per-layer metrics and
the tracing overhead.  A fixed pure-Python loop is timed before and
after every run to show whether it fell in a slow phase of the host.

The last line of standard output is one JSON object: correct,
attempted, failed and metrics (name -> value and unit).  The line
before it carries the details, which are also written to
bench/results/.  The exit code is 0 when the workloads ran, whether or
not their outputs were correct, and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("tabu-large", "exact-small")
DEADLINE_S = 170.0
# Three processes give three set-up times, whose median is reported.
# The host switches between fast and slow phases, from one call to the
# next and over minutes, and a slow phase can make a call 40% slower.
# The mean time per round weighs each phase by the time a run spent in
# it, where a median snaps to one phase or the other, and it spread
# less between runs (bench/README.md, "Drift on this host").
RUN_PROCESSES = 3
END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "score_s": "s",
                    "peak_rss_mb": "MB"}


PER_LAYER_UNITS = {
    "instance.load_s": "s",
    "scenario.sample_s": "s", "scenario.sample_calls": "count",
    "greedy.construct_s": "s", "greedy.calls": "count",
    "evaluator.partial_calls": "count", "evaluator.partial_s": "s",
    "evaluator.partial_us_per_call": "us", "evaluator.cells_per_call": "cells",
    "evaluator.evaluate_calls": "count", "evaluator.evaluate_s": "s",
    "evaluator.expected_calls": "count", "evaluator.expected_s": "s",
    "evaluator.scenario_evals": "count", "evaluator.scenario_evals_per_s": "1/s",
    "tabu.search_s": "s", "tabu.iters": "count",
    "tabu.accept_rate_one": "ratio", "tabu.accept_rate_full": "ratio",
    "tabu.no_move_iters": "count", "tabu.self_s": "s",
    "lp.calls": "count", "lp.solve_s": "s", "lp.ms_per_call": "ms",
    "exact.master_lp_s": "s", "exact.dsp_calls": "count", "exact.dsp_s": "s",
    "exact.bnb_self_s": "s", "exact.nodes": "count", "exact.cuts_added": "count",
    "exact.leaf_exhausts": "count", "exact.root_bound_tu": "TU",
    "exact.enum_calls": "count", "exact.enum_s": "s",
    "exact.enum_perms_per_s": "1/s",
    "assess.solver_s": "s", "assess.candidate_eval_s": "s", "assess.self_s": "s",
    "host.pyref_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count", "trace.span_cost_us": "us",
}


def pyref() -> float:
    """Median time of a fixed pure-Python loop, to spot slow host phases."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += (i * i) % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        threads = str(len(os.sched_getaffinity(0)))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            self.env[var] = threads
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.work = BENCH / "work"
        self.results = BENCH / "results"

    def worker(self, mode: str, seconds: float, *extra: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", repr(seconds),
               "--mode", mode,
               "--work", str(self.work), *extra,
               "--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              text=True, timeout=self.deadline - time.monotonic())
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run(self) -> tuple[dict, dict]:
        self.work.mkdir(exist_ok=True)
        self.results.mkdir(exist_ok=True)
        stem = f"{self.args.workload}-seed{self.args.seed}-trace{self.args.trace}"
        pyref_start = pyref()
        if self.args.trace:
            out = self.worker("trace", self.args.seconds,
                              "--trace-out", str(self.results / f"{stem}.jsonl"))
            metrics = dict(out.pop("metrics"))
            setups = []
        else:
            runs = []
            for left in range(RUN_PROCESSES, 0, -1):
                # a process gets its share of the time the ones before it
                # left, so that whole rounds add up to about --seconds
                spent = sum(r["measured_s"] for r in runs)
                runs.append(self.worker("run", max(0.0, (self.args.seconds - spent) / left)))
            setups = [r["setup_s"] for r in runs]
            rounds = [rnd for r in runs for rnd in r["rounds"]]
            out = {"rounds": rounds,
                   "attempted": sum(r["attempted"] for r in runs),
                   "failed": sum(r["failed"] for r in runs),
                   "problems": [p for r in runs for p in r["problems"]]}
            metrics = {"setup_s": statistics.median(setups),
                       "solve_s": statistics.fmean(r["solve_s"] for r in rounds),
                       "score_s": statistics.fmean(r["score_s"] for r in rounds),
                       "peak_rss_mb": max(r["peak_rss_mb"] for r in runs)}
        pyref_end = pyref()
        if self.args.trace:
            metrics["host.pyref_s"] = (pyref_start + pyref_end) / 2
        units = PER_LAYER_UNITS if self.args.trace else END_TO_END_UNITS
        result = {
            "correct": not out["problems"],
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        details = {"workload": self.args.workload, "seed": self.args.seed,
                   "seconds": self.args.seconds, "trace": self.args.trace,
                   "rounds": out["rounds"], "setup_s_each": setups,
                   "host.pyref_s": [pyref_start, pyref_end],
                   "problems": out["problems"], "result": result}
        (self.results / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
        return details, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="whole rounds are repeated until this much is measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mmseq" / "__init__.py").is_file():
        print(f"error: no mmseq package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        details, result = Runner(args).run()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in details["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
