"""One benchmark workload in one process; started by run.py.

Modes:
  run    set up, then repeat whole rounds of the workload, as many as
         come nearest to --seconds of measured time, then check every output
         (run.py starts three such processes and gives each its share
         of the time the ones before it left);
  trace  set up traced, run one round untraced and one traced, check,
         and write the spans.

The last line of standard output is one JSON object for run.py.  The
workload drives mmseq only through public functions, called through
their modules so that the traced run can wrap them, in the order the
CLI subcommands call them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import mmseq.assess
import mmseq.evaluator
import mmseq.exact
import mmseq.greedy
import mmseq.instance
import mmseq.scenario
import mmseq.tabu
import reference as ref
import tracer

# Fixed instance seeds.  Solve times vary up to 2x between instances of
# one size class, so the instances that set the cost of the work do not
# depend on --seed; --seed draws only tabu-large's out-of-sample set,
# whose cost does not depend on the draw.  Rounds are kept short (3-11 s) so that a
# run holds several of them, spread over its whole length.
TABU_INSTANCE_SEED, TABU_SAMPLE_SEED = 8, 9
TABU_V, TABU_N, TABU_EVAL_N = 200, 100, 3000
TABU_ITERS = (2, 98)            # the CLI's 10:590 phase split of --iters 100
EXACT_INSTANCE_SEED, EXACT_SAMPLE_SEED, EXACT_MRP_SEED = 103, 200, 5
EXACT_V, EXACT_N, EXACT_REPLICATIONS = 8, 100, 2
TPT = ref.TICKS_PER_TU


def make_instance(n_vehicles: int, seed: int, size_class: str, work: Path):
    """Generate, save to YAML and read back, as a CLI user does."""
    generated = mmseq.instance.generate(
        mmseq.instance.preset_config(n_vehicles, seed, size_class))
    path = work / f"{size_class}_{n_vehicles:03d}_{os.getpid()}.yaml"
    try:
        mmseq.instance.save(generated, path)
        inst = mmseq.instance.load(path)
    finally:
        path.unlink(missing_ok=True)
    if inst != generated:
        raise RuntimeError("instance changed on its YAML round trip")
    return inst


class Timer:
    def __init__(self):
        self.totals: dict[str, float] = {}

    def call(self, key: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.totals[key] = self.totals.get(key, 0.0) + time.perf_counter() - t0
        return result


# ---------------------------------------------------------------------------
# workloads: setup(seed, work) -> inputs, round(inputs, timer) -> outputs,
# check(inputs, outputs) -> list of problems; SETUP_OPS and ROUND_OPS count
# the checked calls

class Workload:
    def failed(self, out) -> int:
        """Operations of one round that gave up without a result."""
        return 0


class TabuLarge(Workload):
    """compare --method ts on the large preset at V=200."""
    SETUP_OPS = 5           # generate, save, load, two sample draws
    ROUND_OPS = 6           # construct, two searches, three evaluations

    def setup(self, seed, work):
        inst = make_instance(TABU_V, TABU_INSTANCE_SEED, "large", work)
        return {"inst": inst,
                "smp": mmseq.scenario.sample(inst, TABU_N, TABU_SAMPLE_SEED),
                "eval": mmseq.scenario.sample(inst, TABU_EVAL_N, ref.derive_seed(seed, 1))}

    def round(self, x, timer):
        inst, smp = x["inst"], x["smp"]
        params = mmseq.tabu.SearchParams(iters_one=TABU_ITERS[0],
                                         iters_full=TABU_ITERS[1], seed=0)
        orders, values = {}, {}

        def score(key, seq):
            orders[key] = seq.order
            values[key] = timer.call("score_s", mmseq.evaluator.evaluate_expected,
                                     inst, seq, x["eval"])

        # each order is scored as soon as it exists, so that the scoring
        # time is spread over the round like the search time
        start, _ = mmseq.greedy.construct(inst, 0)
        score("start", start)
        nominal, _ = mmseq.tabu.search(inst, mmseq.scenario.Sample.degenerate(inst),
                                       start, params)
        score("nominal", nominal)
        robust, _ = timer.call("solve_s", mmseq.tabu.search, inst, smp, start, params)
        score("robust", robust)
        return {"orders": orders, "values": values}

    def check(self, x, out):
        inst = x["inst"]
        p, lengths, c, fail, is_ev = data(inst)
        problems = check_sample(x["smp"], fail, TABU_N, TABU_SAMPLE_SEED)
        problems += check_sample(x["eval"], fail, TABU_EVAL_N, x["eval"].seed)
        rows, counts = ref.draw(fail, TABU_EVAL_N, x["eval"].seed)
        plan_rows, plan_counts = ref.draw(fail, TABU_N, TABU_SAMPLE_SEED)
        nofail = ([[1] * inst.n_vehicles], [1])
        orders = out["orders"]
        for key, order in orders.items():
            if not ref.is_permutation(order, inst.n_vehicles):
                problems.append(f"{key} order is not a permutation")
                continue
            want = ref.numerator(p, lengths, c, order, rows, counts) / (TABU_EVAL_N * TPT)
            if out["values"][key] != want:
                problems.append(f"{key}: evaluate_expected {out['values'][key]!r} != {want!r}")
        if not ref.ev_spacing_ok(orders["start"], is_ev):
            problems.append("greedy start breaks the EV spacing")
        for key, (ex, cnt) in (("nominal", nofail), ("robust", (plan_rows, plan_counts))):
            if not ref.no_adjacent_evs(orders[key], is_ev):
                problems.append(f"{key} order has adjacent EVs")
            if (ref.numerator(p, lengths, c, orders[key], ex, cnt)
                    > ref.numerator(p, lengths, c, orders["start"], ex, cnt)):
                problems.append(f"{key} search ends worse than its start")
        return problems


class ExactSmall(Workload):
    """solve --method lshaped, then assess --method auto (enumeration), at V=8."""
    SETUP_OPS = 4           # generate, save, load, one sample draw
    ROUND_OPS = 2           # lshaped_solve, mrp

    def setup(self, seed, work):
        inst = make_instance(EXACT_V, EXACT_INSTANCE_SEED, "small", work)
        return {"inst": inst,
                "smp": mmseq.scenario.sample(inst, EXACT_N, EXACT_SAMPLE_SEED)}

    def round(self, x, timer):
        inst = x["inst"]
        res = timer.call("solve_s", mmseq.exact.lshaped_solve, inst, x["smp"])
        solver = mmseq.assess.enumeration_solver()
        report = timer.call("score_s", mmseq.assess.mrp, inst, res.sequence, solver,
                            replications=EXACT_REPLICATIONS, n=EXACT_N,
                            seed=EXACT_MRP_SEED)
        return {"status": res.stats.status, "order": res.sequence.order,
                "lower": res.lower_bound, "upper": res.upper_bound,
                "rows": [(r.sample_optimum, r.candidate_cost, r.gap)
                         for r in report.rows]}

    def failed(self, out) -> int:
        return int(out["status"] != "optimal")    # no time limit is set

    def check(self, x, out):
        inst = x["inst"]
        p, lengths, c, fail, _ = data(inst)
        problems = check_sample(x["smp"], fail, EXACT_N, EXACT_SAMPLE_SEED)
        rows, counts = ref.draw(fail, EXACT_N, EXACT_SAMPLE_SEED)
        best, _ = ref.brute_force(p, lengths, c, rows, counts)
        want = best / (EXACT_N * TPT)
        if out["status"] == "optimal" and not (out["lower"] == out["upper"] == want):
            problems.append(f"lshaped bounds {out['lower']!r}/{out['upper']!r} != {want!r}")
        if ref.numerator(p, lengths, c, out["order"], rows, counts) != best:
            problems.append("lshaped order does not attain the optimum")
        if len(out["rows"]) != EXACT_REPLICATIONS:
            problems.append(f"mrp made {len(out['rows'])} replications")
        for m, (opt, cand, gap) in enumerate(out["rows"], start=1):
            r_rows, r_counts = ref.draw(fail, EXACT_N, ref.derive_seed(EXACT_MRP_SEED, m))
            r_best, _ = ref.brute_force(p, lengths, c, r_rows, r_counts)
            r_cand = ref.numerator(p, lengths, c, out["order"], r_rows, r_counts)
            if opt != r_best / (EXACT_N * TPT):
                problems.append(f"replication {m}: optimum {opt!r} != {r_best / (EXACT_N * TPT)!r}")
            if cand != r_cand / (EXACT_N * TPT):
                problems.append(f"replication {m}: candidate cost {cand!r} is off")
            if gap < 0:
                problems.append(f"replication {m}: negative gap {gap!r}")
        return problems


WORKLOADS = {"tabu-large": TabuLarge, "exact-small": ExactSmall}


def data(inst):
    """The instance as plain arrays for the reference computations."""
    p = [[veh.processing_times[k] for veh in inst.vehicles]
         for k in range(inst.n_stations)]
    lengths = [st.length for st in inst.stations]
    fail = [veh.failure_prob for veh in inst.vehicles]
    is_ev = [veh.is_ev for veh in inst.vehicles]
    return p, lengths, inst.cycle_time, fail, is_ev


def check_sample(smp, fail, n, seed) -> list[str]:
    rows, counts = ref.draw(fail, n, seed)
    got = [(s.exists, c) for s, c in smp.unique]
    want = [(tuple(int(e) for e in r), int(k)) for r, k in zip(rows, counts)]
    if smp.n != n or got != want:
        return [f"sample(n={n}, seed={seed}) differs from the reference draw"]
    return []


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_all(wl, x, outputs) -> list[str]:
    """Every round must repeat the first, and the first must match the
    reference computations."""
    problems = [f"round {i} differs from round 0"
                for i, out in enumerate(outputs) if out != outputs[0]]
    return problems + wl.check(x, outputs[0])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=["run", "trace"])
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--work", required=True, help="directory for instance files")
    ap.add_argument("--trace-out", help="JSONL file for the spans (trace mode)")
    args = ap.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(mmseq.__file__).resolve().is_relative_to(src):
        print(f"error: mmseq was imported from {mmseq.__file__}, not {src}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    work = Path(args.work)

    if args.mode == "trace":
        return trace_main(args, wl, work)

    x = wl.setup(args.seed, work)
    setup_s = time.monotonic() - args.spawned_at
    outputs, rounds = [], []
    measured = 0.0
    # whole rounds, as many as come nearest to --seconds
    while not rounds or measured + 0.5 * measured / len(rounds) < args.seconds:
        timer = Timer()
        t0 = time.perf_counter()
        outputs.append(wl.round(x, timer))
        measured += time.perf_counter() - t0
        rounds.append(timer.totals)
    rss = peak_rss_mb()
    problems = check_all(wl, x, outputs)
    failed = sum(wl.failed(o) for o in outputs)
    print(json.dumps({
        "setup_s": setup_s,
        "measured_s": measured,
        "peak_rss_mb": rss,
        "rounds": rounds,
        "attempted": wl.SETUP_OPS + wl.ROUND_OPS * len(rounds),
        "failed": failed,
        "problems": problems,
    }))
    return 0


def trace_main(args, wl, work) -> int:
    t = tracer.Tracer()
    tracer.install(t, mmseq)
    x = wl.setup(args.seed, work)
    t.restore()

    t0 = time.perf_counter()
    plain = wl.round(x, Timer())
    untraced_s = time.perf_counter() - t0

    tracer.install(t, mmseq)
    t0 = time.perf_counter()
    traced = wl.round(x, Timer())
    traced_s = time.perf_counter() - t0
    t.restore()

    problems = check_all(wl, x, [plain, traced])
    if args.trace_out:
        t.write_jsonl(args.trace_out)
    metrics = tracer.layer_metrics(t.spans)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.spans"] = len(t.spans)
    metrics["trace.span_cost_us"] = tracer.span_cost_us()
    failed = sum(wl.failed(o) for o in (plain, traced))
    print(json.dumps({
        "metrics": metrics,
        "rounds": [{"untraced_s": untraced_s}, {"traced_s": traced_s}],
        "attempted": wl.SETUP_OPS + 2 * wl.ROUND_OPS,
        "failed": failed,
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
