"""In-memory span tracer for the benchmark's traced run.

The tracer replaces a public function at each module that imports it
with a wrapper that records a span (name, start, end, parent) and keeps
whatever the layer metrics need from the call's arguments or result.
Nothing inside mmseq is edited; ``restore`` puts the originals back.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, info=None) -> None:
        """Trace ``module.attr`` as span ``name``; ``info(args, kwargs,
        result)`` returns the extra value kept with the span."""
        original = getattr(module, attr)
        setattr(module, attr, self.traced(original, name, info))
        self._patches.append((module, attr, original))

    def traced(self, fn, name: str, info=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result
        return wrapper

    def wrap_factory(self, module, attr: str, name: str) -> None:
        """Trace, as span ``name``, the callables ``module.attr`` returns."""
        original = getattr(module, attr)

        def factory(*args, **kwargs):
            return self.traced(original(*args, **kwargs), name)
        setattr(module, attr, factory)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "info": info}) + "\n")


class SpanStats:
    """Per-name totals over a span list: calls, time, self time."""

    def __init__(self, spans):
        self.spans = spans
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(spans):
            duration = span[END] - span[START]
            self.calls[span[NAME]] += 1
            self.total[span[NAME]] += duration
            self.self_time[span[NAME]] += duration - child_time[i]

    def infos(self, name: str):
        return [s[INFO] for s in self.spans if s[NAME] == name]

    def total_where_parent(self, name: str, parent_names) -> float:
        """Time of ``name`` spans whose direct parent is one of
        ``parent_names``."""
        return sum(s[END] - s[START] for s in self.spans
                   if s[NAME] == name and s[PARENT] >= 0
                   and self.spans[s[PARENT]][NAME] in parent_names)


def _noop():
    return None


def span_cost_us(calls: int = 200_000) -> float:
    """Time one traced call adds over a bare call, in microseconds."""
    bare = Tracer().traced(_noop, "calibrate")
    times = []
    for fn in (_noop, bare):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * (times[1] - times[0]) / calls


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics from one traced round plus its set-up.

    A layer the workload does not reach reports 0 calls and 0 s.
    """
    st = SpanStats(spans)
    out: dict[str, float] = {}
    out["instance.load_s"] = st.total["instance.load"]
    out["scenario.sample_s"] = st.total["scenario.sample"]
    out["scenario.sample_calls"] = st.calls["scenario.sample"]
    out["greedy.construct_s"] = st.total["greedy.construct"]
    out["greedy.calls"] = st.calls["greedy.construct"]

    cells = st.infos("evaluator.partial_reevaluate")
    out["evaluator.partial_calls"] = len(cells)
    out["evaluator.partial_s"] = st.total["evaluator.partial_reevaluate"]
    out["evaluator.partial_us_per_call"] = 1e6 * ratio(out["evaluator.partial_s"], len(cells))
    out["evaluator.cells_per_call"] = ratio(sum(cells), len(cells))
    out["evaluator.evaluate_calls"] = st.calls["evaluator.evaluate"]
    out["evaluator.evaluate_s"] = st.total["evaluator.evaluate"]
    out["evaluator.expected_calls"] = st.calls["evaluator.evaluate_expected"]
    out["evaluator.expected_s"] = st.total["evaluator.evaluate_expected"]
    out["evaluator.scenario_evals"] = sum(st.infos("evaluator.evaluate_expected"))
    out["evaluator.scenario_evals_per_s"] = ratio(out["evaluator.scenario_evals"],
                                                  out["evaluator.expected_s"])

    histories = st.infos("tabu.search")
    iters = {"one": 0, "full": 0}
    accepted = {"one": 0, "full": 0}
    no_move = 0
    for phases in histories:
        for phase, (n_iter, n_acc, n_none) in phases.items():
            iters[phase] = iters.get(phase, 0) + n_iter
            accepted[phase] = accepted.get(phase, 0) + n_acc
            no_move += n_none
    out["tabu.search_s"] = st.total["tabu.search"]
    out["tabu.iters"] = sum(iters.values())
    out["tabu.accept_rate_one"] = ratio(accepted["one"], iters["one"])
    out["tabu.accept_rate_full"] = ratio(accepted["full"], iters["full"])
    out["tabu.no_move_iters"] = no_move
    out["tabu.self_s"] = st.self_time["tabu.search"]

    out["lp.calls"] = st.calls["lp.solve_lp"]
    out["lp.solve_s"] = st.total["lp.solve_lp"]
    out["lp.ms_per_call"] = 1e3 * ratio(out["lp.solve_s"], out["lp.calls"])

    out["exact.master_lp_s"] = st.total_where_parent("lp.solve_lp", {"exact.lshaped_solve"})
    out["exact.dsp_calls"] = st.calls["exact.solve_dsp"]
    out["exact.dsp_s"] = st.total["exact.solve_dsp"]
    out["exact.bnb_self_s"] = st.self_time["exact.lshaped_solve"]
    solves = st.infos("exact.lshaped_solve")
    out["exact.nodes"] = sum(s["nodes"] for s in solves)
    out["exact.cuts_added"] = sum(s["cuts_added"] for s in solves)
    out["exact.leaf_exhausts"] = sum(s["leaf_exhausts"] for s in solves)
    out["exact.root_bound_tu"] = solves[-1]["root_bound_tu"] if solves else 0.0
    perms = sum(st.infos("exact.enumerate_optimal"))
    out["exact.enum_calls"] = st.calls["exact.enumerate_optimal"]
    out["exact.enum_s"] = st.total["exact.enumerate_optimal"]
    out["exact.enum_perms_per_s"] = ratio(perms, out["exact.enum_s"])

    out["assess.solver_s"] = st.total["assess.solver"]
    out["assess.candidate_eval_s"] = st.total_where_parent(
        "evaluator.evaluate_expected", {"assess.mrp"})
    out["assess.self_s"] = st.self_time["assess.mrp"]
    return out


def install(tracer: Tracer, mmseq) -> None:
    """Wrap every traced public function at each module that imports it."""
    ins, scn, grd, ev, tb, ex, ass = (mmseq.instance, mmseq.scenario, mmseq.greedy,
                                      mmseq.evaluator, mmseq.tabu, mmseq.exact,
                                      mmseq.assess)

    def sample_info(args, kwargs, result):
        return result.n_unique

    def partial_info(args, kwargs, result):
        return result[0].recomputed_positions

    def expected_info(args, kwargs, result):
        smp = args[2] if len(args) > 2 else kwargs["smp"]
        return smp.n_unique

    def search_info(args, kwargs, result):
        phases: dict[str, list[int]] = {}
        for rec in result[1]:
            row = phases.setdefault(rec.phase, [0, 0, 0])
            row[0] += 1
            row[1] += int(rec.accepted)
            row[2] += int(rec.operator == "none")
        return phases

    def lshaped_info(args, kwargs, result):
        stats = result.stats
        return {"nodes": stats.nodes, "cuts_added": stats.cuts_added,
                "leaf_exhausts": stats.leaf_exhausts,
                "root_bound_tu": stats.root_bounds[-1] if stats.root_bounds else 0.0}

    def enum_info(args, kwargs, result):
        return math.factorial(args[0].n_vehicles)

    tracer.wrap(ins, "load", "instance.load")
    for module in (scn, ass):
        tracer.wrap(module, "sample", "scenario.sample", sample_info)
    for module in (grd, ex):
        tracer.wrap(module, "construct", "greedy.construct")
    tracer.wrap(tb, "partial_reevaluate", "evaluator.partial_reevaluate", partial_info)
    tracer.wrap(tb, "evaluate", "evaluator.evaluate")
    for module in (ev, ass):
        tracer.wrap(module, "evaluate_expected", "evaluator.evaluate_expected",
                    expected_info)
    tracer.wrap(tb, "search", "tabu.search", search_info)
    tracer.wrap(ex, "solve_lp", "lp.solve_lp")
    tracer.wrap(ex, "solve_dsp", "exact.solve_dsp")
    tracer.wrap(ex, "lshaped_solve", "exact.lshaped_solve", lshaped_info)
    tracer.wrap(ex, "enumerate_optimal", "exact.enumerate_optimal", enum_info)
    tracer.wrap(ass, "mrp", "assess.mrp")
    tracer.wrap_factory(ass, "enumeration_solver", "assess.solver")
