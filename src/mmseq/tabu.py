"""Two-phase tabu search.

Phase 1 improves the no-failure objective under a short budget; the
phase-1 best is then re-evaluated under the scenario sample and phase 2
continues on the sample objective.  Acceptance is non-deteriorating
(plateau moves allowed), which lets the search walk equal-cost ridges;
since every positive delta is rejected, a probe may stop as soon as a
bound proves its delta positive.

The tabu list is rule-based, not recency-based: a move is tabu when it
would create back-to-back electric vehicles.  The per-operator rules
below follow the two-case scheme (vehicle at t1 an EV / not an EV);
positions outside the sequence count as non-EV.  Two conditions beyond
the two-case transcription are needed to make the rule set airtight
(marked in code): without them a forward insertion of an EV can land
left of an EV, and a backward insertion can drag an EV next to one.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .evaluator import (Objective, Sequence, _check_vehicles, as_order, evaluate,
                        partial_reevaluate)
from .instance import Instance
from .moves import (INSERT_BACKWARD, INSERT_FORWARD, INVERSION, MOVE_KINDS, SWAP,
                    Move, apply_to_order)
from .scenario import Sample
from .seeding import make_rng
from .timeunits import TICKS_PER_TU

DEFAULT_WEIGHTS = (0.45, 0.10, 0.15, 0.30)  # swap, fwd-insert, bwd-insert, inversion


def _is_count(value, least: int) -> bool:
    return isinstance(value, Integral) and value >= least


@dataclass(frozen=True)
class SearchParams:
    operator_weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS
    tau_one: float = 10.0     # phase-1 wall-clock budget, seconds
    tau_full: float = 590.0   # phase-2 wall-clock budget, seconds
    iters_one: int | None = None    # iteration budgets override wall clock
    iters_full: int | None = None
    seed: int = 0
    max_tabu_redraws: int = 100
    delta_check_every: int = 0  # 0 disables full-reevaluation spot checks

    def __post_init__(self):
        if len(self.operator_weights) != 4 or any(w < 0 for w in self.operator_weights):
            raise ValueError("need four nonnegative operator weights")
        if abs(sum(self.operator_weights) - 1.0) > 1e-9:
            raise ValueError("operator weights must sum to 1")
        if not (self.tau_one >= 0 and self.tau_full >= 0):   # NaN never expires
            raise ValueError("phase budgets must be nonnegative")
        for name in ("iters_one", "iters_full"):
            value = getattr(self, name)
            if value is not None and not _is_count(value, 0):
                raise ValueError(f"{name} must be None or an integer >= 0")
        if not _is_count(self.max_tabu_redraws, 1):
            raise ValueError("max_tabu_redraws must be an integer >= 1")
        if not _is_count(self.delta_check_every, 0):
            raise ValueError("delta_check_every must be an integer >= 0")


@dataclass(frozen=True)
class HistoryRecord:
    iteration: int
    elapsed: float | None   # None under iteration budgets (determinism)
    phase: str
    operator: str
    accepted: bool
    objective: float        # incumbent objective after the iteration, TU


def history_csv(records) -> str:
    lines = ["iteration,elapsed,phase,operator,accepted,objective"]
    for r in records:
        elapsed = "" if r.elapsed is None else f"{r.elapsed:.3f}"
        lines.append(f"{r.iteration},{elapsed},{r.phase},{r.operator},"
                     f"{int(r.accepted)},{r.objective:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tabu rules

def _tabu(flags, move: Move) -> bool:
    """flags[t] is True when the vehicle currently at position t is an EV."""
    n = len(flags)

    def ev(p: int) -> bool:
        return 0 <= p < n and flags[p]

    t1, t2 = move.t1, move.t2
    if move.kind == SWAP:
        if ev(t1):
            return ev(t2 - 1) or ev(t2 + 1)
        return ev(t2) and (ev(t1 - 1) or ev(t1 + 1))
    if move.kind == INSERT_FORWARD:
        if ev(t1):
            # ev(t2 + 1): extra guard, the moved EV lands left of old t2+1
            return ev(t2) or ev(t2 - 1) or ev(t2 + 1)
        return ev(t1 - 1) and ev(t1 + 1)
    if move.kind == INSERT_BACKWARD:
        if ev(t1):
            return True  # rule forbids an EV at t1 outright
        # ev(t2) and ev(t1 - 1): extra guard, a moved EV lands right of t1-1
        return (ev(t2 - 1) and ev(t2 + 1)) or (ev(t2) and ev(t1 - 1))
    # inversion
    if ev(t1):
        return ev(t2 + 1)
    return ev(t1 - 1) and ev(t2)


def is_tabu(instance: Instance, sequence, move: Move) -> bool:
    order = as_order(sequence)
    flags = [instance.vehicles[v].is_ev for v in order]
    return _tabu(flags, move)


# ---------------------------------------------------------------------------
# search core

class _Objective:
    """Incumbent order with its cached trajectory under every scenario of
    the sample; value is the exact integer numerator sum_w n_w * overload_w."""

    def __init__(self, instance: Instance, order, smp: Sample):
        self.instance = instance
        self.smp = smp
        self.trajectory = Objective(instance, smp).trajectory(order)
        self.flags = tuple(instance.vehicles[v].is_ev for v in order)

    @property
    def order(self) -> tuple[int, ...]:
        return self.trajectory.order

    @property
    def value(self) -> int:
        return self.trajectory.value

    def tu(self) -> float:
        return self.value / (self.smp.n * TICKS_PER_TU)

    def reference_value(self, order) -> int:
        """The numerator of order from the per-scenario reference recursion."""
        return sum(count * evaluate(self.instance, order, s).total_overload
                   for s, count in self.smp.unique)

    def commit(self, move: Move, probe) -> None:
        self.trajectory.commit(probe)
        self.flags = apply_to_order(self.flags, move)


def _cumulative(weights) -> list[float]:
    """Cumulative operator weights normalised by their total, computed
    as Generator.choice computes them."""
    cdf = np.cumsum(weights, dtype=float)
    return (cdf / cdf[-1]).tolist()


def _draw_kind(rng, cdf) -> str:
    """The move kind rng.choice(4, p=weights) draws, from the same one
    uniform variate, without re-validating the weights on every call."""
    return MOVE_KINDS[bisect_right(cdf, rng.random())]


def _draw_move(rng, cdf, n: int, flags, max_redraws: int) -> Move | None:
    for _ in range(max_redraws):
        kind = _draw_kind(rng, cdf)
        a = int(rng.integers(n))
        b = int(rng.integers(n))
        if a == b:
            continue
        move = Move(kind, min(a, b), max(a, b))
        if _tabu(flags, move):
            continue
        return move
    return None


def _run_phase(obj: _Objective, rng, params: SearchParams, phase: str,
               iters: int | None, seconds: float, history: list,
               best: dict) -> None:
    """One phase of the tabu walk: draw a non-tabu move, accept it when
    its delta is <= 0.  Every positive delta is rejected, so probes stop
    at limit 0; iterations picked by delta_check_every probe exactly and
    check the delta against the reference recursion.  best holds the
    best-so-far (strictly better replaces; ties keep the earlier find)."""
    cdf = _cumulative(params.operator_weights)
    n = len(obj.order)
    deterministic = iters is not None
    t0 = time.perf_counter()
    it = 0
    while True:
        if deterministic:
            if it >= iters:
                break
        elif time.perf_counter() - t0 >= seconds:
            break
        it += 1
        move = _draw_move(rng, cdf, n, obj.flags, params.max_tabu_redraws)
        accepted = False
        operator = "none"
        if move is not None:
            operator = move.kind
            checked = params.delta_check_every and it % params.delta_check_every == 0
            if checked:
                probe, delta = partial_reevaluate(obj.trajectory, move)
                if obj.reference_value(probe.order) != obj.value + delta:
                    raise AssertionError("partial reevaluation delta mismatch")
            else:
                probe, delta = partial_reevaluate(obj.trajectory, move, 0)
            if delta <= 0:
                obj.commit(move, probe)
                accepted = True
                if obj.value < best["value"]:
                    best["value"] = obj.value
                    best["order"] = obj.order
        history.append(HistoryRecord(
            iteration=it, elapsed=None if deterministic else time.perf_counter() - t0,
            phase=phase, operator=operator, accepted=accepted,
            objective=obj.tu()))


def search(instance: Instance, smp: Sample, start, params: SearchParams
           ) -> tuple[Sequence, list[HistoryRecord]]:
    """Two-phase tabu search; returns the best sequence found (never worse
    than the start under the sample objective) and the full history."""
    # phase one runs without smp, so refuse a foreign sample before it
    _check_vehicles(instance, smp.existence.shape[0], "the scenario set")
    start_order = as_order(start)
    rng = make_rng(params.seed)
    history: list[HistoryRecord] = []

    one = Sample.degenerate(instance)
    obj1 = _Objective(instance, start_order, one)
    best1 = {"order": obj1.order, "value": obj1.value}
    _run_phase(obj1, rng, params, "one", params.iters_one, params.tau_one,
               history, best1)

    obj2 = _Objective(instance, best1["order"], smp)
    start_value = (obj2.value if best1["order"] == start_order
                   else obj2.trajectory.objective.keys([start_order])[0])
    best = {"order": start_order, "value": start_value}
    if obj2.value < best["value"]:
        best = {"order": obj2.order, "value": obj2.value}
    _run_phase(obj2, rng, params, "full", params.iters_full, params.tau_full,
               history, best)

    return Sequence(best["order"]), history

