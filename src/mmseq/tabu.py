"""Two-phase tabu search and a simulated-annealing baseline.

Phase 1 improves the no-failure objective under a short budget; the
phase-1 best is then re-evaluated under the scenario sample and phase 2
continues on the sample objective.  Acceptance is non-deteriorating
(plateau moves allowed), which lets the search walk equal-cost ridges.

The tabu list is rule-based, not recency-based: a move is tabu when it
would create back-to-back electric vehicles.  The per-operator rules
below follow the two-case scheme (vehicle at t1 an EV / not an EV);
positions outside the sequence count as non-EV.  Two conditions beyond
the two-case transcription are needed to make the rule set airtight
(marked in code): without them a forward insertion of an EV can land
left of an EV, and a backward insertion can drag an EV next to one.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .evaluator import (Objective, Sequence, _check_vehicles, as_order, evaluate,
                        partial_reevaluate)
from .instance import Instance
from .moves import (INSERT_BACKWARD, INSERT_FORWARD, INVERSION, MOVE_KINDS, SWAP,
                    Move, apply_to_order)
from .scenario import Sample, Scenario
from .seeding import make_rng
from .timeunits import TICKS_PER_TU

DEFAULT_WEIGHTS = (0.45, 0.10, 0.15, 0.30)  # swap, fwd-insert, bwd-insert, inversion


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
        if self.tau_one < 0 or self.tau_full < 0:
            raise ValueError("phase budgets must be nonnegative")


@dataclass(frozen=True)
class SAParams:
    t_init: float = 10.0
    alpha: float = 0.999
    operator_weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS
    seed: int = 0

    def __post_init__(self):
        if self.t_init <= 0:
            raise ValueError("t_init must be positive")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")


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

    def tu(self, value: int | None = None) -> float:
        v = self.value if value is None else value
        return v / (self.smp.n * TICKS_PER_TU)

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


def _draw_move(rng, cdf, n: int, flags, tabu_enabled: bool,
               max_redraws: int) -> Move | None:
    for _ in range(max_redraws):
        kind = _draw_kind(rng, cdf)
        a = int(rng.integers(n))
        b = int(rng.integers(n))
        if a == b:
            continue
        move = Move(kind, min(a, b), max(a, b))
        if tabu_enabled and _tabu(flags, move):
            continue
        return move
    return None


def _run_phase(obj: _Objective, rng, params: SearchParams, phase: str,
               iters: int | None, seconds: float, history: list,
               best: dict, accept, cool=None) -> None:
    """Shared inner loop.  accept(delta_ticksN) decides, and rejects
    every delta above accept.limit when that is not None, so probes may
    stop at that limit; spot-checked iterations probe exactly.  best
    holds the best-so-far (strictly better replaces; ties keep the
    earlier find)."""
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
        move = _draw_move(rng, cdf, n, obj.flags,
                          tabu_enabled=accept.tabu, max_redraws=params.max_tabu_redraws)
        accepted = False
        operator = "none"
        if move is not None:
            operator = move.kind
            checked = params.delta_check_every and it % params.delta_check_every == 0
            if checked or accept.limit is None:
                probe, delta = partial_reevaluate(obj.trajectory, move)
            else:
                probe, delta = partial_reevaluate(obj.trajectory, move, accept.limit)
            if checked and obj.reference_value(probe.order) != obj.value + delta:
                raise AssertionError("partial reevaluation delta mismatch")
            if accept(delta):
                obj.commit(move, probe)
                accepted = True
                if obj.value < best["value"]:
                    best["value"] = obj.value
                    best["order"] = obj.order
        if cool is not None:
            cool()
        history.append(HistoryRecord(
            iteration=it, elapsed=None if deterministic else time.perf_counter() - t0,
            phase=phase, operator=operator, accepted=accepted,
            objective=obj.tu()))


class _NonDeteriorating:
    tabu = True
    # every delta above the limit is rejected, so a probe may stop once
    # a bound proves its delta exceeds it
    limit = 0

    def __call__(self, delta: int) -> bool:
        return delta <= 0


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
               history, best1, _NonDeteriorating())

    obj2 = _Objective(instance, best1["order"], smp)
    start_value = (obj2.value if best1["order"] == start_order
                   else obj2.trajectory.objective.keys([start_order])[0])
    best = {"order": start_order, "value": start_value}
    if obj2.value < best["value"]:
        best = {"order": obj2.order, "value": obj2.value}
    _run_phase(obj2, rng, params, "full", params.iters_full, params.tau_full,
               history, best, _NonDeteriorating())

    return Sequence(best["order"]), history


class _Metropolis:
    tabu = False
    # any positive delta may be accepted at its exact value
    limit = None

    def __init__(self, rng, t_init: float, to_tu):
        self.rng = rng
        self.temp = t_init
        self.to_tu = to_tu

    def __call__(self, delta: int) -> bool:
        if delta <= 0:
            return True
        return self.rng.random() < math.exp(-self.to_tu(delta) / self.temp)

    def cool(self, alpha: float) -> None:
        self.temp *= alpha


def simulated_annealing(instance: Instance, smp: Sample, start,
                        sa_params: SAParams, budget: int
                        ) -> tuple[Sequence, list[HistoryRecord]]:
    """Single-phase Metropolis walk over the same neighborhood, tabu rules
    off, temperature cooled geometrically every iteration."""
    start_order = as_order(start)
    rng = make_rng(sa_params.seed)
    history: list[HistoryRecord] = []
    obj = _Objective(instance, start_order, smp)
    best = {"order": obj.order, "value": obj.value}
    params = SearchParams(operator_weights=sa_params.operator_weights,
                          seed=sa_params.seed)
    accept = _Metropolis(rng, sa_params.t_init, obj.tu)
    _run_phase(obj, rng, params, "sa", budget, 0.0, history, best, accept,
               cool=lambda: accept.cool(sa_params.alpha))
    return Sequence(best["order"]), history
