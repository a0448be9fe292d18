"""Two-phase tabu search.

Phase 1 improves the no-failure objective under a short budget; the
phase-1 best is then re-evaluated under the scenario sample and phase 2
continues on the sample objective.  Each phase walks the evaluator's
Trajectory of its incumbent: partial_reevaluate prices a move against
it, and an accepted move is committed in place.  Acceptance is
non-deteriorating (plateau moves allowed), which lets the search walk
equal-cost ridges; since every positive delta is rejected, a probe may
stop as soon as a bound proves its delta positive.

The tabu list is rule-based, not recency-based: a move is tabu when it
would create back-to-back electric vehicles.  The per-operator rules
below follow the two-case scheme (vehicle at t1 an EV / not an EV);
positions outside the sequence count as non-EV.  Two conditions beyond
the two-case transcription are needed to make the rule set airtight
(marked in code): without them a forward insertion of an EV can land
left of an EV, and a backward insertion can drag an EV next to one.
"""

from __future__ import annotations

import itertools
import math
import time
from array import array
from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .evaluator import (Objective, Sequence, Trajectory, _check_vehicles, as_order,
                        evaluate, partial_reevaluate)
from .instance import Instance
from .moves import (INSERT_BACKWARD, INSERT_FORWARD, MOVE_KINDS, SWAP, Move,
                    apply_to_order)
from .scenario import Sample
from .seeding import make_rng

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
    delta_check_every: int = 0  # 0 disables full-reevaluation spot checks

    def __post_init__(self):
        # NaN fails every comparison, so it is refused too
        if len(self.operator_weights) != 4 or not all(w >= 0 for w in self.operator_weights):
            raise ValueError("need four nonnegative operator weights")
        if abs(sum(self.operator_weights) - 1.0) > 1e-9:
            raise ValueError("operator weights must sum to 1")
        if not (self.tau_one >= 0 and self.tau_full >= 0):   # NaN never expires
            raise ValueError("phase budgets must be nonnegative")
        for name in ("iters_one", "iters_full"):
            value = getattr(self, name)
            if value is not None and not _is_count(value, 0):
                raise ValueError(f"{name} must be None or an integer >= 0")
        if not _is_count(self.delta_check_every, 0):
            raise ValueError("delta_check_every must be an integer >= 0")


@dataclass(frozen=True, slots=True)
class HistoryRecord:
    iteration: int
    elapsed: float | None   # None under iteration budgets (determinism)
    phase: str
    operator: str
    accepted: bool
    objective: float        # incumbent objective after the iteration, TU


# every (phase, operator, accepted) a row can hold, indexed by its code
_ROW_KINDS = tuple(itertools.product(("one", "full"), ("none",) + MOVE_KINDS,
                                     (False, True)))
_ROW_CODE = {kind: code for code, kind in enumerate(_ROW_KINDS)}


def _record(iteration: int, elapsed: float, code: int, objective: float) -> HistoryRecord:
    phase, operator, accepted = _ROW_KINDS[code]
    return HistoryRecord(iteration, None if math.isnan(elapsed) else elapsed,
                         phase, operator, accepted, objective)


class History(SequenceABC):
    """A search's HistoryRecords, one per iteration, held column-wise:
    iteration, elapsed (NaN for None) and objective in typed arrays and
    (phase, operator, accepted) as a one-byte code: about 26 bytes a row
    under tracemalloc, where a list of records held 144 (168 with
    elapsed times).  It reads as a sequence of HistoryRecords, built on
    demand."""

    def __init__(self):
        self._iteration = array("q")
        self._elapsed = array("d")
        self._objective = array("d")
        self._code = bytearray()

    def append(self, iteration: int, elapsed: float | None, phase: str,
               operator: str, accepted: bool, objective: float) -> None:
        self._iteration.append(iteration)
        self._elapsed.append(math.nan if elapsed is None else elapsed)
        self._objective.append(objective)
        self._code.append(_ROW_CODE[phase, operator, accepted])

    def __len__(self) -> int:
        return len(self._code)

    def __getitem__(self, i: int) -> HistoryRecord:
        return _record(self._iteration[i], self._elapsed[i], self._code[i],
                       self._objective[i])

    def __iter__(self):
        return itertools.starmap(_record, zip(self._iteration, self._elapsed,
                                              self._code, self._objective))

    def __eq__(self, other):
        if not isinstance(other, History):
            return NotImplemented
        return list(self) == list(other)


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

MAX_TABU_REDRAWS = 100  # draws per iteration before it records "none"


def _reference_value(instance: Instance, smp: Sample, order) -> int:
    """The numerator of order from the per-scenario reference recursion."""
    return sum(count * evaluate(instance, order, s).total_overload
               for s, count in smp.unique)


def _cumulative(weights) -> list[float]:
    """Cumulative operator weights normalised by their total, computed
    as Generator.choice computes them."""
    cdf = np.cumsum(weights, dtype=float)
    return (cdf / cdf[-1]).tolist()


def _draw_kind(rng, cdf) -> str:
    """The move kind rng.choice(4, p=weights) draws, from the same one
    uniform variate, without re-validating the weights on every call."""
    return MOVE_KINDS[bisect_right(cdf, rng.random())]


def _draw_move(rng, cdf, n: int, flags) -> Move | None:
    for _ in range(MAX_TABU_REDRAWS):
        kind = _draw_kind(rng, cdf)
        a = int(rng.integers(n))
        b = int(rng.integers(n))
        if a != b:
            move = Move(kind, min(a, b), max(a, b))
            if not _tabu(flags, move):
                return move
    return None


def _run_phase(instance: Instance, smp: Sample, trajectory: Trajectory, rng,
               params: SearchParams, phase: str, iters: int | None, seconds: float,
               history: History, best: tuple) -> tuple[int, tuple[int, ...]]:
    """One phase of the tabu walk on trajectory, the incumbent under smp:
    draw a non-tabu move, accept it when its delta is <= 0.  Every
    positive delta is rejected, so probes stop at limit 0; iterations
    picked by delta_check_every probe exactly and check the delta
    against the reference recursion.  best is the (value, order) to
    beat; returns the best found (strictly better replaces, ties keep
    the earlier find)."""
    cdf = _cumulative(params.operator_weights)
    flags = tuple(instance.vehicles[v].is_ev for v in trajectory.order)
    n = len(flags)
    deterministic = iters is not None
    t0 = time.perf_counter()
    it = 0
    while it < iters if deterministic else time.perf_counter() - t0 < seconds:
        it += 1
        move = _draw_move(rng, cdf, n, flags)
        accepted = False
        operator = "none"
        if move is not None:
            operator = move.kind
            if params.delta_check_every and it % params.delta_check_every == 0:
                probe, delta = partial_reevaluate(trajectory, move)
                if _reference_value(instance, smp, probe.order) != trajectory.value + delta:
                    raise AssertionError("partial reevaluation delta mismatch")
            else:
                probe, delta = partial_reevaluate(trajectory, move, 0)
            if delta <= 0:
                trajectory.commit(probe)
                flags = apply_to_order(flags, move)
                accepted = True
                if trajectory.value < best[0]:
                    best = trajectory.value, trajectory.order
        history.append(it, None if deterministic else time.perf_counter() - t0,
                       phase, operator, accepted,
                       trajectory.objective.tu(trajectory.value))
    return best


def search(instance: Instance, smp: Sample, start, params: SearchParams
           ) -> tuple[Sequence, History]:
    """Two-phase tabu search; returns the best sequence found (never worse
    than the start under the sample objective) and the full history."""
    # phase one runs without smp, so refuse a foreign sample before it
    _check_vehicles(instance, smp.existence.shape[0], "the scenario set")
    start_order = as_order(start)
    rng = make_rng(params.seed)
    history = History()

    one = Sample.degenerate(instance)
    trajectory = Objective(instance, one).trajectory(start_order)
    _, order = _run_phase(instance, one, trajectory, rng, params, "one",
                          params.iters_one, params.tau_one, history,
                          (trajectory.value, trajectory.order))

    objective = Objective(instance, smp)
    trajectory = objective.trajectory(order)
    start_value = (trajectory.value if order == start_order
                   else objective.keys([start_order])[0])
    best = ((trajectory.value, order) if trajectory.value < start_value
            else (start_value, start_order))
    _, order = _run_phase(instance, smp, trajectory, rng, params, "full",
                          params.iters_full, params.tau_full, history, best)
    return Sequence(order), history
