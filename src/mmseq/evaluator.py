"""Second-stage cost of a sequence under a failure scenario.

The closed-station dynamics at one station reduce to a single forward
recursion over positions t = 0..T-1 in integer ticks:

    start position   z[0] = 0
    work overload    w[t] = max(0, z[t] + b[t] - l)          (interior)
                     w[T-1] = max(0, z[T-1] + b[T-1] - c)    (regenerative end)
    next start       z[t+1] = max(0, min(l - c, z[t] + b[t] - c))
    idle on entry    idle[t+1] = max(0, c - z[t] - b[t])

where b[t] is the processing time at that position after the scenario
transform.  The regenerative end charges whatever work would push the
next cycle past the left border, so a full-information run can be cut
at any window boundary; switching it off reproduces an open-ended
window.  The recursion attains the optimum of the equivalent linear
program position by position, which the exact-solver tests cross-check.

Failed vehicles are neutralized rather than removed: their effective
processing time equals the cycle time, which provably leaves z
untouched and adds no overload, so one fixed-length position axis
serves every scenario.  A removal transform (drop failed positions) and
the zeroing transform used by the weaker formulation are provided for
the equivalence tests.

Every full evaluation of the sampled objective goes through Objective,
which runs this recursion on a batch of orders one position at a time,
each step vectorised over orders x scenarios x stations in int64, and
weighs the per-scenario overloads.  evaluate / evaluate_station keep the
full per-scenario trace (the reference in the tests, the cut duals and
trace_csv), and partial_reevaluate serves the local search.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import StaleStateError
from .instance import Instance
from .moves import INSERT_BACKWARD, INSERT_FORWARD, INVERSION, SWAP, Move, apply_to_order
from .scenario import Sample, Scenario
from .timeunits import TICKS_PER_TU, format_ticks

REMOVAL = "removal"
STANDARD_ZERO = "standard_zero"
IMPROVED_NEUTRAL = "improved_neutral"

TRANSFORMS = (REMOVAL, STANDARD_ZERO, IMPROVED_NEUTRAL)


@dataclass(frozen=True)
class Sequence:
    """A production order: order[t] is the vehicle id at position t."""
    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("sequence must be a permutation of 0..V-1")

    def __len__(self):
        return len(self.order)

    def __getitem__(self, t):
        return self.order[t]

    def __iter__(self):
        return iter(self.order)


def as_order(sequence) -> tuple[int, ...]:
    if isinstance(sequence, Sequence):
        return sequence.order
    return tuple(sequence)


def effective_times(instance: Instance, sequence, scenario: Scenario,
                    transform: str = IMPROVED_NEUTRAL) -> list[list[int]]:
    """Per-station processing-time vectors along the sequence after the
    scenario transform.  The removal transform returns shorter vectors
    (failed positions dropped)."""
    order = as_order(sequence)
    if transform not in TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}")
    exists = scenario.exists
    c = instance.cycle_time
    rows = instance.processing_rows()
    out = []
    for k in range(instance.n_stations):
        row = rows[k]
        if transform == REMOVAL:
            out.append([row[v] for v in order if exists[v]])
        elif transform == STANDARD_ZERO:
            out.append([row[v] if exists[v] else 0 for v in order])
        else:
            out.append([row[v] if exists[v] else c for v in order])
    return out


@dataclass
class StationEval:
    z: list[int]
    w: list[int]
    idle: list[int]
    total_overload: int
    total_idle: int


def evaluate_station(b: list[int], cycle_time: int, length: int,
                     regenerative: bool = True) -> StationEval:
    """Run the recursion over one station's processing-time vector (ticks)."""
    T = len(b)
    cap = length - cycle_time
    z = [0] * T
    w = [0] * T
    idle = [0] * T
    cur = 0
    for t in range(T):
        z[t] = cur
        s = cur + b[t]
        border = cycle_time if (regenerative and t == T - 1) else length
        w[t] = s - border if s > border else 0
        if t < T - 1:
            raw = s - cycle_time
            if raw < 0:
                idle[t + 1] = -raw
                cur = 0
            else:
                cur = raw if raw < cap else cap
    return StationEval(z, w, idle, sum(w), sum(idle))


@dataclass
class EvalState:
    """Full per-station trace of one (sequence, scenario) evaluation.

    Mutable, single-owner: the local search keeps one per cached
    scenario and splices unchanged tails on partial reevaluation.
    recomputed_positions reports how many (station, position) cells the
    last (re)evaluation actually visited.
    """
    order: tuple[int, ...]
    exists: tuple[int, ...]
    regenerative: bool
    cycle_time: int
    eta: list[list[int]]   # eta[k][t] = b[k][t] - c
    z: list[list[int]]
    w: list[list[int]]
    idle: list[list[int]]
    station_overload: list[int]
    total_overload: int
    total_idle: int
    recomputed_positions: int

    @property
    def total_overload_tu(self) -> float:
        return self.total_overload / TICKS_PER_TU


def evaluate(instance: Instance, sequence, scenario: Scenario | None = None,
             regenerative: bool = True) -> EvalState:
    """Evaluate under the neutralizing transform (the package default)."""
    order = as_order(sequence)
    if len(order) != instance.n_vehicles:
        raise ValueError("sequence length does not match instance")
    if scenario is None:
        scenario = Scenario.all_exist(instance.n_vehicles)
    b_rows = effective_times(instance, order, scenario, IMPROVED_NEUTRAL)
    c = instance.cycle_time
    eta, zs, ws, idles, per_station = [], [], [], [], []
    for k, b in enumerate(b_rows):
        ev = evaluate_station(b, c, instance.stations[k].length, regenerative)
        eta.append([x - c for x in b])
        zs.append(ev.z)
        ws.append(ev.w)
        idles.append(ev.idle)
        per_station.append(ev.total_overload)
    return EvalState(
        order=order, exists=scenario.exists, regenerative=regenerative,
        cycle_time=c, eta=eta, z=zs, w=ws, idle=idles,
        station_overload=per_station,
        total_overload=sum(per_station),
        total_idle=sum(sum(i) for i in idles),
        recomputed_positions=instance.n_stations * len(order),
    )


class Objective:
    """Expected overload of orders over one weighted scenario set.

    A Sample weighs its scenarios by integer multiplicities, and a key
    is the exact numerator sum_w n_w * Q(x, w) in ticks; any other
    iterable of (scenario, weight) pairs gives the correctly rounded
    float sum of weight * Q(x, w).  Lower keys are better, and tu()
    turns a key into the objective in TU.
    """

    def __init__(self, instance: Instance, scenarios, regenerative: bool = True):
        self.n = scenarios.n if isinstance(scenarios, Sample) else None
        self.pairs = list(scenarios.unique if self.n is not None else scenarios)
        self.weights = np.array([w for _, w in self.pairs],
                                dtype=np.int64 if self.n is not None else float)
        self.regenerative = regenerative
        self.c = instance.cycle_time
        self.lengths = np.array([st.length for st in instance.stations], dtype=np.int64)
        self.p = np.array([veh.processing_times for veh in instance.vehicles],
                          dtype=np.int64)
        self.exists = np.ascontiguousarray(np.array(
            [s.exists for s, _ in self.pairs], dtype=bool
        ).reshape(len(self.pairs), instance.n_vehicles).T)

    def ticks(self, orders) -> np.ndarray:
        """Overload in ticks, summed over stations, of each order (rows
        of a 2-D batch) under each scenario (columns)."""
        orders = np.asarray(orders, dtype=np.intp)
        n_orders, T = orders.shape
        c, lengths = self.c, self.lengths
        cur = np.zeros((n_orders, len(self.pairs), len(lengths)), dtype=np.int64)
        w = np.zeros_like(cur)
        for t in range(T):
            v = orders[:, t]
            s = cur + np.where(self.exists[v][:, :, None], self.p[v][:, None, :], c)
            border = c if (self.regenerative and t == T - 1) else lengths
            w += np.maximum(s - border, 0)
            cur = np.clip(s - c, 0, lengths - c)
        return w.sum(axis=2)

    def keys(self, orders) -> list:
        """Comparison key of each order in the batch (Python numbers)."""
        ticks = self.ticks(orders)
        if self.n is None:
            return [math.fsum(row) for row in (ticks * self.weights).tolist()]
        if int(ticks.max(initial=0)) * self.n < 2 ** 63:  # no int64 wrap
            return (ticks @ self.weights).tolist()
        weights = self.weights.tolist()
        return [sum(map(operator.mul, row, weights)) for row in ticks.tolist()]

    def tu(self, key) -> float:
        if self.n is not None:
            return key / (self.n * TICKS_PER_TU)
        return key / TICKS_PER_TU


def evaluate_expected(instance: Instance, sequence, smp: Sample,
                      regenerative: bool = True) -> float:
    """SAA objective in TU: (1/N) sum over draws of the scenario cost,
    computed over deduplicated scenarios with integer weights so the
    multiset and deduplicated forms agree exactly."""
    objective = Objective(instance, smp, regenerative)
    return objective.tu(objective.keys([as_order(sequence)])[0])


def evaluate_weighted(instance: Instance, sequence, scenario_weights,
                      regenerative: bool = True) -> float:
    """Probability-weighted expectation in TU over (scenario, weight)
    pairs, e.g. the full-information objective from enumerate_all."""
    objective = Objective(instance, scenario_weights, regenerative)
    return objective.tu(objective.keys([as_order(sequence)])[0])


# ---------------------------------------------------------------------------
# partial reevaluation

def _b_at(row, c, exists, vehicle):
    return row[vehicle] if exists[vehicle] else c


def partial_reevaluate(state: EvalState, instance: Instance, old_sequence,
                       move: Move) -> tuple[EvalState, int]:
    """Reevaluate after a move, recomputing only what can have changed.

    Only positions >= t1 are touched.  Processing times beyond t2 are
    unchanged by every move kind, and the recursion is Markov in z, so
    the scan stops at the first downstream position whose recomputed z
    matches the cached one (per station); the cached tail is spliced.
    For swaps the same rule also bridges the untouched interior (t1, t2).

    Returns (new state, overload delta in ticks).  The new state shares
    no arrays with the old one.
    """
    old_order = as_order(old_sequence)
    if old_order != state.order:
        raise StaleStateError("cached state does not match the offered sequence")
    new_order = apply_to_order(state.order, move)
    exists = state.exists
    c = instance.cycle_time
    regen = state.regenerative
    T = len(new_order)
    t1, t2 = move.t1, move.t2
    last = T - 1

    eta2, z2, w2, idle2, per_station = [], [], [], [], []
    recomputed = 0

    for k in range(instance.n_stations):
        row = [veh.processing_times[k] for veh in instance.vehicles]
        length = instance.stations[k].length
        cap = length - c
        oz, ow, oidle, oeta = state.z[k], state.w[k], state.idle[k], state.eta[k]
        z = list(oz)
        w = list(ow)
        idle = list(oidle)
        eta = list(oeta)

        # positions whose processing time changed
        if move.kind == SWAP:
            changed = (t1, t2)
        else:
            changed = range(t1, t2 + 1)
        for t in changed:
            eta[t] = _b_at(row, c, exists, new_order[t]) - c

        total_delta = 0
        cur = oz[t1]  # prefix < t1 untouched, so entry state at t1 is cached

        def step(t, cur):
            """Recompute position t from entry state cur; returns next z."""
            nonlocal total_delta, recomputed
            recomputed += 1
            z[t] = cur
            s = cur + eta[t] + c
            border = c if (regen and t == last) else length
            nw = s - border if s > border else 0
            total_delta += nw - ow[t]
            w[t] = nw
            if t < last:
                raw = s - c
                if raw < 0:
                    idle[t + 1] = -raw
                    return 0
                idle[t + 1] = 0
                return raw if raw < cap else cap
            return 0

        if move.kind == SWAP:
            cur = step(t1, cur)
            t = t1 + 1
            # interior (t1, t2) has unchanged processing times
            while t < t2 and cur != oz[t]:
                cur = step(t, cur)
                t += 1
            if t < t2:
                cur = oz[t2]  # interior rejoined the cached trajectory
            cur = step(t2, cur)
            t = t2 + 1
        else:
            t = t1
            while t <= t2:
                cur = step(t, cur)
                t += 1
        while t < T and cur != oz[t]:
            cur = step(t, cur)
            t += 1
        # splice: from position t on, z/w/idle equal the cached arrays

        new_total = state.station_overload[k] + total_delta
        eta2.append(eta)
        z2.append(z)
        w2.append(w)
        idle2.append(idle)
        per_station.append(new_total)

    new_state = EvalState(
        order=new_order, exists=exists, regenerative=regen,
        cycle_time=c, eta=eta2, z=z2, w=w2, idle=idle2,
        station_overload=per_station,
        total_overload=sum(per_station),
        total_idle=sum(sum(i) for i in idle2),
        recomputed_positions=recomputed,
    )
    return new_state, new_state.total_overload - state.total_overload


def trace_csv(state: EvalState) -> str:
    """CSV dump of the trace: station, position, vehicle, b, z, w, idle (TU)."""
    lines = ["station,position,vehicle,b,z,w,idle"]
    for k in range(len(state.z)):
        for t in range(len(state.order)):
            lines.append(",".join([
                str(k), str(t), str(state.order[t]),
                format_ticks(state.eta[k][t] + state.cycle_time),
                format_ticks(state.z[k][t]),
                format_ticks(state.w[k][t]),
                format_ticks(state.idle[k][t]),
            ]))
    return "\n".join(lines) + "\n"
