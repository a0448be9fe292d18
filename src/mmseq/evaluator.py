"""Second-stage cost of a sequence under a failure scenario.

The closed-station dynamics at one station reduce to a single forward
recursion over positions t = 0..T-1 in integer ticks.  With
eta[t] = b[t] - c, the processing time at that position after the
scenario transform less the cycle time, and cap = l - c:

    start position   z[0] = 0
    carried work     s[t] = max(0, z[t] + eta[t])
    next start       z[t+1] = min(s[t], cap)
    work overload    w[t] = s[t] - z[t+1]                    (interior)
                     w[T-1] = s[T-1]                         (regenerative end)
    idle on entry    idle[t+1] = s[t] - (z[t] + eta[t])

The regenerative end charges whatever work would push the next cycle
past the left border, so a full-information run can be cut at any
window boundary; switching it off reproduces an open-ended window.
The recursion attains the optimum of the equivalent linear program
position by position, which the exact-solver tests cross-check.

Failed vehicles are neutralized rather than removed: their effective
processing time equals the cycle time (eta = 0), which provably leaves
z untouched and adds no overload, so one fixed-length position axis
serves every scenario.  A removal transform (drop failed positions) and
the zeroing transform used by the weaker formulation are provided for
the equivalence tests.

The recursion is written twice.  evaluate_station runs it for one
scenario and station in pure Python and keeps the full trace: it is the
reference in the tests, and it feeds evaluate and trace_csv.
station_step is one position of it, elementwise over any broadcast
shape of integer arrays, and every batched caller runs on it:
Objective.ticks over orders x stations x scenarios for full
evaluations, Trajectory._scan over scenarios x stations for
local-search probes (partial_reevaluate rescans only the window a move
disturbs), greedy.construct over candidates x stations on the nominal
scenario, the exact search (exact._search) over the children of a
node x scenarios x stations, and the cut reader (exact._cuts) over
scenarios x stations, on float times at a fractional anchor.

The hot callers keep numpy's inner loop long: a per-station constant
such as cap broadcasts along the contiguous axis or comes at full
shape (see station_step).  Objective.ticks steps an orders x stations
x scenarios state, so the scenario axis is contiguous and each
vehicle's eta broadcasts along it; Trajectory and exact._search keep
their per-vehicle scenarios x stations blocks.  All three pass cap at
full shape, built once per call or per trajectory.  greedy.construct
steps only candidates x stations once per position and keeps the (K,)
cap.

Objective picks the state dtype once per instance: int32 when
max_k(l_k + c + sum_v |p_vk - c|) < 2**31 ticks, else int64.  cap, eta,
scenario_eta, the buffers of Objective.ticks and Trajectory, and the
state of exact._search all take it.  The bound covers every value a
station's recursion forms, so int32 is exact where it is picked:
- 0 <= z <= cap and eta >= -c, so z + eta lies in [-c, cap + max eta];
- by work conservation, s[t] <= z[t] + max(eta[t], 0) and
  z[t+1] + w[t] = s[t], so the overload a (scenario, station) row runs
  up over any stretch of positions is at most cap + sum_v max(eta_v, 0);
- exact._cuts forms eta + c = p and cap + c = l.
Sums over stations, positions or vehicles (keys, probe deltas,
Trajectory.value, root bounds and the exact search's prefix costs) are
taken with dtype=np.int64, whatever the platform's default integer.
greedy.construct keeps its own (K,) int64 arrays.  A row's overload
over any set of positions is at most its overload over the stretch
that spans them, so a probe's change per row, less the tail term
below (at most cap), lies within +-2 * tick bound; a Trajectory
weighs its rows with one int64 dot product when
2 * tick bound * stations * N < 2**63, and exactly in Python
integers otherwise.

A probe can stop early once its move is proven too costly.  For one
(scenario, station) row and fixed vehicles, let R_t(z) be the overload
the recursion runs up from position t to the end, from entry state z.
R_t is nondecreasing and 1-Lipschitz in z, under both regenerative
settings.  Step entry states z >= z' through one position: max(., 0)
and min(., cap) are nondecreasing and 1-Lipschitz, so
0 <= s - s' <= z - z' and 0 <= z_next - z'_next <= s - s', and then
w - w' = (s - s') - (z_next - z'_next) >= 0.  So
(w - w') + (z_next - z'_next) = s - s' <= z - z', and at the
regenerative last position w - w' = s - s' <= z - z' directly.  The sum
over the positions from t telescopes to 0 <= R_t(z) - R_t(z') <= z - z'.
Past a move's t2 both orders place the same vehicles, so per row the
new order's overload from t on is at least the cached one less
max(z_old[t] - z_new[t], 0), and partial_reevaluate weighs that into
a lower bound on the move's delta.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import StaleStateError
from .instance import Instance
from .moves import SWAP, Move, apply_to_order
from .scenario import Sample, Scenario, WeightedScenarios
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


def _check_vehicles(instance: Instance, n_vehicles: int, what: str) -> None:
    if n_vehicles != instance.n_vehicles:
        raise ValueError(f"{what} has {n_vehicles} vehicles, "
                         f"the instance has {instance.n_vehicles}")


def vehicle_times(instance: Instance, scenario: Scenario,
                  transform: str = IMPROVED_NEUTRAL) -> list[list[int]]:
    """Per-station processing time of every vehicle (by id) under the
    scenario, in ticks: a failed vehicle takes 0 under standard_zero and
    the cycle time (eta = 0) under improved_neutral."""
    _check_vehicles(instance, len(scenario.exists), "the scenario")
    fail_time = {STANDARD_ZERO: 0, IMPROVED_NEUTRAL: instance.cycle_time}[transform]
    return [[p if e else fail_time for p, e in zip(row, scenario.exists)]
            for row in instance.processing_rows()]


def effective_times(instance: Instance, sequence, scenario: Scenario,
                    transform: str = IMPROVED_NEUTRAL) -> list[list[int]]:
    """Per-station processing-time vectors along the sequence after the
    scenario transform.  The removal transform returns shorter vectors
    (failed positions dropped)."""
    order = as_order(sequence)
    if transform not in TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}")
    rows = vehicle_times(instance, scenario,
                         IMPROVED_NEUTRAL if transform == REMOVAL else transform)
    if transform == REMOVAL:
        order = [v for v in order if scenario.exists[v]]
    return [[row[v] for v in order] for row in rows]


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


def station_step(z, eta, cap, last: bool = False, out=(None, None, None)):
    """One position of the recursion in eta form, elementwise over any
    broadcast shape: s = max(z + eta, 0), z' = min(s, cap), and
    w = s - z', or w = s at the regenerative last position.

    Any layout works.  A fast one gives eta and cap the full shape of z,
    or broadcasts them along z's contiguous axis: a stations x 1 cap
    for a stations x scenarios state, never a (K,) cap for a
    scenarios x stations one, which makes numpy loop over K elements at
    a time.

    out holds optional buffers for (s, z', w); z' may be z itself.
    Returns (s, z', w).
    """
    s, z_next, w = out
    s = np.add(z, eta, out=s)
    np.maximum(s, 0, out=s)
    z_next = np.minimum(s, cap, out=z_next)
    w = np.subtract(s, 0 if last else z_next, out=w)
    return s, z_next, w


@dataclass
class EvalState:
    """Full per-station trace of one (sequence, scenario) evaluation:
    the per-scenario reference for the batched kernels and trace_csv."""
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
    )


class Objective:
    """Expected overload of orders over one weighted scenario set, read
    as its vehicles x scenarios existence matrix and weight vector.

    A Sample weighs its scenarios by integer multiplicities, and a key
    is the exact numerator sum_w n_w * Q(x, w) in ticks; a
    WeightedScenarios set gives the correctly rounded float sum of
    weight * Q(x, w).  Lower keys are better, and tu()
    turns a key into the objective in TU.
    """

    def __init__(self, instance: Instance, scenarios, regenerative: bool = True):
        self.n = scenarios.n if isinstance(scenarios, Sample) else None
        self.exists = scenarios.existence
        self.weights = scenarios.weights
        _check_vehicles(instance, self.exists.shape[0], "the scenario set")
        self.regenerative = regenerative
        c = instance.cycle_time
        lengths = np.array([st.length for st in instance.stations], dtype=np.int64)
        p = np.array([veh.processing_times for veh in instance.vehicles], dtype=np.int64)
        # the state dtype: int32 when the tick bound of the module
        # docstring proves every state value fits, else int64
        self.tick_bound = int((lengths + c + np.abs(p - c).sum(axis=0)).max())
        dtype = np.int32 if self.tick_bound < 2**31 else np.int64
        self.cap = (lengths - c).astype(dtype)
        # eta[v] = p[v] - c, vehicle v's eta at every station when it exists
        self.eta = (p - c).astype(dtype)

    @functools.cached_property
    def scenario_eta(self) -> np.ndarray:
        """eta[v, w, k] = b - c of vehicle v under scenario w at station k
        (vehicles x scenarios x stations), 0 for a failed vehicle."""
        return np.where(self.exists[:, :, None], self.eta[:, None, :], 0)

    def ticks(self, orders) -> np.ndarray:
        """Overload in ticks, summed over stations, of each order (rows
        of a 2-D batch) under each scenario (columns)."""
        orders = np.asarray(orders, dtype=np.intp)
        n_orders, T = orders.shape
        last = T - 1 if self.regenerative else T
        # orders x stations x scenarios: the scenario axis is contiguous
        z = np.zeros((n_orders, len(self.cap), self.exists.shape[1]), dtype=self.eta.dtype)
        eta, s, w, cap = (np.empty_like(z) for _ in range(4))
        cap[...] = self.cap[:, None]
        total = np.zeros_like(z)
        for t in range(T):
            v = orders[:, t]
            np.multiply(self.exists[v][:, None, :], self.eta[v][:, :, None], out=eta)
            station_step(z, eta, cap, t == last, out=(s, z, w))
            total += w
        return total.sum(axis=1, dtype=np.int64)

    def keys(self, orders) -> list:
        """Comparison key of each order in the batch (Python numbers)."""
        return self._weigh(self.ticks(orders))

    def _weigh(self, ticks) -> list:
        """Weighted sum over scenarios (columns) of each row of ticks."""
        if self.n is None:
            return [math.fsum(row) for row in (ticks * self.weights).tolist()]
        if int(np.abs(ticks).max(initial=0)) * self.n < 2 ** 63:  # no int64 wrap
            return (ticks @ self.weights).tolist()
        weights = self.weights.tolist()
        return [sum(map(operator.mul, row, weights)) for row in ticks.tolist()]

    def tu(self, key) -> float:
        if self.n is not None:
            return key / (self.n * TICKS_PER_TU)
        return key / TICKS_PER_TU

    def trajectory(self, sequence) -> "Trajectory":
        """The cached station trajectories of one order, for probing moves."""
        return Trajectory(self, as_order(sequence))


def evaluate_expected(instance: Instance, sequence, smp: Sample,
                      regenerative: bool = True) -> float:
    """SAA objective in TU: (1/N) sum over draws of the scenario cost,
    computed over deduplicated scenarios with integer weights so the
    multiset and deduplicated forms agree exactly."""
    objective = Objective(instance, smp, regenerative)
    return objective.tu(objective.keys([as_order(sequence)])[0])


def evaluate_weighted(instance: Instance, sequence, scenario_weights,
                      regenerative: bool = True) -> float:
    """Probability-weighted expectation in TU over a WeightedScenarios
    set or (scenario, weight) pairs, e.g. the full-information objective
    from enumerate_all."""
    if not isinstance(scenario_weights, WeightedScenarios):
        scenario_weights = WeightedScenarios(tuple(scenario_weights))
    objective = Objective(instance, scenario_weights, regenerative)
    return objective.tu(objective.keys([as_order(sequence)])[0])


# ---------------------------------------------------------------------------
# partial reevaluation

@dataclass(frozen=True)
class Probe:
    """A move priced against a Trajectory: the moved order, the exact
    change of the weighted overload, and the windows [a, b) of positions
    the scan recomputed.  recomputed_positions counts the scanned
    positions times the stations, the cells one scenario's scan visits.
    A pruned probe's scan stopped at a limit: its delta is a lower bound
    above the limit, and it cannot be committed."""
    order: tuple[int, ...]
    delta: int
    windows: tuple[tuple[int, int], ...]
    recomputed_positions: int
    pruned: bool = False


class Trajectory:
    """Station trajectories of one order under every scenario of a Sample.

    z[t] is the entry state at position t and w[t] its overload, each a
    scenarios x stations array of the objective's state dtype (int32 when
    the instance's tick bound allows it, see the module docstring); z has
    one more row, the state after the last position.  value is the exact
    numerator sum_w n_w * Q(order, w) in ticks.  partial_reevaluate prices
    a move into preallocated buffers, and commit splices the probed
    windows in.  Mutable, single-owner.
    """

    def __init__(self, objective: Objective, order: tuple[int, ...]):
        if objective.n is None:
            raise ValueError("a trajectory weighs scenarios by a Sample's counts")
        self.objective = objective
        self.order = order
        T = len(order)
        n_scenarios, n_stations = objective.exists.shape[1], len(objective.cap)
        # the position whose overload is charged against the cycle time
        self._last = T - 1 if objective.regenerative else T
        dtype = objective.eta.dtype
        self.z = np.zeros((T + 1, n_scenarios, n_stations), dtype=dtype)
        self.w = np.zeros((T, n_scenarios, n_stations), dtype=dtype)
        self._zbuf = np.zeros_like(self.z)
        self._wbuf = np.zeros_like(self.w)
        self._s = np.empty((n_scenarios, n_stations), dtype=dtype)
        self._cap = np.empty_like(self._s)
        self._cap[...] = objective.cap
        # row views, indexed from Python lists in the scan loop
        self._eta_rows = list(objective.scenario_eta)
        self._z_rows = list(self.z)
        self._zbuf_rows = list(self._zbuf)
        self._wbuf_rows = list(self._wbuf)
        # every entry _weigh_rows weighs lies within +-2 * tick_bound (the
        # module docstring), so below this its int64 dot cannot wrap
        self._dot_exact = 2 * objective.tick_bound * n_stations * objective.n < 2**63
        self._probe = None
        # against the zero w, the scan's change is the order's overload
        _, diff, _ = self._scan(order, 0, T - 1, False)
        self.z[1:] = self._zbuf[1:]
        self.w[:] = self._wbuf
        self.value = self._weigh_rows(diff)

    def _scan(self, order, t1: int, t2: int, swap: bool, limit=None):
        """Run the recursion for order into the buffers from the cached
        entry state z[t1].  After t2 the scan stops at the first position
        whose entry state equals the cached one in every row; in a swap's
        unchanged interior (t1, t2) such a position bridges the scan to
        t2.  With a limit, it also stops at the first of t2 + 4, t2 + 8,
        t2 + 16, ... where the lower bound of partial_reevaluate exceeds
        the limit.

        Returns (windows, diff, bound): the scanned windows [a, b), the
        change of the overload over them per (scenario, station) row
        (int64), and the weighted bound where it stopped the scan, else
        None.
        """
        z, zbuf, wbuf, eta = self._z_rows, self._zbuf_rows, self._wbuf_rows, self._eta_rows
        s, cap, last = self._s, self._cap, self._last
        T = len(order)
        windows = []
        a = t = t1
        zin = z[t1]
        # diff sums the scanned positions before done, built at the first check
        diff, done = None, t1
        check = T if limit is None else t2 + 4
        while t < T:
            if ((t > t2 or swap and t1 < t < t2)
                    and zin.tobytes() == z[t].tobytes()):
                windows.append((a, t))
                if t > t2:
                    return windows, self._change(windows, done, diff), None
                a = t = t2
                zin = z[t2]
            if t == check:
                diff = self._change(windows + [(a, t)], done, diff)
                done = t
                tail = np.maximum(np.subtract(z[t], zin, out=s), 0, out=s)
                bound = self._weigh_rows(diff - tail)
                if bound > limit:
                    windows.append((a, t))
                    return windows, diff, bound
                check = 2 * check - t2
            _, zin, _ = station_step(zin, eta[order[t]], cap, t == last,
                                     out=(s, zbuf[t + 1], wbuf[t]))
            t += 1
        windows.append((a, T))
        return windows, self._change(windows, done, diff), None

    def _weigh_rows(self, rows) -> int:
        """sum_w n_w * (sum over stations of rows[w]), for a scenarios x
        stations int64 array of overload changes, exactly."""
        if self._dot_exact:
            return int(rows.sum(axis=1) @ self.objective.weights)
        return self.objective._weigh(rows.sum(axis=1)[None, :])[0]

    def _change(self, windows, start: int, diff=None):
        """diff (None for zero) plus the overload change of the scanned
        positions >= start in windows, per (scenario, station) row (int64)."""
        for a, b in windows:
            a = max(a, start)
            if a < b:
                part = (self._wbuf[a:b] - self.w[a:b]).sum(axis=0, dtype=np.int64)
                diff = part if diff is None else np.add(diff, part, out=diff)
        return diff

    def commit(self, probe: Probe) -> None:
        """Move to the probed order; only the probed windows are copied."""
        if probe.pruned:
            raise StaleStateError("a pruned probe's scan stopped before the move's end")
        if probe is not self._probe:
            raise StaleStateError(
                "probe was made against another order or overwritten by a later probe")
        for a, b in probe.windows:
            self.z[a + 1:b + 1] = self._zbuf[a + 1:b + 1]
            self.w[a:b] = self._wbuf[a:b]
        self.order = probe.order
        self.value += probe.delta
        self._probe = None


def partial_reevaluate(trajectory: Trajectory, move: Move,
                       limit: int | None = None) -> tuple[Probe, int]:
    """Price a move against the cached trajectory, recomputing only what
    can have changed, for every scenario and station at once.

    Only positions >= t1 are touched.  Processing times beyond t2 are
    unchanged by every move kind, and the recursion is Markov in z, so
    the scan stops at the first position after t2 whose recomputed z
    matches the cached one in every (scenario, station) row; for swaps
    the same rule also bridges the untouched interior (t1, t2).

    With a limit, the scan may stop earlier, once the move's delta is
    proven to exceed the limit.  Past t2 both orders place the same
    vehicles, and a row's overload from position t on is nondecreasing
    and 1-Lipschitz in its entry state: stepping entry states z >= z',
    (w - w') + (z_next - z'_next) = s - s' <= z - z', with every term
    >= 0, and the sum telescopes (module docstring).  So the delta is
    at least D(t) - sum_rows n_w * max(z_old[t] - z_new[t], 0), where
    D(t) is the weighted overload change of the positions scanned
    before t.  The scan tests that bound at t2 + 4, t2 + 8, t2 + 16,
    ... and stops where it exceeds the limit.  The probe is then
    pruned: its delta is that bound, in (limit, exact delta], and
    commit refuses it.

    Returns (probe, weighted overload delta in ticks).  The probe lives
    in the trajectory's buffers until the next probe; commit applies it.
    """
    order = apply_to_order(trajectory.order, move)
    windows, diff, bound = trajectory._scan(order, move.t1, move.t2,
                                            move.kind == SWAP, limit)
    delta = trajectory._weigh_rows(diff) if bound is None else bound
    positions = sum([b - a for a, b in windows])
    probe = Probe(order, delta, tuple(windows), positions * trajectory.z.shape[2],
                  pruned=bound is not None)
    trajectory._probe = probe
    return probe, delta


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
