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
window boundary.  Every batched path solves this one model.  The
per-scenario references, evaluate_station and evaluate, can also leave
the window open (w[T-1] = s[T-1] - min(s[T-1], cap), the interior
rule): the open end charges exactly the exit state z[T] less, which the
tests use to check the batched paths against both.  The recursion
attains the optimum of the equivalent linear program position by
position, which the exact-solver tests cross-check.

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
shape of integer arrays, in three ufunc calls: s = max(z + eta, zero)
and z' = min(s, cap).  The overload rule, w = s - z' or w = s at the
regenerative last position, lives in step_overload.  Every batched
caller runs on the step: Objective.ticks over orders x stations x
scenarios for full evaluations, Trajectory._scan over scenarios x
stations for local-search probes (partial_reevaluate rescans only the
window a move disturbs), greedy.construct over candidates x stations on
the nominal scenario, the exact search (exact._search) over the
children of a node x scenarios x stations, and the cut reader
(exact._cuts) over scenarios x stations, on float times at a fractional
anchor.  All but Trajectory apply step_overload per step.  A Trajectory
holds s in place of w until a window is read, and then turns the whole
window into w with one block step_overload.

The hot callers keep numpy's inner loop long: a per-station constant
such as cap broadcasts along the contiguous axis or comes at full
shape, and so does the floor (see station_step for the measured
costs).  Objective.ticks steps an orders x stations x scenarios state,
so the scenario axis is contiguous and each vehicle's eta broadcasts
along it.  It builds eta for a block of positions at once, as many as
fit _ETA_BLOCK_BYTES: one gather of the existence flags (as uint8) and
of the per-vehicle eta, and one multiply into a positions x orders x
stations x scenarios buffer, whose contiguous per-position views the
step runs on.  Built per position, the gathers and the multiply took
about as long as the step and its overload together.
Trajectory and exact._search keep their per-vehicle scenarios x
stations blocks.  All three pass cap and floor at full shape, built
once per call, per search or per trajectory.  greedy.construct and
exact._cuts step only a few small blocks and keep the (K,) cap and the
scalar floor 0.

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
greedy.construct keeps its own (K,) int64 arrays.

One flag per objective, Objective.dot_exact, decides where weighing by
the multiplicities may take an int64 dot product.  By work
conservation a row's overload over any stretch of positions plus its
exit state is at most its entry state plus sum_v max(eta_v, 0), so at
most tick bound.  Every weighed row value thus lies within
+-2 * tick bound: keys, root bounds, the exact search's prefix plus
suffix bounds, and a probe's change over its windows less the tail
term below (at most cap).  With multiplicities summing to N, no partial
sum leaves +-2 * tick bound * stations * N; dot_exact is that bound
< 2**63, and where it fails the sums are taken exactly in Python
integers.

A probe can stop early once its move is proven too costly.  For one
(scenario, station) row and fixed vehicles, let R_t(z) be the overload
the recursion runs up from position t to the end, from entry state z.
R_t is nondecreasing and 1-Lipschitz in z.  Step entry states z >= z'
through one position: max(., 0) and min(., cap) are nondecreasing and
1-Lipschitz, so 0 <= s - s' <= z - z' and 0 <= z_next - z'_next <=
s - s', and then w - w' = (s - s') - (z_next - z'_next) >= 0.  So
(w - w') + (z_next - z'_next) = s - s' <= z - z' at an interior
position, and at the last position, which charges all of s,
w - w' = s - s' <= z - z' directly.  The sum over the positions from t
telescopes to 0 <= R_t(z) - R_t(z') <= z - z'.
Past a move's t2 both orders place the same vehicles, so per row the
new order's overload from t on is at least the cached one less
max(z_old[t] - z_new[t], 0), and partial_reevaluate weighs that into
a lower bound on the move's delta.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import StaleStateError
from .instance import Instance
from .moves import SWAP, Move, apply_to_order
from .scenario import Sample, Scenario
from .timeunits import TICKS_PER_TU, format_ticks

REMOVAL = "removal"
STANDARD_ZERO = "standard_zero"
IMPROVED_NEUTRAL = "improved_neutral"

TRANSFORMS = (REMOVAL, STANDARD_ZERO, IMPROVED_NEUTRAL)

# bytes of eta per block of positions in Objective.ticks, in whole
# positions, at least one.  On a 2-core Xeon host a V = 200 order
# scored alike with 512 KB to 1 MB blocks, and 4-5% slower with 256 KB
# or 1.5 MB ones, on 2198 scenarios; on 95 every size measured alike.
# Kept below the sampler's 2 MB block (scenario._BLOCK_BYTES): once a
# draw has freed a block that large, glibc serves this buffer from the
# heap, not from a fresh mapping that each call faults in again.
_ETA_BLOCK_BYTES = 2**19


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


def _permutations(orders, n_vehicles: int) -> np.ndarray:
    """orders as a 2-D intp array, one order per row, once every row is
    checked to be a permutation of 0..n_vehicles-1."""
    orders = np.asarray(orders)
    if orders.ndim != 2:
        raise ValueError("orders must be a 2-D batch with one order per row, "
                         f"not an array of shape {orders.shape}")
    if orders.shape[1] != n_vehicles:
        raise ValueError(f"an order has {orders.shape[1]} positions, "
                         f"the instance has {n_vehicles} vehicles")
    if orders.dtype.kind not in "iu":
        raise ValueError(f"orders must hold integer vehicle ids, not {orders.dtype}")
    orders = orders.astype(np.intp, copy=False)
    bad = (np.sort(orders, axis=1) != np.arange(n_vehicles)).any(axis=1)
    if bad.any():
        raise ValueError(f"order {int(bad.argmax())} of the batch is not a "
                         "permutation of 0..V-1")
    return orders


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


def station_step(z, eta, cap, zero, out=(None, None)):
    """One position of the recursion in eta form, elementwise over any
    broadcast shape: s = max(z + eta, zero) and z' = min(s, cap), three
    ufunc calls.  zero is the floor, 0 everywhere; step_overload turns
    (s, z') into the position's overload.

    Any layout works.  A fast one gives cap and zero the full broadcast
    shape of z and eta, or broadcasts them along z's contiguous axis:
    a stations x 1 cap for a stations x scenarios state, never a (K,)
    cap for a scenarios x stations one, which makes numpy loop over K
    elements at a time.  A Python-scalar zero is the same kind of
    detour: on a 2-core Xeon host np.maximum took 1.8 us against 0.8 us
    with a full-shape zeros floor on a probe's 95 x 5 int32 block, and
    4.9 us against 1.5 us on a 5 x 2232 block.  Pass out= by keyword
    (numpy 2.4 deprecates a third positional argument to np.maximum and
    np.minimum), and keep the two ufuncs rather than np.clip, which took
    10.4 us against 4.0 us for both at 5 x 2232.

    out holds optional buffers for (s, z'); z' may be z itself.
    Returns (s, z').
    """
    s, z_next = out
    s = np.add(z, eta, out=s)
    np.maximum(s, zero, out=s)
    return s, np.minimum(s, cap, out=z_next)


def step_overload(s, z_next, last: bool = False, out=None):
    """The overload of a position from station_step's (s, z'):
    w = s - z', or w = s itself at the regenerative last position."""
    if last:
        return s
    return np.subtract(s, z_next, out=out)


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
    _permutations([order], instance.n_vehicles)
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
    """Expected overload of orders over a Sample, read as its
    vehicles x scenarios existence matrix and multiplicity vector.

    A key is the exact numerator sum_w n_w * Q(x, w) in ticks, a Python
    integer.  Lower keys are better, and tu() turns a key into the
    objective in TU.
    """

    def __init__(self, instance: Instance, smp: Sample):
        self.n = smp.n
        self.exists = smp.existence
        self.weights = smp.weights
        _check_vehicles(instance, self.exists.shape[0], "the scenario set")
        c = instance.cycle_time
        lengths = np.array([st.length for st in instance.stations], dtype=np.int64)
        p = np.array([veh.processing_times for veh in instance.vehicles], dtype=np.int64)
        # the state dtype: int32 when the tick bound of the module
        # docstring proves every state value fits, else int64
        self.tick_bound = int((lengths + c + np.abs(p - c).sum(axis=0)).max())
        dtype = np.int32 if self.tick_bound < 2**31 else np.int64
        # whether every weighing may take an int64 dot product (the
        # module docstring bounds what is weighed)
        self.dot_exact = 2 * self.tick_bound * len(lengths) * self.n < 2**63
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
        of a 2-D batch of permutations of 0..V-1) under each scenario
        (columns).

        eta comes in blocks of positions, as many as fit _ETA_BLOCK_BYTES
        and at least one: one gather and one multiply fill a block, and
        the step runs on its contiguous per-position views."""
        orders = _permutations(orders, len(self.eta))
        n_orders, T = orders.shape
        # orders x stations x scenarios: the scenario axis is contiguous
        z = np.zeros((n_orders, len(self.cap), self.exists.shape[1]), dtype=self.eta.dtype)
        s, w, cap = (np.empty_like(z) for _ in range(3))
        cap[...] = self.cap[:, None]
        zero, total = np.zeros_like(z), np.zeros_like(z)
        # the flags as 0/1 bytes, multiplied without the bool cast
        flags = self.exists.view(np.uint8)
        block = max(1, min(T, _ETA_BLOCK_BYTES // max(z.nbytes, 1)))
        etas = np.empty((block,) + z.shape, dtype=z.dtype)
        for t0 in range(0, T, block):
            vs = orders[:, t0:t0 + block].T
            part = etas[:len(vs)]
            np.multiply(flags[vs][:, :, None, :], self.eta[vs][:, :, :, None], out=part)
            for t, eta in enumerate(part, t0):
                station_step(z, eta, cap, zero, out=(s, z))
                total += step_overload(s, z, t == T - 1, out=w)
        return total.sum(axis=1, dtype=np.int64)

    def keys(self, orders) -> list:
        """Comparison key of each order in the batch (Python numbers)."""
        return self._weigh(self.ticks(orders))

    def _weigh(self, ticks) -> list:
        """Weighted sum over scenarios (columns) of each row of ticks."""
        if self.dot_exact:
            return (ticks @ self.weights).tolist()
        weights = self.weights.tolist()
        return [sum(map(operator.mul, row, weights)) for row in ticks.tolist()]

    def tu(self, key) -> float:
        return key / (self.n * TICKS_PER_TU)

    def trajectory(self, sequence) -> "Trajectory":
        """The cached station trajectories of one order, for probing moves."""
        return Trajectory(self, as_order(sequence))


def evaluate_expected(instance: Instance, sequence, smp: Sample) -> float:
    """SAA objective in TU: (1/N) sum over draws of the scenario cost,
    computed over deduplicated scenarios with integer weights so the
    multiset and deduplicated forms agree exactly."""
    objective = Objective(instance, smp)
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
    a move into preallocated buffers, _zbuf for z and _wbuf for w, which
    holds the step's s until _change turns a window into w; commit
    splices the probed windows in.  Mutable, single-owner.
    """

    def __init__(self, objective: Objective, order: tuple[int, ...]):
        _permutations([order], len(objective.eta))
        self.objective = objective
        self.order = order
        T = len(order)
        n_scenarios, n_stations = objective.exists.shape[1], len(objective.cap)
        # the position whose overload is charged against the cycle time
        self._last = T - 1
        dtype = objective.eta.dtype
        self.z = np.zeros((T + 1, n_scenarios, n_stations), dtype=dtype)
        self.w = np.zeros((T, n_scenarios, n_stations), dtype=dtype)
        self._zbuf = np.zeros_like(self.z)
        self._wbuf = np.zeros_like(self.w)
        self._s = np.empty((n_scenarios, n_stations), dtype=dtype)
        # the step's cap and floor at full shape
        self._cap = np.empty_like(self._s)
        self._cap[...] = objective.cap
        self._zero = np.zeros_like(self._s)
        # row views, indexed from Python lists in the scan loop
        self._eta_rows = list(objective.scenario_eta)
        self._z_rows = list(self.z)
        self._zbuf_rows = list(self._zbuf)
        self._wbuf_rows = list(self._wbuf)
        self._probe = None
        # against the zero w, the scan's change is the order's overload
        _, diff, _ = self._scan(order, 0, T - 1, False)
        self.z[1:] = self._zbuf[1:]
        self.w[:] = self._wbuf
        self.value = self._weigh_rows(diff)

    def _scan(self, order, t1: int, t2: int, swap: bool, limit=None):
        """Run the recursion for order into the buffers from the cached
        entry state z[t1]: z' into _zbuf and s into _wbuf, which _change
        turns into w window by window.  In a swap's unchanged interior
        (t1, t2) the first position whose entry state equals the cached
        one in every row bridges the scan to t2.  After t2 the scan
        stops at the first such position.  With a limit, it also stops
        at the first of t2 + 4, t2 + 8, t2 + 16, ... where the lower
        bound of partial_reevaluate exceeds the limit.

        Returns (windows, diff, bound): the scanned windows [a, b), the
        change of the overload over them per (scenario, station) row
        (int64), and the weighted bound where it stopped the scan, else
        None.
        """
        z, zbuf, wbuf, eta = self._z_rows, self._zbuf_rows, self._wbuf_rows, self._eta_rows
        s, cap, zero = self._s, self._cap, self._zero
        T = len(order)
        windows = []
        a = t = t1
        zin = z[t1]
        # the moved span [t1, t2]
        while t <= t2:
            if swap and t1 < t < t2 and zin.tobytes() == z[t].tobytes():
                windows.append((a, t))
                a = t = t2
                zin = z[t2]
            _, zin = station_step(zin, eta[order[t]], cap, zero, out=(wbuf[t], zbuf[t + 1]))
            t += 1
        # the tail past t2, where both orders place the same vehicles;
        # diff sums the scanned positions before done, built at the first check
        diff, done = None, t1
        check = T if limit is None else t2 + 4
        while t < T:
            if zin.tobytes() == z[t].tobytes():
                windows.append((a, t))
                return windows, self._change(windows, done, diff), None
            if t == check:
                diff = self._change(windows + [(a, t)], done, diff)
                done = t
                tail = np.maximum(np.subtract(z[t], zin, out=s), zero, out=s)
                bound = self._weigh_rows(diff - tail)
                if bound > limit:
                    windows.append((a, t))
                    return windows, diff, bound
                check = 2 * check - t2
            _, zin = station_step(zin, eta[order[t]], cap, zero, out=(wbuf[t], zbuf[t + 1]))
            t += 1
        windows.append((a, T))
        return windows, self._change(windows, done, diff), None

    def _weigh_rows(self, rows) -> int:
        """sum_w n_w * (sum over stations of rows[w]), for a scenarios x
        stations int64 array of overload changes, exactly."""
        if self.objective.dot_exact:
            return int(rows.sum(axis=1) @ self.objective.weights)
        return self.objective._weigh(rows.sum(axis=1)[None, :])[0]

    def _change(self, windows, start: int, diff=None):
        """diff (None for zero) plus the overload change of the scanned
        positions >= start in windows, per (scenario, station) row (int64).

        Those positions still hold s in _wbuf: each window is turned into
        w with one block step_overload before it is read, all but the
        last position, whose w is s.  Every scanned position
        is read once, by the first call whose start is at or below it."""
        for a, b in windows:
            a = max(a, start)
            if a < b:
                m = min(b, self._last)
                step_overload(self._wbuf[a:m], self._zbuf[a + 1:m + 1], out=self._wbuf[a:m])
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
