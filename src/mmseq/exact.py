"""Exact solution of the sampled sequencing problem.

Pieces: brute-force enumeration, the per-scenario recourse LPs (three
failure encodings; the reference the cuts are tested against),
optimality cuts whose recourse duals are read off the station recursion
by complementary slackness, and a branch-and-bound master LP that adds
cuts lazily at integer-feasible nodes.

Candidate orders are valued by evaluator.Objective: scenario costs are
exact integer tick counts, so for sampled (integer-multiplicity)
scenario sets the master can compare candidate values exactly and prune
on an integrality margin, making the search provably exact despite
floating LP arithmetic.  Probability-weighted scenario sets (full
information) fall back to correctly-rounded float sums.  Enumeration
and the branch-and-bound's exhaustive closures share one completion
search, which scores permutations in batches and keeps the first
minimiser in permutation order, the lexicographically smallest argmin.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from .errors import MMSeqError, SizeGuardError
from .evaluator import (IMPROVED_NEUTRAL, REMOVAL, STANDARD_ZERO, Objective,
                        Sequence, as_order, evaluate_station)
from .greedy import construct
from .instance import Instance
from .lp import EQ, LE, OPTIMAL, LinearProgram, LPResult, solve_lp
from .scenario import Scenario, enumerate_all
from .timeunits import TICKS_PER_TU

ENUMERATION_GUARD = 9
LSHAPED_GUARD = 12


@dataclass(frozen=True)
class WeightedScenarios:
    """Scenario set with real-valued weights (e.g. true probabilities)."""
    pairs: tuple[tuple[Scenario, float], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("need at least one scenario")
        if any(w < 0 for _, w in self.pairs):
            raise ValueError("weights must be nonnegative")

    def __iter__(self):
        return iter(self.pairs)


def full_information(instance: Instance) -> WeightedScenarios:
    """All 2^|V| scenarios weighted by their true probabilities."""
    return WeightedScenarios(tuple(enumerate_all(instance)))


# completions scored per batch: 7!, one batch per leading vehicle at
# |V| = 8, which bounds the batch arrays at 5040 x scenarios x stations
_CHUNK = 5040


def _best_completion(objective: Objective, slots, forbidden):
    """Fill the open positions (None in slots) with the loose vehicles:
    of the completions that use no forbidden (vehicle, position) pair,
    return the first minimiser of the objective's key in permutation
    order of the loose vehicles, or None when every completion is
    forbidden."""
    open_t = [t for t, v in enumerate(slots) if v is None]
    column = {t: i for i, t in enumerate(open_t)}
    loose = sorted(set(range(len(slots))) - set(slots))
    base = np.array([0 if v is None else v for v in slots], dtype=np.intp)
    perms = itertools.permutations(loose)
    best_order = best_key = None
    while True:
        combos = np.array(list(itertools.islice(perms, _CHUNK)), dtype=np.intp)
        if not len(combos):
            return best_order
        for v, t in forbidden:
            if t in column:
                combos = combos[combos[:, column[t]] != v]
        if not len(combos):
            continue
        orders = np.tile(base, (len(combos), 1))
        orders[:, open_t] = combos
        keys = objective.keys(orders)
        i = min(range(len(keys)), key=keys.__getitem__)
        if best_key is None or keys[i] < best_key:
            best_order, best_key = tuple(orders[i].tolist()), keys[i]


def enumerate_optimal(instance: Instance, smp, regenerative: bool = True
                      ) -> tuple[Sequence, float]:
    """Exhaustive search over all permutations; returns the
    lexicographically smallest argmin and its objective."""
    n = instance.n_vehicles
    if n > ENUMERATION_GUARD:
        raise SizeGuardError(
            f"enumeration over {n}! permutations refused (limit {ENUMERATION_GUARD})")
    objective = Objective(instance, smp, regenerative)
    order = _best_completion(objective, [None] * n, ())
    return Sequence(order), objective.tu(objective.keys([order])[0])


# ---------------------------------------------------------------------------
# recourse LPs

def _as_xmat(instance: Instance, x):
    """Accept a permutation (1-D) or an assignment matrix (2-D, doubly
    stochastic); return (matrix, order-or-None)."""
    n = instance.n_vehicles
    if isinstance(x, Sequence) or (
            not hasattr(x, "ndim") and x and not hasattr(x[0], "__len__")):
        order = as_order(x)
        mat = np.zeros((n, n))
        for t, v in enumerate(order):
            mat[v, t] = 1.0
        return mat, order
    mat = np.asarray(x, dtype=float)
    if mat.shape != (n, n):
        raise ValueError(f"assignment matrix must be {n}x{n}")
    if (mat < -1e-9).any():
        raise ValueError("assignment matrix must be nonnegative")
    if (np.abs(mat.sum(axis=0) - 1) > 1e-6).any() or \
            (np.abs(mat.sum(axis=1) - 1) > 1e-6).any():
        raise ValueError("assignment matrix must be doubly stochastic")
    rounded = np.round(mat)
    if np.abs(mat - rounded).max() <= 1e-9 and \
            set(np.argmax(mat, axis=0)) == set(range(n)):
        return mat, tuple(int(v) for v in np.argmax(mat, axis=0))
    return mat, None


def _effective_rows(instance: Instance, scenario: Scenario, variant: str):
    """Per-station effective processing time of each vehicle, in ticks."""
    c = instance.cycle_time
    fail_time = {STANDARD_ZERO: 0, IMPROVED_NEUTRAL: c}[variant]
    return [
        [row[v] if scenario.exists[v] else fail_time
         for v in range(instance.n_vehicles)]
        for row in instance.processing_rows()]


def _b_hat(instance: Instance, xmat, scenario: Scenario, variant: str):
    rows = np.asarray(_effective_rows(instance, scenario, variant), dtype=float)
    return rows @ xmat          # station x position, ticks


def recourse_lp(instance: Instance, x, scenario: Scenario,
                variant: str = IMPROVED_NEUTRAL, regenerative: bool = True
                ) -> tuple[float, LinearProgram]:
    """Build and solve one scenario's second-stage LP; objective in TU.

    Variables per station: starting positions z_2..z_T (the first is
    pinned to the left border and, under regenerative planning, so is
    the virtual z_{T+1}) and overloads w_1..w_T.  The zero-time variant
    adds the carry rows that hold the position across failed slots,
    with station factor beta from pre-transform times.
    """
    xmat, order = _as_xmat(instance, x)
    if variant == REMOVAL:
        if order is None:
            raise ValueError("the removal variant needs a binary assignment")
        survivors = [v for v in order if scenario.exists[v]]
        b_rows = [[row[v] for v in survivors] for row in instance.processing_rows()]
        return _chain_lp(instance, b_rows, regenerative, beta_rows=False)
    if variant not in (STANDARD_ZERO, IMPROVED_NEUTRAL):
        raise ValueError(f"unknown recourse variant {variant!r}")
    b_hat = _b_hat(instance, xmat, scenario, variant)
    return _chain_lp(instance, b_hat.tolist(), regenerative,
                     beta_rows=(variant == STANDARD_ZERO))


def _chain_lp(instance: Instance, b_rows, regenerative: bool,
              beta_rows: bool) -> tuple[float, LinearProgram]:
    """min sum(w) over the station chains with processing times fixed."""
    K = instance.n_stations
    T = len(b_rows[0]) if b_rows else 0
    if T == 0:
        lp = LinearProgram(np.zeros(0), np.zeros((0, 0)), (), np.zeros(0),
                           np.zeros(0), np.zeros(0))
        return 0.0, lp
    c = instance.cycle_time
    nz = T - 1                       # z_2..z_T per station
    per_station = nz + T             # plus w_1..w_T
    nvar = K * per_station

    def zvar(k, t):                  # t in 2..T
        return k * per_station + (t - 2)

    def wvar(k, t):                  # t in 1..T
        return k * per_station + nz + (t - 1)

    rows, senses, rhs = [], [], []

    def add(coef: dict, b: float):
        row = np.zeros(nvar)
        for j, val in coef.items():
            row[j] += val
        rows.append(row)
        senses.append(LE)
        rhs.append(b)

    for k in range(K):
        l_k = instance.stations[k].length
        b = b_rows[k]
        for t in range(1, T + 1):
            # progression: z_t + b_t - w_t - z_{t+1} <= c
            coef = {wvar(k, t): -1.0}
            if t >= 2:
                coef[zvar(k, t)] = coef.get(zvar(k, t), 0.0) + 1.0
            if t <= T - 1:
                coef[zvar(k, t + 1)] = coef.get(zvar(k, t + 1), 0.0) - 1.0
                add(coef, c - b[t - 1])
            elif regenerative:       # z_{T+1} pinned to 0
                add(coef, c - b[t - 1])
            # overload: z_t + b_t - w_t <= l_k
            coef = {wvar(k, t): -1.0}
            if t >= 2:
                coef[zvar(k, t)] = 1.0
            add(coef, l_k - b[t - 1])
        if beta_rows:
            beta = instance.beta(k)
            for t in range(1, T):    # carry: z_t - z_{t+1} <= beta * b_t
                coef = {zvar(k, t + 1): -1.0}
                if t >= 2:
                    coef[zvar(k, t)] = coef.get(zvar(k, t), 0.0) + 1.0
                add(coef, beta * b[t - 1])
            if regenerative:         # end carry: z_T - w_T <= beta * b_T
                coef = {wvar(k, T): -1.0}
                if T >= 2:
                    coef[zvar(k, T)] = 1.0
                add(coef, beta * b[T - 1])

    objective = np.zeros(nvar)
    for k in range(K):
        for t in range(1, T + 1):
            objective[wvar(k, t)] = 1.0
    lp = LinearProgram(objective, np.array(rows), tuple(senses),
                       np.array(rhs), np.zeros(nvar), np.full(nvar, np.inf))
    res = solve_lp(lp)
    if res.status != OPTIMAL:
        raise MMSeqError(f"recourse LP came back {res.status}")
    return res.objective / TICKS_PER_TU, lp


# ---------------------------------------------------------------------------
# recourse duals and optimality cuts

@dataclass(frozen=True)
class DualSolution:
    """Multipliers of the improved-model recourse dual: pi_sp for the
    progression rows, pi_wo for the overload rows (station x position)."""
    pi_sp: tuple[tuple[float, ...], ...]
    pi_wo: tuple[tuple[float, ...], ...]

    def max_violation(self) -> float:
        """Largest violation of the dual feasible region's constraints."""
        worst = 0.0
        for sp, wo in zip(self.pi_sp, self.pi_wo):
            T = len(sp)
            for t in range(T):
                worst = max(worst, -sp[t], -wo[t], sp[t] + wo[t] - 1.0)
            for t in range(T - 1):
                worst = max(worst, sp[t] - sp[t + 1] - wo[t + 1])
        return worst

    def is_feasible(self, tol: float = 1e-9) -> bool:
        return self.max_violation() <= tol


@dataclass(frozen=True)
class OptimalityCut:
    """theta_w >= coeffs . x + offset, valid for every assignment x."""
    scenario: Scenario
    coeffs: tuple[tuple[float, ...], ...]   # vehicle x position, TU
    offset: float                           # TU

    def value_at(self, xmat) -> float:
        total = self.offset
        for v, row in enumerate(self.coeffs):
            for t, g in enumerate(row):
                xv = xmat[v][t]
                if xv:
                    total += g * xv
        return total


def _station_duals(b, c: int, length: int, regenerative: bool
                   ) -> tuple[list, list, float]:
    """One station's recourse-dual multipliers by complementary slackness
    on its primal trace, plus the station's overload.

    Walking backwards, m = sp_{t+1} + wo_{t+1} caps sp_t.  A position
    that reaches the border (s >= l) binds its overload row and opens
    the cap again; one that idles (s < c) leaves its progression row
    slack and closes it.  Ties take the carrying branch, the
    maximum-support choice among the alternate optima.
    """
    ev = evaluate_station(b, c, length, regenerative)
    T = len(b)
    sp = [0.0] * T
    wo = [0.0] * T
    s = ev.z[-1] + b[-1]
    if regenerative:
        if s >= c:
            sp[-1] = 1.0
    elif s >= length:      # virtual free z_{T+1} kills sp_T
        wo[-1] = 1.0
    m = sp[-1] + wo[-1]
    for t in range(T - 2, -1, -1):
        s = ev.z[t] + b[t]
        if s >= length:
            sp[t], wo[t], m = m, 1.0 - m, 1.0
        elif s >= c:
            sp[t] = m
        else:
            m = 0.0
    return sp, wo, ev.total_overload


def _cut_from_duals(instance: Instance, scenario: Scenario, sp_rows, wo_rows
                    ) -> OptimalityCut:
    eff = _effective_rows(instance, scenario, IMPROVED_NEUTRAL)
    n = instance.n_vehicles
    T = n
    c = instance.cycle_time
    coeffs = [[0.0] * T for _ in range(n)]
    offset = 0.0
    for k in range(instance.n_stations):
        sp, wo = sp_rows[k], wo_rows[k]
        l_k = instance.stations[k].length
        for t in range(T):
            weight = sp[t] + wo[t]
            if weight:
                for v in range(n):
                    coeffs[v][t] += weight * eff[k][v]
            offset -= c * sp[t] + l_k * wo[t]
    scale = TICKS_PER_TU
    return OptimalityCut(
        scenario=scenario,
        coeffs=tuple(tuple(g / scale for g in row) for row in coeffs),
        offset=offset / scale)


def solve_dsp(instance: Instance, x, scenario: Scenario,
              regenerative: bool = True
              ) -> tuple[DualSolution, OptimalityCut]:
    """Optimal recourse duals of the scenario at x and their optimality
    cut.  The stations decouple, and each one's multipliers are read off
    the station recursion (no LP), so the cut is tight at x by strong
    duality; a cut that is not raises MMSeqError."""
    xmat, _ = _as_xmat(instance, x)
    c = instance.cycle_time
    b_hat = _b_hat(instance, xmat, scenario, IMPROVED_NEUTRAL).tolist()
    sp_rows, wo_rows, total = [], [], 0.0
    for b, st in zip(b_hat, instance.stations):
        sp, wo, overload = _station_duals(b, c, st.length, regenerative)
        sp_rows.append(sp)
        wo_rows.append(wo)
        total += overload
    cut = _cut_from_duals(instance, scenario, sp_rows, wo_rows)
    target = total / TICKS_PER_TU
    if abs(cut.value_at(xmat) - target) > 1e-8 * max(1.0, abs(target)):
        raise MMSeqError(f"optimality cut is not tight at its anchor "
                         f"({cut.value_at(xmat)} vs {target})")
    dual = DualSolution(pi_sp=tuple(tuple(r) for r in sp_rows),
                        pi_wo=tuple(tuple(r) for r in wo_rows))
    return dual, cut


# ---------------------------------------------------------------------------
# branch-and-bound master with lazy cuts

@dataclass(frozen=True)
class ExactParams:
    gap_tol: float = 0.0
    time_limit: float | None = None


@dataclass
class SolveStats:
    nodes: int = 0
    cuts_added: int = 0
    lp_solves: int = 0
    leaf_exhausts: int = 0
    root_bounds: list = field(default_factory=list)
    cut_pool: list = field(default_factory=list)
    log: list = field(default_factory=list)
    status: str = "optimal"
    wall_time: float | None = None


class LShapedResult(NamedTuple):
    sequence: Sequence
    lower_bound: float
    upper_bound: float
    stats: SolveStats


class _Master:
    """Node LPs over the assignment polytope with theta variables and a
    shared cut pool; branching is expressed through variable bounds.

    The pool lives in one preallocated matrix below the assignment rows,
    so a node solve never copies more than the active slice.  When the
    pool outgrows its cap, rows that have not been binding for the
    longest stretch are evicted: every subset of valid cuts keeps every
    node bound valid, and an evicted cut that is needed again is simply
    regenerated because eviction also forgets its deduplication key.
    """

    def __init__(self, instance: Instance, pairs, n):
        self.instance = instance
        self.nv = instance.n_vehicles
        self.nx = self.nv * self.nv
        self.pairs = pairs
        self.nvar = self.nx + len(pairs)
        total = n if n is not None else 1.0
        self.scen_index = {s: j for j, (s, _) in enumerate(pairs)}
        self.n_base = 2 * self.nv
        self.n_cuts = 0
        self.pool_cap = max(160, 2 * len(pairs))
        self.pool_keep = max(100, len(pairs) + len(pairs) // 2)
        cap = self.n_base + 64
        self._a = np.zeros((cap, self.nvar))
        self._rhs = np.ones(cap)
        for v in range(self.nv):            # each vehicle used once
            self._a[v, v * self.nv:(v + 1) * self.nv] = 1.0
        for t in range(self.nv):            # each position filled once
            self._a[self.nv + t, t:self.nx:self.nv] = 1.0
        self._last_active = np.zeros(0, dtype=int)
        self._keys: list = []
        self._key_set: set = set()
        self._solves = 0
        self.objective = np.zeros(self.nvar)
        self.objective[self.nx:] = [w / total for _, w in pairs]
        self._lower = np.zeros(self.nvar)
        self._upper = np.concatenate([np.ones(self.nx),
                                      np.full(len(pairs), np.inf)])

    def xvar(self, v: int, t: int) -> int:
        return v * self.nv + t

    def _ensure_capacity(self, rows: int):
        cap = self._a.shape[0]
        if rows <= cap:
            return
        new_cap = max(rows, 2 * cap)
        grown = np.zeros((new_cap, self.nvar))
        grown[:cap] = self._a
        self._a = grown
        rhs = np.ones(new_cap)
        rhs[:cap] = self._rhs
        self._rhs = rhs

    def add_cut(self, cut: OptimalityCut) -> bool:
        j = self.scen_index[cut.scenario]
        key = (j, tuple(round(g, 12) for row in cut.coeffs for g in row),
               round(cut.offset, 12))
        if key in self._key_set:
            return False
        self._key_set.add(key)
        self._keys.append(key)
        r = self.n_base + self.n_cuts
        self._ensure_capacity(r + 1)
        row = self._a[r]
        row[:] = 0.0
        for v, coeffs in enumerate(cut.coeffs):
            row[v * self.nv:(v + 1) * self.nv] = coeffs
        row[self.nx + j] = -1.0
        self._rhs[r] = -cut.offset
        self._last_active = np.append(self._last_active, self._solves)
        self.n_cuts += 1
        return True

    def maybe_evict(self):
        """Drop the longest-inactive cut rows once the pool overflows."""
        if self.n_cuts <= self.pool_cap:
            return
        order = np.argsort(self._last_active, kind="stable")
        drop = set(order[:self.n_cuts - self.pool_keep].tolist())
        keep = [i for i in range(self.n_cuts) if i not in drop]
        lo = self.n_base
        self._a[lo:lo + len(keep)] = self._a[lo:lo + self.n_cuts][keep]
        self._rhs[lo:lo + len(keep)] = self._rhs[lo:lo + self.n_cuts][keep]
        self._last_active = self._last_active[keep]
        for i in drop:
            self._key_set.discard(self._keys[i])
        self._keys = [self._keys[i] for i in keep]
        self.n_cuts = len(keep)

    def solve(self, fixings: dict) -> LPResult:
        m = self.n_base + self.n_cuts
        lower = self._lower.copy()
        upper = self._upper.copy()
        for (v, t), val in fixings.items():
            lower[self.xvar(v, t)] = float(val)
            upper[self.xvar(v, t)] = float(val)
        senses = (EQ,) * self.n_base + (LE,) * self.n_cuts
        lp = LinearProgram(self.objective, self._a[:m], senses,
                           self._rhs[:m], lower, upper)
        res = solve_lp(lp)
        self._solves += 1
        if res.status == OPTIMAL and self.n_cuts:
            binding = res.slack[self.n_base:m] <= 1e-7
            self._last_active[binding] = self._solves
        return res


def _integral_order(xmat, nv: int):
    """Decode an integral assignment; None when any entry is fractional."""
    order = []
    for t in range(nv):
        col = [xmat[v * nv + t] for v in range(nv)]
        hits = [v for v, val in enumerate(col) if val > 0.5]
        if len(hits) != 1:
            return None
        if any(min(val, 1.0 - val) > 1e-6 for val in col):
            return None
        order.append(hits[0])
    return tuple(order) if len(set(order)) == nv else None


_EXHAUST_CAP = 6         # most loose vehicles a node may close by search
_EXHAUST_BUDGET = 20000  # permutation-scenario evaluations per closure


def lshaped_solve(instance: Instance, smp, params: ExactParams | None = None
                  ) -> LShapedResult:
    """Branch-and-bound over assignment variables with lazy Benders
    optimality cuts at integer nodes; exact for integral-multiplicity
    scenario sets, tolerance-exact otherwise.

    Two accelerations keep the tree manageable without touching the
    bound logic: the greedy constructor seeds the incumbent before the
    root, and nodes whose fixings leave at most a handful of vehicles
    unassigned are closed by evaluating every consistent completion with
    the exact objective instead of relaxing further.
    """
    params = params or ExactParams()
    nv = instance.n_vehicles
    if nv > LSHAPED_GUARD:
        raise SizeGuardError(
            f"branch-and-cut on |V|={nv} refused (limit {LSHAPED_GUARD})")
    t0 = time.perf_counter()
    objective = Objective(instance, smp)
    pairs, n = objective.pairs, objective.n
    master = _Master(instance, pairs, n)
    stats = SolveStats()

    if n is not None:
        # attainable objectives sit on the 1/(n * ticks) grid, so pruning
        # at 0.4 grid units and capping the per-scenario theta deficit at
        # 0.3 units keeps the search exact despite float node LPs
        margin = 0.4 / (n * TICKS_PER_TU)
        viol_tol = min(1e-6, 0.3 / (n * TICKS_PER_TU))
        grid = float(n * TICKS_PER_TU)
    else:
        margin = 0.0
        viol_tol = 1e-9
        grid = None

    def sharpen(bound: float) -> float:
        """Lift an LP bound to the attainable-value grid when one exists."""
        if grid is None:
            return bound
        return math.ceil(bound * grid - 0.05) / grid

    best_key = None
    best_order = None
    best_tu = math.inf

    def consider(order):
        nonlocal best_key, best_order, best_tu
        key = objective.keys([order])[0]
        if best_key is None or key < best_key:
            best_key = key
            best_order = order
            best_tu = objective.tu(key)
            stats.log.append(f"incumbent {best_tu:.6f} {order}")

    # warm incumbent from the greedy constructor: pruning starts working
    # at the root for the price of one evaluation
    consider(as_order(construct(instance)[0]))

    exhaust_limit = max(
        (u for u in range(_EXHAUST_CAP + 1)
         if math.factorial(u) * len(pairs) <= _EXHAUST_BUDGET), default=0)

    def close_exhaustively(fixings) -> bool:
        """Evaluate every completion consistent with the fixings when few
        vehicles remain loose; exact, and cheaper than relaxing on."""
        slots = [None] * nv
        for (v, t), val in fixings.items():
            if val:
                slots[t] = v
        if slots.count(None) > exhaust_limit:
            return False
        forbidden = [vt for vt, val in fixings.items() if not val]
        best = _best_completion(objective, slots, forbidden)
        if best is not None:
            consider(best)
        stats.leaf_exhausts += 1
        return True

    heap = [(0.0, 0, 0, {})]          # bound, -depth, insertion, fixings
    counter = 1
    lb_final = None
    out_of_time = False

    def open_bound():
        return min(heap[0][0] if heap else best_tu, best_tu)

    while heap:
        if params.time_limit is not None and \
                time.perf_counter() - t0 > params.time_limit:
            out_of_time = True
            lb_final = open_bound()
            break
        bound, _, _, fixings = heappop(heap)
        if bound >= best_tu - margin:
            lb_final = best_tu
            break
        stats.nodes += 1
        if close_exhaustively(fixings):
            if best_tu - open_bound() <= params.gap_tol:
                lb_final = open_bound()
                break
            continue
        res = master.solve(fixings)
        stats.lp_solves += 1
        is_root = not fixings
        if is_root and res.status == OPTIMAL:
            stats.root_bounds.append(res.objective)
        # lazy-cut loop: while the node optimum is an assignment, make
        # the thetas honest for it, then re-solve
        integral_done = False
        while res.status == OPTIMAL:
            order = _integral_order(res.x, nv)
            if order is None:
                break
            consider(order)
            ticks = objective.ticks([order])[0].tolist()
            added = 0
            for j, (scen, _) in enumerate(pairs):
                if res.x[master.nx + j] < ticks[j] / TICKS_PER_TU - viol_tol:
                    _, cut = solve_dsp(instance, order, scen)
                    if master.add_cut(cut):
                        stats.cut_pool.append(cut)
                        added += 1
            if not added:
                integral_done = True
                break
            stats.cuts_added += added
            res = master.solve(fixings)
            stats.lp_solves += 1
            if is_root:
                stats.root_bounds.append(res.objective)
        if res.status == OPTIMAL and not integral_done:
            node_bound = sharpen(res.objective)
            if node_bound < best_tu - margin:
                xs = res.x
                pick, pick_frac = None, 0.0
                for v in range(nv):
                    for t in range(nv):
                        val = xs[master.xvar(v, t)]
                        frac = min(val, 1.0 - val)
                        if frac > pick_frac + 1e-12:
                            pick_frac = frac
                            pick = (v, t)
                if pick is not None:
                    depth = -(len(fixings) + 1)
                    for val in (1, 0):      # the committing branch first
                        child = dict(fixings)
                        child[pick] = val
                        heappush(heap, (node_bound, depth, counter, child))
                        counter += 1
        stats.log.append(
            f"node {stats.nodes} bound "
            f"{res.objective if res.status == OPTIMAL else float('nan'):.6f} "
            f"ub {best_tu:.6f} cuts {master.n_cuts} open {len(heap)}")
        master.maybe_evict()
        if best_tu - open_bound() <= params.gap_tol:
            lb_final = open_bound()
            break

    if best_order is None:                        # defensive fallback
        consider(tuple(range(nv)))
        lb_final = min(lb_final if lb_final is not None else 0.0, best_tu)
    if lb_final is None:                          # heap exhausted
        lb_final = best_tu
    if out_of_time:
        stats.status = "time_limit"
    elif best_tu - lb_final > max(margin, 1e-12):
        stats.status = "gap_tol"
    else:
        stats.status = "optimal"
        lb_final = best_tu
    stats.wall_time = time.perf_counter() - t0
    return LShapedResult(Sequence(best_order), lb_final, best_tu, stats)
