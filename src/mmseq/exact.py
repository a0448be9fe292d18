"""Exact solution of the sampled sequencing problem.

Pieces: exact enumeration, the per-scenario recourse LPs (three
failure encodings; the reference the cuts are tested against),
optimality cuts whose recourse duals are read off the station recursion
by complementary slackness, and a branch-and-bound master LP that adds
cuts lazily at integer-feasible nodes, kept as one HiGHS model that each
node re-solves from the previous basis.  Each scenario's theta starts at
a floor, root_bound's least overload of that scenario over all orders,
so the root bound is never below the weighted floors.

One reader, _cuts, turns a batch of station chains into duals and cuts.
It runs the chains forward on evaluator.station_step, keeping z + eta at
each position, walks back over batch x stations to set the 0/1
multipliers, and sums every cut's coefficients in one product, in
integer ticks.  solve_dsp calls it on a batch of one at any anchor,
fractional ones included.  The branch-and-cut calls it once per
integral node on every violated scenario, and checks each cut tight at
its anchor by exact integer equality.

Candidate orders are valued by evaluator.Objective: scenario costs are
exact integer tick counts, so for sampled (integer-multiplicity)
scenario sets the master can compare candidate values exactly and prune
on an integrality margin, making the search provably exact despite
floating LP arithmetic.  Probability-weighted scenario sets (full
information) fall back to correctly-rounded float sums.

Nodes of the exact layer share one format, the fixing matrix: an int8
vehicle x position array whose entries are 1 (fixed in), 0 (forbidden)
or -1 (free).  The master LP reads it as column bounds, and the engine
below as fixed slots and allowed pairs.

Enumeration and the branch-and-bound's exhaustive closures run on one
engine, _search, a prefix branch-and-bound on evaluator.station_step.
It extends prefixes depth-first in lexicographic order, steps every
allowed child of a node at once over children x scenarios x stations
(a fixed slot gives one child, a forbidden pair none), and prunes a
child when its prefix overload plus a suffix bound reaches the
incumbent key.  The bound per (scenario, station) is the larger of work
conservation, with each remaining vehicle's eta clipped at -cap, and the
sum of each remaining vehicle's own excess over the window.  The last
_TAIL open positions are scored from the node's state as one batch.
The incumbent is replaced only by a strictly smaller key, so the result
is the lexicographically smallest argmin.
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
                        Sequence, as_order, effective_times, station_step,
                        vehicle_times)
from .greedy import construct
from .instance import Instance
from .lp import EQ, LE, OPTIMAL, LinearProgram, LPResult, Model, solve_lp
from .scenario import Scenario, WeightedScenarios, enumerate_all
from .timeunits import TICKS_PER_TU

ENUMERATION_GUARD = 12
LSHAPED_GUARD = 12


def full_information(instance: Instance) -> WeightedScenarios:
    """All 2^|V| scenarios weighted by their true probabilities."""
    return WeightedScenarios(tuple(enumerate_all(instance)))


# open positions left when a node scores every completion in one batch
# of at most 5! = 120 rows instead of expanding further
_TAIL = 5
_PERMS = [np.array(list(itertools.permutations(range(m))), dtype=np.intp
                   ).reshape(math.factorial(m), m) for m in range(_TAIL + 1)]


def _rest_terms(eta, cap):
    """Each vehicle's terms of _suffix_bound's rest sums: eta clipped at
    -cap, and its excess max(0, eta - cap)."""
    if (cap < 0).any():
        k = int(np.flatnonzero(cap < 0)[0])
        raise ValueError(f"station {k} is shorter than the cycle time")
    return np.maximum(eta, -cap), np.maximum(eta - cap, 0)


def _suffix_bound(z, rest_eta, rest_excess, cap, regenerative: bool):
    """Least overload any completion adds, per (scenario, station), from
    entry state z with rest_eta = sum of max(eta, -cap) and rest_excess =
    sum of max(0, eta - cap) over the vehicles still to place (the terms
    of _rest_terms).

    Work conservation: the rest's overload is
    z + sum(eta) + sum(idle) - z_exit, with z_exit = 0 at a regenerative
    end and <= cap at an open one.  A vehicle idles
    idle_t = max(0, -(z_t + eta_t)), and its entry state z_t <= cap, so
    idle_t >= max(0, -eta_t - cap) and eta_t + idle_t >= max(eta_t, -cap):
    the clipped sum never exceeds sum(eta) + sum(idle) (needs cap >= 0).
    Each vehicle alone: w >= s - cap >= eta - cap inside the window and
    w = s >= eta at the regenerative last slot.  rest_excess >= 0 also
    clamps the conserved work at 0.
    """
    conserved = z + rest_eta if regenerative else z + rest_eta - cap
    return np.maximum(conserved, rest_excess)


def root_bound(objective: Objective) -> np.ndarray:
    """Least overload of any order under each scenario, in ticks summed
    over stations: _suffix_bound from z = 0 over every vehicle."""
    cap = objective.cap
    clipped, excess = _rest_terms(objective.scenario_eta, cap)
    return _suffix_bound(0, clipped.sum(axis=0, dtype=np.int64),
                         excess.sum(axis=0, dtype=np.int64), cap,
                         objective.regenerative).sum(axis=-1, dtype=np.int64)


def _search(objective: Objective, fix, incumbent=None):
    """Branch-and-bound over the orders that the fixing matrix fix
    allows: every 1 entry is placed, and no 0 entry is used.

    Prefixes go depth-first in lexicographic order; a node's children
    are stepped at once over children x scenarios x stations and pruned
    when prefix cost plus _suffix_bound reaches the incumbent key, which
    is only replaced by a strictly smaller one, so the result is the
    lexicographically smallest argmin.  Returns (order, key), or None
    when no completion is strictly below the incumbent.
    """
    cap = objective.cap
    T = len(fix)
    eta = objective.scenario_eta                       # V x S x K
    clipped, excess = _rest_terms(eta, cap)
    allowed = fix != 0                                 # vehicle x position
    fixed = fix == 1
    # the vehicle fixed at each position, -1 where the position is open
    slots = np.where(fixed.any(axis=0), fixed.argmax(axis=0), -1).tolist()
    loose = np.flatnonzero(~fixed.any(axis=1)).tolist()
    # cap at full shape for the widest batch (a tail's completions or a
    # node's children), sliced per step: a (K,) operand would make
    # numpy's inner loop run over K elements at a time
    caps = np.empty((max(len(_PERMS[min(len(loose), _TAIL)]), T),) + eta.shape[1:],
                    dtype=eta.dtype)
    caps[...] = cap
    open_after = [slots[t:].count(-1) for t in range(T + 1)]
    last = T - 1 if objective.regenerative else T
    weigh = objective._weigh
    best_order, best_key = None, incumbent

    def tail(t, free, prefix, z, done):
        """Score every allowed completion of positions t.. at once."""
        nonlocal best_order, best_key
        perms = _PERMS[len(free)]
        cols = np.array(slots[t:], dtype=np.intp)
        orders = np.tile(cols, (len(perms), 1))
        orders[:, cols < 0] = np.array(free, dtype=np.intp)[perms]
        orders = orders[allowed[orders, np.arange(t, T)].all(axis=1)]
        if not len(orders):
            return
        zs = np.repeat(z[None], len(orders), axis=0)
        s, w, total = np.empty_like(zs), np.empty_like(zs), np.zeros_like(zs)
        cap_t = caps[:len(zs)]
        for j in range(T - t):
            station_step(zs, eta[orders[:, j]], cap_t, t + j == last, out=(s, zs, w))
            total += w
        keys = weigh(done + total.sum(axis=2, dtype=np.int64))
        i = min(range(len(keys)), key=keys.__getitem__)
        if best_key is None or keys[i] < best_key:
            best_order, best_key = prefix + tuple(orders[i].tolist()), keys[i]

    def expand(t, free, prefix, z, done, rest_eta, rest_excess):
        if open_after[t] <= _TAIL:
            tail(t, free, prefix, z, done)
            return
        kids = [v for v in ((slots[t],) if slots[t] >= 0 else free)
                if allowed[v, t]]
        if not kids:
            return
        # more than _TAIL open positions follow, so t is not the last
        cap_c = caps[:len(kids)]
        _, zc, w = station_step(z, eta[kids], cap_c)
        done_c = done + w.sum(axis=2, dtype=np.int64)
        eta_c = rest_eta - clipped[kids]
        excess_c = rest_excess - excess[kids]
        bounds = weigh(done_c + _suffix_bound(
            zc, eta_c, excess_c, cap_c, objective.regenerative).sum(axis=2))
        for i, v in enumerate(kids):
            if best_key is not None and bounds[i] >= best_key:
                continue
            expand(t + 1, [u for u in free if u != v], prefix + (v,), zc[i],
                   done_c[i], eta_c[i], excess_c[i])

    expand(0, loose, (), np.zeros(eta.shape[1:], dtype=eta.dtype),
           np.zeros(eta.shape[1], dtype=np.int64), clipped.sum(axis=0, dtype=np.int64),
           excess.sum(axis=0, dtype=np.int64))
    # expand refers to itself, a reference cycle that would keep this
    # call's arrays alive until the next garbage collection
    del expand
    return None if best_order is None else (best_order, best_key)


def enumerate_optimal(instance: Instance, smp, regenerative: bool = True
                      ) -> tuple[Sequence, float]:
    """Exact search over all permutations by branch-and-bound; returns
    the lexicographically smallest argmin and its objective."""
    n = instance.n_vehicles
    if n > ENUMERATION_GUARD:
        raise SizeGuardError(
            f"enumeration over {n}! permutations refused (limit {ENUMERATION_GUARD})")
    objective = Objective(instance, smp, regenerative)
    order, key = _search(objective, np.full((n, n), -1, dtype=np.int8))
    return Sequence(order), objective.tu(key)


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
        return _chain_lp(instance, effective_times(instance, order, scenario, REMOVAL),
                         regenerative, beta_rows=False)
    if variant not in (STANDARD_ZERO, IMPROVED_NEUTRAL):
        raise ValueError(f"unknown recourse variant {variant!r}")
    b = np.array(vehicle_times(instance, scenario, variant), dtype=float) @ xmat
    return _chain_lp(instance, b, regenerative, beta_rows=(variant == STANDARD_ZERO))


def _chain_lp(instance: Instance, b_rows, regenerative: bool,
              beta_rows: bool) -> tuple[float, LinearProgram]:
    """min sum(w) over the station chains with processing times b_rows
    (station x position, ticks) fixed.

    Every station has the same rows, so one block over its columns
    z_1..z_{T+1}, w_1..w_T gives them all: per position a progression
    row z_t + b_t - w_t - z_{t+1} <= c and an overload row
    z_t + b_t - w_t <= l, the last progression row only when
    regenerative (z_{T+1} pinned to 0, otherwise free), then for the
    zero-time variant the carry rows z_t - z_{t+1} <= beta * b_t and,
    when regenerative, the end carry z_T - w_T <= beta * b_T.  z_1 is
    pinned to 0 too, so both border columns are dropped.
    """
    b = np.asarray(b_rows, dtype=float)
    K, T = b.shape
    if T == 0:
        lp = LinearProgram(np.zeros(0), np.zeros((0, 0)), (), np.zeros(0),
                           np.zeros(0), np.zeros(0))
        return 0.0, lp
    c = instance.cycle_time
    lengths = np.array([st.length for st in instance.stations], dtype=float)
    z, z_next, w = np.eye(T, T + 1), np.eye(T, T + 1, k=1), np.eye(T)
    progression = np.hstack([z - z_next, -w])
    overload = np.hstack([z, -w])
    block = np.stack([progression, overload], axis=1).reshape(2 * T, -1)
    rhs = np.stack([c - b, lengths[:, None] - b], axis=2).reshape(K, 2 * T)
    if not regenerative:
        block = np.delete(block, 2 * T - 2, axis=0)
        rhs = np.delete(rhs, 2 * T - 2, axis=1)
    if beta_rows:
        n_carry = T if regenerative else T - 1
        carry = np.hstack([z - z_next, np.zeros_like(w)])
        block = np.vstack([block, carry[:T - 1], overload[T - 1:n_carry]])
        beta = np.array([instance.beta(k) for k in range(K)])
        rhs = np.hstack([rhs, beta[:, None] * b[:, :n_carry]])
    block = np.delete(block, [0, T], axis=1)       # z_1 and z_{T+1}
    nvar = K * block.shape[1]
    lp = LinearProgram(np.tile(np.repeat([0.0, 1.0], [T - 1, T]), K),
                       np.kron(np.eye(K), block), (LE,) * rhs.size,
                       rhs.ravel(), np.zeros(nvar), np.full(nvar, np.inf))
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
        sp = np.array(self.pi_sp, dtype=float, ndmin=2)
        wo = np.array(self.pi_wo, dtype=float, ndmin=2)
        rows = (-sp, -wo, sp + wo - 1.0, sp[:, :-1] - sp[:, 1:] - wo[:, 1:])
        return max(0.0, *(float(r.max(initial=0.0)) for r in rows))

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


def _cuts(eff, b, c: int, cap, regenerative: bool):
    """Recourse duals and optimality cuts of a batch of station chains,
    read off the station recursion by complementary slackness.

    eff is vehicle x batch x station (effective times, ticks), b
    position x batch x station (the times the chains run on; float at a
    fractional anchor) and cap the (K,) l - c.  The forward pass keeps
    z + eta at each position.  Walking backwards, m = sp_{t+1} + wo_{t+1}
    caps sp_t: a position with z + eta >= cap (s >= l) binds its
    overload row and opens the cap again, one with z + eta < 0 (s < c)
    leaves its progression row slack and closes it.  Ties take the
    carrying branch, the maximum-support choice among the alternate
    optima.

    Returns (sp, wo, coeffs, offsets, overload): the 0/1 multipliers
    (position x batch x station), and per chain the cut's
    vehicle x position coefficients and its offset, in integer ticks,
    and the chain's overload, so the cut at the anchor x is
    coeffs . x + offset = overload.
    """
    eta = b - c
    T = len(eta)
    z = np.zeros((T + 1,) + eta.shape[1:], dtype=eta.dtype)
    wide = np.promote_types(eta.dtype, np.int64)   # int64 sums, float at a fractional anchor
    overload = 0
    for t in range(T):
        _, _, w = station_step(z[t], eta[t], cap, regenerative and t == T - 1,
                               out=(None, z[t + 1], None))
        overload = overload + w.sum(axis=-1, dtype=wide)
    reach = z[:T] + eta
    over, carry = reach >= cap, reach >= 0
    sp = np.zeros(eta.shape, dtype=np.int64)
    wo = np.zeros_like(sp)
    if regenerative:
        sp[-1] = carry[-1]
    else:              # the virtual free z_{T+1} kills sp_T
        wo[-1] = over[-1]
    m = sp[-1] + wo[-1]
    for t in range(T - 2, -1, -1):
        sp[t] = np.where(over[t] | carry[t], m, 0)
        wo[t] = np.where(over[t], 1 - m, 0)
        m = np.where(over[t], 1, sp[t])
    coeffs = np.einsum("vbk,tbk->bvt", eff, sp + wo)
    offsets = -(c * sp + (cap + c) * wo).sum(axis=(0, 2))
    return sp, wo, coeffs, offsets, overload


def _as_cut(scenario: Scenario, coeffs, offset) -> OptimalityCut:
    """The cut of one chain's integer-tick coefficients and offset."""
    return OptimalityCut(scenario=scenario,
                         coeffs=tuple(map(tuple, (coeffs / TICKS_PER_TU).tolist())),
                         offset=int(offset) / TICKS_PER_TU)


def solve_dsp(instance: Instance, x, scenario: Scenario,
              regenerative: bool = True
              ) -> tuple[DualSolution, OptimalityCut]:
    """Optimal recourse duals of the scenario at x and their optimality
    cut.  The stations decouple, and each one's multipliers are read off
    the station recursion (no LP), so the cut is tight at x by strong
    duality; a cut that is not raises MMSeqError."""
    xmat, _ = _as_xmat(instance, x)
    c = instance.cycle_time
    eff = np.array(vehicle_times(instance, scenario, IMPROVED_NEUTRAL), dtype=np.int64)
    b = eff.astype(float) @ xmat                         # station x position
    cap = np.array([st.length - c for st in instance.stations], dtype=np.int64)
    sp, wo, coeffs, offsets, overload = _cuts(eff.T[:, None], b.T[:, None], c, cap,
                                              regenerative)
    cut = _as_cut(scenario, coeffs[0], offsets[0])
    target = float(overload[0]) / TICKS_PER_TU
    if abs(cut.value_at(xmat) - target) > 1e-8 * max(1.0, abs(target)):
        raise MMSeqError(f"optimality cut is not tight at its anchor "
                         f"({cut.value_at(xmat)} vs {target})")
    dual = DualSolution(pi_sp=tuple(map(tuple, sp[:, 0].T.astype(float).tolist())),
                        pi_wo=tuple(map(tuple, wo[:, 0].T.astype(float).tolist())))
    return dual, cut


# ---------------------------------------------------------------------------
# branch-and-bound master with lazy cuts

@dataclass(frozen=True)
class ExactParams:
    time_limit: float | None = None   # seconds; None runs to a proof

    def __post_init__(self):
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError("time_limit must be None or a number >= 0")


@dataclass
class SolveStats:
    nodes: int = 0
    cuts_added: int = 0
    lp_solves: int = 0
    leaf_exhausts: int = 0
    root_bounds: list = field(default_factory=list)
    cut_pool: list = field(default_factory=list)
    status: str = "optimal"
    wall_time: float | None = None


class LShapedResult(NamedTuple):
    sequence: Sequence
    lower_bound: float
    upper_bound: float
    stats: SolveStats


class _Master:
    """Node LPs over the assignment polytope with theta variables and a
    shared cut pool; a node's fixing matrix becomes the assignment bounds.
    floors (ticks, one per scenario column or one for all) are the
    thetas' column lower bounds.

    One HiGHS model lives for the whole solve: the assignment rows are
    passed once, each new cut is appended as a row, and a node solve
    only resets the assignment bounds before re-solving from the last
    basis.  When the pool outgrows its cap, rows that have not been
    binding for the longest stretch are deleted: every subset of valid
    cuts keeps every node bound valid, and an evicted cut that is needed
    again is simply regenerated because eviction also forgets its
    deduplication key.
    """

    def __init__(self, instance: Instance, weights, n, floors=0):
        self.nv = instance.n_vehicles
        self.nx = self.nv * self.nv
        n_scen = len(weights)
        self.nvar = self.nx + n_scen
        total = n if n is not None else 1.0
        self.n_base = 2 * self.nv
        self.n_cuts = 0
        self.pool_cap = max(160, 2 * n_scen)
        self.pool_keep = max(100, n_scen + n_scen // 2)
        a = np.zeros((self.n_base, self.nvar))
        for v in range(self.nv):            # each vehicle used once
            a[v, v * self.nv:(v + 1) * self.nv] = 1.0
        for t in range(self.nv):            # each position filled once
            a[self.nv + t, t:self.nx:self.nv] = 1.0
        objective = np.zeros(self.nvar)
        objective[self.nx:] = [w / total for w in weights.tolist()]
        lower = np.zeros(self.nvar)
        lower[self.nx:] = np.asarray(floors) / TICKS_PER_TU
        upper = np.concatenate([np.ones(self.nx), np.full(n_scen, np.inf)])
        self.lp = Model(LinearProgram(objective, a, (EQ,) * self.n_base,
                                      np.ones(self.n_base), lower, upper))
        self._xcols = np.arange(self.nx)
        self._last_active = np.zeros(0, dtype=int)
        self._keys: list = []
        self._key_set: set = set()
        self._solves = 0

    def add_cut(self, j: int, cut: OptimalityCut) -> bool:
        """Append the cut on scenario column j's theta, unless it is pooled."""
        key = (j, cut.coeffs, cut.offset)
        if key in self._key_set:
            return False
        self._key_set.add(key)
        self._keys.append(key)
        values = np.append(np.ravel(cut.coeffs), -1.0)
        cols = np.append(self._xcols, self.nx + j)
        nz = values != 0.0
        self.lp.add_row(cols[nz], values[nz], -cut.offset)
        self._last_active = np.append(self._last_active, self._solves)
        self.n_cuts += 1
        return True

    def maybe_evict(self):
        """Drop the longest-inactive cut rows once the pool overflows."""
        if self.n_cuts <= self.pool_cap:
            return
        order = np.argsort(self._last_active, kind="stable")
        drop = np.sort(order[:self.n_cuts - self.pool_keep])
        self.lp.delete_rows(self.n_base + drop)
        keep = np.setdiff1d(np.arange(self.n_cuts), drop)
        self._last_active = self._last_active[keep]
        for i in drop:
            self._key_set.discard(self._keys[i])
        self._keys = [self._keys[i] for i in keep]
        self.n_cuts = len(keep)

    def solve(self, fix) -> LPResult:
        """Re-solve with the assignment bounds of the fixing matrix fix."""
        self.lp.set_bounds(self._xcols, np.ravel(fix == 1), np.ravel(fix != 0))
        res = self.lp.solve()
        self._solves += 1
        if res.status == OPTIMAL and self.n_cuts:
            binding = res.slack[self.n_base:] <= 1e-7
            self._last_active[binding] = self._solves
        return res


def _integral_order(x, frac):
    """Decode an integral assignment x (vehicle x position, frac =
    min(x, 1 - x)); None when any entry is fractional."""
    hits = x > 0.5
    if (frac > 1e-6).any() or (hits.sum(axis=0) != 1).any() or \
            (hits.sum(axis=1) != 1).any():
        return None
    return tuple(hits.argmax(axis=0).tolist())


def _branch_pick(frac):
    """The (vehicle, position) to branch on: the first entry in row-major
    order whose frac beats the best so far by more than 1e-12, or None.
    An entry at or below 1e-12 never beats the start value 0."""
    pick, pick_frac = None, 0.0
    for i in np.flatnonzero(frac > 1e-12).tolist():
        if frac.flat[i] > pick_frac + 1e-12:
            pick, pick_frac = i, frac.flat[i]
    return None if pick is None else divmod(pick, frac.shape[1])


_EXHAUST_CAP = 6         # most loose vehicles a node may close by search
_EXHAUST_BUDGET = 20000  # most (loose vehicles)! x scenarios a node may close


def lshaped_solve(instance: Instance, smp, params: ExactParams | None = None
                  ) -> LShapedResult:
    """Branch-and-bound over assignment variables with lazy Benders
    optimality cuts at integer nodes; exact for integral-multiplicity
    scenario sets, tolerance-exact otherwise.

    Every theta_j starts at the constant lower bound of the integer
    L-shaped method (Laporte & Louveaux 1993): root_bound's overload of
    scenario j, which no order goes below, in place of 0.  Two more
    accelerations keep the tree manageable: the greedy constructor seeds
    the incumbent before the root, and nodes whose fixings leave at most
    a handful of vehicles unassigned are closed by the exact completion
    search, seeded with the incumbent, instead of relaxing further.
    """
    params = params or ExactParams()
    nv = instance.n_vehicles
    if nv > LSHAPED_GUARD:
        raise SizeGuardError(
            f"branch-and-cut on |V|={nv} refused (limit {LSHAPED_GUARD})")
    t0 = time.perf_counter()
    objective = Objective(instance, smp)
    n, exists = objective.n, objective.exists
    c = instance.cycle_time
    master = _Master(instance, objective.weights, n, root_bound(objective))
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

    def consider(order, key):
        nonlocal best_key, best_order, best_tu
        if best_key is None or key < best_key:
            best_key = key
            best_order = order
            best_tu = objective.tu(key)

    # warm incumbent from the greedy constructor: pruning starts working
    # at the root for the price of one evaluation
    greedy = as_order(construct(instance)[0])
    consider(greedy, objective.keys([greedy])[0])

    exhaust_limit = max(
        (u for u in range(_EXHAUST_CAP + 1)
         if math.factorial(u) * exists.shape[1] <= _EXHAUST_BUDGET), default=0)

    def close_exhaustively(fix) -> bool:
        """Search the completions the fixing matrix allows for one below
        the incumbent when few vehicles remain loose; exact, and cheaper
        than relaxing on."""
        if nv - np.count_nonzero(fix == 1) > exhaust_limit:
            return False
        found = _search(objective, fix, best_key)
        if found is not None:
            consider(*found)
        stats.leaf_exhausts += 1
        return True

    # bound, -depth, insertion, fixing matrix
    heap = [(0.0, 0, 0, np.full((nv, nv), -1, dtype=np.int8))]
    counter = 1

    def open_bound():
        return min(heap[0][0] if heap else best_tu, best_tu)

    while heap:
        if params.time_limit is not None and \
                time.perf_counter() - t0 > params.time_limit:
            stats.status = "time_limit"
            break
        bound, depth, _, fix = heappop(heap)
        if bound >= best_tu - margin:
            break
        stats.nodes += 1
        if close_exhaustively(fix):
            if open_bound() >= best_tu:
                break
            continue
        res = master.solve(fix)
        stats.lp_solves += 1
        is_root = depth == 0
        if is_root and res.status == OPTIMAL:
            stats.root_bounds.append(res.objective)
        # lazy-cut loop: while the node optimum is an assignment, make
        # the thetas honest for it, then re-solve
        integral_done = False
        while res.status == OPTIMAL:
            x = res.x[:master.nx].reshape(nv, nv)
            frac = np.minimum(x, 1.0 - x)
            order = _integral_order(x, frac)
            if order is None:
                break
            ticks = objective.ticks([order])
            consider(order, objective._weigh(ticks)[0])
            cols = np.flatnonzero(res.x[master.nx:] < ticks[0] / TICKS_PER_TU - viol_tol)
            # every violated scenario's cut in one pass over the chains,
            # each checked tight at the anchor exactly, in ticks
            pos = np.array(order)
            eff = objective.scenario_eta[:, cols] + c
            _, _, coeffs, offsets, overload = _cuts(eff, eff[pos], c, objective.cap,
                                                    objective.regenerative)
            if (coeffs[:, pos, np.arange(nv)].sum(axis=1) + offsets != overload).any():
                raise MMSeqError("optimality cut is not tight at its anchor")
            added = 0
            for j, g, offset in zip(cols.tolist(), coeffs, offsets):
                cut = _as_cut(Scenario.from_flags(exists[:, j]), g, offset)
                if master.add_cut(j, cut):
                    stats.cut_pool.append(cut)
                    added += 1
            if not added:
                integral_done = True
                break
            stats.cuts_added += added
            res = master.solve(fix)
            stats.lp_solves += 1
            if is_root:
                stats.root_bounds.append(res.objective)
        if res.status == OPTIMAL and not integral_done:
            node_bound = sharpen(res.objective)
            if node_bound < best_tu - margin:
                pick = _branch_pick(frac)
                if pick is not None:
                    for val in (1, 0):      # the committing branch first
                        child = fix.copy()
                        child[pick] = val
                        heappush(heap, (node_bound, depth - 1, counter, child))
                        counter += 1
        master.maybe_evict()
        if open_bound() >= best_tu:
            break

    # without the time limit every exit has proved the incumbent optimal
    lb_final = open_bound() if stats.status == "time_limit" else best_tu
    stats.wall_time = time.perf_counter() - t0
    return LShapedResult(Sequence(best_order), lb_final, best_tu, stats)
