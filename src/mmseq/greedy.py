"""Constructive heuristic: category-patterned, three-stage candidate filter.

EV positions are fixed up front: position 0 is an EV and the gaps
between consecutive EVs are floor(T / #EV) or that plus one, the
fractional part resolved by seeded coin flips.  Each position is then
filled from the demanded category by a three-stage cascade: least new
work overload, then least new idle time, then highest utilization
weight

    weight(v) = sum_k p_kv * (sum_{i in U} p_ki) / (|K| * |U| * c)

over the unassigned set U, with ties broken by lowest vehicle id.  The
first position skips the overload stage (nothing can overload yet);
the final position's overload check uses the regenerative border.
Both filters read one evaluator.station_step over candidates x
stations on the no-failure dynamics: overload is its w, idle time is
s - (z + eta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evaluator import Sequence, station_step
from .instance import Instance
from .seeding import derive_seed, make_rng
from .timeunits import TICKS_PER_TU


def utilization_weight(instance: Instance, unassigned, v: int) -> float:
    """Processing-time weight of v against the unassigned pool (TU units)."""
    pool = list(unassigned)
    if not pool:
        raise ValueError("unassigned set is empty")
    num = 0
    for k in range(instance.n_stations):
        pool_sum = sum(instance.processing(k, i) for i in pool)
        num += instance.processing(k, v) * pool_sum
    denom = instance.n_stations * len(pool) * instance.cycle_time
    return num / denom / TICKS_PER_TU


def ev_position_pattern(ev_count: int, total: int, seed: int) -> tuple[bool, ...]:
    """Boolean mask of EV positions: first position EV, gaps floor/ceil of
    total/ev_count with the fractional part drawn Bernoulli; gaps shrink
    to floor only when needed to fit the remaining EVs."""
    if not (0 <= ev_count <= total):
        raise ValueError("need 0 <= ev_count <= total")
    mask = [False] * total
    if ev_count == 0:
        return tuple(mask)
    rng = make_rng(seed)
    base = total // ev_count
    frac = total / ev_count - base
    pos = 0
    mask[0] = True
    for j in range(1, ev_count):
        gap = base + (1 if frac > 0 and rng.random() < frac else 0)
        # keep room for the EVs still to be placed
        pos = min(pos + gap, (total - 1) - (ev_count - 1 - j) * base)
        mask[pos] = True
    return tuple(mask)


@dataclass(frozen=True)
class GreedyTraceRow:
    position: int
    category: str              # "ev" or "non_ev"
    n_candidates: int
    n_after_overload: int
    n_after_idle: int
    chosen: int


@dataclass(frozen=True)
class GreedyTrace:
    rows: tuple[GreedyTraceRow, ...]

    def to_csv(self) -> str:
        lines = ["position,category,candidates,after_overload,after_idle,chosen"]
        for r in self.rows:
            lines.append(f"{r.position},{r.category},{r.n_candidates},"
                         f"{r.n_after_overload},{r.n_after_idle},{r.chosen}")
        return "\n".join(lines) + "\n"


def construct(instance: Instance, seed: int = 0) -> tuple[Sequence, GreedyTrace]:
    """Build a full sequence (no-failure dynamics).  Only the EV pattern
    draws randomness; everything else is deterministic with id tie-breaks."""
    n = instance.n_vehicles
    c = instance.cycle_time
    cap = np.array([st.length - c for st in instance.stations], dtype=np.int64)
    eta = np.array([veh.processing_times for veh in instance.vehicles],
                   dtype=np.int64) - c
    ev_total = sum(1 for veh in instance.vehicles if veh.is_ev)

    pattern = list(ev_position_pattern(ev_total, n, derive_seed(seed, 0)))
    unassigned = set(range(n))
    z = np.zeros(len(cap), dtype=np.int64)
    order = []
    rows = []
    last = n - 1

    for t in range(n):
        want_ev = pattern[t]
        cands = [v for v in sorted(unassigned)
                 if instance.vehicles[v].is_ev == want_ev]
        if not cands:
            # demanded category exhausted: fall back and redistribute the
            # remaining EVs over the remaining positions
            want_ev = not want_ev
            cands = sorted(unassigned)
            evs_left = sum(1 for v in unassigned if instance.vehicles[v].is_ev)
            evs_left -= 1 if want_ev else 0
            tail = ev_position_pattern(evs_left, n - t - 1, derive_seed(seed, 1, t))
            pattern[t + 1:] = list(tail)

        # one recursion step per candidate (rows) and station (columns)
        cand_eta = eta[cands]
        s, z_next, w = station_step(z, cand_eta, cap, t == last)
        keep = np.ones(len(cands), dtype=bool)
        if t > 0:
            overload = w.sum(axis=1)
            keep = overload == overload.min()
        n_after_overload = int(keep.sum())
        if t < last:
            idle = (s - (z + cand_eta)).sum(axis=1)
            keep &= idle == idle[keep].min()
        cands_idle = [v for v, k in zip(cands, keep.tolist()) if k]

        chosen = max(cands_idle,
                     key=lambda v: (utilization_weight(instance, unassigned, v), -v))
        order.append(chosen)
        unassigned.remove(chosen)
        rows.append(GreedyTraceRow(
            position=t, category="ev" if want_ev else "non_ev",
            n_candidates=len(cands), n_after_overload=n_after_overload,
            n_after_idle=len(cands_idle), chosen=chosen))
        z = z_next[cands.index(chosen)]

    if sorted(order) != list(range(n)):
        raise ConfigError("constructive heuristic failed to place every vehicle")
    return Sequence(tuple(order)), GreedyTrace(tuple(rows))
