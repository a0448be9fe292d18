"""Shared fixtures: a hand-checkable single-station window, the
six-vehicle worked example, deterministic random-instance factories,
and a fresh interpreter for import-time checks."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import mmseq
from mmseq.evaluator import EvalState, evaluate
from mmseq.instance import HIGH_RISK, LOW_RISK, Instance, Station, Vehicle
from mmseq.scenario import Scenario
from mmseq.seeding import make_rng
from mmseq.timeunits import TICKS_PER_TU

# Five launches through one station, cycle 7 TU, worker span 10 TU.
# Small enough that the whole trajectory can be checked by hand.
WINDOW_B_TU = (9, 5, 5, 9, 9)
WINDOW_C_TU = 7
WINDOW_L_TU = 10


def run_fresh(code: str) -> str:
    """Standard output of `code` run by a new interpreter that imports
    this checkout's mmseq."""
    src = os.path.dirname(os.path.dirname(mmseq.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout


def window_ticks():
    b = [x * TICKS_PER_TU for x in WINDOW_B_TU]
    return b, WINDOW_C_TU * TICKS_PER_TU, WINDOW_L_TU * TICKS_PER_TU


def window_instance() -> Instance:
    """The window data as a 5-vehicle, single-station instance."""
    vehicles = [Vehicle.of(i, False, (p,)) for i, p in enumerate(WINDOW_B_TU)]
    return Instance.of(WINDOW_C_TU, (WINDOW_L_TU,), vehicles)


# Six vehicles (A..F; A and B electric) on two stations, cycle 7 TU,
# lengths 20 and 10 TU.  The constructive heuristic's worked example.
WORKED_DATA = (
    ("A", True, (15, 4)),
    ("B", True, (16, 3)),
    ("C", False, (2, 10)),
    ("D", False, (3, 8)),
    ("E", False, (2, 9)),
    ("F", False, (4, 7)),
)
WORKED_LETTERS = tuple(row[0] for row in WORKED_DATA)


def worked_example() -> Instance:
    vehicles = [Vehicle.of(i, ev, ps)
                for i, (_, ev, ps) in enumerate(WORKED_DATA)]
    return Instance.of(7, (20, 10), vehicles)


def letters(order) -> str:
    return "-".join(WORKED_LETTERS[v] for v in order)


def random_instance(rng, n: int | None = None, n_stations: int | None = None,
                    with_failures: bool = True) -> Instance:
    """A small random instance on the tick grid; always passes validate()."""
    n = int(rng.integers(2, 9)) if n is None else n
    K = int(rng.integers(1, 4)) if n_stations is None else n_stations
    c = int(rng.integers(4, 13)) * TICKS_PER_TU // 2
    stations = tuple(
        Station(k, c + int(rng.integers(0, 6)) * TICKS_PER_TU // 2)
        for k in range(K))
    vehicles = []
    for v in range(n):
        times = tuple(int(rng.integers(1, 2 * c // TICKS_PER_TU * 10 + 1))
                      * TICKS_PER_TU // 10 for _ in range(K))
        prob = float(rng.uniform(0.05, 0.45)) if (
            with_failures and rng.random() < 0.5) else 0.0
        vehicles.append(Vehicle(
            id=v, is_ev=bool(rng.random() < 0.3), processing_times=times,
            failure_prob=round(prob, 4),
            risk_class=HIGH_RISK if prob >= 0.2 else LOW_RISK))
    return Instance(c, stations, tuple(vehicles))


def random_scenario(rng, n: int) -> Scenario:
    return Scenario(tuple(int(rng.integers(0, 2)) for _ in range(n)))


def random_order(rng, n: int) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.permutation(n))


def regenerative_trace(inst: Instance, order, scenario=None,
                       regen: bool = True) -> EvalState:
    """The reference trace at the regenerative end, which every batched
    path solves: evaluate with that end, or (regen False) with an open
    end lifted onto it.  The two ends differ only at the last position,
    where the open end charges max(s - cap, 0) and the regenerative one
    all of s = max(z + eta, 0), so each station's last overload gains
    its exit state min(s, cap)."""
    ev = evaluate(inst, order, scenario, regenerative=regen)
    if not regen:
        ev.regenerative = True
        for k, station in enumerate(inst.stations):
            s = max(ev.z[k][-1] + ev.eta[k][-1], 0)
            exit_state = min(s, station.length - inst.cycle_time)
            ev.w[k][-1] += exit_state
            ev.station_overload[k] += exit_state
            ev.total_overload += exit_state
    return ev


@pytest.fixture
def rng():
    return make_rng(12345)


def as_xmat(order):
    """Permutation order -> binary vehicle-by-position matrix."""
    n = len(order)
    x = np.zeros((n, n))
    for t, v in enumerate(order):
        x[v][t] = 1.0
    return x
