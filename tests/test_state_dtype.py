"""The state dtype of the station recursion: int32 when the instance's
tick bound max_k(l_k + c + sum_v |p_vk - c|) is below 2**31, else
int64, with the same results as the pure-Python reference either way."""

import itertools

import numpy as np
import pytest

from mmseq.evaluator import (Objective, evaluate, partial_reevaluate,
                             vehicle_times)
from mmseq.exact import enumerate_optimal, root_bound
from mmseq.instance import (HIGH_RISK, LOW_RISK, MAX_DURATION, Instance,
                            Station, Vehicle, generate, preset_config, validate)
from mmseq.moves import MOVE_KINDS, SWAP, Move, apply_to_order
from mmseq.scenario import Sample, sample
from mmseq.seeding import make_rng
from mmseq.timeunits import TICKS_PER_TU

from conftest import random_order


def tick_instance(c: int, lengths, times, seed: int) -> Instance:
    """An instance in raw ticks; every other vehicle may fail."""
    rng = make_rng(seed)
    vehicles = []
    for v, p in enumerate(times):
        prob = round(float(rng.uniform(0.2, 0.45)), 4) if v % 2 else 0.0
        vehicles.append(Vehicle(v, v == 0, tuple(p), prob,
                                HIGH_RISK if prob else LOW_RISK))
    inst = Instance(c, tuple(Station(k, l) for k, l in enumerate(lengths)),
                    tuple(vehicles))
    assert not validate(inst)
    return inst


def long_times() -> Instance:
    """Processing times up to MAX_DURATION: eta alone overflows int32."""
    rng = make_rng(3)
    c = 4 * 10**9
    times = [(int(rng.integers(10**9, MAX_DURATION + 1)),
              int(rng.integers(10**9, MAX_DURATION + 1))) for _ in range(6)]
    return tick_instance(c, (6 * 10**9, 9 * 10**9), times, 3)


def long_station() -> Instance:
    """A station longer than 2**31 ticks and short processing times: only
    the l + c term of the bound rules int32 out."""
    rng = make_rng(4)
    c = 5 * TICKS_PER_TU
    times = [tuple(int(rng.integers(1, 11)) * TICKS_PER_TU for _ in range(2))
             for _ in range(6)]
    return tick_instance(c, (3 * 10**9, c + 3 * TICKS_PER_TU), times, 4)


def at_bound(bound: int) -> Instance:
    """One station whose tick bound l + c + sum_v |p - c| is bound."""
    c, length = TICKS_PER_TU, 10**9
    return tick_instance(c, (length,), [(bound - length - c,), (c,), (2 * c,)], 5)


CASES = {
    "large-200": (lambda: generate(preset_config(200, seed=8, size_class="large")),
                  np.int32),
    "small-6": (lambda: generate(preset_config(6, seed=103, size_class="small")),
                np.int32),
    "long-times": (long_times, np.int64),
    "long-station": (long_station, np.int64),
}
SMALL_CASES = ["small-6", "long-times", "long-station"]


def case(name):
    make, dtype = CASES[name]
    inst = make()
    return inst, sample(inst, 12, seed=7), dtype


def test_bound_edge_picks_the_dtype():
    for bound, dtype in ((2**31 - 1, np.int32), (2**31, np.int64)):
        inst = at_bound(bound)
        assert Objective(inst, Sample.degenerate(inst)).eta.dtype == dtype
    # at the edge the int32 state is still exact
    inst = at_bound(2**31 - 1)
    smp = sample(inst, 20, seed=1)
    orders = list(itertools.permutations(range(3)))
    assert Objective(inst, smp, True).ticks(orders).tolist() == [
        [evaluate(inst, o, s).total_overload for s, _ in smp.unique] for o in orders]


@pytest.mark.parametrize("name", CASES)
def test_state_arrays_take_the_dtype_of_the_bound(name):
    inst, smp, dtype = case(name)
    objective = Objective(inst, smp)
    traj = objective.trajectory(tuple(range(inst.n_vehicles)))
    for array in (objective.cap, objective.eta, objective.scenario_eta, traj.z, traj.w):
        assert array.dtype == dtype
    assert objective.ticks([traj.order]).dtype == np.int64


@pytest.mark.parametrize("regen", [True, False])
@pytest.mark.parametrize("name", CASES)
def test_ticks_match_the_reference(name, regen):
    inst, smp, _ = case(name)
    rng = make_rng(8)
    orders = [random_order(rng, inst.n_vehicles) for _ in range(3)]
    assert Objective(inst, smp, regen).ticks(orders).tolist() == [
        [evaluate(inst, o, s, regenerative=regen).total_overload
         for s, _ in smp.unique] for o in orders]


def entry_states(inst, order, smp, regen):
    """Entry state z[t] of every (scenario, station) row, per position."""
    runs = [evaluate(inst, order, s, regenerative=regen).z for s, _ in smp.unique]
    return [tuple(z[k][t] for z in runs for k in range(inst.n_stations))
            for t in range(len(order))]


def reference_windows(old, new, move):
    """The windows a probe scans: from t1, up to the first position after
    t2, or inside a swap's interior (t1, t2), whose entry states all
    equal the old ones; a bridge resumes at t2."""
    windows, a, t = [], move.t1, move.t1
    while t < len(new):
        if ((t > move.t2 or move.kind == SWAP and move.t1 < t < move.t2)
                and new[t] == old[t]):
            windows.append((a, t))
            if t > move.t2:
                return tuple(windows)
            a = t = move.t2
        t += 1
    return tuple(windows + [(a, len(new))])


def reference_key(inst, order, smp, regen):
    return sum(count * evaluate(inst, order, s, regenerative=regen).total_overload
               for s, count in smp.unique)


@pytest.mark.parametrize("regen", [True, False])
@pytest.mark.parametrize("name", CASES)
def test_probes_match_the_reference(name, regen):
    inst, smp, _ = case(name)
    n = inst.n_vehicles
    rng = make_rng(9)
    traj = Objective(inst, smp, regen).trajectory(random_order(rng, n))
    assert traj.value == reference_key(inst, traj.order, smp, regen)
    for _ in range(8):
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        move = Move(MOVE_KINDS[int(rng.integers(0, 4))], a, b)
        probe, delta = partial_reevaluate(traj, move)
        new = apply_to_order(traj.order, move)
        windows = reference_windows(entry_states(inst, traj.order, smp, regen),
                                    entry_states(inst, new, smp, regen), move)
        assert probe.windows == windows
        assert probe.recomputed_positions == sum(b - a for a, b in windows) * inst.n_stations
        assert delta == (reference_key(inst, new, smp, regen)
                         - reference_key(inst, traj.order, smp, regen))
        if rng.random() < 0.5:
            traj.commit(probe)
            assert traj.value == reference_key(inst, new, smp, regen)


@pytest.mark.parametrize("regen", [True, False])
@pytest.mark.parametrize("name", CASES)
def test_root_bound_matches_the_reference(name, regen):
    inst, smp, _ = case(name)
    c = inst.cycle_time
    want = []
    for scenario, _ in smp.unique:
        total = 0
        for k, row in enumerate(vehicle_times(inst, scenario)):
            cap = inst.stations[k].length - c
            conserved = sum(max(p - c, -cap) for p in row) - (0 if regen else cap)
            total += max(conserved, sum(max(p - c - cap, 0) for p in row))
        want.append(total)
    assert root_bound(Objective(inst, smp, regen)).tolist() == want


@pytest.mark.parametrize("regen", [True, False])
@pytest.mark.parametrize("name", SMALL_CASES)
def test_enumeration_matches_brute_force(name, regen):
    inst, smp, _ = case(name)
    keys = {o: reference_key(inst, o, smp, regen)
            for o in itertools.permutations(range(inst.n_vehicles))}
    best = min(keys, key=keys.__getitem__)      # the first argmin in lex order
    seq, value = enumerate_optimal(inst, smp, regen)
    assert seq.order == best
    assert value == keys[best] / (smp.n * TICKS_PER_TU)
