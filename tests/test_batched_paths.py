"""Every batched path on evaluator.station_step against the per-scenario
reference recursion evaluate_station, run with the regenerative end the
batched paths solve or with an open end lifted onto it (regen), on
instances with a station whose length equals the cycle time (cap 0);
and the operands the hot callers hand the step."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mmseq import evaluator, exact
from mmseq.evaluator import Objective, evaluate_station, partial_reevaluate
from mmseq.exact import _cuts, enumerate_optimal
from mmseq.greedy import (GreedyTraceRow, construct, ev_position_pattern,
                          utilization_weight)
from mmseq.instance import generate, preset_config
from mmseq.moves import MOVE_KINDS, SWAP, Move, apply_to_order
from mmseq.scenario import Sample, sample
from mmseq.seeding import derive_seed, make_rng
from mmseq.timeunits import TICKS_PER_TU

from conftest import (random_instance, random_order, random_scenario,
                      regenerative_trace)


def flat_instance(rng, n=None):
    """A random instance in which one station's length is the cycle time."""
    inst = random_instance(rng, n=n, n_stations=int(rng.integers(2, 4)))
    k = int(rng.integers(inst.n_stations))
    stations = list(inst.stations)
    stations[k] = dataclasses.replace(stations[k], length=inst.cycle_time)
    return dataclasses.replace(inst, stations=tuple(stations))


def some_sample(rng, n: int) -> Sample:
    """One to five random scenarios, the first drawn three times."""
    scenarios = [random_scenario(rng, n) for _ in range(int(rng.integers(1, 6)))]
    return Sample.from_scenarios(scenarios + scenarios[:1] * 2)


def reference_ticks(inst, order, scenario, regen) -> int:
    return regenerative_trace(inst, order, scenario, regen).total_overload


def reference_key(inst, order, smp, regen) -> int:
    return sum(count * reference_ticks(inst, order, s, regen) for s, count in smp.unique)


# ---------------------------------------------------------------------------
# the paths

@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_objective_ticks_match_the_reference(seed, regen):
    rng = make_rng(seed)
    inst = flat_instance(rng)
    n = inst.n_vehicles
    smp = some_sample(rng, n)
    orders = [random_order(rng, n) for _ in range(3)]
    assert Objective(inst, smp).ticks(orders).tolist() == [
        [reference_ticks(inst, o, s, regen) for s, _ in smp.unique] for o in orders]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("regen", [True, False])
def test_probes_and_commits_match_the_reference(seed, regen):
    rng = make_rng(seed)
    inst = flat_instance(rng, n=int(rng.integers(12, 31)))
    n = inst.n_vehicles
    smp = some_sample(rng, n)
    traj = Objective(inst, smp).trajectory(random_order(rng, n))
    for _ in range(40):
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        move = Move(MOVE_KINDS[int(rng.integers(4))], a, b)
        moved = apply_to_order(traj.order, move)
        exact_delta = (reference_key(inst, moved, smp, regen)
                       - reference_key(inst, traj.order, smp, regen))
        # no limit, a limit the probe must pass every check under, and a
        # limit below the delta
        limit = (None, 2**62, exact_delta - 1)[int(rng.integers(3))]
        probe, delta = partial_reevaluate(traj, move, limit)
        assert probe.order == moved
        # the scanned windows hold the moved order's reference trace
        for j, (scenario, _) in enumerate(smp.unique):
            ref = regenerative_trace(inst, moved, scenario, regen)
            for lo, hi in probe.windows:
                assert traj._wbuf[lo:hi, j, :].T.tolist() == [w[lo:hi] for w in ref.w]
                assert traj._zbuf[lo + 1:min(hi + 1, n), j, :].T.tolist() == [
                    z[lo + 1:hi + 1] for z in ref.z]
        if probe.pruned:
            assert limit < delta <= exact_delta
            continue
        assert delta == exact_delta
        if rng.random() < 0.5:
            traj.commit(probe)
            assert traj.value == reference_key(inst, moved, smp, regen)
            for j, (scenario, _) in enumerate(smp.unique):
                ref = regenerative_trace(inst, moved, scenario, regen)
                assert traj.z[:n, j, :].T.tolist() == ref.z
                assert traj.w[:, j, :].T.tolist() == ref.w


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("regen", [True, False])
def test_enumeration_finds_the_reference_argmin(seed, regen):
    # six vehicles: one node expanded, then a tail of five open positions
    rng = make_rng(100 + seed)
    inst = flat_instance(rng, n=6)
    smp = some_sample(rng, 6)
    keys = {order: reference_key(inst, order, smp, regen)
            for order in itertools.permutations(range(6))}
    best = min(keys, key=lambda order: (keys[order], order))
    order, value = enumerate_optimal(inst, smp)
    assert order.order == best
    assert value == keys[best] / (smp.n * TICKS_PER_TU)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_cut_overloads_match_the_reference(seed, regen):
    rng = make_rng(seed)
    inst = flat_instance(rng)
    n, c = inst.n_vehicles, inst.cycle_time
    smp = some_sample(rng, n)
    objective = Objective(inst, smp)
    order = random_order(rng, n)
    pos = np.array(order)
    eff = objective.scenario_eta + c                   # every scenario column
    want = [reference_ticks(inst, order, s, regen) for s, _ in smp.unique]
    for anchor in (eff[pos], eff[pos].astype(float)):
        _, _, coeffs, offsets, overload = _cuts(eff, anchor, c, objective.cap)
        assert overload.tolist() == want
        assert (coeffs[:, pos, np.arange(n)].sum(axis=1) + offsets).tolist() == want


def reference_construct(inst, seed: int) -> tuple:
    """construct's three-stage cascade, priced by evaluate_station per
    candidate and station and weighed by utilization_weight."""
    n, c = inst.n_vehicles, inst.cycle_time
    times = inst.processing_rows()
    lengths = [station.length for station in inst.stations]
    is_ev = [veh.is_ev for veh in inst.vehicles]
    pattern = list(ev_position_pattern(sum(is_ev), n, derive_seed(seed, 0)))
    unassigned, z, rows = set(range(n)), [0] * inst.n_stations, []
    for t in range(n):
        want_ev = pattern[t]
        cands = [v for v in sorted(unassigned) if is_ev[v] == want_ev]
        if not cands:
            want_ev = not want_ev
            cands = sorted(unassigned)
            evs_left = sum(is_ev[v] for v in unassigned) - want_ev
            pattern[t + 1:] = ev_position_pattern(evs_left, n - t - 1,
                                                  derive_seed(seed, 1, t))
        # the entry state plus the vehicle's time as a one-position chain
        # gives its overload (the regenerative border at the last
        # position); followed by a neutral vehicle, its next state and idle
        step = {}
        for v in cands:
            chains = [(evaluate_station([zk + times[k][v]], c, lengths[k], t == n - 1),
                       evaluate_station([zk + times[k][v], c], c, lengths[k], False))
                      for k, zk in enumerate(z)]
            step[v] = (sum(one.total_overload for one, _ in chains),
                       sum(two.idle[1] for _, two in chains),
                       [two.z[1] for _, two in chains])
        keep = cands
        if t > 0:
            least = min(step[v][0] for v in keep)
            keep = [v for v in keep if step[v][0] == least]
        after_overload = len(keep)
        if t < n - 1:
            least = min(step[v][1] for v in keep)
            keep = [v for v in keep if step[v][1] == least]
        chosen = max(keep, key=lambda v: (utilization_weight(inst, unassigned, v), -v))
        rows.append(GreedyTraceRow(t, "ev" if want_ev else "non_ev", len(cands),
                                   after_overload, len(keep), chosen))
        unassigned.remove(chosen)
        z = step[chosen][2]
    return tuple(rows)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_greedy_filters_and_weights_match_the_reference(seed):
    rng = make_rng(seed)
    inst = flat_instance(rng)
    built_seed = int(rng.integers(1 << 30))
    order, trace = construct(inst, built_seed)
    assert trace.rows == reference_construct(inst, built_seed)
    assert order.order == tuple(row.chosen for row in trace.rows)


@pytest.mark.parametrize("size_class", ["small", "medium", "large"])
def test_greedy_matches_the_reference_on_a_preset(size_class):
    inst = generate(preset_config(40, seed=8, size_class=size_class))
    for seed in (0, 1, 7):
        assert construct(inst, seed)[1].rows == reference_construct(inst, seed)


# ---------------------------------------------------------------------------
# the operand contract

def test_hot_callers_pass_full_shape_cap_and_floor(monkeypatch):
    # a (K,) cap or a Python-scalar floor still computes the right
    # values, only on numpy's short-inner-loop path, so the values tests
    # above cannot see it; this pins the operands instead
    step = evaluator.station_step
    calls = []

    def checked(z, eta, cap, zero, out=(None, None)):
        shape = np.broadcast_shapes(np.shape(z), np.shape(eta))
        for operand in (cap, zero):
            assert isinstance(operand, np.ndarray)
            assert operand.shape == shape
            assert operand.dtype == z.dtype
        assert not zero.any()
        calls.append(shape)
        return step(z, eta, cap, zero, out=out)

    monkeypatch.setattr(evaluator, "station_step", checked)
    monkeypatch.setattr(exact, "station_step", checked)
    inst = generate(preset_config(8, seed=103, size_class="small"))
    smp = sample(inst, 60, seed=2)
    objective = Objective(inst, smp)
    order = tuple(range(8))
    for run in (lambda: objective.ticks([order, order[::-1]]),
                lambda: partial_reevaluate(objective.trajectory(order), Move(SWAP, 1, 5)),
                lambda: enumerate_optimal(inst, smp)):
        calls.clear()
        run()
        assert calls
