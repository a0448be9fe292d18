"""Station recursion, scenario transforms, and partial reevaluation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mmseq.errors import StaleStateError
from mmseq.evaluator import (IMPROVED_NEUTRAL, REMOVAL, STANDARD_ZERO,
                             Objective, Sequence, effective_times, evaluate,
                             evaluate_expected, evaluate_station,
                             partial_reevaluate, trace_csv, vehicle_times)
from mmseq.instance import generate, preset_config
from mmseq.moves import (INSERT_BACKWARD, INSERT_FORWARD, INVERSION, MOVE_KINDS,
                         SWAP, Move, apply_to_order)
from mmseq.scenario import Sample, Scenario, sample
from mmseq.seeding import make_rng
from mmseq.timeunits import TICKS_PER_TU

from conftest import (random_instance, random_order, random_scenario,
                      regenerative_trace, window_instance, window_ticks,
                      worked_example)

TU = TICKS_PER_TU


# ---------------------------------------------------------------------------
# station recursion

def test_window_trace_non_regenerative():
    b, c, l = window_ticks()
    ev = evaluate_station(b, c, l, regenerative=False)
    assert ev.z == [0, 2 * TU, 0, 0, 2 * TU]
    assert ev.idle == [0, 0, 0, 2 * TU, 0]
    assert ev.w == [0, 0, 0, 0, 1 * TU]
    assert ev.total_overload == 1 * TU
    assert ev.total_idle == 2 * TU


def test_window_trace_regenerative():
    b, c, l = window_ticks()
    ev = evaluate_station(b, c, l, regenerative=True)
    # closing the horizon turns the last slack into overload: 2 + 9 - 7
    assert ev.w == [0, 0, 0, 0, 4 * TU]
    assert ev.total_overload == 4 * TU


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_the_lifted_open_end_is_the_regenerative_trace(seed):
    # the identity regenerative_trace's open end rests on: only the last
    # overload differs, by each station's exit state
    rng = make_rng(seed)
    inst = random_instance(rng)
    order = random_order(rng, inst.n_vehicles)
    scen = random_scenario(rng, inst.n_vehicles)
    assert regenerative_trace(inst, order, scen, False) == evaluate(inst, order, scen)


def test_neutral_sequence_is_silent():
    ev = evaluate_station([7 * TU] * 6, 7 * TU, 10 * TU)
    assert ev.z == [0] * 6 and ev.w == [0] * 6 and ev.idle == [0] * 6


@given(st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=12),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=0, max_value=80),
       st.booleans())
def test_station_trajectory_invariants(b, c, extra, regen):
    length = c + extra
    ev = evaluate_station(b, c, length, regenerative=regen)
    T = len(b)
    cap = length - c
    for t in range(T):
        assert 0 <= ev.z[t] <= cap
        assert ev.w[t] >= 0
        assert ev.idle[t] >= 0
        if ev.w[t] > 0 and t < T - 1:
            assert ev.idle[t + 1] == 0
            assert ev.z[t + 1] == cap
    assert ev.total_overload == sum(ev.w)
    assert ev.total_idle == sum(ev.idle)


# ---------------------------------------------------------------------------
# scenario transforms

def test_effective_times_all_exist():
    inst = worked_example()
    order = (0, 2, 5, 1, 4, 3)
    rows = effective_times(inst, order, Scenario.all_exist(6))
    for k in range(2):
        assert rows[k] == [inst.processing(k, v) for v in order]


def test_effective_times_failed_vehicle_neutralized():
    inst = random_instance(make_rng(3), n=5, n_stations=2)
    scen = Scenario((1, 0, 1, 1, 1))
    rows = effective_times(inst, tuple(range(5)), scen, IMPROVED_NEUTRAL)
    for k in range(2):
        assert rows[k][1] == inst.cycle_time
    rows0 = effective_times(inst, tuple(range(5)), scen, STANDARD_ZERO)
    for k in range(2):
        assert rows0[k][1] == 0
    removed = effective_times(inst, tuple(range(5)), scen, REMOVAL)
    assert all(len(r) == 4 for r in removed)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_vehicle_times_follow_the_failure_rule(seed):
    rng = make_rng(seed)
    inst = random_instance(rng)
    scen = random_scenario(rng, inst.n_vehicles)
    order = random_order(rng, inst.n_vehicles)
    for transform, fail_time in ((STANDARD_ZERO, 0), (IMPROVED_NEUTRAL, inst.cycle_time)):
        rows = vehicle_times(inst, scen, transform)
        assert rows == [[veh.processing_times[k] if e else fail_time
                         for veh, e in zip(inst.vehicles, scen.exists)]
                        for k in range(inst.n_stations)]
        assert effective_times(inst, order, scen, transform) == [
            [row[v] for v in order] for row in rows]
    assert effective_times(inst, order, scen, REMOVAL) == [
        [veh_row[v] for v in order if scen.exists[v]]
        for veh_row in vehicle_times(inst, scen, IMPROVED_NEUTRAL)]


def test_effective_times_rejects_unknown_transform():
    inst = window_instance()
    with pytest.raises(ValueError):
        effective_times(inst, tuple(range(5)), Scenario.all_exist(5), "drop")


def removal_total(inst, order, scen, regenerative=True) -> int:
    """Independent oracle: evaluate the surviving subsequence directly."""
    rows = effective_times(inst, order, scen, REMOVAL)
    total = 0
    for k, b in enumerate(rows):
        ev = evaluate_station(b, inst.cycle_time, inst.stations[k].length,
                              regenerative)
        total += ev.total_overload
    return total


def test_neutralizing_equals_removal_small_sweep():
    rng = make_rng(17)
    for _ in range(15):
        inst = random_instance(rng)
        n = inst.n_vehicles
        order = random_order(rng, n)
        for _ in range(6):
            scen = random_scenario(rng, n)
            for regen in (True, False):
                got = evaluate(inst, order, scen, regenerative=regen)
                assert got.total_overload == removal_total(
                    inst, order, scen, regen)


# ---------------------------------------------------------------------------
# whole-line evaluation

def test_worked_example_objective():
    inst = worked_example()
    state = evaluate(inst, (0, 2, 5, 1, 4, 3))
    assert state.total_overload == 3 * TU
    assert state.station_overload == [0, 3 * TU]
    assert state.w[1][5] == 3 * TU
    assert sum(x > 0 for row in state.w for x in row) == 1


def test_all_failed_scenario_is_free():
    inst = worked_example()
    state = evaluate(inst, tuple(range(6)), Scenario((0,) * 6))
    assert state.total_overload == 0
    assert state.total_idle == 0


def test_sequence_must_be_a_permutation():
    with pytest.raises(ValueError):
        Sequence((0, 0, 1))
    inst = worked_example()
    with pytest.raises(ValueError):
        evaluate(inst, (0, 1, 2))


def test_orders_that_are_not_permutations_are_refused():
    inst = generate(preset_config(8, seed=103, size_class="small"))
    smp = sample(inst, 50, seed=1)
    objective = Objective(inst, smp)
    good = tuple(range(8))
    with pytest.raises(ValueError, match="2 positions, the instance has 8 vehicles"):
        evaluate_expected(inst, (0, 1), smp)
    for bad in ((0, 0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 5, 6, 8),
                (-1, 0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 5, 6, -1)):
        with pytest.raises(ValueError, match="order 0 of the batch is not a permutation"):
            evaluate_expected(inst, bad, smp)
        # evaluate feeds trace_csv, so a trace of a non-permutation is refused too
        with pytest.raises(ValueError, match="order 0 of the batch is not a permutation"):
            evaluate(inst, bad)
        with pytest.raises(ValueError, match="order 1 of the batch is not a permutation"):
            objective.keys([good, bad])
        with pytest.raises(ValueError, match="not a permutation"):
            objective.trajectory(bad)
    with pytest.raises(ValueError, match=r"2-D batch .* shape \(8,\)"):
        objective.ticks(good)
    # truncated to ints, these would read as the order 0..7
    with pytest.raises(ValueError, match="integer vehicle ids, not float64"):
        evaluate_expected(inst, (0.5, 1, 2, 3, 4, 5, 6, 7.9), smp)
    with pytest.raises(ValueError, match="integer vehicle ids, not float64"):
        evaluate(inst, (0.0, 1, 2, 3, 4, 5, 6, 7))
    with pytest.raises(ValueError, match="2 positions, the instance has 8 vehicles"):
        evaluate(inst, (0, 1))


def test_degenerate_sample_matches_plain_evaluation():
    inst = generate(preset_config(8, seed=21, size_class="small"))
    order = tuple(range(8))
    got = evaluate_expected(inst, order, Sample.degenerate(inst))
    assert got == evaluate(inst, order).total_overload_tu


def test_duplicated_sample_leaves_value_unchanged():
    inst = generate(preset_config(8, seed=22, size_class="small"))
    order = tuple(range(8))
    smp = sample(inst, 40, seed=4)
    doubled = Sample.from_scenarios(
        [s for s, c in smp.unique for _ in range(2 * c)])
    assert evaluate_expected(inst, order, smp) == pytest.approx(
        evaluate_expected(inst, order, doubled), abs=0)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_objective_ticks_match_the_reference_recursion(seed, regen):
    rng = make_rng(seed)
    inst = random_instance(rng)
    n = inst.n_vehicles
    orders = [random_order(rng, n) for _ in range(4)]
    smp = Sample.from_scenarios([random_scenario(rng, n) for _ in range(5)])
    # one column per distinct scenario, in smp.unique's sorted order
    assert Objective(inst, smp).ticks(orders).tolist() == [
        [regenerative_trace(inst, o, s, regen).total_overload
         for s, _ in smp.unique] for o in orders]


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("regen", [True, False])
@pytest.mark.parametrize("n_orders", [1, 4])
def test_objective_ticks_match_the_reference_over_many_scenarios(seed, regen, n_orders):
    rng = make_rng(seed)
    inst = random_instance(rng, n=8)
    smp = Sample.from_scenarios([random_scenario(rng, 8) for _ in range(200)])
    assert smp.n_unique > 64
    orders = [random_order(rng, 8) for _ in range(n_orders)]
    assert Objective(inst, smp).ticks(orders).tolist() == [
        [regenerative_trace(inst, o, s, regen).total_overload
         for s, _ in smp.unique] for o in orders]


def test_expected_overload_on_the_large_preset_matches_the_reference():
    inst = generate(preset_config(200, seed=8, size_class="large"))
    smp = sample(inst, 300, seed=41)
    order = random_order(make_rng(41), 200)
    want = sum(count * evaluate(inst, order, s).total_overload
               for s, count in smp.unique)
    assert evaluate_expected(inst, order, smp) == want / (smp.n * TU)


def test_objective_keys_are_exact_numerators():
    inst = generate(preset_config(8, seed=22, size_class="small"))
    orders = [tuple(range(8)), (7, 6, 5, 4, 3, 2, 1, 0)]
    smp = sample(inst, 40, seed=4)
    # multiplicities so large that the int64 dot product would wrap
    huge = Sample(n=3 * 2**61, seed=None, existence=smp.existence[:, :2],
                  weights=[2**61, 2**62])
    for scenarios in (smp, huge):
        want = [sum(count * evaluate(inst, o, s).total_overload
                    for s, count in scenarios.unique) for o in orders]
        assert Objective(inst, scenarios).keys(orders) == want


def test_trajectories_weigh_huge_counts_exactly():
    inst = generate(preset_config(24, seed=22, size_class="small"))
    smp = sample(inst, 40, seed=4)
    # multiplicities so large that the int64 dot product would wrap
    huge = Sample(n=3 * 2**61, seed=None, existence=smp.existence[:, :2],
                  weights=[2**61, 2**62])
    rng = make_rng(6)
    traj = Objective(inst, huge).trajectory(random_order(rng, 24))
    assert not traj.objective.dot_exact
    assert traj.value == reference_value(inst, traj.order, huge)
    pruned = 0
    for _ in range(40):
        a, b = sorted(rng.choice(24, size=2, replace=False).tolist())
        move = Move(MOVE_KINDS[int(rng.integers(4))], a, b)
        probe, delta = partial_reevaluate(traj, move)
        assert delta == reference_value(inst, probe.order, huge) - traj.value
        limit = delta - 1 - abs(delta) // int(rng.integers(1, 8))   # past int64
        limited, bound = partial_reevaluate(traj, move, limit)
        pruned += limited.pruned
        assert bound == delta if not limited.pruned else limit < bound <= delta
        if rng.random() < 0.5:
            probe, _ = partial_reevaluate(traj, move)
            traj.commit(probe)
    assert pruned > 0


@pytest.mark.parametrize("n_vehicles", [6, 9])      # the instance has 7
def test_scenario_sets_of_the_wrong_length_are_refused(n_vehicles):
    inst = generate(preset_config(7, seed=23, size_class="small"))
    other = generate(preset_config(n_vehicles, seed=23, size_class="small"))
    order = tuple(range(7))
    smp = sample(other, 50, seed=3)
    counts = f"{n_vehicles} vehicles, the instance has 7"
    with pytest.raises(ValueError, match=counts):
        evaluate_expected(inst, order, smp)
    with pytest.raises(ValueError, match=counts):
        evaluate(inst, order, Scenario.all_exist(n_vehicles))
    with pytest.raises(ValueError, match=counts):
        effective_times(inst, order, Scenario.all_exist(n_vehicles), REMOVAL)


def test_trace_csv_shape():
    inst = worked_example()
    text = trace_csv(evaluate(inst, (0, 2, 5, 1, 4, 3)))
    lines = text.strip().splitlines()
    assert lines[0] == "station,position,vehicle,b,z,w,idle"
    assert len(lines) == 1 + 2 * 6


# ---------------------------------------------------------------------------
# partial reevaluation

def matches_reference(traj, inst, smp, regen=True) -> bool:
    """The trajectory's z, w and value equal the per-scenario reference
    (regenerative_trace)."""
    T = len(traj.order)
    value = 0
    for j, (scen, count) in enumerate(smp.unique):
        ref = regenerative_trace(inst, traj.order, scen, regen)
        if (traj.z[:T, j, :].T.tolist() != ref.z
                or traj.w[:, j, :].T.tolist() != ref.w):
            return False
        value += count * ref.total_overload
    return traj.value == value


def reference_value(inst, order, smp, regen=True) -> int:
    return sum(count * regenerative_trace(inst, order, s, regen).total_overload
               for s, count in smp.unique)


def test_swap_of_identical_vehicles_is_free():
    base = generate(preset_config(9, seed=30, size_class="medium"))
    veh = base.vehicles
    twin = dataclasses.replace(veh[6], processing_times=veh[2].processing_times,
                               is_ev=veh[2].is_ev)
    inst = dataclasses.replace(base, vehicles=veh[:6] + (twin,) + veh[7:])
    traj = Objective(inst, Sample.degenerate(inst)).trajectory(tuple(range(9)))
    probe, delta = partial_reevaluate(traj, Move(SWAP, 2, 6))
    assert delta == probe.delta == 0
    # the scan stops right after each of the two touched positions
    assert probe.windows == ((2, 3), (6, 7))
    assert probe.recomputed_positions == 2 * inst.n_stations


def test_window_swap_delta_matches_full():
    inst = window_instance()
    order = tuple(range(5))
    smp = Sample.degenerate(inst)
    traj = Objective(inst, smp).trajectory(order)
    before = traj.value
    move = Move(SWAP, 1, 3)
    probe, delta = partial_reevaluate(traj, move)
    full = evaluate(inst, apply_to_order(order, move))
    assert delta == full.total_overload - before
    traj.commit(probe)
    assert traj.order == full.order
    assert matches_reference(traj, inst, smp)


def test_stale_state_is_rejected():
    inst = window_instance()
    traj = Objective(inst, Sample.degenerate(inst)).trajectory((0, 1, 2, 3, 4))
    first, _ = partial_reevaluate(traj, Move(SWAP, 0, 1))
    second, _ = partial_reevaluate(traj, Move(INVERSION, 1, 4))
    with pytest.raises(StaleStateError):
        traj.commit(first)     # its window was overwritten by the second probe
    traj.commit(second)
    with pytest.raises(StaleStateError):
        traj.commit(second)    # made against the order before the commit
    assert traj.order == (0, 4, 3, 2, 1)


def chain_sample(rng, n: int) -> Sample:
    """A few random scenarios, some drawn more than once."""
    scenarios = [random_scenario(rng, n) for _ in range(int(rng.integers(1, 6)))]
    return Sample.from_scenarios(scenarios + scenarios[:2] + scenarios[:1])


def test_random_move_chains_match_full_evaluation():
    rng = make_rng(99)
    kinds = (SWAP, INSERT_FORWARD, INSERT_BACKWARD, INVERSION)
    for trial in range(12):
        inst = random_instance(rng)
        n = inst.n_vehicles
        order = random_order(rng, n)
        smp = chain_sample(rng, n)
        regen = bool(rng.integers(0, 2))
        traj = Objective(inst, smp).trajectory(order)
        for _ in range(25):
            a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
            move = Move(kinds[int(rng.integers(0, 4))], int(a), int(b))
            before = traj.value
            probe, delta = partial_reevaluate(traj, move)
            traj.commit(probe)
            order = apply_to_order(order, move)
            assert matches_reference(traj, inst, smp, regen)
            assert delta == traj.value - before
        assert traj.order == order


@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_probes_match_the_reference_recursion(seed, regen):
    rng = make_rng(seed)
    inst = random_instance(rng)
    n = inst.n_vehicles
    smp = chain_sample(rng, n)
    traj = Objective(inst, smp).trajectory(random_order(rng, n))
    assert matches_reference(traj, inst, smp, regen)
    for _ in range(12):
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        move = Move(MOVE_KINDS[int(rng.integers(0, 4))], a, b)
        probe, delta = partial_reevaluate(traj, move)
        assert probe.order == apply_to_order(traj.order, move)
        assert delta == (reference_value(inst, probe.order, smp, regen)
                         - reference_value(inst, traj.order, smp, regen))
        if rng.random() < 0.5:   # rejected probes leave stale buffers behind
            traj.commit(probe)
            assert matches_reference(traj, inst, smp, regen)


@pytest.mark.parametrize("regen", [True, False])
@pytest.mark.parametrize("n_vehicles,size_class",
                         [(10, "small"), (30, "large"), (60, "medium"), (120, "large")])
def test_a_limited_probe_is_exact_or_a_bound_above_its_limit(n_vehicles, size_class, regen):
    rng = make_rng(n_vehicles + regen)
    inst = generate(preset_config(n_vehicles, seed=n_vehicles, size_class=size_class))
    smp = sample(inst, 30, seed=4)
    objective = Objective(inst, smp)
    traj = objective.trajectory(random_order(rng, n_vehicles))
    assert traj.value == reference_value(inst, traj.order, smp, regen)
    pruned = 0
    for _ in range(150):
        a, b = sorted(rng.choice(n_vehicles, size=2, replace=False).tolist())
        move = Move(MOVE_KINDS[int(rng.integers(4))], a, b)
        full, exact = partial_reevaluate(traj, move)
        spread = abs(exact) + TU
        limit = 0 if rng.random() < 0.25 else int(rng.integers(-spread, spread))
        probe, value = partial_reevaluate(traj, move, limit)
        assert probe.order == full.order
        assert value == probe.delta
        assert probe.recomputed_positions == inst.n_stations * sum(
            b - a for a, b in probe.windows)
        # the scanned cells hold the moved order's trajectory
        moved = objective.trajectory(probe.order)
        for a, b in probe.windows:
            assert np.array_equal(traj._wbuf[a:b], moved.w[a:b])
            assert np.array_equal(traj._zbuf[a + 1:b + 1], moved.z[a + 1:b + 1])
        if probe.pruned:
            pruned += 1
            assert limit < value <= exact
            assert probe.recomputed_positions < full.recomputed_positions
            with pytest.raises(StaleStateError):
                traj.commit(probe)
        else:
            assert value == exact
            assert probe.windows == full.windows
            if rng.random() < 0.3:
                traj.commit(probe)
                assert traj.value == objective.keys([probe.order])[0]
    assert pruned > 0
