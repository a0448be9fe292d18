"""Exact layer: recourse LPs, dual cuts, enumeration, branch-and-cut."""

import itertools
import math

import numpy as np
import pytest

import mmseq.exact
from mmseq.errors import SizeGuardError
from mmseq.evaluator import (IMPROVED_NEUTRAL, REMOVAL, STANDARD_ZERO,
                             Sequence, evaluate, evaluate_expected,
                             evaluate_station, evaluate_weighted)
from mmseq.exact import (DualSolution, ExactParams, WeightedScenarios,
                         enumerate_optimal, full_information, lshaped_solve,
                         recourse_lp, solve_dsp)
from mmseq.instance import (Instance, Station, Vehicle, generate,
                            preset_config)
from mmseq.scenario import Sample, Scenario, sample
from mmseq.timeunits import TICKS_PER_TU

from conftest import (as_xmat, random_instance, random_order,
                      random_scenario, window_instance, worked_example)


def all_exist(n: int) -> Scenario:
    return Scenario((1,) * n)


def uniform_xmat(n: int):
    return np.full((n, n), 1.0 / n)


# ----------------------------------------------------------- recourse LP

def test_window_recourse_values():
    win = window_instance()
    order = Sequence((0, 1, 2, 3, 4))
    scen = all_exist(5)
    val_nonreg, _ = recourse_lp(win, order, scen, regenerative=False)
    val_reg, _ = recourse_lp(win, order, scen, regenerative=True)
    assert val_nonreg == pytest.approx(1.0, abs=1e-9)
    assert val_reg == pytest.approx(4.0, abs=1e-9)


def test_recourse_matches_evaluator_on_binary_points(rng):
    for _ in range(25):
        inst = random_instance(rng)
        n = inst.n_vehicles
        order = random_order(rng, n)
        scen = random_scenario(rng, n)
        for regen in (True, False):
            target = evaluate(inst, order, scen, regenerative=regen)
            want = target.total_overload / TICKS_PER_TU
            got, _ = recourse_lp(inst, order, scen, IMPROVED_NEUTRAL, regen)
            assert got == pytest.approx(want, abs=1e-7)


def test_failure_encodings_agree_on_binary_points(rng):
    for _ in range(25):
        inst = random_instance(rng)
        n = inst.n_vehicles
        order = random_order(rng, n)
        scen = random_scenario(rng, n)
        for regen in (True, False):
            improved, _ = recourse_lp(inst, order, scen, IMPROVED_NEUTRAL, regen)
            zeroed, _ = recourse_lp(inst, order, scen, STANDARD_ZERO, regen)
            removal, _ = recourse_lp(inst, order, scen, REMOVAL, regen)
            assert zeroed == pytest.approx(improved, abs=1e-7)
            assert removal == pytest.approx(improved, abs=1e-7)


def test_recourse_accepts_fractional_assignments(rng):
    for _ in range(6):
        inst = random_instance(rng, n=5)
        scen = random_scenario(rng, 5)
        for variant in (IMPROVED_NEUTRAL, STANDARD_ZERO):
            val, _ = recourse_lp(inst, uniform_xmat(5), scen, variant)
            assert math.isfinite(val)
            assert val >= -1e-9


def test_removal_variant_requires_binary_assignment():
    win = window_instance()
    with pytest.raises(ValueError, match="binary"):
        recourse_lp(win, uniform_xmat(5), all_exist(5), REMOVAL)


def test_recourse_rejects_bad_matrices():
    win = window_instance()
    with pytest.raises(ValueError, match="5x5"):
        recourse_lp(win, np.ones((3, 3)) / 3, all_exist(5))
    with pytest.raises(ValueError, match="doubly stochastic"):
        recourse_lp(win, np.ones((5, 5)), all_exist(5))
    skew = uniform_xmat(5)
    skew[0, 0] = -0.2
    with pytest.raises(ValueError, match="nonnegative"):
        recourse_lp(win, skew, all_exist(5))


def test_unknown_variant_rejected():
    win = window_instance()
    with pytest.raises(ValueError, match="unknown recourse variant"):
        recourse_lp(win, Sequence((0, 1, 2, 3, 4)), all_exist(5), "other")


# ------------------------------------------------------------- dual cuts

def test_window_cut_is_tight_both_borders():
    win = window_instance()
    order = (0, 1, 2, 3, 4)
    xmat = as_xmat(order)
    for regen, want in ((True, 4.0), (False, 1.0)):
        dual, cut = solve_dsp(win, order, all_exist(5), regenerative=regen)
        assert dual.is_feasible(1e-9)
        assert cut.value_at(xmat) == pytest.approx(want, abs=1e-7)


def test_zero_overload_cut_stays_nonpositive():
    win = window_instance()
    order = (0, 1, 2, 3, 4)
    nothing = Scenario((0,) * 5)    # everything fails: neutral slots only
    dual, cut = solve_dsp(win, order, nothing)
    assert dual.is_feasible(1e-9)
    assert cut.value_at(as_xmat(order)) == pytest.approx(0.0, abs=1e-9)
    import itertools
    for perm in itertools.permutations(range(5)):
        assert cut.value_at(as_xmat(perm)) <= 1e-7


def test_dual_tie_takes_the_carrying_branch():
    # position 0 ends exactly on the cycle (s == c): its progression row
    # binds with zero slack, and carrying the last position's multiplier
    # through it gives the strongest of the tied cuts
    inst = Instance.of(7, (10,), [Vehicle.of(0, False, (7,)),
                                  Vehicle.of(1, False, (9,))])
    dual, cut = solve_dsp(inst, (0, 1), all_exist(2))
    assert dual.pi_sp == ((1.0, 1.0),)
    assert dual.pi_wo == ((0.0, 0.0),)
    assert cut.coeffs == ((7.0, 7.0), (9.0, 9.0))
    assert cut.offset == -14.0
    assert cut.value_at(as_xmat((1, 0))) == 2.0


def flat_stations(inst: Instance) -> Instance:
    """The same vehicles with every station length equal to the cycle."""
    stations = tuple(Station(st.id, inst.cycle_time) for st in inst.stations)
    return Instance(inst.cycle_time, stations, inst.vehicles)


def check_cut(inst, xmat, scen, probes):
    """The cut built at xmat is tight there (against the recourse LP) and
    stays below the true recourse at every probe sequence; both borders,
    on the instance and on its l == c twin."""
    for case in (inst, flat_stations(inst)):
        for regen in (True, False):
            dual, cut = solve_dsp(case, xmat, scen, regenerative=regen)
            assert dual.is_feasible(1e-9)
            target, _ = recourse_lp(case, xmat, scen, regenerative=regen)
            assert cut.value_at(xmat) == pytest.approx(target, abs=1e-7)
            for probe in probes:
                q = evaluate(case, probe, scen, regenerative=regen)
                assert cut.value_at(as_xmat(probe)) <= \
                    q.total_overload / TICKS_PER_TU + 1e-7


def test_cuts_underestimate_everywhere(rng):
    # spot-check random instances, scenarios, and integral anchors
    for _ in range(10):
        inst = random_instance(rng, n=5)
        scen = random_scenario(rng, 5)
        anchor = as_xmat(random_order(rng, 5))
        check_cut(inst, anchor, scen,
                  [random_order(rng, 5) for _ in range(20)])


def test_cut_from_fractional_anchor(rng):
    # Birkhoff mixes of three permutation matrices as the anchor point
    for _ in range(4):
        inst = random_instance(rng, n=5)
        scen = random_scenario(rng, 5)
        xmat = sum(as_xmat(random_order(rng, 5)) for _ in range(3)) / 3.0
        check_cut(inst, xmat, scen,
                  [random_order(rng, 5) for _ in range(30)])


def test_cuts_need_no_lp(rng, monkeypatch):
    def refuse(lp):
        raise AssertionError("solve_dsp called the LP solver")

    monkeypatch.setattr(mmseq.exact, "solve_lp", refuse)
    inst = random_instance(rng, n=5)
    scen = random_scenario(rng, 5)
    for x in (random_order(rng, 5), uniform_xmat(5)):
        dual, _ = solve_dsp(inst, x, scen)
        assert dual.is_feasible(1e-9)


def test_dual_violation_measure():
    ok = DualSolution(pi_sp=((1.0, 1.0),), pi_wo=((0.0, 0.0),))
    assert ok.max_violation() == pytest.approx(0.0)
    assert ok.is_feasible()
    bad = DualSolution(pi_sp=((1.0, 0.0),), pi_wo=((0.0, 0.5),))
    assert bad.max_violation() == pytest.approx(0.5)
    assert not bad.is_feasible()


# ------------------------------------------------------------ enumeration

def test_enumerate_two_vehicle_hand_case():
    # order (1, 0) fits the window in every scenario; (0, 1) overloads
    inst = Instance.of(7, (10,), [
        Vehicle.of(0, False, (3,), 0.4),
        Vehicle.of(1, False, (9,), 0.4),
    ])
    smp = Sample.degenerate(inst)
    seq, val = enumerate_optimal(inst, smp)
    assert seq.order == (1, 0)
    assert val == 0.0


def test_enumerate_beats_or_ties_heuristic():
    worked = worked_example()
    smp = Sample.degenerate(worked)
    _, val = enumerate_optimal(worked, smp)
    assert 0.0 <= val <= 3.0


def test_enumerate_prefers_lexicographic_argmin():
    vehicles = [Vehicle.of(i, False, (5.0, 5.0)) for i in range(5)]
    inst = Instance.of(7.0, (20.0, 15.0), vehicles)
    seq, _ = enumerate_optimal(inst, Sample.degenerate(inst))
    assert seq.order == (0, 1, 2, 3, 4)


def test_enumerate_breaks_ties_across_batches():
    # vehicles 0 and 7 are twins, so each optimum that starts with 0 has a
    # twin that starts with 7, in a later batch of 5040 permutations
    times = (10, 3, 11, 9, 6, 4, 4, 10)
    inst = Instance.of(7, (10,), [Vehicle.of(v, False, (t,))
                                  for v, t in enumerate(times)])
    c, l = inst.cycle_time, inst.stations[0].length
    costs = {perm: evaluate_station([times[v] * TICKS_PER_TU for v in perm],
                                    c, l).total_overload
             for perm in itertools.permutations(range(8))}
    best = min(costs.values())
    argmins = [perm for perm, cost in costs.items() if cost == best]
    assert sum(perm[0] == 0 for perm in argmins) > 1
    assert any(perm[0] == 7 for perm in argmins)
    seq, val = enumerate_optimal(inst, Sample.degenerate(inst))
    assert seq.order == min(argmins)
    assert val == best / TICKS_PER_TU


def test_enumerate_deterministic(rng):
    inst = random_instance(rng, n=6)
    smp = sample(inst, 20, seed=4)
    assert enumerate_optimal(inst, smp) == enumerate_optimal(inst, smp)


def test_enumerate_guard():
    inst = generate(preset_config(10, seed=0, size_class="small"))
    with pytest.raises(SizeGuardError, match="10"):
        enumerate_optimal(inst, Sample.degenerate(inst))


# ------------------------------------------------------- full information

def test_full_information_covers_every_scenario(rng):
    inst = random_instance(rng, n=5)
    ws = full_information(inst)
    assert len(ws.pairs) == 32
    assert math.fsum(w for _, w in ws.pairs) == pytest.approx(1.0, abs=1e-9)


def test_weighted_scenarios_validation():
    with pytest.raises(ValueError, match="at least one"):
        WeightedScenarios(())
    with pytest.raises(ValueError, match="nonnegative"):
        WeightedScenarios(((Scenario((1,)), -0.5),))


# ---------------------------------------------------------- branch and cut

def test_lshaped_matches_enumeration_v6():
    inst = generate(preset_config(6, seed=301, size_class="small"))
    smp = sample(inst, 30, seed=302)
    res = lshaped_solve(inst, smp)
    _, opt = enumerate_optimal(inst, smp)
    assert res.upper_bound == opt
    assert res.lower_bound == opt
    assert res.stats.status == "optimal"
    assert evaluate_expected(inst, res.sequence, smp) == opt


def test_lshaped_matches_enumeration_v7():
    inst = generate(preset_config(7, seed=100, size_class="small"))
    smp = sample(inst, 50, seed=200)
    res = lshaped_solve(inst, smp)
    _, opt = enumerate_optimal(inst, smp)
    assert res.upper_bound == opt
    assert res.lower_bound == opt
    assert res.stats.status == "optimal"


def test_lshaped_full_information():
    inst = generate(preset_config(6, seed=310, size_class="small"))
    ws = full_information(inst)
    res = lshaped_solve(inst, ws)
    _, opt = enumerate_optimal(inst, ws)
    assert res.upper_bound == pytest.approx(opt, abs=1e-9)
    assert res.lower_bound <= res.upper_bound + 1e-9
    assert evaluate_weighted(inst, res.sequence, ws.pairs) == pytest.approx(
        opt, abs=1e-9)


def test_lshaped_single_scenario():
    inst = generate(preset_config(6, seed=320, size_class="small"))
    smp = Sample.degenerate(inst)
    res = lshaped_solve(inst, smp)
    _, opt = enumerate_optimal(inst, smp)
    assert res.upper_bound == opt


def test_root_bounds_climb_toward_the_optimum():
    inst = generate(preset_config(7, seed=100, size_class="small"))
    smp = sample(inst, 50, seed=200)
    res = lshaped_solve(inst, smp)
    bounds = res.stats.root_bounds
    assert bounds, "root relaxation was never solved"
    assert all(a <= b + 1e-9 for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] <= res.upper_bound + 1e-9


def test_pooled_cuts_hold_at_the_incumbent():
    inst = generate(preset_config(6, seed=301, size_class="small"))
    smp = sample(inst, 30, seed=302)
    res = lshaped_solve(inst, smp)
    xmat = as_xmat(res.sequence.order)
    for cut in res.stats.cut_pool:
        q = evaluate(inst, res.sequence, cut.scenario).total_overload / TICKS_PER_TU
        assert cut.value_at(xmat) <= q + 1e-6


def test_gap_tolerance_stops_early_with_honest_bounds():
    inst = generate(preset_config(7, seed=101, size_class="small"))
    smp = sample(inst, 40, seed=201)
    res = lshaped_solve(inst, smp, ExactParams(gap_tol=math.inf))
    assert res.lower_bound <= res.upper_bound + 1e-12
    assert res.stats.status in ("optimal", "gap_tol")
    assert evaluate_expected(inst, res.sequence, smp) == res.upper_bound


def test_time_limit_returns_valid_incumbent():
    inst = generate(preset_config(8, seed=102, size_class="small"))
    smp = sample(inst, 60, seed=202)
    res = lshaped_solve(inst, smp, ExactParams(time_limit=1e-9))
    assert res.stats.status == "time_limit"
    assert res.lower_bound <= res.upper_bound
    assert evaluate_expected(inst, res.sequence, smp) == res.upper_bound


def test_lshaped_guard():
    inst = generate(preset_config(13, seed=0, size_class="small"))
    smp = sample(inst, 10, seed=1)
    with pytest.raises(SizeGuardError, match="13"):
        lshaped_solve(inst, smp)


def test_lshaped_deterministic():
    inst = generate(preset_config(6, seed=330, size_class="small"))
    smp = sample(inst, 25, seed=331)
    r1 = lshaped_solve(inst, smp)
    r2 = lshaped_solve(inst, smp)
    assert r1.sequence == r2.sequence
    assert r1.lower_bound == r2.lower_bound
    assert r1.upper_bound == r2.upper_bound
    assert r1.stats.nodes == r2.stats.nodes
    assert r1.stats.cuts_added == r2.stats.cuts_added
