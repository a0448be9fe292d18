"""Exact layer: recourse LPs, dual cuts, enumeration, branch-and-cut."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmseq.exact
from mmseq.errors import SizeGuardError
from mmseq.evaluator import (IMPROVED_NEUTRAL, REMOVAL, STANDARD_ZERO,
                             Objective, Sequence, evaluate, evaluate_expected,
                             evaluate_station, evaluate_weighted)
from mmseq.exact import (DualSolution, ExactParams, WeightedScenarios,
                         _branch_pick, _cuts, _integral_order, _Master,
                         _rest_terms, _search, _suffix_bound,
                         enumerate_optimal, full_information, lshaped_solve,
                         recourse_lp, root_bound, solve_dsp)
from mmseq.instance import (Instance, Station, Vehicle, generate,
                            preset_config)
from mmseq.lp import EQ, LE, OPTIMAL, LinearProgram, solve_lp
from mmseq.scenario import Sample, Scenario, sample
from mmseq.seeding import make_rng
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


def test_recourse_rows_at_a_fractional_anchor():
    # one station, two positions, vehicle 1 failed, anchor a 3:1 mix of
    # the two orders; columns z_2, w_1, w_2, rows and right-hand sides
    # in ticks, by hand
    inst = Instance.of(7, (10,), [Vehicle.of(0, False, (9,)),
                                  Vehicle.of(1, False, (4,))])
    x = np.array([[0.75, 0.25], [0.25, 0.75]])
    scen = Scenario((1, 0))
    c, l = 70000, 100000             # 7 and 10 TU
    prog1, over1, prog2, over2 = [-1, -1, 0], [0, -1, 0], [1, 0, -1], [1, 0, -1]
    carry1, end_carry = [-1, 0, 0], [1, 0, -1]
    beta = inst.beta(0)              # (10 - 7) / 4
    assert beta == 0.75
    cases = {
        # b = (8.5, 7.5) TU: the failed vehicle takes the cycle time
        (IMPROVED_NEUTRAL, True): ([prog1, over1, prog2, over2],
                                   [c - 85000, l - 85000, c - 75000, l - 75000]),
        (IMPROVED_NEUTRAL, False): ([prog1, over1, over2],
                                    [c - 85000, l - 85000, l - 75000]),
        # b = (6.75, 2.25) TU: the failed vehicle takes no time
        (STANDARD_ZERO, True): ([prog1, over1, prog2, over2, carry1, end_carry],
                                [c - 67500, l - 67500, c - 22500, l - 22500,
                                 beta * 67500, beta * 22500]),
        (STANDARD_ZERO, False): ([prog1, over1, over2, carry1],
                                 [c - 67500, l - 67500, l - 22500, beta * 67500]),
    }
    for (variant, regen), (a, rhs) in cases.items():
        val, lp = recourse_lp(inst, x, scen, variant, regen)
        assert lp.a.shape == (len(a), 3)
        assert lp.a.tolist() == a
        assert lp.rhs.tolist() == rhs
        assert lp.senses == (LE,) * len(a)
        assert lp.objective.tolist() == [0, 1, 1]
        assert math.isfinite(val) and val >= 0


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


def cut_loop(inst, scen, dual):
    """The optimality cut of dual, accumulated entry by entry."""
    n, c = inst.n_vehicles, inst.cycle_time
    coeffs = [[0.0] * n for _ in range(n)]
    offset = 0.0
    for row, st, sp, wo in zip(inst.processing_rows(), inst.stations,
                               dual.pi_sp, dual.pi_wo):
        eff = [row[v] if scen.exists[v] else c for v in range(n)]
        for t in range(n):
            for v in range(n):
                coeffs[v][t] += (sp[t] + wo[t]) * eff[v]
            offset -= c * sp[t] + st.length * wo[t]
    return (tuple(tuple(g / TICKS_PER_TU for g in row) for row in coeffs),
            offset / TICKS_PER_TU)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_cut_product_matches_the_entry_loop(seed, regen):
    rng = make_rng(seed)
    n = int(rng.integers(2, 9))
    inst = random_instance(rng, n=n)
    scen = random_scenario(rng, n)
    dual, cut = solve_dsp(inst, random_order(rng, n), scen, regenerative=regen)
    assert (cut.coeffs, cut.offset) == cut_loop(inst, scen, dual)


def station_duals_loop(b, c, length, regenerative):
    """One station's recourse duals by complementary slackness on the
    reference trace, position by position: walking backwards,
    m = sp_{t+1} + wo_{t+1} caps sp_t; s >= l binds the overload row and
    opens the cap, s < c closes it, and ties carry."""
    ev = evaluate_station(b, c, length, regenerative)
    T = len(b)
    sp, wo = [0.0] * T, [0.0] * T
    s = ev.z[-1] + b[-1]
    if regenerative:
        if s >= c:
            sp[-1] = 1.0
    elif s >= length:
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
    return sp, wo


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(), st.booleans())
def test_batched_cuts_match_solve_dsp(seed, regen, flat):
    # one reader call over every scenario column, as the branch-and-cut
    # makes it, against the per-station loop and solve_dsp scenario by
    # scenario; the l == c twin ties at every position
    rng = make_rng(seed)
    n = int(rng.integers(2, 9))
    inst = random_instance(rng, n=n, n_stations=int(rng.integers(1, 4)))
    if flat:
        inst = flat_stations(inst)
    c = inst.cycle_time
    order = random_order(rng, n)
    scens = [random_scenario(rng, n) for _ in range(int(rng.integers(1, 7)))]
    objective = Objective(inst, Sample.from_scenarios(scens), regen)
    eff = objective.scenario_eta + c
    sp, wo, coeffs, offsets, overload = _cuts(eff, eff[list(order)], c,
                                              objective.cap, regen)
    for j in range(eff.shape[1]):
        scen = Scenario.from_flags(objective.exists[:, j])
        ref = evaluate(inst, order, scen, regenerative=regen)
        for k, st_k in enumerate(inst.stations):
            b = [e + c for e in ref.eta[k]]
            assert (sp[:, j, k].tolist(), wo[:, j, k].tolist()) == \
                station_duals_loop(b, c, st_k.length, regen)
        dual, cut = solve_dsp(inst, order, scen, regenerative=regen)
        assert sp[:, j].T.tolist() == [list(r) for r in dual.pi_sp]
        assert wo[:, j].T.tolist() == [list(r) for r in dual.pi_wo]
        assert tuple(map(tuple, (coeffs[j] / TICKS_PER_TU).tolist())) == cut.coeffs
        assert int(offsets[j]) / TICKS_PER_TU == cut.offset
        # tight at the anchor in ticks, at the reference's overload
        assert (coeffs[j, list(order), range(n)].sum() + offsets[j]
                == overload[j] == ref.total_overload)


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
    # twin that starts with 7, in a subtree the search reaches much later
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


def station_cost(inst, order, scen, regen) -> int:
    """Overload of one order under one scenario, summed over stations,
    by the pure-Python reference recursion."""
    c = inst.cycle_time
    return sum(evaluate_station([row[v] if scen.exists[v] else c for v in order],
                                c, st.length, regen).total_overload
               for row, st in zip(inst.processing_rows(), inst.stations))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(),
       st.booleans(), st.sampled_from(["none", "optimum", "above", "random"]))
def test_search_matches_the_permutation_loop(seed, regen, fix, incumbent):
    rng = make_rng(seed)
    n = int(rng.integers(2, 8))
    inst = random_instance(rng, n=n)
    smp = sample(inst, int(rng.integers(1, 7)), seed=seed)
    fixing = np.full((n, n), -1, dtype=np.int8)     # vehicle x position
    if fix:
        perm = random_order(rng, n)
        for t, v in enumerate(perm):
            if rng.random() < 0.3:
                fixing[v, t] = 1
        for _ in range(int(rng.integers(0, 2 * n))):
            v, t = int(rng.integers(0, n)), int(rng.integers(0, n))
            if fixing[v, t] != 1:
                fixing[v, t] = 0
    keys = {}
    for order in itertools.permutations(range(n)):
        if all(order[t] == v for v, t in np.argwhere(fixing == 1)) and \
                all(fixing[v, t] != 0 for t, v in enumerate(order)):
            keys[order] = sum(count * station_cost(inst, order, scen, regen)
                              for scen, count in smp.unique)
    best = min(keys, key=keys.get) if keys else None   # first in lex order
    bound = {"none": None, "optimum": keys.get(best), "random": None,
             "above": None if best is None else keys[best] + 1}[incumbent]
    if incumbent == "random":
        bound = int(rng.integers(0, 2 + 2 * max(keys.values(), default=0)))
    got = _search(Objective(inst, smp, regen), fixing, bound)
    if best is None or bound is not None and keys[best] >= bound:
        assert got is None
    else:
        assert got == (best, keys[best])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_suffix_bound_never_exceeds_a_completion(seed, regen):
    rng = make_rng(seed)
    n = int(rng.integers(2, 8))
    inst = random_instance(rng, n=n)
    scen = random_scenario(rng, n)
    order = random_order(rng, n)
    t = int(rng.integers(max(0, n - 5), n))
    c = inst.cycle_time
    for row, st in zip(inst.processing_rows(), inst.stations):
        cap = st.length - c
        eta = [row[v] - c if scen.exists[v] else 0 for v in range(n)]
        bound = _suffix_bound(
            evaluate_station([eta[v] + c for v in order], c, st.length, regen).z[t],
            sum(eta[v] for v in order[t:]),
            sum(max(0, eta[v] - cap) for v in order[t:]), cap, regen)
        for rest in itertools.permutations(order[t:]):
            ev = evaluate_station([eta[v] + c for v in order[:t] + rest],
                                  c, st.length, regen)
            assert bound <= sum(ev.w[t:])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_clipped_suffix_bound_never_exceeds_the_rest_of_an_order(seed, regen):
    # the engine's rest sums on preset instances, where some vehicles
    # idle past -cap; clipping at 0 or at -(cap // 2) fails this
    rng = make_rng(seed)
    n = int(rng.integers(7, 10))
    inst = generate(preset_config(n, int(rng.integers(0, 1000)),
                                  str(rng.choice(["small", "medium", "large"]))))
    smp = sample(inst, int(rng.integers(1, 101)), seed=seed)
    objective = Objective(inst, smp, regen)
    order = random_order(rng, n)
    t = int(rng.integers(0, n))
    clipped, excess = _rest_terms(objective.scenario_eta, objective.cap)
    rest = list(order[t:])
    rest_eta = clipped[rest].sum(axis=0)                   # scenarios x stations
    rest_excess = excess[rest].sum(axis=0)
    c = inst.cycle_time
    for j, (scen, _) in enumerate(smp.unique):
        for k, (row, stn) in enumerate(zip(inst.processing_rows(), inst.stations)):
            ev = evaluate_station([row[v] if scen.exists[v] else c for v in order],
                                  c, stn.length, regen)
            bound = _suffix_bound(ev.z[t], rest_eta[j, k], rest_excess[j, k],
                                  stn.length - c, regen)
            assert bound <= sum(ev.w[t:])


def test_search_refuses_a_station_shorter_than_the_cycle():
    inst = Instance.of(7, (10, 6), [Vehicle.of(v, False, (5, 5)) for v in range(3)])
    with pytest.raises(ValueError, match="station 1"):
        enumerate_optimal(inst, Sample.degenerate(inst))


def test_enumerate_deterministic(rng):
    inst = random_instance(rng, n=6)
    smp = sample(inst, 20, seed=4)
    assert enumerate_optimal(inst, smp) == enumerate_optimal(inst, smp)


def test_enumerate_guard():
    inst = generate(preset_config(13, seed=0, size_class="small"))
    with pytest.raises(SizeGuardError, match="13"):
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


@pytest.mark.parametrize("size_class", ["medium", "large"])
@pytest.mark.parametrize("draws", [100, None])      # None: the S=1 sample
def test_lshaped_matches_enumeration_across_size_classes(size_class, draws):
    inst = generate(preset_config(8, seed=8, size_class=size_class))
    smp = Sample.degenerate(inst) if draws is None else sample(inst, draws,
                                                              seed=1008)
    res = lshaped_solve(inst, smp)
    _, opt = enumerate_optimal(inst, smp)
    assert res.upper_bound == res.lower_bound == opt
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


@pytest.mark.parametrize("size_class", ["small", "medium", "large"])
@pytest.mark.parametrize("seed", [1, 8, 103, 200])
def test_theta_floors_sit_below_the_optimum(size_class, seed):
    inst = generate(preset_config(7, seed, size_class))
    smp = sample(inst, 100, 200)
    objective = Objective(inst, smp)
    floors = root_bound(objective)
    best, _ = enumerate_optimal(inst, smp)
    costs = [station_cost(inst, best.order, scen, True) for scen, _ in smp.unique]
    assert (floors <= costs).all()
    assert objective._weigh(floors[None])[0] <= objective.keys([best.order])[0]


@pytest.mark.parametrize("seed", [310, 311])
def test_lshaped_full_information_with_floors(seed):
    inst = generate(preset_config(6, seed=seed, size_class="small"))
    ws = full_information(inst)
    objective = Objective(inst, ws)
    best, opt = enumerate_optimal(inst, ws)
    assert (root_bound(objective) <= objective.ticks([best.order])[0]).all()
    res = lshaped_solve(inst, ws)
    assert res.upper_bound == pytest.approx(opt, abs=1e-9)
    assert res.lower_bound <= res.upper_bound + 1e-9


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


def test_time_limit_returns_valid_incumbent():
    inst = generate(preset_config(8, seed=102, size_class="small"))
    smp = sample(inst, 60, seed=202)
    res = lshaped_solve(inst, smp, ExactParams(time_limit=1e-9))
    assert res.stats.status == "time_limit"
    assert res.lower_bound <= res.upper_bound
    assert evaluate_expected(inst, res.sequence, smp) == res.upper_bound


@pytest.mark.parametrize("time_limit", [float("nan"), -1.0])
def test_exact_params_refuse_a_bad_time_limit(time_limit):
    # a NaN limit never expires; a negative one stops before the root
    with pytest.raises(ValueError, match="time_limit"):
        ExactParams(time_limit=time_limit)


@pytest.mark.parametrize("n_vehicles", [6, 9])      # the instance has 7
def test_exact_solvers_refuse_scenario_sets_of_the_wrong_length(n_vehicles):
    inst = generate(preset_config(7, seed=100, size_class="small"))
    other = generate(preset_config(n_vehicles, seed=100, size_class="small"))
    smp = sample(other, 30, seed=1)
    counts = f"{n_vehicles} vehicles, the instance has 7"
    with pytest.raises(ValueError, match=counts):
        enumerate_optimal(inst, smp)
    with pytest.raises(ValueError, match=counts):
        lshaped_solve(inst, smp)
    with pytest.raises(ValueError, match=counts):
        solve_dsp(inst, tuple(range(7)), smp.unique[0][0])


def test_lshaped_guard():
    inst = generate(preset_config(13, seed=0, size_class="small"))
    smp = sample(inst, 10, seed=1)
    with pytest.raises(SizeGuardError, match="13"):
        lshaped_solve(inst, smp)


def cold_master(inst, pairs, n, cuts, fixings) -> LinearProgram:
    """The master LP of the given cuts and fixings, built from scratch."""
    nv = inst.n_vehicles
    nx = nv * nv
    rows = []
    for v in range(nv):                   # each vehicle used once
        row = np.zeros(nx + len(pairs))
        row[v * nv:(v + 1) * nv] = 1.0
        rows.append(row)
    for t in range(nv):                   # each position filled once
        row = np.zeros(nx + len(pairs))
        row[t:nx:nv] = 1.0
        rows.append(row)
    rhs = [1.0] * (2 * nv)
    index = {scen: j for j, (scen, _) in enumerate(pairs)}
    for cut in cuts:                      # theta_j >= coeffs . x + offset
        row = np.zeros(nx + len(pairs))
        row[:nx] = np.ravel(cut.coeffs)
        row[nx + index[cut.scenario]] = -1.0
        rows.append(row)
        rhs.append(-cut.offset)
    lower = np.zeros(nx + len(pairs))
    upper = np.concatenate([np.ones(nx), np.full(len(pairs), np.inf)])
    for (v, t), val in fixings.items():
        lower[v * nv + t] = upper[v * nv + t] = val
    return LinearProgram(np.concatenate([np.zeros(nx), [w / n for _, w in pairs]]),
                         np.array(rows), (EQ,) * (2 * nv) + (LE,) * len(cuts),
                         np.array(rhs), lower, upper)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_warm_master_matches_a_cold_solve(seed):
    rng = make_rng(seed)
    nv = int(rng.integers(5, 7))
    inst = random_instance(rng, n=nv)
    smp = sample(inst, 30, seed=seed)
    pairs = smp.unique
    master = _Master(inst, smp.weights, smp.n)
    master.pool_cap, master.pool_keep = 3, 2     # force evictions
    by_key, evictions = {}, 0
    for _ in range(20):
        for _ in range(int(rng.integers(1, 3))):
            j = int(rng.integers(len(pairs)))
            _, cut = solve_dsp(inst, random_order(rng, nv), pairs[j][0])
            if master.add_cut(j, cut):
                by_key[master._keys[-1]] = cut
        fixings = {(int(rng.integers(nv)), int(rng.integers(nv))):
                   int(rng.integers(2)) for _ in range(int(rng.integers(4)))}
        fix = np.full((nv, nv), -1, dtype=np.int8)
        for (v, t), val in fixings.items():
            fix[v, t] = val
        warm = master.solve(fix)
        cuts = [by_key[key] for key in master._keys]
        assert master.lp.n_rows == master.n_base + len(cuts)
        lp = cold_master(inst, pairs, smp.n, cuts, fixings)
        cold = solve_lp(lp)
        assert warm.status == cold.status
        if warm.status == OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9,
                                                   abs=1e-12)
            # ties leave several optimal vertices, so the warm vertex is
            # checked as a solution of the cold program: its cut-row
            # slacks are that program's residuals, and it is feasible
            residual = lp.rhs - lp.a @ warm.x
            np.testing.assert_allclose(warm.slack[master.n_base:],
                                       residual[master.n_base:], atol=1e-9)
            assert residual[master.n_base:].min(initial=0.0) >= -1e-7
            np.testing.assert_allclose(residual[:master.n_base], 0.0,
                                       atol=1e-7)
            assert (warm.x >= lp.lower - 1e-9).all()
            assert (warm.x <= lp.upper + 1e-9).all()
        before = master.n_cuts
        master.maybe_evict()
        evictions += master.n_cuts < before
    assert evictions or len(by_key) <= master.pool_cap


def branch_pick_loop(xs, nv):
    """The branching rule as a loop over every entry of the flat LP
    solution: the first one whose frac beats the best by more than 1e-12."""
    pick, pick_frac = None, 0.0
    for v in range(nv):
        for t in range(nv):
            val = xs[v * nv + t]
            frac = min(val, 1.0 - val)
            if frac > pick_frac + 1e-12:
                pick_frac = frac
                pick = (v, t)
    return pick


# LP-like values: near-ties around 0.5 and below it, values within 1e-12
# of 0 and 1, and anything in [0, 1]
_LP_VALUE = st.one_of(
    st.builds(lambda base, k: base + k * 1e-13,
              st.sampled_from([0.5, 0.4, 0.25]), st.integers(-20, 20)),
    st.integers(-15, 15).map(lambda k: k * 1e-13),
    st.integers(-15, 15).map(lambda k: 1.0 + k * 1e-13),
    st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda nv: st.lists(_LP_VALUE, min_size=nv * nv, max_size=nv * nv)))
def test_branch_pick_matches_the_entry_loop(xs):
    nv = math.isqrt(len(xs))
    x = np.array(xs).reshape(nv, nv)
    assert _branch_pick(np.minimum(x, 1.0 - x)) == branch_pick_loop(xs, nv)


def integral_order_loop(xs, nv):
    """Decode a flat LP solution column by column; None unless every
    entry is within 1e-6 of integral and the hits form a permutation."""
    order = []
    for t in range(nv):
        col = [xs[v * nv + t] for v in range(nv)]
        hits = [v for v, val in enumerate(col) if val > 0.5]
        if len(hits) != 1:
            return None
        if any(min(val, 1.0 - val) > 1e-6 for val in col):
            return None
        order.append(hits[0])
    return tuple(order) if len(set(order)) == nv else None


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_integral_order_matches_the_column_loop(seed):
    rng = make_rng(seed)
    nv = int(rng.integers(1, 8))
    x = np.zeros((nv, nv))
    x[random_order(rng, nv), np.arange(nv)] = 1.0
    # 0 and 1 move or add hits (non-permutations); the rest sit at,
    # just inside or just outside 1e-6 of integral, or are fractional
    for _ in range(int(rng.integers(0, 4))):
        x[int(rng.integers(nv)), int(rng.integers(nv))] = rng.choice(
            [0.0, 1.0, 0.5, 0.5 + 1e-7, 1e-6, 1e-6 + 1e-9, 1e-6 - 1e-9,
             1.0 - 1e-6, 1.0 - 1e-6 - 1e-9, 1.0 + 1e-6, -1e-6, -1e-6 - 1e-9])
    assert _integral_order(x, np.minimum(x, 1.0 - x)) == \
        integral_order_loop(x.ravel().tolist(), nv)


def test_exact_small_branch_and_cut_trace_is_pinned():
    # the bench's exact-small solve; any change to the search, the cuts
    # or the master that alters the tree shows here
    inst = generate(preset_config(8, 103, "small"))
    res = lshaped_solve(inst, sample(inst, 100, 200))
    stats = res.stats
    assert res.sequence.order == (0, 6, 1, 7, 5, 3, 2, 4)
    assert f"{res.lower_bound:.6f}" == f"{res.upper_bound:.6f}" == "13.772062"
    assert (stats.status, stats.nodes, stats.cuts_added, stats.lp_solves,
            stats.leaf_exhausts) == ("optimal", 5, 5, 4, 2)


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
