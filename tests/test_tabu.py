"""Tabu rules, two-phase search, and the annealing baseline."""

import itertools

import pytest

import mmseq.tabu
from mmseq.evaluator import Sequence, evaluate_expected
from mmseq.exact import enumerate_optimal
from mmseq.greedy import construct
from mmseq.instance import Instance, Vehicle, generate, preset_config
from mmseq.moves import (INSERT_BACKWARD, INSERT_FORWARD, INVERSION, MOVE_KINDS,
                         SWAP, Move, apply_to_order)
from mmseq.scenario import Sample, sample
from mmseq.seeding import make_rng
from mmseq.tabu import (DEFAULT_WEIGHTS, HistoryRecord, SAParams, SearchParams,
                        _cumulative, _draw_kind, _Metropolis, _tabu, history_csv,
                        is_tabu, search, simulated_annealing)

from conftest import random_instance, worked_example


def no_adjacent_evs(flags) -> bool:
    return not any(a and b for a, b in zip(flags, flags[1:]))


# ----------------------------------------------------------------- rules

def test_swap_next_to_ev_is_tabu():
    flags = [True, False, False, True, False]
    assert _tabu(flags, Move(SWAP, 0, 2))          # EV would land left of the EV at 3
    assert not _tabu(flags, Move(SWAP, 1, 2))      # two plain vehicles, no EV nearby


def test_swap_pulls_ev_next_to_ev():
    # non-EV at t1 flanked by an EV, EV at t2: swapping drags them together
    flags = [True, False, False, False, True]
    assert _tabu(flags, Move(SWAP, 1, 4))
    assert not _tabu(flags, Move(SWAP, 2, 3))


def test_forward_insert_rules():
    flags = [True, False, False, True, False, False]
    # moving the EV at 0 right past the EV at 3 parks it beside an EV
    assert _tabu(flags, Move(INSERT_FORWARD, 0, 2))
    assert _tabu(flags, Move(INSERT_FORWARD, 0, 3))
    # moving a plain vehicle out from between two EVs would join them
    flags2 = [False, True, False, True, False, False]
    assert _tabu(flags2, Move(INSERT_FORWARD, 2, 4))
    assert not _tabu(flags2, Move(INSERT_FORWARD, 4, 5))


def test_backward_insert_ev_always_tabu():
    flags = [False, False, True, False, False]
    for t2 in range(3, 5):
        assert _tabu(flags, Move(INSERT_BACKWARD, 2, t2))


def test_inversion_rules():
    # EV at t1: the reversed block ends at t2 next to an EV at t2+1
    flags = [True, False, False, True, False]
    assert _tabu(flags, Move(INVERSION, 0, 2))
    # non-EV at t1 with an EV on its left and an EV at t2
    flags2 = [False, True, False, False, True, False]
    assert _tabu(flags2, Move(INVERSION, 2, 4))
    assert not _tabu(flags2, Move(INVERSION, 2, 3))


def test_no_evs_means_nothing_is_tabu():
    flags = [False] * 6
    for kind in MOVE_KINDS:
        for t1, t2 in itertools.combinations(range(6), 2):
            assert not _tabu(flags, Move(kind, t1, t2))


def test_rules_are_sound_exhaustively():
    # from any sequence without back-to-back EVs, every non-tabu move
    # leads to a sequence without back-to-back EVs
    for n in range(4, 9):
        for bits in range(1 << n):
            flags = [bool(bits >> t & 1) for t in range(n)]
            if not no_adjacent_evs(flags):
                continue
            for kind in MOVE_KINDS:
                for t1, t2 in itertools.combinations(range(n), 2):
                    move = Move(kind, t1, t2)
                    if _tabu(flags, move):
                        continue
                    after = [flags[v] for v in apply_to_order(tuple(range(n)), move)]
                    assert no_adjacent_evs(after), (flags, move)


def test_is_tabu_reads_the_sequence():
    worked = worked_example()
    order = Sequence((0, 2, 5, 1, 4, 3))  # A C F B E D
    assert is_tabu(worked, order, Move(SWAP, 0, 2))
    assert not is_tabu(worked, order, Move(SWAP, 1, 2))


# ---------------------------------------------------------------- params

def test_search_params_validation():
    with pytest.raises(ValueError, match="four nonnegative"):
        SearchParams(operator_weights=(0.5, 0.5, 0.0))
    with pytest.raises(ValueError, match="four nonnegative"):
        SearchParams(operator_weights=(0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ValueError, match="sum to 1"):
        SearchParams(operator_weights=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="nonnegative"):
        SearchParams(tau_one=-1.0)


def test_sa_params_validation():
    with pytest.raises(ValueError, match="t_init"):
        SAParams(t_init=0.0)
    with pytest.raises(ValueError, match="alpha"):
        SAParams(alpha=1.0)
    with pytest.raises(ValueError, match="alpha"):
        SAParams(alpha=0.0)


# ---------------------------------------------------------------- search

def small_setup(iseed: int = 3, n_scen: int = 40):
    inst = generate(preset_config(7, seed=iseed, size_class="small"))
    smp = sample(inst, n_scen, seed=1)
    start, _ = construct(inst)
    return inst, smp, start


def test_search_never_deteriorates():
    inst, smp, start = small_setup()
    start_val = evaluate_expected(inst, start, smp)
    best, _ = search(inst, smp, start,
                     SearchParams(iters_one=50, iters_full=300, seed=4))
    assert evaluate_expected(inst, best, smp) <= start_val


def test_search_zero_iterations_returns_start():
    inst, smp, start = small_setup()
    best, history = search(inst, smp, start,
                           SearchParams(iters_one=0, iters_full=0, seed=0))
    assert best.order == start.order
    assert history == []


def test_search_keeps_an_optimal_start():
    inst, smp, _ = small_setup(iseed=5, n_scen=20)
    opt_seq, opt_val = enumerate_optimal(inst, smp)
    best, _ = search(inst, smp, opt_seq,
                     SearchParams(iters_one=40, iters_full=200, seed=7))
    assert best.order == opt_seq.order
    assert evaluate_expected(inst, best, smp) == opt_val


@pytest.mark.parametrize("n_vehicles", [6, 9])      # the instance has 7
def test_search_refuses_a_sample_of_the_wrong_length(n_vehicles):
    inst, _, start = small_setup()
    other = generate(preset_config(n_vehicles, seed=0, size_class="small"))
    with pytest.raises(ValueError, match=f"{n_vehicles} vehicles, the instance has 7"):
        search(inst, sample(other, 30, seed=1), start,
               SearchParams(iters_one=5, iters_full=5, seed=0))


def test_search_deterministic():
    inst, smp, start = small_setup()
    params = SearchParams(iters_one=60, iters_full=120, seed=11)
    b1, h1 = search(inst, smp, start, params)
    b2, h2 = search(inst, smp, start, params)
    assert b1.order == b2.order
    assert h1 == h2


def test_history_structure():
    inst, smp, start = small_setup()
    _, history = search(inst, smp, start,
                        SearchParams(iters_one=25, iters_full=40, seed=2))
    assert len(history) == 65
    one = [r for r in history if r.phase == "one"]
    full = [r for r in history if r.phase == "full"]
    assert [r.iteration for r in one] == list(range(1, 26))
    assert [r.iteration for r in full] == list(range(1, 41))
    assert all(r.elapsed is None for r in history)
    for rows in (one, full):
        objs = [r.objective for r in rows]
        assert all(a >= b for a, b in zip(objs, objs[1:]))
    for r in history:
        assert r.operator in MOVE_KINDS + ("none",)
        if r.operator == "none":
            assert not r.accepted


def test_search_result_respects_spacing():
    inst, smp, start = small_setup(iseed=9)
    best, _ = search(inst, smp, start,
                     SearchParams(iters_one=80, iters_full=400, seed=6))
    flags = [inst.vehicles[v].is_ev for v in best.order]
    assert no_adjacent_evs(flags)


def test_exhausted_redraws_record_none_rows():
    # EVs packed as densely as spacing allows plus a single redraw make
    # tabu rejections visible in the history
    vehicles = [Vehicle.of(i, i % 2 == 0, (5.0, 4.0)) for i in range(5)]
    inst = Instance.of(7.0, (20.0, 15.0), vehicles)
    smp = Sample.degenerate(inst)
    start = Sequence((0, 1, 2, 3, 4))
    _, history = search(inst, smp, start,
                        SearchParams(iters_one=0, iters_full=60, seed=1,
                                     max_tabu_redraws=1))
    assert any(r.operator == "none" for r in history)


def test_single_operator_weights():
    inst, smp, start = small_setup()
    _, history = search(inst, smp, start,
                        SearchParams(operator_weights=(1.0, 0.0, 0.0, 0.0),
                                     iters_one=30, iters_full=30, seed=8))
    assert {r.operator for r in history} <= {SWAP, "none"}


@pytest.mark.parametrize("weights", [DEFAULT_WEIGHTS, (1.0, 0.0, 0.0, 0.0),
                                     (0.0, 0.5, 0.0, 0.5), (0.0, 0.0, 0.0, 1.0)])
def test_kind_draw_reproduces_generator_choice(weights):
    # the search draws kinds by bisection on the cumulative weights; the
    # random stream, and so every history, must be that of rng.choice
    ours, theirs = make_rng(31), make_rng(31)
    cdf = _cumulative(weights)
    for _ in range(2000):
        assert _draw_kind(ours, cdf) == MOVE_KINDS[int(theirs.choice(4, p=weights))]
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_delta_spot_checks_change_nothing():
    inst, smp, start = small_setup(iseed=12)
    base = SearchParams(iters_one=40, iters_full=160, seed=9)
    checked = SearchParams(iters_one=40, iters_full=160, seed=9,
                           delta_check_every=7)
    b1, h1 = search(inst, smp, start, base)
    b2, h2 = search(inst, smp, start, checked)
    assert b1.order == b2.order
    assert h1 == h2


def test_delta_spot_check_catches_a_wrong_delta(monkeypatch):
    inst, smp, start = small_setup(iseed=12)
    probe_move = mmseq.tabu.partial_reevaluate

    def off_by_one(trajectory, move):
        probe, delta = probe_move(trajectory, move)
        return probe, delta + 1

    monkeypatch.setattr(mmseq.tabu, "partial_reevaluate", off_by_one)
    with pytest.raises(AssertionError, match="delta mismatch"):
        search(inst, smp, start, SearchParams(iters_one=0, iters_full=20, seed=9,
                                              delta_check_every=1))


def test_history_csv_format():
    rows = [HistoryRecord(1, None, "one", SWAP, True, 1.5),
            HistoryRecord(2, 0.25, "full", "none", False, 1.5)]
    lines = history_csv(rows).splitlines()
    assert lines[0] == "iteration,elapsed,phase,operator,accepted,objective"
    assert lines[1] == "1,,one,swap,1,1.500000"
    assert lines[2] == "2,0.250,full,none,0,1.500000"


# ------------------------------------------------------------- annealing

def test_metropolis_accepts_downhill_and_plateau():
    m = _Metropolis(make_rng(0), t_init=1.0, to_tu=lambda d: d / 1e4)
    assert m(0)
    assert m(-50_000)


def test_metropolis_freezes_at_tiny_temperature():
    m = _Metropolis(make_rng(0), t_init=1e-12, to_tu=lambda d: d / 1e4)
    assert not any(m(10_000) for _ in range(200))


def test_metropolis_acceptance_rate_tracks_temperature():
    rng = make_rng(42)
    m = _Metropolis(rng, t_init=2.0, to_tu=lambda d: d / 1e4)
    # delta of 1 TU at temperature 2: acceptance probability exp(-0.5)
    import math
    hits = sum(m(10_000) for _ in range(4000)) / 4000
    assert abs(hits - math.exp(-0.5)) < 0.03


def test_metropolis_cooling_is_geometric():
    m = _Metropolis(make_rng(0), t_init=10.0, to_tu=lambda d: d)
    m.cool(0.5)
    m.cool(0.5)
    assert m.temp == pytest.approx(2.5)


def test_sa_tiny_temperature_descends_monotonically():
    inst, smp, start = small_setup(iseed=4)
    _, history = simulated_annealing(inst, smp, start,
                                     SAParams(t_init=1e-9, alpha=0.5, seed=3),
                                     budget=300)
    objs = [r.objective for r in history]
    assert all(a >= b for a, b in zip(objs, objs[1:]))
    assert all(r.phase == "sa" for r in history)


def test_sa_deterministic():
    inst, smp, start = small_setup()
    b1, h1 = simulated_annealing(inst, smp, start, SAParams(seed=5), budget=150)
    b2, h2 = simulated_annealing(inst, smp, start, SAParams(seed=5), budget=150)
    assert b1.order == b2.order
    assert h1 == h2


def test_sa_never_returns_worse_than_start():
    inst, smp, start = small_setup(iseed=6)
    start_val = evaluate_expected(inst, start, smp)
    best, _ = simulated_annealing(inst, smp, start, SAParams(seed=2), budget=400)
    assert evaluate_expected(inst, best, smp) <= start_val


# ------------------------------------------------- documented behaviors

def test_tabu_beats_annealing_at_tight_budgets():
    # equal tiny budgets, paired seeds: the guided search descends faster
    # than the hot random walk (at long budgets the two converge together)
    inst = generate(preset_config(7, seed=6, size_class="small"))
    smp = sample(inst, 100, seed=2)
    start, _ = construct(inst)
    ts_vals, sa_vals = [], []
    for s in range(30):
        bt, _ = search(inst, smp, start,
                       SearchParams(iters_one=10, iters_full=90, seed=s))
        bs, _ = simulated_annealing(inst, smp, start, SAParams(seed=s),
                                    budget=100)
        ts_vals.append(evaluate_expected(inst, bt, smp))
        sa_vals.append(evaluate_expected(inst, bs, smp))
    assert sum(ts_vals) / 30 <= sum(sa_vals) / 30


def test_medium_recipe_reaches_verified_optima():
    # single-scenario medium-profile instances at enumeration-verifiable
    # size: most seeded runs should land exactly on the optimum and the
    # average shortfall should stay around a percent
    hits = 0
    gaps = []
    for i in range(30):
        inst = generate(preset_config(9, seed=50 + i, size_class="medium"))
        smp = Sample.degenerate(inst)
        start, _ = construct(inst)
        best, _ = search(inst, smp, start,
                         SearchParams(iters_one=15000, iters_full=5000, seed=i))
        val = evaluate_expected(inst, best, smp)
        _, opt = enumerate_optimal(inst, smp)
        assert val >= opt
        if val == opt:
            hits += 1
            gaps.append(0.0)
        else:
            gaps.append((val - opt) / opt)
    assert hits >= 18
    assert sum(gaps) / len(gaps) <= 0.015
