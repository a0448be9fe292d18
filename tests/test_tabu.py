"""Tabu rules and the two-phase search."""

import hashlib
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
from mmseq.tabu import (DEFAULT_WEIGHTS, HistoryRecord, SearchParams, _cumulative,
                        _draw_kind, _tabu, history_csv, is_tabu, search)

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


@pytest.mark.parametrize("field,value", [
    ("tau_one", float("nan")), ("tau_full", float("nan")),
    ("iters_one", -3), ("iters_one", 2.5), ("iters_full", -1), ("iters_full", 2.0),
    ("max_tabu_redraws", 0), ("max_tabu_redraws", 1.5),
    ("delta_check_every", -1), ("delta_check_every", 0.5)])
def test_search_params_refuse_bad_fields(field, value):
    # each would run silently: zero iterations, an all-"none" history,
    # a spot check on every iteration or a phase that never times out
    name = "phase budgets" if field.startswith("tau") else field
    with pytest.raises(ValueError, match=name):
        SearchParams(**{field: value})


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
def test_search_refuses_a_sample_of_the_wrong_length(n_vehicles, monkeypatch):
    inst, _, start = small_setup()
    other = generate(preset_config(n_vehicles, seed=0, size_class="small"))

    def no_phase(*args, **kwargs):
        raise AssertionError("a phase ran before the sample was checked")

    # refused on entry, before phase one runs on a sample of its own
    monkeypatch.setattr(mmseq.tabu, "_run_phase", no_phase)
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


@pytest.mark.parametrize("n_vehicles,size_class", [(9, "medium"), (40, "large"),
                                                   (200, "large")])
def test_probe_limits_change_no_search(n_vehicles, size_class, monkeypatch):
    # tabu-large's configuration: phases of 2 and 98 iterations
    inst = generate(preset_config(n_vehicles, seed=8, size_class=size_class))
    smp = sample(inst, 100, seed=9)
    start, _ = construct(inst)
    params = SearchParams(iters_one=2, iters_full=98, seed=0)
    probe_move = mmseq.tabu.partial_reevaluate
    limits, pruned = [], []

    def recorded(trajectory, move, *limit):
        limits.extend(limit)
        probe, delta = probe_move(trajectory, move, *limit)
        pruned.append(probe.pruned)
        return probe, delta

    def unlimited(trajectory, move, *limit):
        return probe_move(trajectory, move)

    monkeypatch.setattr(mmseq.tabu, "partial_reevaluate", recorded)
    b1, h1 = search(inst, smp, start, params)
    monkeypatch.setattr(mmseq.tabu, "partial_reevaluate", unlimited)
    b2, h2 = search(inst, smp, start, params)
    assert b1.order == b2.order
    assert h1 == h2
    assert limits and set(limits) == {0}
    if n_vehicles > 9:
        assert any(pruned)


@pytest.mark.parametrize("n_vehicles,size_class,digest", [
    (9, "medium", "280869cd0cc64cb5e5b1ea0270e99b77d4b6585e3550119207c35d8c4e2e6fdc"),
    (40, "large", "737c483da5dbfc2794b3e750cece5eb7aa630c8b3434fbf13669388308aba02a"),
    (200, "large", "e5d27651f41e08c39b27b83284c8ff7ae54924fed1ce572a25582c1aebf4cf81")])
def test_search_output_is_pinned(n_vehicles, size_class, digest):
    # sha256 of the order and history of tabu-large's configuration; a
    # change to the random stream, the tabu rule or acceptance moves it
    inst = generate(preset_config(n_vehicles, seed=8, size_class=size_class))
    start, _ = construct(inst)
    best, history = search(inst, sample(inst, 100, seed=9), start,
                           SearchParams(iters_one=2, iters_full=98, seed=0))
    text = repr(best.order) + "\n" + history_csv(history)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_spot_checked_iterations_probe_without_a_limit(monkeypatch):
    inst, smp, start = small_setup(iseed=12)
    probe_move = mmseq.tabu.partial_reevaluate
    limited = []

    def recorded(trajectory, move, *limit):
        limited.append(bool(limit))
        return probe_move(trajectory, move, *limit)

    monkeypatch.setattr(mmseq.tabu, "partial_reevaluate", recorded)
    _, history = search(inst, smp, start, SearchParams(iters_one=40, iters_full=160,
                                                       seed=9, delta_check_every=3))
    probed = [r.iteration for r in history if r.operator != "none"]
    assert len(probed) == len(limited)
    assert limited == [it % 3 != 0 for it in probed]


def test_history_csv_format():
    rows = [HistoryRecord(1, None, "one", SWAP, True, 1.5),
            HistoryRecord(2, 0.25, "full", "none", False, 1.5)]
    lines = history_csv(rows).splitlines()
    assert lines[0] == "iteration,elapsed,phase,operator,accepted,objective"
    assert lines[1] == "1,,one,swap,1,1.500000"
    assert lines[2] == "2,0.250,full,none,0,1.500000"


# ------------------------------------------------- documented behaviors

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
