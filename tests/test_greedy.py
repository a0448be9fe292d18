"""Constructive heuristic: weight formula, EV pattern, full builds."""

import hashlib

import pytest

from mmseq.evaluator import evaluate
from mmseq.exact import enumerate_optimal
from mmseq.greedy import construct, ev_position_pattern, utilization_weight
from mmseq.instance import Instance, Vehicle, generate, preset_config
from mmseq.scenario import Sample
from mmseq.seeding import make_rng

from conftest import letters, random_instance, worked_example


# ---------------------------------------------------------------- weight

def test_weight_single_vehicle_full_cycle():
    # one station, one vehicle with p = c: weight collapses to c itself
    inst = Instance.of(7.0, (20.0,), [Vehicle.of(0, False, (7.0,))])
    assert utilization_weight(inst, {0}, 0) == pytest.approx(7.0)


def test_weight_worked_vehicle_by_hand():
    worked = worked_example()
    # vehicle C against the full pool: (2*42 + 10*41) / (2*6*7)
    by_hand = (2 * 42 + 10 * 41) / (2 * 6 * 7)
    got = utilization_weight(worked, range(6), 2)
    assert got == pytest.approx(by_hand)


def test_weight_halves_when_cycle_doubles():
    worked = worked_example()
    base = utilization_weight(worked, range(6), 2)
    wide = Instance.of(
        14.0, (20.0, 10.0),
        [Vehicle.of(v.id, v.is_ev,
                    tuple(p / 10_000 for p in v.processing_times))
         for v in worked.vehicles])
    assert utilization_weight(wide, range(6), 2) == pytest.approx(base / 2)


def test_weight_rejects_empty_pool():
    worked = worked_example()
    with pytest.raises(ValueError, match="empty"):
        utilization_weight(worked, set(), 2)


# --------------------------------------------------------------- pattern

def test_pattern_two_of_six_is_exact():
    # 6 / 2 has no fractional part, so the layout is forced
    assert ev_position_pattern(2, 6, seed=0) == (
        True, False, False, True, False, False)


def test_pattern_no_evs():
    assert ev_position_pattern(0, 5, seed=3) == (False,) * 5


def test_pattern_all_positions():
    assert ev_position_pattern(4, 4, seed=9) == (True,) * 4


def test_pattern_three_of_ten_gap_law():
    for seed in range(40):
        mask = ev_position_pattern(3, 10, seed=seed)
        assert mask[0] is True
        positions = [t for t, flag in enumerate(mask) if flag]
        assert len(positions) == 3
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        assert all(g in (3, 4) for g in gaps)


def test_pattern_counts_and_start_bit():
    rng = make_rng(77)
    for _ in range(60):
        total = int(rng.integers(1, 15))
        ev = int(rng.integers(0, total + 1))
        mask = ev_position_pattern(ev, total, seed=int(rng.integers(1 << 30)))
        assert len(mask) == total
        assert sum(mask) == ev
        if ev > 0:
            assert mask[0] is True


def test_pattern_deterministic():
    assert ev_position_pattern(5, 17, seed=123) == ev_position_pattern(5, 17, seed=123)


def test_pattern_rejects_bad_count():
    with pytest.raises(ValueError):
        ev_position_pattern(4, 3, seed=0)
    with pytest.raises(ValueError):
        ev_position_pattern(-1, 3, seed=0)


# --------------------------------------------------------------- builds

def test_worked_example_build():
    worked = worked_example()
    order, trace = construct(worked)
    assert letters(order) == "A-C-F-B-E-D"
    ev = evaluate(worked, order)
    assert ev.total_overload == 3 * 10_000
    assert len(trace.rows) == 6


def test_trace_rows_are_consistent():
    worked = worked_example()
    order, trace = construct(worked)
    for t, row in enumerate(trace.rows):
        assert row.position == t
        assert row.chosen == order.order[t]
        assert row.category == (
            "ev" if worked.vehicles[row.chosen].is_ev else "non_ev")
        assert row.n_candidates >= row.n_after_overload >= row.n_after_idle >= 1


def test_trace_csv_shape():
    worked = worked_example()
    _, trace = construct(worked)
    lines = trace.to_csv().splitlines()
    assert lines[0] == "position,category,candidates,after_overload,after_idle,chosen"
    assert len(lines) == 7
    assert lines[1].startswith("0,ev,")


def test_identical_vehicles_break_ties_by_id():
    vehicles = [Vehicle.of(i, False, (5.0, 5.0)) for i in range(6)]
    inst = Instance.of(7.0, (20.0, 15.0), vehicles)
    order, _ = construct(inst)
    assert order.order == (0, 1, 2, 3, 4, 5)


def test_build_is_a_permutation_everywhere(rng):
    for _ in range(25):
        inst = random_instance(rng)
        order, trace = construct(inst, seed=int(rng.integers(1 << 30)))
        assert sorted(order.order) == list(range(inst.n_vehicles))
        assert len(trace.rows) == inst.n_vehicles


def test_build_deterministic(rng):
    inst = random_instance(rng, n=8)
    assert construct(inst, seed=5)[0] == construct(inst, seed=5)[0]


def test_build_never_beats_exact_optimum():
    # sanity bound: the heuristic value dominates the enumerated optimum
    for i in range(6):
        inst = generate(preset_config(7, seed=400 + i, size_class="medium"))
        smp = Sample.degenerate(inst)
        order, _ = construct(inst)
        heur = evaluate(inst, order).total_overload
        _, opt = enumerate_optimal(inst, smp)
        assert heur >= opt


def test_ev_positions_follow_the_pattern(rng):
    for _ in range(15):
        inst = random_instance(rng)
        order, trace = construct(inst, seed=int(rng.integers(1 << 30)))
        for row in trace.rows:
            veh = inst.vehicles[row.chosen]
            assert veh.is_ev == (row.category == "ev")


# Pinned builds, one instance per size class at V=40 and V=200 (preset
# seed 8, construct seed 1): the first ten positions and the sha256 of
# the trace CSV, whose chosen column is the whole order.  A changed
# tie-break in any of the three stages changes one of them.
@pytest.mark.parametrize("size_class, n, head, csv_sha256", [
    ("small", 40, (23, 34, 37, 30, 11, 18, 14, 1, 12, 26),
     "da74bb9fd8da7a130762d3bb3a230d6bb13cf77bb7afa3d25e6e49c23bd43d89"),
    ("small", 200, (176, 0, 90, 127, 2, 40, 39, 23, 187, 94),
     "9d3948e3afd2b1a5bd879027b6807b74c7d9eebc4ec4ce4b2b9bbfc5c6d2b4fd"),
    ("medium", 40, (27, 8, 33, 22, 13, 26, 0, 15, 11, 18),
     "a9b5a41fd6ae7774e48fd617b7814db375767acd48967ff978e3a4c62bd4e348"),
    ("medium", 200, (67, 121, 47, 163, 197, 33, 49, 4, 186, 116),
     "e09ab85bf0203282bda5741c4210fba5b71ae013c25eea1a2195ab471b1cb49a"),
    ("large", 40, (27, 24, 8, 5, 3, 37, 6, 30, 13, 33),
     "06caeae97b8c06d874d5caf5d9308cb4db9977634e3d61e44e3d702f81038150"),
    ("large", 200, (135, 10, 2, 189, 8, 90, 21, 58, 115, 48),
     "85f5c2e7faf9292f2f78220be6728fac62e0093c0bc21cced98b59436a87714a"),
])
def test_golden_builds(size_class, n, head, csv_sha256):
    order, trace = construct(generate(preset_config(n, seed=8, size_class=size_class)),
                             seed=1)
    assert order.order[:10] == head
    assert tuple(r.chosen for r in trace.rows) == order.order
    assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == csv_sha256
