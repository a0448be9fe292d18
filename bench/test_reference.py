"""Hand-worked cases for the benchmark's reference computations.

Run with:  python3 -m pytest bench/test_reference.py
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
import tracer

# one station, cycle 10 ticks, operating length 15, so the carried
# start is capped at 5 ticks
P = [[14, 14, 6]]
L = [15]
C = 10


def test_recursion_hand_worked():
    # (0, 1, 2): s = 14 (z -> 4), s = 18 -> overload 3 (z -> 5, capped),
    # last position against the cycle border: s = 11 -> overload 1
    assert ref.overload_ticks(P, L, C, (0, 1, 2), [[1, 1, 1]]).tolist() == [4]
    # (0, 2, 1): s = 14 (z -> 4), s = 10 (z -> 0), last s = 14 -> 4
    assert ref.overload_ticks(P, L, C, (0, 2, 1), [[1, 1, 1]]).tolist() == [4]
    # (2, 0, 1): s = 6 (idle, z -> 0), s = 14 (z -> 4), last s = 18 -> 8
    assert ref.overload_ticks(P, L, C, (2, 0, 1), [[1, 1, 1]]).tolist() == [8]


def test_failed_vehicle_takes_the_cycle_time():
    # vehicle 1 failed: b = 10 keeps z at 4, last s = 4 + 6 -> 0
    got = ref.overload_ticks(P, L, C, (0, 1, 2), [[1, 0, 1], [0, 0, 0]])
    assert got.tolist() == [0, 0]


def test_numerator_weights_by_count():
    # with vehicle 1 failed, (2, 0, 1) still ends on s = 4 + 10 -> 4:
    # the regenerative end charges the carried work
    exists = [[1, 1, 1], [1, 0, 1]]
    assert ref.numerator(P, L, C, (2, 0, 1), exists, [3, 2]) == 3 * 8 + 2 * 4


def test_brute_force_hand_worked():
    # costs: 012 -> 4, 021 -> 4, 102 -> 4, 120 -> 4, 201 -> 8, 210 -> 8
    value, order = ref.brute_force(P, L, C, [[1, 1, 1]], [1])
    assert (value, order) == (4, (0, 1, 2))


def test_brute_force_matches_a_loop_over_permutations():
    rng = np.random.default_rng(0)
    p = rng.integers(5, 25, size=(2, 5))
    lengths, c = [22, 18], 12
    exists = np.array([[1, 1, 1, 1, 1], [1, 0, 1, 1, 0], [0, 1, 1, 1, 1]])
    counts = [5, 2, 1]
    nums = {perm: ref.numerator(p, lengths, c, perm, exists, counts)
            for perm in itertools.permutations(range(5))}
    best = min(nums.values())
    first = next(perm for perm in sorted(nums) if nums[perm] == best)
    assert ref.brute_force(p, lengths, c, exists, counts, chunk=7) == (best, first)


def test_brute_force_refuses_ten_vehicles():
    with pytest.raises(ValueError):
        ref.brute_force([[1] * 10], [2], 1, [[1] * 10], [1])


def test_derive_seed_shifts_keys():
    root = np.random.SeedSequence(7).generate_state(1, dtype=np.uint64)[0]
    assert ref.derive_seed(7) == int(root)
    assert ref.derive_seed(7, 0) != ref.derive_seed(7)
    assert ref.derive_seed(7, 0) == int(
        np.random.SeedSequence((7, 1)).generate_state(1, dtype=np.uint64)[0])


def test_draw_never_fails_at_probability_zero():
    rows, counts = ref.draw([0.0, 0.0, 0.0], 50, seed=3)
    assert rows.tolist() == [[1, 1, 1]] and counts.tolist() == [50]


def test_draw_rule_dedup_and_order():
    probs = [0.3, 0.0, 0.45]
    rows, counts = ref.draw(probs, 200, seed=11)
    u = np.random.Generator(np.random.PCG64(np.random.SeedSequence(11))).random((200, 3))
    draws = [tuple(int(x >= f) for x, f in zip(row, probs)) for row in u]
    want = sorted(set(draws))
    assert [tuple(r) for r in rows.tolist()] == want
    assert counts.tolist() == [draws.count(w) for w in want]


def test_ev_spacing():
    is_ev = [True, False, False, True, False, False]
    assert ref.ev_spacing_ok((0, 1, 2, 3, 4, 5), is_ev)
    assert not ref.ev_spacing_ok((1, 0, 2, 3, 4, 5), is_ev)      # no EV first
    assert not ref.ev_spacing_ok((0, 3, 1, 2, 4, 5), is_ev)      # gap 1 < 3
    assert ref.no_adjacent_evs((0, 1, 2, 3, 4, 5), is_ev)
    assert not ref.no_adjacent_evs((0, 3, 1, 2, 4, 5), is_ev)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["b", 5.0, 6.0, 0, None]]
    st = tracer.SpanStats(spans)
    assert st.calls["b"] == 2 and st.total["b"] == 4.0
    assert st.self_time["a"] == 6.0 and st.self_time["b"] == 3.0
    assert st.total_where_parent("c", {"b"}) == 1.0
