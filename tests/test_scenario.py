"""Scenario model and sampling."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmseq.instance import HIGH_RISK, LOW_RISK, Vehicle, generate, preset_config
from mmseq.instance import Instance
import mmseq.scenario
from mmseq.scenario import Sample, Scenario, sample
from mmseq.seeding import make_rng


def two_vehicle_instance(f0: float, f1: float) -> Instance:
    vehicles = [
        Vehicle.of(0, False, (5,), f0, HIGH_RISK if f0 >= 0.2 else LOW_RISK),
        Vehicle.of(1, False, (5,), f1, HIGH_RISK if f1 >= 0.2 else LOW_RISK),
    ]
    return Instance.of(5, (5,), vehicles)


def without_low_risk_failures(inst: Instance) -> Instance:
    """inst with every low-risk vehicle's failure probability set to 0:
    the same variates are drawn, and those vehicles always exist."""
    return dataclasses.replace(inst, vehicles=tuple(
        dataclasses.replace(veh, failure_prob=0.0) if veh.risk_class == LOW_RISK else veh
        for veh in inst.vehicles))


def test_scenario_all_exist():
    assert Scenario.all_exist(3).exists == (1, 1, 1)


def test_scenario_rejects_non_binary():
    for entry in (2, "1", -1):
        with pytest.raises(ValueError, match="0 or 1"):
            Scenario((0, entry))


def test_sample_all_exist_when_no_failures():
    inst = generate(preset_config(9, seed=0, size_class="medium"))
    smp = sample(inst, 25, seed=1)
    assert smp.n == 25
    assert smp.n_unique == 1
    scen, count = smp.unique[0]
    assert scen == Scenario.all_exist(9) and count == 25


def test_sample_deterministic():
    inst = generate(preset_config(8, seed=2, size_class="small"))
    assert sample(inst, 50, seed=9) == sample(inst, 50, seed=9)
    assert sample(inst, 50, seed=9) != sample(inst, 50, seed=10)


def test_sample_multiplicities_sum_to_n():
    inst = generate(preset_config(8, seed=4, size_class="small"))
    smp = sample(inst, 200, seed=3)
    assert sum(c for _, c in smp.unique) == 200
    keys = [s.exists for s, _ in smp.unique]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_sampling_law_frequencies():
    # two high-risk vehicles at p=0.3, four low-risk ones at p=0.1, and
    # the rest never fail
    base = generate(preset_config(10, seed=6, size_class="small"))
    probs = [0.3, 0.3, 0.1, 0.1, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0]
    inst = dataclasses.replace(base, vehicles=tuple(
        dataclasses.replace(veh, failure_prob=p,
                            risk_class=HIGH_RISK if p >= 0.2 else LOW_RISK)
        for veh, p in zip(base.vehicles, probs)))
    smp = sample(inst, 10_000, seed=0)
    fails = [0] * inst.n_vehicles
    for scen, count in smp.unique:
        for v, e in enumerate(scen.exists):
            if not e:
                fails[v] += count
    for v, p in enumerate(probs):
        assert abs(fails[v] / 10_000 - p) <= 0.02
    assert all(f == 0 for f in fails[6:])


def per_draw_sample(inst, n, seed):
    """Reference: one Scenario per draw, deduplicated afterwards."""
    u = make_rng(seed).random((n, inst.n_vehicles))
    return Sample.from_scenarios([
        Scenario(tuple(1 if u[i][v] >= veh.failure_prob else 0
                       for v, veh in enumerate(inst.vehicles)))
        for i in range(n)], seed=seed)


def both_risk_laws(inst: Instance, forbid: bool) -> tuple[Instance, Instance]:
    """(inst, other): other differs in whether low-risk vehicles can fail;
    with forbid, inst is the one where they cannot."""
    pair = (without_low_risk_failures(inst), inst)
    return pair if forbid else pair[::-1]


@pytest.mark.parametrize("forbid", [False, True])
def test_sample_matches_the_per_draw_reference(forbid):
    inst, other = both_risk_laws(
        generate(preset_config(40, seed=3, size_class="large")), forbid)
    smp = sample(inst, 500, seed=7)
    assert smp == per_draw_sample(inst, 500, 7)
    assert smp != sample(other, 500, seed=7)


@pytest.mark.parametrize("n", [4095, 4096, 4097])
@pytest.mark.parametrize("forbid", [False, True])
def test_sample_drawn_in_blocks_matches_one_draw(n, forbid):
    # failures frequent enough that the draws are nearly all distinct
    probs = [0.45, 0.15] * 10
    inst, other = both_risk_laws(Instance.of(5, (5,), [
        Vehicle.of(v, False, (5,), p, HIGH_RISK if p >= 0.2 else LOW_RISK)
        for v, p in enumerate(probs)]), forbid)
    # the same draw as one n x V block of variates
    fail = np.array([veh.failure_prob for veh in inst.vehicles])
    exists = make_rng(11).random((n, 20)) >= fail
    rows, counts = np.unique(exists, axis=0, return_counts=True)
    smp = sample(inst, n, seed=11)
    assert smp == Sample(n=n, seed=11, existence=rows.T, weights=counts)
    assert smp != sample(other, n, seed=11)


def _sample_bytes(inst, n, seed, block_bytes, monkeypatch):
    monkeypatch.setattr(mmseq.scenario, "_BLOCK_BYTES", block_bytes)
    smp = sample(inst, n, seed)
    return smp.existence.tobytes() + smp.weights.tobytes()


@pytest.mark.parametrize("block_rows", [1, 7, 256, None])   # None: the default bound
@pytest.mark.parametrize("forbid", [False, True])
def test_sample_bytes_do_not_depend_on_the_block_bound(block_rows, forbid, monkeypatch):
    inst = generate(preset_config(200, seed=8, size_class="large"))
    if forbid:
        inst = without_low_risk_failures(inst)
    row_bytes = 8 * inst.n_vehicles
    bound = (mmseq.scenario._BLOCK_BYTES if block_rows is None
             else block_rows * row_bytes)
    rows = bound // row_bytes
    for n in sorted({rows - 1, rows, rows + 1, 3000} - {0}):
        whole = _sample_bytes(inst, n, 5, n * row_bytes, monkeypatch)
        assert _sample_bytes(inst, n, 5, bound, monkeypatch) == whole


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 130).flatmap(lambda v: st.tuples(
           st.lists(st.sampled_from([0.0, 0.01, 0.2, 0.5]), min_size=v,
                    max_size=v),
           st.integers(1, 400), st.integers(0, 2**32 - 1))))
def test_sample_matches_np_unique_rows(case):
    probs, n, seed = case
    inst = Instance.of(5, (5,), [
        Vehicle.of(v, False, (5,), p, HIGH_RISK if p >= 0.2 else LOW_RISK)
        for v, p in enumerate(probs)])
    exists = make_rng(seed).random((n, len(probs))) >= np.array(probs)
    rows, counts = np.unique(exists.astype(np.int8), axis=0, return_counts=True)
    smp = sample(inst, n, seed)
    assert [s.exists for s, _ in smp.unique] == [tuple(r) for r in rows.tolist()]
    assert [c for _, c in smp.unique] == counts.tolist()
    assert np.array_equal(smp.existence, rows.T.astype(bool))
    assert smp.weights.tolist() == counts.tolist()


def test_sample_arrays_are_read_only():
    inst = generate(preset_config(8, seed=4, size_class="small"))
    smp = sample(inst, 200, seed=3)
    assert smp.existence.dtype == bool and smp.existence.flags.c_contiguous
    assert smp.weights.dtype == np.int64
    with pytest.raises(ValueError):
        smp.existence[0, 0] = not smp.existence[0, 0]
    with pytest.raises(ValueError):
        smp.weights[0] += 1
    # the sample holds copies: changing the arrays it was built from
    # changes nothing
    flags, counts = smp.existence.copy(), smp.weights.copy()
    built = Sample(n=smp.n, seed=None, existence=flags, weights=counts)
    flags[:] = False
    counts[:] = 1
    assert np.array_equal(built.existence, smp.existence)
    assert np.array_equal(built.weights, smp.weights)


# sha256 prefixes of the existence bytes and little-endian int64 counts
# of these draws, which pin the sampler's stream; the medium presets have
# no failures, so all three draw one all-exist column 500 times
_SAMPLE_DIGESTS = {
    ("small", 1): "77c69acbe2620adc", ("small", 7): "5f0f9e5588da2eed",
    ("small", 103): "bfdb56f0adeded4a", ("medium", 1): "486ef1578bb1ebd6",
    ("medium", 7): "486ef1578bb1ebd6", ("medium", 103): "486ef1578bb1ebd6",
    ("large", 1): "567a2a33b236277d", ("large", 7): "d5bb1c99623e0740",
    ("large", 103): "a295fc53476d64a0",
}


@pytest.mark.parametrize("size_class, n_vehicles", [
    ("small", 8), ("medium", 40), ("large", 200)])
@pytest.mark.parametrize("seed", [1, 7, 103])
def test_sample_seeds_existence_from_the_drawn_rows(size_class, n_vehicles, seed):
    inst = generate(preset_config(n_vehicles, seed, size_class))
    if seed == 7:
        inst = without_low_risk_failures(inst)
    smp = sample(inst, 500, seed)
    assert smp.existence.shape == (n_vehicles, smp.n_unique)
    assert smp.existence.T.astype(int).tolist() == [list(s.exists) for s, _ in smp.unique]
    assert Sample.from_scenarios([s for s, c in smp.unique for _ in range(c)],
                                 seed=seed) == smp
    drawn = smp.existence.tobytes() + smp.weights.astype("<i8").tobytes()
    assert hashlib.sha256(drawn).hexdigest()[:16] == _SAMPLE_DIGESTS[size_class, seed]


def test_from_scenarios_deduplicates():
    a = Scenario((1, 1))
    b = Scenario((1, 0))
    smp = Sample.from_scenarios([a, b, a, a])
    assert smp.n == 4
    assert smp.unique == ((b, 1), (a, 3))


def test_degenerate_sample():
    inst = two_vehicle_instance(0.1, 0.1)
    smp = Sample.degenerate(inst)
    assert smp.n == 1
    assert smp.unique == ((Scenario.all_exist(2), 1),)


def test_sample_validation():
    def make(columns, counts, n=None):
        flags = np.array(columns, dtype=bool).reshape(len(columns), 2).T
        return Sample(n=sum(counts) if n is None else n, seed=None,
                      existence=flags, weights=counts)

    with pytest.raises(ValueError, match="sum to n"):
        make([(1, 1)], [1], n=2)
    for keys in (((1, 1), (0, 1)),              # unsorted
                 ((0, 1), (0, 1)),              # duplicate
                 ((0, 1), (1, 1), (1, 0))):     # unsorted after a sorted pair
        with pytest.raises(ValueError, match="distinct and sorted"):
            make(keys, [1] * len(keys))
    with pytest.raises(ValueError, match="positive"):
        make([(0, 1), (1, 1)], [2, 0])
    with pytest.raises(ValueError, match="one multiplicity per scenario"):
        make([(0, 1), (1, 1)], [2])
    for counts in ([1.5, 1.0], [1, 2**64]):     # truncated, or beyond int64
        with pytest.raises(ValueError, match="integers"):
            make([(0, 1), (1, 1)], counts, n=3)
    with pytest.raises(ValueError, match="at least one column"):
        make([], [])
    with pytest.raises(ValueError, match="one length"):
        Sample.from_scenarios([Scenario((0, 1)), Scenario((0, 1, 1))])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3).flatmap(lambda v: st.tuples(
    st.just(v), st.lists(st.tuples(st.lists(st.sampled_from([0, 1]), min_size=v, max_size=v),
                       st.integers(-1, 3)), max_size=6),
    st.sampled_from([0, 0, 0, 1, -1]))))
def test_sample_accepts_exactly_what_the_tuple_rules_accept(case):
    """A matrix with counts is a Sample iff, read as (scenario, count)
    pairs, its scenarios are distinct and sorted, its counts positive
    and their sum n."""
    n_vehicles, columns, n_offset = case
    keys = [tuple(col) for col, _ in columns]
    counts = [count for _, count in columns]
    n = sum(counts) + n_offset
    valid = (bool(keys) and all(a < b for a, b in zip(keys, keys[1:]))
             and all(c > 0 for c in counts) and n_offset == 0)
    flags = np.array(keys, dtype=bool).reshape(len(keys), n_vehicles).T
    try:
        smp = Sample(n=n, seed=None, existence=flags, weights=counts)
    except ValueError:
        assert not valid
        return
    assert valid
    assert smp.unique == tuple((Scenario(k), c) for k, c in zip(keys, counts))
    assert Sample.from_scenarios(
        [s for s, c in smp.unique for _ in range(c)]) == smp

