"""Scenario model, probabilities, sampling, and enumeration."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmseq.errors import ParseError, SizeGuardError
from mmseq.instance import HIGH_RISK, LOW_RISK, Vehicle, generate, preset_config
from mmseq.instance import Instance
from mmseq.scenario import (_BLOCK_ROWS, Sample, Scenario, enumerate_all,
                            load_sample, sample, save_sample, scenario_probability)
from mmseq.seeding import make_rng


def two_vehicle_instance(f0: float, f1: float) -> Instance:
    vehicles = [
        Vehicle.of(0, False, (5,), f0, HIGH_RISK if f0 >= 0.2 else LOW_RISK),
        Vehicle.of(1, False, (5,), f1, HIGH_RISK if f1 >= 0.2 else LOW_RISK),
    ]
    return Instance.of(5, (5,), vehicles)


def test_scenario_bits_round_trip():
    s = Scenario.from_bits("1011")
    assert s.exists == (1, 0, 1, 1)
    assert s.bits() == "1011"
    assert s.n_existing == 3
    assert Scenario.all_exist(3).exists == (1, 1, 1)


def test_scenario_rejects_non_binary():
    for entry in (2, "1", -1):
        with pytest.raises(ValueError, match="0 or 1"):
            Scenario((0, entry))


def test_probability_no_failures():
    inst = two_vehicle_instance(0.0, 0.0)
    assert scenario_probability(inst, Scenario.all_exist(2)) == 1.0


def test_probability_direct_product():
    inst = two_vehicle_instance(0.4, 0.4)
    # first exists (prob 0.6), second fails (prob 0.4)
    assert scenario_probability(inst, Scenario((1, 0))) == pytest.approx(0.24)


def test_probability_independent_product_oracle():
    inst = generate(preset_config(7, seed=5, size_class="small"))
    scen = Scenario((1, 0, 1, 1, 0, 1, 1))
    expected = 1.0
    for veh, e in zip(inst.vehicles, scen.exists):
        expected *= (1.0 - veh.failure_prob) if e else veh.failure_prob
    assert scenario_probability(inst, scen) == pytest.approx(expected, abs=0)


def test_enumerate_all_two_vehicles():
    inst = two_vehicle_instance(0.1, 0.2)
    pairs = list(enumerate_all(inst))
    assert len(pairs) == 4
    assert [s.bits() for s, _ in pairs] == ["00", "01", "10", "11"]


def test_enumerate_all_zero_prob_vehicles():
    vehicles = [Vehicle.of(0, False, (5,), 0.0, LOW_RISK),
                Vehicle.of(1, False, (5,), 0.0, LOW_RISK),
                Vehicle.of(2, False, (5,), 0.3, HIGH_RISK)]
    inst = Instance.of(5, (5,), vehicles)
    pairs = list(enumerate_all(inst))
    assert len(pairs) == 8
    nonzero = {s.bits(): p for s, p in pairs if p > 0}
    assert nonzero == {"111": pytest.approx(0.7), "110": pytest.approx(0.3)}


def test_enumerate_all_probabilities_sum_to_one():
    inst = generate(preset_config(7, seed=3, size_class="small"))
    pairs = list(enumerate_all(inst))
    assert len(pairs) == 2**7
    assert math.fsum(p for _, p in pairs) == pytest.approx(1.0, abs=1e-9)


def test_enumerate_all_guard():
    inst = generate(preset_config(21, seed=0, size_class="large"))
    with pytest.raises(SizeGuardError):
        list(enumerate_all(inst))


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
    # two high-risk vehicles at p=0.3; low-risk failures forbidden by flag
    base = generate(preset_config(10, seed=6, size_class="small"))
    vehicles = []
    for v, veh in enumerate(base.vehicles):
        if v < 2:
            vehicles.append(dataclasses.replace(
                veh, failure_prob=0.3, risk_class=HIGH_RISK))
        else:
            vehicles.append(dataclasses.replace(
                veh, failure_prob=0.2, risk_class=LOW_RISK))
    inst = dataclasses.replace(base, vehicles=tuple(vehicles))
    smp = sample(inst, 10_000, seed=0, forbid_low_risk_failures=True)
    fails = [0] * inst.n_vehicles
    for scen, count in smp.unique:
        for v, e in enumerate(scen.exists):
            if not e:
                fails[v] += count
    for v in range(2):
        assert abs(fails[v] / 10_000 - 0.3) <= 0.02
    assert all(f == 0 for f in fails[2:])


def per_draw_sample(inst, n, seed, forbid_low_risk_failures):
    """Reference: one Scenario per draw, deduplicated afterwards."""
    u = make_rng(seed).random((n, inst.n_vehicles))
    return Sample.from_scenarios([
        Scenario(tuple(
            1 if (forbid_low_risk_failures and veh.risk_class == LOW_RISK)
            or u[i][v] >= veh.failure_prob else 0
            for v, veh in enumerate(inst.vehicles)))
        for i in range(n)], seed=seed)


@pytest.mark.parametrize("forbid", [False, True])
def test_sample_matches_the_per_draw_reference(forbid):
    inst = generate(preset_config(40, seed=3, size_class="large"))
    smp = sample(inst, 500, seed=7, forbid_low_risk_failures=forbid)
    assert smp == per_draw_sample(inst, 500, 7, forbid)
    assert smp != sample(inst, 500, seed=7, forbid_low_risk_failures=not forbid)


@pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
@pytest.mark.parametrize("forbid", [False, True])
def test_sample_drawn_in_blocks_matches_one_draw(n, forbid):
    # failures frequent enough that the draws are nearly all distinct
    probs = [0.45, 0.15] * 10
    inst = Instance.of(5, (5,), [
        Vehicle.of(v, False, (5,), p, HIGH_RISK if p >= 0.2 else LOW_RISK)
        for v, p in enumerate(probs)])
    # the same draw as one n x V block of variates
    exists = make_rng(11).random((n, 20)) >= np.array(probs)
    if forbid:
        exists |= np.array(probs) < 0.2
    rows, counts = np.unique(exists, axis=0, return_counts=True)
    smp = sample(inst, n, seed=11, forbid_low_risk_failures=forbid)
    assert smp == Sample(n=n, seed=11, existence=rows.T, weights=counts)
    assert smp != sample(inst, n, seed=11, forbid_low_risk_failures=not forbid)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 130).flatmap(lambda v: st.tuples(
           st.lists(st.sampled_from([0.0, 0.01, 0.2, 0.5]), min_size=v,
                    max_size=v),
           st.integers(1, 400), st.integers(0, 2**32 - 1), st.booleans())))
def test_sample_matches_np_unique_rows(case):
    probs, n, seed, forbid = case
    inst = Instance.of(5, (5,), [
        Vehicle.of(v, False, (5,), p, HIGH_RISK if p >= 0.2 else LOW_RISK)
        for v, p in enumerate(probs)])
    exists = make_rng(seed).random((n, len(probs))) >= np.array(probs)
    if forbid:
        exists |= np.array(probs) < 0.2
    rows, counts = np.unique(exists.astype(np.int8), axis=0, return_counts=True)
    smp = sample(inst, n, seed, forbid_low_risk_failures=forbid)
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


# sha256 prefixes of the save_sample files of these draws: the bytes a
# sample file holds are part of the format
_SAMPLE_FILE_DIGESTS = {
    ("small", 1): "00fd2d5cb47a1ba5", ("small", 7): "35ce3e702eaedf4f",
    ("small", 103): "0a2d93a7a289b63b", ("medium", 1): "28dfcbd5219642b3",
    ("medium", 7): "b2706f9d241213d6", ("medium", 103): "ad4e40c65a39c661",
    ("large", 1): "a5a0f85cd7b9b1a2", ("large", 7): "621e3c747814481d",
    ("large", 103): "82be9ea13909d651",
}


@pytest.mark.parametrize("size_class, n_vehicles", [
    ("small", 8), ("medium", 40), ("large", 200)])
@pytest.mark.parametrize("seed", [1, 7, 103])
def test_sample_seeds_existence_from_the_drawn_rows(tmp_path, size_class,
                                                    n_vehicles, seed):
    inst = generate(preset_config(n_vehicles, seed, size_class))
    smp = sample(inst, 500, seed, forbid_low_risk_failures=seed == 7)
    assert smp.existence.shape == (n_vehicles, smp.n_unique)
    assert smp.existence.T.astype(int).tolist() == [list(s.exists) for s, _ in smp.unique]
    assert Sample.from_scenarios([s for s, c in smp.unique for _ in range(c)],
                                 seed=seed) == smp
    save_sample(smp, tmp_path / "sample.yaml")
    digest = hashlib.sha256((tmp_path / "sample.yaml").read_bytes()).hexdigest()
    assert digest[:16] == _SAMPLE_FILE_DIGESTS[size_class, seed]


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


def test_sample_file_round_trip(tmp_path):
    inst = generate(preset_config(8, seed=8, size_class="small"))
    smp = sample(inst, 64, seed=5)
    path = tmp_path / "sample.yaml"
    save_sample(smp, path)
    assert load_sample(path) == smp


@pytest.mark.parametrize("scenarios", [
    '[{bits: "01", count: 1}, {bits: "011", count: 2}]',   # two lengths
    '[{bits: "011", count: 3}]\nextra: 2001-13-45',       # no such date
    '[{bits: !!int x, count: 3}]',                         # bad tagged scalar
])
def test_load_sample_rejects_bad_values_as_parse_errors(tmp_path, scenarios):
    path = tmp_path / "bad.yaml"
    path.write_text(f"version: mms-sample/1\nseed: 1\nn: 3\nscenarios: {scenarios}\n")
    with pytest.raises(ParseError, match="bad.yaml"):
        load_sample(path)


def test_load_sample_rejects_malformed_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("version: mms-sample/1\nscenarios: [{bits: \"01\"\n")
    with pytest.raises(ParseError, match="bad.yaml"):
        load_sample(path)


@pytest.mark.parametrize("bits, count, n, where", [
    ('"01x"', "3", "3", "scenarios[0].bits"),
    ('"012"', "3", "3", "scenarios[0].bits"),
    ('"011"', "abc", "3", "scenarios[0].count"),
    ('"011"', "1.7", "3", "scenarios[0].count"),
    ('"011"', "3", "3.0", "n"),
    ('"011"', str(2**63), str(2**63), "scenarios[0].count"),   # above int64
    ('"011"', "3", str(10**30), "n"),
])
def test_load_sample_rejects_malformed_rows(tmp_path, bits, count, n, where):
    path = tmp_path / "bad.yaml"
    path.write_text(f"version: mms-sample/1\nseed: 1\nn: {n}\n"
                    f"scenarios:\n- {{bits: {bits}, count: {count}}}\n")
    with pytest.raises(ParseError, match=re.escape(f"bad {where}")):
        load_sample(path)


@pytest.mark.parametrize("seed, scenarios, where", [
    ("1", "17", "scenarios"),
    ("1", "abc", "scenarios"),
    ("1", "{a: 1}", "scenarios"),
    ("1", "[]", "scenarios"),                  # no scenario at all
    ("abc", '[{bits: "011", count: 3}]', "seed"),
    ("1.5", '[{bits: "011", count: 3}]', "seed"),
])
def test_load_sample_rejects_malformed_fields(tmp_path, seed, scenarios, where):
    path = tmp_path / "bad.yaml"
    path.write_text(f"version: mms-sample/1\nseed: {seed}\nn: 3\n"
                    f"scenarios: {scenarios}\n")
    with pytest.raises(ParseError, match=re.escape(f"bad {where}")):
        load_sample(path)


@pytest.fixture(scope="module")
def sample_file_base(tmp_path_factory):
    inst = generate(preset_config(9, seed=13, size_class="large"))
    folder = tmp_path_factory.mktemp("sample-fuzz")
    save_sample(sample(inst, 40, seed=17), folder / "sample.yaml")
    text = (folder / "sample.yaml").read_text(encoding="utf-8")
    # words and the separators between them, each one token
    return re.split(r'(\s+|[{}:,"-])', text), folder / "bad.yaml"


# junk for one token of a sample file
_SAMPLE_JUNK = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", " ", "\n", "-", "-1", "0", "2", "1e400", "nan", "null",
                     "true", "~", "[]", "{}", "*a", "&a", "!!int x",
                     "2001-13-45", "0b12", "bits", "count", "mms-sample/2"]),
    st.integers(min_value=-10**30, max_value=10**30).map(str),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_sample_survives_one_mutated_token(sample_file_base, data):
    tokens, bad = sample_file_base
    tokens = list(tokens)
    tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(_SAMPLE_JUNK)
    bad.write_text("".join(tokens), encoding="utf-8")
    try:
        smp = load_sample(bad)
    except ParseError:
        return
    assert smp.existence.shape[1] == smp.n_unique
