"""Scenario model, probabilities, sampling, and enumeration."""

import dataclasses
import math

import pytest

from mmseq.errors import ParseError, SizeGuardError
from mmseq.instance import HIGH_RISK, LOW_RISK, Vehicle, generate, preset_config
from mmseq.instance import Instance
from mmseq.scenario import (Sample, Scenario, enumerate_all, load_sample,
                            sample, save_sample, scenario_probability)


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
    with pytest.raises(ValueError):
        Scenario((0, 2))


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
    with pytest.raises(ValueError):
        Sample(n=2, seed=None, unique=((Scenario((1, 1)), 1),))
    with pytest.raises(ValueError):
        Sample(n=2, seed=None, unique=(
            (Scenario((1, 1)), 1), (Scenario((0, 1)), 1)))  # unsorted


def test_sample_file_round_trip(tmp_path):
    inst = generate(preset_config(8, seed=8, size_class="small"))
    smp = sample(inst, 64, seed=5)
    path = tmp_path / "sample.yaml"
    save_sample(smp, path)
    assert load_sample(path) == smp


def test_load_sample_rejects_malformed_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("version: mms-sample/1\nscenarios: [{bits: \"01\"\n")
    with pytest.raises(ParseError, match="bad.yaml"):
        load_sample(path)
