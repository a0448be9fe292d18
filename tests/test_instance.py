"""Instance model, generator, and file round-trips."""

import dataclasses

import pytest

from mmseq.errors import ConfigError, ParseError
from mmseq.instance import (HIGH_RISK, Station, Vehicle, generate,
                            instance_digest, load, preset_config, save,
                            validate, validate_config)
from mmseq.timeunits import TICKS_PER_TU

from conftest import worked_example


def test_preset_instance_is_valid():
    inst = generate(preset_config(10, seed=3, size_class="small"))
    assert validate(inst) == []
    assert inst.n_vehicles == 10
    assert inst.n_stations == 5
    assert inst.cycle_time == 97 * TICKS_PER_TU
    assert [st.length for st in inst.stations] == [
        240 * TICKS_PER_TU] + [120 * TICKS_PER_TU] * 4


def test_validate_flags_short_station():
    inst = generate(preset_config(8, seed=0))
    bad = dataclasses.replace(
        inst, stations=(Station(0, 90 * TICKS_PER_TU),) + inst.stations[1:])
    problems = validate(bad)
    assert len(problems) == 1
    assert "length below cycle time" in problems[0]


def test_validate_flags_nonpositive_processing():
    inst = generate(preset_config(8, seed=0))
    veh = inst.vehicles[2]
    bad_veh = dataclasses.replace(
        veh, processing_times=(0,) + veh.processing_times[1:])
    bad = dataclasses.replace(
        inst, vehicles=inst.vehicles[:2] + (bad_veh,) + inst.vehicles[3:])
    problems = validate(bad)
    assert len(problems) == 1
    assert "positive" in problems[0]


def test_ev_ratio_within_range():
    for seed in range(6):
        inst = generate(preset_config(10, seed=seed))
        ratio = sum(v.is_ev for v in inst.vehicles) / inst.n_vehicles
        assert 0.25 - 1e-9 <= ratio <= 1 / 3 + 1e-9


def test_high_risk_fraction_within_range():
    for n, seed in [(8, 0), (8, 5), (10, 1), (20, 2)]:
        inst = generate(preset_config(n, seed=seed, size_class="small"))
        frac = sum(v.risk_class == HIGH_RISK for v in inst.vehicles) / n
        assert 0.15 - 1e-9 <= frac <= 0.25 + 1e-9


def test_failure_probs_within_ranges():
    inst = generate(preset_config(10, seed=4, size_class="small"))
    for veh in inst.vehicles:
        if veh.risk_class == HIGH_RISK:
            assert 0.2 <= veh.failure_prob <= 0.35
        else:
            assert 0.0 <= veh.failure_prob <= 0.01


def test_generation_is_deterministic():
    cfg = preset_config(9, seed=11)
    assert generate(cfg) == generate(cfg)


def test_generated_times_follow_station_profile():
    # station index 1 has profile (7.9, 84.3, 197.9); with 1000 vehicles
    # the sample statistics pin down the draw law
    inst = generate(preset_config(1000, seed=7, size_class="large"))
    times = [v.processing_times[1] / TICKS_PER_TU for v in inst.vehicles]
    assert min(times) >= 7.9
    assert max(times) <= 197.9
    mean = sum(times) / len(times)
    assert abs(mean - 84.3) <= 0.1 * 84.3


def test_generated_times_are_on_the_tick_grid():
    inst = generate(preset_config(10, seed=2))
    for veh in inst.vehicles:
        for p in veh.processing_times:
            assert isinstance(p, int) and p > 0


def test_beta_is_finite_and_nonnegative():
    inst = generate(preset_config(8, seed=1))
    for k in range(inst.n_stations):
        assert inst.beta(k) >= 0.0


def test_save_load_round_trip(tmp_path):
    inst = generate(preset_config(8, seed=9, size_class="small"))
    path = tmp_path / "inst.yaml"
    save(inst, path)
    assert load(path) == inst
    assert instance_digest(load(path)) == instance_digest(inst)


def test_round_trip_worked_example(tmp_path):
    inst = worked_example()
    path = tmp_path / "we.yaml"
    save(inst, path)
    assert load(path) == inst


def test_load_missing_cycle_time(tmp_path):
    inst = generate(preset_config(8, seed=0))
    path = tmp_path / "broken.yaml"
    save(inst, path)
    text = path.read_text()
    path.write_text("\n".join(ln for ln in text.splitlines()
                              if not ln.startswith("cycle_time:")) + "\n")
    with pytest.raises(ParseError, match="cycle_time"):
        load(path)


def test_load_warns_on_unknown_fields(tmp_path):
    inst = generate(preset_config(8, seed=0))
    path = tmp_path / "extra.yaml"
    save(inst, path)
    path.write_text(path.read_text() + "comment: kept for humans\n")
    with pytest.warns(UserWarning, match="unknown fields"):
        assert load(path) == inst


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "v.yaml"
    path.write_text("version: something-else/9\n")
    with pytest.raises(ParseError, match="version"):
        load(path)


def test_digest_distinguishes_instances():
    a = generate(preset_config(8, seed=0))
    b = generate(preset_config(8, seed=1))
    assert instance_digest(a) != instance_digest(b)
    assert instance_digest(a) == instance_digest(a)


def test_config_rejects_bad_profile():
    cfg = preset_config(8, seed=0)
    bad = dataclasses.replace(
        cfg, processing_profile=((10.0, 5.0, 20.0),) * 5)
    assert any("profile" in p or "mean" in p for p in validate_config(bad))
    with pytest.raises(ConfigError):
        generate(bad)


def test_config_rejects_high_failure_probs():
    cfg = dataclasses.replace(preset_config(8, seed=0),
                              high_risk_prob_range=(0.4, 0.6))
    with pytest.raises(ConfigError, match="0.5"):
        generate(cfg)


def test_config_rejects_inverted_range():
    cfg = dataclasses.replace(preset_config(8, seed=0),
                              high_risk_fraction_range=(0.5, 0.2))
    with pytest.raises(ConfigError):
        generate(cfg)


def test_vehicle_of_converts_tu():
    veh = Vehicle.of(0, True, (1.5, "2.2500"))
    assert veh.processing_times == (15_000, 22_500)


def test_instance_of_numbers_stations():
    inst = worked_example()
    assert [st.id for st in inst.stations] == [0, 1]
    assert inst.stations[0].length == 20 * TICKS_PER_TU
    assert inst.processing(1, 2) == 10 * TICKS_PER_TU


def test_load_rejects_malformed_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("version: [mms-instance/1\ncycle_time: 7\n")
    with pytest.raises(ParseError, match="bad.yaml"):
        load(path)


@pytest.mark.parametrize("value", ["2001-13-45", "!!float x"])
def test_load_rejects_unbuildable_scalars(tmp_path, value):
    # PyYAML builds these with a bare ValueError: no such date, bad tag
    path = tmp_path / "bad.yaml"
    path.write_text(f"version: mms-instance/1\ncycle_time: {value}\n")
    with pytest.raises(ParseError, match="bad.yaml"):
        load(path)
