"""Replication-based gap assessment and the integrated sizing loop."""

import math

import pytest

from mmseq.assess import (MRPReport, ReplicationRow, SAAOutcome,
                          enumeration_solver, lshaped_solver, mrp,
                          mrp_integrated_saa, t_quantile, tabu_solver)
from mmseq.errors import MMSeqError
from mmseq.evaluator import Sequence, evaluate_expected
from mmseq.exact import enumerate_optimal
from mmseq.greedy import construct
from mmseq.instance import HIGH_RISK, Instance, Vehicle, generate, preset_config
from mmseq.scenario import Sample, sample
from mmseq.tabu import SearchParams

from conftest import run_fresh


# ------------------------------------------------------------- quantiles

def test_t_quantile_reference_values():
    assert t_quantile(0.05, 29) == pytest.approx(1.699127, abs=1e-5)
    assert t_quantile(0.05, 10**6) == pytest.approx(1.644854, abs=1e-4)
    assert t_quantile(0.5, 7) == pytest.approx(0.0, abs=1e-12)


# (dof, alpha) pairs on which t_quantile must equal scipy.stats.t.ppf
T_GRID = [(dof, alpha) for dof in [*range(1, 61), 10**3, 10**6]
          for alpha in (1e-9, 0.001, 0.01, 0.025, 0.05, 0.1, 0.3, 0.5, 0.9,
                        1 - 1e-9)]


def test_t_quantile_matches_scipy_stats():
    from scipy import stats     # here only: mmseq itself does not import it
    for dof, alpha in T_GRID:
        assert t_quantile(alpha, dof) == float(stats.t.ppf(1 - alpha, dof))


def test_import_does_not_load_scipy_stats():
    # nor the scipy.optimize package that vendors HiGHS, nor the
    # scipy.special package around stdtrit, nor what either pulls in
    heavy = ("scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.sparse",
             "scipy.special", "scipy._lib._array_api", "numpy.f2py",
             "numpy.testing")
    out = run_fresh("import sys, mmseq, mmseq.cli; "
                    f"print([m for m in {heavy!r} if m in sys.modules], "
                    "'scipy.special._ufuncs' in sys.modules)")
    assert out.split() == ["[]", "True"]


def test_scipy_stats_after_mmseq_uses_its_stdtrit():
    out = run_fresh(
        "import mmseq, scipy.special, scipy.stats\n"
        f"grid = {T_GRID!r}\n"
        "print(all(mmseq.t_quantile(alpha, dof)\n"
        "          == float(scipy.stats.t.ppf(1 - alpha, dof))\n"
        "          for dof, alpha in grid),\n"
        "      scipy.special.stdtrit is mmseq.assess.stdtrit)")
    assert out.split() == ["True", "True"]


def test_mmseq_reuses_ufuncs_loaded_by_scipy_stats():
    out = run_fresh(
        "import sys, scipy.stats\n"
        "ufuncs = sys.modules['scipy.special._ufuncs']\n"
        "import mmseq\n"
        "print(mmseq._scipy.load('scipy.special._ufuncs') is ufuncs,\n"
        "      mmseq.assess.stdtrit is ufuncs.stdtrit,\n"
        "      mmseq.t_quantile(0.05, 29) == float(scipy.stats.t.ppf(0.95, 29)))")
    assert out.split() == ["True", "True", "True"]


def test_t_quantile_validation():
    with pytest.raises(ValueError, match="degrees of freedom"):
        t_quantile(0.05, 0)
    with pytest.raises(ValueError, match="alpha"):
        t_quantile(0.0, 5)
    with pytest.raises(ValueError, match="alpha"):
        t_quantile(1.0, 5)


# ------------------------------------------------------------------- mrp

def exact_report(m: int = 5, seed: int = 9):
    inst = generate(preset_config(6, seed=17, size_class="small"))
    candidate, _ = construct(inst)
    report = mrp(inst, candidate, enumeration_solver(),
                 replications=m, n=30, seed=seed)
    return inst, candidate, report


def test_mrp_rows_and_gap_signs():
    _, _, report = exact_report()
    assert [r.replication for r in report.rows] == [1, 2, 3, 4, 5]
    assert report.aborted_at is None
    for r in report.rows:
        assert r.gap == r.candidate_cost - r.sample_optimum
        assert r.gap >= 0.0      # exact solver: nothing beats the optimum


def test_mrp_aggregate_formulas():
    _, _, report = exact_report()
    gaps = [r.gap for r in report.rows]
    m = len(gaps)
    g_bar = math.fsum(gaps) / m
    s2 = math.fsum((g - g_bar) ** 2 for g in gaps) / (m - 1)
    z_bar = math.fsum(r.sample_optimum for r in report.rows) / m
    assert report.gap_mean == pytest.approx(g_bar, abs=1e-15)
    assert report.gap_var == pytest.approx(s2, abs=1e-15)
    assert report.optimum_mean == pytest.approx(z_bar, abs=1e-15)
    assert report.t_value == t_quantile(report.alpha, m - 1)
    raw = g_bar + report.t_value * math.sqrt(s2) / math.sqrt(m)
    if report.normalized:
        assert z_bar >= 1e-9
        assert report.bound == pytest.approx(raw / z_bar, abs=1e-12)
    else:
        assert report.bound == pytest.approx(raw, abs=1e-12)


def test_mrp_reproducible():
    _, _, r1 = exact_report(seed=21)
    _, _, r2 = exact_report(seed=21)
    assert r1 == r2


def test_mrp_validation():
    inst, candidate, _ = exact_report(m=2)
    with pytest.raises(ValueError, match="two replications"):
        mrp(inst, candidate, enumeration_solver(), replications=1, n=10)
    with pytest.raises(ValueError, match="positive"):
        mrp(inst, candidate, enumeration_solver(), replications=3, n=0)


def always_optimal_fixture():
    # one short and one long vehicle: leading with the long one is weakly
    # optimal in all four failure patterns, so every gap is exactly zero
    inst = Instance.of(7, (10,), [
        Vehicle.of(0, False, (3,), 0.4, HIGH_RISK),
        Vehicle.of(1, False, (9,), 0.4, HIGH_RISK),
    ])
    return inst, Sequence((1, 0))


def test_mrp_always_optimal_candidate_bounds_zero():
    inst, candidate = always_optimal_fixture()
    report = mrp(inst, candidate, enumeration_solver(),
                 replications=6, n=40, seed=3)
    assert all(r.gap == 0.0 for r in report.rows)
    assert report.gap_mean == 0.0
    assert report.gap_var == 0.0
    assert report.bound == 0.0


def test_mrp_abort_keeps_completed_rows():
    inst = generate(preset_config(6, seed=8, size_class="small"))
    candidate, _ = construct(inst)
    calls = {"n": 0}

    def flaky(instance, smp, seed):
        calls["n"] += 1
        if calls["n"] == 3:
            raise MMSeqError("solver gave up")
        return enumerate_optimal(instance, smp)

    report = mrp(inst, candidate, flaky, replications=5, n=20, seed=4)
    assert report.aborted_at == 3
    assert len(report.rows) == 2
    assert math.isfinite(report.bound)


def test_mrp_forbidden_low_risk_failures_wiring():
    # all failure mass is low-risk, so the flag collapses every
    # replication sample onto the no-failure scenario
    inst = Instance.of(7, (10,), [
        Vehicle.of(0, False, (9,), 0.1),
        Vehicle.of(1, False, (9,), 0.1),
        Vehicle.of(2, False, (5,), 0.0),
    ])
    candidate, _ = enumerate_optimal(inst, Sample.degenerate(inst))
    report = mrp(inst, candidate, enumeration_solver(), replications=4,
                 n=25, seed=6, forbid_low_risk_failures=True)
    assert all(r.gap == 0.0 for r in report.rows)
    assert report.bound == 0.0


def test_mrp_csv_layout():
    _, _, report = exact_report(m=3)
    lines = report.to_csv().splitlines()
    assert lines[0] == "replication,sample_optimum,candidate_cost,gap"
    assert len(lines) == 6
    assert lines[1].startswith("1,")
    assert lines[4].startswith("aggregate,")
    assert lines[5].startswith("bound,")
    assert lines[5].endswith(f"normalized={int(report.normalized)}")
    assert f"t={report.t_value:.6f}" in lines[5]


def test_mrp_small_bounds_for_good_candidates():
    # candidates solved on a large generation sample should assess well
    for seed in (0, 1, 2):
        inst = generate(preset_config(7, seed=seed, size_class="small"))
        gen = sample(inst, 200, seed=1000 + seed)
        candidate, _ = enumerate_optimal(inst, gen)
        report = mrp(inst, candidate, enumeration_solver(),
                     replications=10, n=200, seed=seed)
        assert report.normalized
        assert all(r.gap >= 0.0 for r in report.rows)
        assert report.bound < 0.05


# -------------------------------------------------------------- adapters

def test_enumeration_adapter_matches_direct_call():
    inst = generate(preset_config(6, seed=23, size_class="small"))
    smp = sample(inst, 30, seed=5)
    seq, val = enumeration_solver()(inst, smp, 99)
    direct_seq, direct_val = enumerate_optimal(inst, smp)
    assert (seq, val) == (direct_seq, direct_val)


def test_lshaped_adapter_is_exact():
    inst = generate(preset_config(6, seed=24, size_class="small"))
    smp = sample(inst, 30, seed=6)
    seq, val = lshaped_solver()(inst, smp, 0)
    _, opt = enumerate_optimal(inst, smp)
    assert val == opt
    assert evaluate_expected(inst, seq, smp) == opt


def test_tabu_adapter_reports_its_own_value():
    inst = generate(preset_config(7, seed=25, size_class="small"))
    smp = sample(inst, 40, seed=7)
    params = SearchParams(iters_one=50, iters_full=200)
    seq, val = tabu_solver(params)(inst, smp, 12)
    assert val == evaluate_expected(inst, seq, smp)


# ------------------------------------------------------------ integrated

def test_integrated_saa_stops_at_first_passing_stage():
    inst = generate(preset_config(6, seed=30, size_class="small"))
    outcome = mrp_integrated_saa(inst, enumeration_solver(), [20, 40, 80],
                                 epsilon=math.inf, replications=3, n_mrp=20,
                                 seed=2)
    assert isinstance(outcome, SAAOutcome)
    assert outcome.trace.met
    assert len(outcome.trace.stages) == 1
    assert outcome.trace.stages[0].sample_size == 20
    assert outcome.gap == outcome.trace.stages[0].bound


def test_integrated_saa_exhausts_unreachable_threshold():
    inst = generate(preset_config(6, seed=31, size_class="small"))
    outcome = mrp_integrated_saa(inst, enumeration_solver(), [15, 30],
                                 epsilon=-math.inf, replications=3, n_mrp=15,
                                 seed=3)
    assert not outcome.trace.met
    assert [s.sample_size for s in outcome.trace.stages] == [15, 30]
    assert outcome.gap == outcome.trace.stages[-1].bound


def test_integrated_saa_sizes_validation():
    inst = generate(preset_config(6, seed=32, size_class="small"))
    with pytest.raises(ValueError, match="ascending"):
        mrp_integrated_saa(inst, enumeration_solver(), [], epsilon=0.1)
    with pytest.raises(ValueError, match="ascending"):
        mrp_integrated_saa(inst, enumeration_solver(), [40, 20], epsilon=0.1)


def test_integrated_saa_deterministic():
    inst = generate(preset_config(6, seed=33, size_class="small"))
    kwargs = dict(epsilon=0.5, replications=3, n_mrp=20, seed=11)
    o1 = mrp_integrated_saa(inst, enumeration_solver(), [20, 40], **kwargs)
    o2 = mrp_integrated_saa(inst, enumeration_solver(), [20, 40], **kwargs)
    assert o1.sequence == o2.sequence
    assert o1.gap == o2.gap
    assert o1.trace == o2.trace
