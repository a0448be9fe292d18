"""Replication-based gap assessment."""

import json
import math

import pytest

from mmseq.assess import (enumeration_solver, lshaped_solver, mrp, t_quantile,
                          tabu_solver)
from mmseq.cli import format_solution
from mmseq.errors import MMSeqError
from mmseq.evaluator import Sequence, evaluate_expected
from mmseq.exact import enumerate_optimal
from mmseq.greedy import construct
from mmseq.instance import (HIGH_RISK, Instance, Vehicle, generate, preset_config,
                            save)
from mmseq.scenario import sample
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
    # nor any other scipy module: each extension loads on its first call
    out = run_fresh("import sys, mmseq, mmseq.cli; "
                    "print([m for m in sys.modules if m.startswith('scipy')])")
    assert out.split() == ["[]"]


HIGHS, UFUNCS = "scipy.optimize._highspy._core", "scipy.special._ufuncs"
# the packages around the two extensions, and what they pull in
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.sparse",
         "scipy.special", "scipy._lib._array_api", "numpy.f2py", "numpy.testing")


@pytest.mark.parametrize("argv, extensions", [
    (["solve", "--method", "ts", "--iters", "60"], set()),
    (["solve", "--method", "greedy"], set()),
    (["solve", "--method", "enum"], set()),
    (["compare", "--method", "ts", "--iters", "60", "--eval-size", "50"], set()),
    (["solve", "--method", "lshaped", "--time-limit", "30"], {HIGHS}),
    (["assess", "--method", "enum", "--replications", "2"], {UFUNCS}),
])
def test_a_run_loads_only_the_scipy_extensions_it_calls(tmp_path, argv, extensions):
    inst = generate(preset_config(7, seed=100, size_class="small"))
    instance, solution = tmp_path / "inst.yaml", tmp_path / "sol.txt"
    save(inst, instance)
    solution.write_text(format_solution(inst, range(7), 0))
    argv = [*argv, "--instance", str(instance), "--sample-size", "20",
            "--deterministic"]
    if argv[0] == "assess":
        argv += ["--solution", str(solution)]
    out = run_fresh("import json, sys, mmseq.cli\n"
                    f"rc = mmseq.cli.main({argv!r})\n"
                    "print(json.dumps([rc, [m for m in sys.modules if m.startswith('scipy')]]))")
    rc, loaded = json.loads(out.splitlines()[-1])
    assert rc == 0
    assert {HIGHS, UFUNCS} & set(loaded) == extensions
    assert [m for m in HEAVY if m in loaded] == []
    if not extensions:
        assert loaded == []


def test_scipy_stats_after_mmseq_uses_its_stdtrit():
    out = run_fresh(
        "import sys, mmseq\n"
        "mmseq.t_quantile(0.05, 29)\n"
        "ufuncs = sys.modules['scipy.special._ufuncs']\n"
        "import scipy.special, scipy.stats\n"
        f"grid = {T_GRID!r}\n"
        "print(all(mmseq.t_quantile(alpha, dof)\n"
        "          == float(scipy.stats.t.ppf(1 - alpha, dof))\n"
        "          for dof, alpha in grid),\n"
        "      scipy.special.stdtrit is ufuncs.stdtrit)")
    assert out.split() == ["True", "True"]


def test_mmseq_reuses_ufuncs_loaded_by_scipy_stats():
    out = run_fresh(
        "import sys, scipy.stats\n"
        "ufuncs = sys.modules['scipy.special._ufuncs']\n"
        "import mmseq\n"
        "print(mmseq._scipy.load('scipy.special._ufuncs') is ufuncs,\n"
        "      mmseq.t_quantile(0.05, 29) == float(scipy.stats.t.ppf(0.95, 29)),\n"
        "      sys.modules['scipy.special._ufuncs'] is ufuncs)")
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

def test_exact_small_mrp_rows_are_pinned():
    # the bench's exact-small MRP on its lshaped order; recorded before
    # dominance pruning was added to the exact engine
    inst = generate(preset_config(8, 103, "small"))
    report = mrp(inst, (0, 6, 1, 7, 5, 3, 2, 4), enumeration_solver(),
                 replications=2, n=100, seed=5)
    assert [(r.replication, f"{r.sample_optimum:.6f}", f"{r.candidate_cost:.6f}",
             f"{r.gap:.6f}") for r in report.rows] == [
        (1, "14.955425", "15.205900", "0.250475"),
        (2, "14.142628", "14.142628", "0.000000")]


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
