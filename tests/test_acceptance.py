"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success; pytest -v adds the
matching pass/fail verdict per criterion.  Stated wall-clock budgets are
asserted inside the tests themselves.
"""

import time
from dataclasses import replace

import pytest

from mmseq.cli import main
from mmseq.evaluator import (IMPROVED_NEUTRAL, REMOVAL, STANDARD_ZERO,
                             Objective, Sequence, effective_times, evaluate,
                             evaluate_station, partial_reevaluate)
from mmseq.exact import enumerate_optimal, lshaped_solve, recourse_lp
from mmseq.greedy import construct
from mmseq.instance import (HIGH_RISK, Instance, Vehicle, generate,
                            preset_config, save)
from mmseq.moves import MOVE_KINDS, Move, apply_to_order
from mmseq.scenario import Scenario, sample
from mmseq.seeding import make_rng
from mmseq.tabu import SearchParams, search
from mmseq.timeunits import TICKS_PER_TU
from mmseq.assess import enumeration_solver, mrp, t_quantile
from mmseq.evaluator import evaluate_expected

from conftest import (as_xmat, letters, random_instance, random_order,
                      random_scenario, window_instance, worked_example)

TU = TICKS_PER_TU


def test_criterion_01_window_trace_and_bound():
    win = window_instance()
    order = Sequence((0, 1, 2, 3, 4))

    free = evaluate(win, order, regenerative=False)
    assert free.z[0] == [0, 2 * TU, 0, 0, 2 * TU]
    assert free.idle[0] == [0, 0, 0, 2 * TU, 0]
    assert free.w[0] == [0, 0, 0, 0, 1 * TU]
    assert free.total_overload == 1 * TU

    closed = evaluate(win, order, regenerative=True)
    assert closed.z[0] == [0, 2 * TU, 0, 0, 2 * TU]
    assert closed.idle[0] == [0, 0, 0, 2 * TU, 0]
    assert closed.w[0] == [0, 0, 0, 0, 4 * TU]
    assert closed.total_overload == 4 * TU

    # independent check of the closed-border value through the LP layer
    lp_value, _ = recourse_lp(win, order, Scenario((1,) * 5),
                              regenerative=True)
    assert lp_value == pytest.approx(4.0, abs=1e-9)

    best = min(_timed_once(lambda: evaluate(win, order)) for _ in range(5))
    assert best < 1e-3
    print("CRITERION 1: PASS")


def _timed_once(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_constructive_worked_example():
    worked = worked_example()
    order, _ = construct(worked)
    assert letters(order) == "A-C-F-B-E-D"

    state = evaluate(worked, order)
    assert state.total_overload == 3 * TU
    assert state.station_overload == [0, 3 * TU]
    assert state.w[1][5] == 3 * TU
    nonzero = [(k, t) for k in range(2) for t in range(6) if state.w[k][t]]
    assert nonzero == [(1, 5)]

    best = min(_timed_once(lambda: construct(worked)) for _ in range(5))
    assert best < 1e-2
    print("CRITERION 2: PASS")


def test_criterion_03_recourse_encodings_agree():
    t0 = time.perf_counter()
    rng = make_rng(777)
    for i in range(200):
        inst = random_instance(rng)
        n = inst.n_vehicles
        order = random_order(rng, n)
        scen = random_scenario(rng, n)
        regen = bool(i % 2)
        direct = evaluate(inst, order, scen, regenerative=regen)
        want = direct.total_overload / TU
        improved, _ = recourse_lp(inst, order, scen, IMPROVED_NEUTRAL, regen)
        zeroed, _ = recourse_lp(inst, order, scen, STANDARD_ZERO, regen)
        assert abs(improved - want) <= 1e-6
        assert abs(zeroed - improved) <= 1e-6
    assert time.perf_counter() - t0 < 60
    print("CRITERION 3: PASS")


def test_criterion_04_neutralizing_equals_removal():
    t0 = time.perf_counter()
    rng = make_rng(888)
    c_count = 0
    for i in range(20):
        inst = random_instance(rng)
        n = inst.n_vehicles
        order = random_order(rng, n)
        regen = bool(i % 2)
        for bits in range(1 << n):
            scen = Scenario(tuple(bits >> v & 1 for v in range(n)))
            neutral = evaluate(inst, order, scen, regenerative=regen)
            dropped = effective_times(inst, order, scen, REMOVAL)
            removal = sum(
                evaluate_station(dropped[k], inst.cycle_time,
                                 inst.stations[k].length, regen).total_overload
                for k in range(inst.n_stations))
            assert neutral.total_overload == removal
            c_count += 1
    assert c_count >= 20 * 4
    assert time.perf_counter() - t0 < 60
    print("CRITERION 4: PASS")


def test_criterion_05_partial_reevaluation_exact_and_lazy():
    t0 = time.perf_counter()
    rng = make_rng(4242)
    visit_shares = []
    for iseed in (0, 1):
        inst = generate(preset_config(200, seed=iseed, size_class="large"))
        K = inst.n_stations
        smp = sample(inst, 1, seed=9 + iseed)
        scen = smp.unique[0][0]
        order = tuple(int(v) for v in rng.permutation(200))
        traj = Objective(inst, smp).trajectory(order)
        before = evaluate(inst, order, scen).total_overload
        for _ in range(5000):
            a = int(rng.integers(200))
            b = int(rng.integers(200))
            while b == a:
                b = int(rng.integers(200))
            move = Move(MOVE_KINDS[int(rng.integers(4))], min(a, b), max(a, b))
            probe, delta = partial_reevaluate(traj, move)
            traj.commit(probe)
            order = apply_to_order(order, move)
            full = evaluate(inst, order, scen)
            assert traj.order == order
            assert traj.z[:200, 0, :].T.tolist() == full.z
            assert traj.w[:, 0, :].T.tolist() == full.w
            assert delta == full.total_overload - before
            assert traj.value == full.total_overload
            visit_shares.append(probe.recomputed_positions / K)
            before = full.total_overload
    assert len(visit_shares) == 10_000
    assert sum(visit_shares) / len(visit_shares) < 0.5 * 200
    assert time.perf_counter() - t0 < 120
    print("CRITERION 5: PASS")


def test_criterion_06_branch_and_cut_exact_with_valid_cuts():
    t0 = time.perf_counter()
    rng = make_rng(6001)
    for i in range(10):
        inst = generate(preset_config(7, seed=100 + i, size_class="small"))
        smp = sample(inst, 50, seed=200 + i)
        res = lshaped_solve(inst, smp)
        _, opt = enumerate_optimal(inst, smp)
        assert res.upper_bound == opt
        assert res.lower_bound == opt
        probes = [random_order(rng, 7) for _ in range(100)]
        mats = [as_xmat(p) for p in probes]
        q_cache = {}
        for cut in res.stats.cut_pool:
            for probe, mat in zip(probes, mats):
                key = (probe, cut.scenario)
                if key not in q_cache:
                    q_cache[key] = evaluate(
                        inst, probe, cut.scenario).total_overload / TU
                assert cut.value_at(mat) <= q_cache[key] + 1e-6
    assert time.perf_counter() - t0 < 600
    print("CRITERION 6: PASS")


def test_criterion_07_tabu_hits_small_optima():
    t0 = time.perf_counter()
    hits = 0
    miss_gaps = []
    for i in range(10):
        nv = 7 if i % 2 == 0 else 8
        inst = generate(preset_config(nv, seed=100 + i, size_class="small"))
        smp = sample(inst, 100, seed=200 + i)
        _, opt = enumerate_optimal(inst, smp)
        start, _ = construct(inst)
        for s in range(3):
            best, _ = search(inst, smp, start,
                             SearchParams(iters_one=2000, iters_full=8000,
                                          seed=s))
            val = evaluate_expected(inst, best, smp)
            assert val >= opt
            if val == opt:
                hits += 1
            else:
                miss_gaps.append((val - opt) / opt)
    assert hits >= 23
    if miss_gaps:
        assert sum(miss_gaps) / len(miss_gaps) < 0.01
    assert time.perf_counter() - t0 < 900
    print("CRITERION 7: PASS")


def test_criterion_08_sampling_beats_failure_blind(tmp_path, capsys):
    t0 = time.perf_counter()
    improvements = []
    for i in range(10):
        base = preset_config(8, seed=900 + i, size_class="small")
        cfg = replace(
            base,
            processing_profile=tuple(
                (lo * 0.95, mean * 0.95, hi * 0.95)
                for lo, mean, hi in base.processing_profile),
            high_risk_prob_range=(0.35, 0.49),
            low_risk_prob_range=(0.02, 0.08))
        path = tmp_path / f"risk_{i}.yaml"
        save(generate(cfg), str(path))
        rc = main(["compare", "--instance", str(path), "--method", "enum",
                   "--sample-size", "100", "--sample-seed", str(1000 + i),
                   "--eval-size", "2000", "--eval-seed", str(1100 + i),
                   "--deterministic"])
        out = capsys.readouterr().out
        assert rc == 0
        improvements.append(float(out.splitlines()[1].split(",")[6]))
    wins = sum(1 for imp in improvements if imp > 0.0)
    assert wins >= 8
    assert sum(improvements) / len(improvements) >= 10.0
    assert time.perf_counter() - t0 < 1200
    print("CRITERION 8: PASS")


def test_criterion_09_assessment_soundness():
    t0 = time.perf_counter()
    assert abs(t_quantile(0.05, 29) - 1.699127) <= 1e-5

    inst = generate(preset_config(6, seed=17, size_class="small"))
    candidate, _ = construct(inst)
    report = mrp(inst, candidate, enumeration_solver(),
                 replications=10, n=100, seed=9)
    assert all(r.gap >= -1e-6 for r in report.rows)

    degenerate = Instance.of(7, (10,), [
        Vehicle.of(0, False, (3,), 0.4, HIGH_RISK),
        Vehicle.of(1, False, (9,), 0.4, HIGH_RISK),
    ])
    always_best = Sequence((1, 0))
    zero = mrp(degenerate, always_best, enumeration_solver(),
               replications=8, n=50, seed=5)
    assert zero.bound == 0.0
    assert time.perf_counter() - t0 < 300
    print("CRITERION 9: PASS")


def test_criterion_10_deterministic_reruns(tmp_path, capsys):
    t0 = time.perf_counter()
    inst_path = tmp_path / "det.yaml"
    save(generate(preset_config(7, seed=77, size_class="small")),
         str(inst_path))

    def run_twice(argv_builder):
        results = []
        for tag in ("a", "b"):
            argv, out_files = argv_builder(tag)
            rc = main(argv)
            assert rc == 0
            stdout = capsys.readouterr().out
            blobs = []
            for f in out_files:
                with open(f, "rb") as fh:
                    blobs.append(fh.read())
            results.append((stdout, blobs))
        assert results[0] == results[1]

    def gen(tag):
        out = tmp_path / f"bench_{tag}"
        argv = ["generate", "--class", "small", "--count", "1",
                "--seed", "3", "--deterministic", "--out", str(out)]
        files = [out / f"small_{n:03d}_00.yaml" for n in (7, 8, 9, 10)]
        # stdout embeds the directory name, so compare files only
        return argv, files

    for tag in ("a", "b"):
        argv, files = gen(tag)
        assert main(argv) == 0
        capsys.readouterr()
    blobs = []
    for tag in ("a", "b"):
        _, files = gen(tag)
        blobs.append([open(f, "rb").read() for f in files])
    assert blobs[0] == blobs[1]

    for method, extra in (
            ("greedy", []),
            ("enum", ["--sample-size", "40", "--sample-seed", "2"]),
            ("lshaped", ["--sample-size", "40", "--sample-seed", "2"]),
            ("ts", ["--iters", "300", "--sample-size", "40",
                    "--sample-seed", "2"])):
        def solve_argv(tag, method=method, extra=extra):
            sol = tmp_path / f"sol_{method}_{tag}.txt"
            return (["solve", "--instance", str(inst_path), "--method", method,
                     "--deterministic", "--out", str(sol)] + extra, [sol])
        run_twice(solve_argv)

    sol_path = tmp_path / "sol_enum_a.txt"

    def assess_argv(tag):
        rep = tmp_path / f"rep_{tag}.csv"
        return (["assess", "--instance", str(inst_path),
                 "--solution", str(sol_path), "--method", "enum",
                 "--replications", "3", "--sample-size", "20",
                 "--deterministic", "--out", str(rep)], [rep])
    run_twice(assess_argv)

    def compare_argv(tag):
        rep = tmp_path / f"cmp_{tag}.csv"
        return (["compare", "--instance", str(inst_path), "--method", "enum",
                 "--sample-size", "30", "--eval-size", "50",
                 "--deterministic", "--out", str(rep)], [rep])
    run_twice(compare_argv)

    assert time.perf_counter() - t0 < 300
    print("CRITERION 10: PASS")
