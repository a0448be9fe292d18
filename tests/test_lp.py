"""Row-form LP layer: statuses, vertices, slacks, and how scipy's
extensions (the HiGHS bindings and the special-function ufuncs) are
loaded."""

import sys
from importlib.machinery import ExtensionFileLoader

import numpy as np
import pytest

import mmseq._scipy
import mmseq.lp
from mmseq.lp import (EQ, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, LinearProgram,
                      LPResult, solve_lp)

from conftest import run_fresh

INF = float("inf")
HIGHS = "scipy.optimize._highspy._core"


def test_single_bound_maximize():
    # max x  s.t.  x <= 3, posed as min -x
    lp = LinearProgram(objective=[-1.0], a=[[1.0]], senses=(LE,), rhs=[3.0],
                       lower=[0.0], upper=[INF])
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-3.0)
    assert res.x[0] == pytest.approx(3.0)
    assert res.slack[0] == pytest.approx(0.0)


def test_min_with_equality_tie():
    # min x + y  s.t.  -x - y <= -1,  x - y == 0
    lp = LinearProgram(objective=[1.0, 1.0],
                       a=[[-1.0, -1.0], [1.0, -1.0]],
                       senses=(LE, EQ), rhs=[-1.0, 0.0],
                       lower=[0.0, 0.0], upper=[INF, INF])
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0)
    assert res.x[0] == pytest.approx(0.5)
    assert res.x[1] == pytest.approx(0.5)


def test_infeasible_reports_status_only():
    lp = LinearProgram(objective=[1.0], a=[[1.0]], senses=(LE,), rhs=[-1.0],
                       lower=[0.0], upper=[INF])
    res = solve_lp(lp)
    assert res == LPResult(INFEASIBLE, None, None)


def test_unbounded_reports_status_only():
    # min -x  s.t.  -x <= 0
    lp = LinearProgram(objective=[-1.0], a=[[-1.0]], senses=(LE,), rhs=[0.0],
                       lower=[0.0], upper=[INF])
    res = solve_lp(lp)
    assert res == LPResult(UNBOUNDED, None, None)


def test_redundant_rows_still_terminate():
    lp = LinearProgram(objective=[1.0, 2.0],
                       a=[[-1.0, -1.0]] * 4 + [[-1.0, 0.0]],
                       senses=(LE, LE, LE, LE, LE),
                       rhs=[-2.0, -2.0, -2.0, -2.0, 0.0],
                       lower=[0.0, 0.0], upper=[INF, INF])
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(2.0)
    assert res.x[0] == pytest.approx(2.0)


def test_mixed_senses_vertex_and_slack():
    # min -x - z over [0,3]^3  s.t.  x <= 3,  y == 0,  -x - z <= -2,  z <= 1
    lp = LinearProgram(objective=[-1.0, 0.0, -1.0],
                       a=[[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [-1.0, 0.0, -1.0],
                          [0.0, 0.0, 1.0]],
                       senses=(LE, EQ, LE, LE),
                       rhs=[3.0, 0.0, -2.0, 1.0],
                       lower=[0.0] * 3, upper=[3.0] * 3)
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-4.0)
    np.testing.assert_allclose(res.x, [3.0, 0.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(res.slack, [0.0, 0.0, 2.0, 0.0], atol=1e-9)


def test_slack_matches_row_residuals(rng):
    for _ in range(20):
        n, m = 3, 4
        a = rng.normal(size=(m, n))
        x_feas = rng.uniform(0.2, 0.8, size=n)
        a[1::2] *= -1.0          # the >= rows of the same problems, as <=
        rhs = [float(a[i] @ x_feas) + float(rng.uniform(0.0, 1.0))
               for i in range(m)]
        lp = LinearProgram(objective=rng.normal(size=n), a=a,
                           senses=(LE,) * m, rhs=rhs,
                           lower=np.zeros(n), upper=np.ones(n))
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        for i in range(m):
            expect = rhs[i] - float(a[i] @ res.x)
            assert res.slack[i] == pytest.approx(expect, abs=1e-8)
            assert res.slack[i] >= -1e-9


def test_shape_and_sense_validation():
    with pytest.raises(ValueError, match="matrix shape"):
        LinearProgram(objective=[1.0, 1.0], a=[[1.0]], senses=(LE,),
                      rhs=[1.0], lower=[0.0, 0.0], upper=[1.0, 1.0])
    with pytest.raises(ValueError, match="one sense per row"):
        LinearProgram(objective=[1.0], a=[[1.0]], senses=(), rhs=[1.0],
                      lower=[0.0], upper=[1.0])
    with pytest.raises(ValueError, match="bound pair"):
        LinearProgram(objective=[1.0], a=[[1.0]], senses=(LE,), rhs=[1.0],
                      lower=[0.0, 0.0], upper=[1.0])
    with pytest.raises(ValueError, match="unknown senses"):
        LinearProgram(objective=[1.0], a=[[1.0]], senses=("<",), rhs=[1.0],
                      lower=[0.0], upper=[1.0])


# ------------------------------------------------- loading scipy's extensions

def test_scipy_optimize_solves_after_mmseq_loads_highs():
    # min x + 2y  s.t.  x + y >= 1.5: 1.5 relaxed, 2 with x, y integer
    out = run_fresh(
        "import sys, mmseq\n"
        "before = 'scipy.optimize._highspy._core' in sys.modules\n"
        "mmseq.solve_lp(mmseq.LinearProgram([1.0], [[1.0]], ('<=',), [1.0],\n"
        "                                   [0.0], [1.0]))\n"
        "core = sys.modules['scipy.optimize._highspy._core']\n"
        "import scipy.optimize as so\n"
        "lp = so.linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1.5], method='highs')\n"
        "mip = so.milp([1, 2], integrality=[1, 1], bounds=so.Bounds(0, 5),\n"
        "              constraints=so.LinearConstraint([[1, 1]], lb=1.5))\n"
        "print(before, lp.status, lp.fun, mip.status, mip.fun,\n"
        "      sys.modules['scipy.optimize._highspy._core'] is core)")
    assert out.split() == ["False", "0", "1.5", "0", "2.0", "True"]


def test_mmseq_shares_highs_loaded_by_scipy_optimize():
    out = run_fresh(
        "import sys, scipy.optimize\n"
        "core = sys.modules['scipy.optimize._highspy._core']\n"
        "from mmseq.lp import LE, LinearProgram, solve_lp\n"
        "res = solve_lp(LinearProgram([1.0, 2.0], [[-1.0, -1.0]], (LE,), [-1.5],\n"
        "                             [0.0, 0.0], [5.0, 5.0]))\n"
        "print(sys.modules['scipy.optimize._highspy._core'] is core,\n"
        "      res.status, res.objective)")
    assert out.split() == ["True", OPTIMAL, "1.5"]


def _scipy_optimize_entries():
    return [m for m in sys.modules if m.startswith("scipy.optimize")]


def _forget_scipy_optimize(monkeypatch):
    # a real scipy.optimize, imported by an earlier test, would find the
    # extension through its own __path__ and stand in for the bare parents
    for name in _scipy_optimize_entries():
        monkeypatch.delitem(sys.modules, name)


def test_highs_loader_needs_the_extension(tmp_path, monkeypatch):
    _forget_scipy_optimize(monkeypatch)
    monkeypatch.setattr(mmseq._scipy, "_SCIPY_DIR", str(tmp_path))
    (tmp_path / "optimize" / "_highspy").mkdir(parents=True)
    with pytest.raises(ImportError, match=r"scipy >= 1\.15"):
        mmseq._scipy.load(HIGHS)
    assert HIGHS not in sys.modules
    assert _scipy_optimize_entries() == []


def test_highs_loader_unregisters_a_module_that_fails(monkeypatch):
    def fail(self, module):
        raise ImportError("init failed")

    _forget_scipy_optimize(monkeypatch)
    monkeypatch.setattr(ExtensionFileLoader, "exec_module", fail)
    with pytest.raises(ImportError, match="init failed"):
        mmseq._scipy.load(HIGHS)
    assert HIGHS not in sys.modules
    assert _scipy_optimize_entries() == []


def test_highs_loader_returns_the_registered_module(tmp_path, monkeypatch):
    core = mmseq._scipy.load(HIGHS)
    # scipy's directory is now tmp_path, which holds no extension: only
    # the sys.modules entry can answer
    monkeypatch.setattr(mmseq._scipy, "_SCIPY_DIR", str(tmp_path))
    assert mmseq._scipy.load(HIGHS) is core
    assert solve_lp(LinearProgram(objective=[1.0], a=[[1.0]], senses=(LE,), rhs=[1.0],
                                  lower=[0.0], upper=[1.0])).status == OPTIMAL


def test_a_failed_load_leaves_no_scipy_special_entry():
    # _ufuncs loads its siblings and then fails: none of them may stay,
    # nor the bare scipy.special package they were imported under
    out = run_fresh(
        "import sys\n"
        "from importlib.machinery import ExtensionFileLoader\n"
        "run = ExtensionFileLoader.exec_module\n"
        "def fail(self, module):\n"
        "    run(self, module)\n"
        "    if module.__name__ == 'scipy.special._ufuncs':\n"
        "        print(sum(m.startswith('scipy.special.') for m in sys.modules))\n"
        "        raise ImportError('init failed')\n"
        "ExtensionFileLoader.exec_module = fail\n"
        "import mmseq\n"
        "try:\n"
        "    mmseq.t_quantile(0.05, 29)\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
        "print([m for m in sys.modules if m.startswith('scipy.special')])\n")
    loaded, error, left = out.splitlines()
    assert int(loaded) > 1
    assert error == "init failed"
    assert left == "[]"
