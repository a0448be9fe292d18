"""Row-form LP layer: statuses, vertices, slacks."""

import numpy as np
import pytest

from mmseq.lp import (EQ, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, LinearProgram,
                      LPResult, solve_lp)

INF = float("inf")


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
