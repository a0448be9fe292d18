"""An exact oracle independent of the station recursion: the sampled
problem's deterministic equivalent as one mixed-integer program, solved
by HiGHS's branch-and-bound, against the exact engine at the sizes the
CLI's `auto` sends to it."""

import numpy as np
import pytest

from mmseq.evaluator import Objective
from mmseq.exact import enumerate_optimal, root_bound
from mmseq.instance import generate, preset_config
from mmseq.lp import _highs
from mmseq.scenario import sample
from mmseq.timeunits import TICKS_PER_TU


def deterministic_equivalent(instance, smp):
    """min sum_w (n_w / N) sum_k sum_t w_{wkt} over a binary vehicle x
    position assignment x and, per unique scenario w and station k, the
    regenerative rows of `exact._chain_lp` with the processing time
    b_t = sum_v eff[v, k] x[v, t] moved to the left:

        z_t + b_t - w_t - z_{t+1} <= c    (z_1 = z_{T+1} = 0)
        z_t + b_t - w_t           <= l_k

    where eff[v, k] is v's processing time when it exists in w and the
    cycle time c when it fails.  Every quantity is in TU.  Returns the
    optimal value and HiGHS's dual bound."""
    V = T = instance.n_vehicles
    c = instance.cycle_time / TICKS_PER_TU
    lengths = [st.length / TICKS_PER_TU for st in instance.stations]
    p = np.array([veh.processing_times for veh in instance.vehicles]) / TICKS_PER_TU
    n_x = V * T
    cost, rows, row_upper, row_lower = [0.0] * n_x, [], [], []

    def x(v, t):
        return v * T + t

    for v in range(V):                      # each vehicle in one position
        rows.append({x(v, t): 1.0 for t in range(T)})
        row_lower.append(1.0)
        row_upper.append(1.0)
    for t in range(T):                      # each position holds one vehicle
        rows.append({x(v, t): 1.0 for v in range(V)})
        row_lower.append(1.0)
        row_upper.append(1.0)
    for exists, n_w in zip(smp.existence.T, smp.weights.tolist()):
        eff = np.where(exists[:, None], p, c)
        for k, length in enumerate(lengths):
            # z_2..z_T, then w_1..w_T
            z = [None] + [len(cost) + i for i in range(T - 1)] + [None]
            w = [len(cost) + T - 1 + i for i in range(T)]
            cost += [0.0] * (T - 1) + [n_w / smp.n] * T
            for t in range(T):
                for bound, nxt in ((c, z[t + 1]), (length, None)):
                    row = {x(v, t): eff[v, k] for v in range(V)}
                    row[w[t]] = -1.0
                    if z[t] is not None:
                        row[z[t]] = 1.0
                    if nxt is not None:
                        row[nxt] = -1.0
                    rows.append(row)
                    row_lower.append(-np.inf)
                    row_upper.append(bound)
    n = len(cost)
    start = np.cumsum([0] + [len(r) for r in rows]).astype(np.int32)
    index = np.array([j for r in rows for j in r], dtype=np.int32)
    value = np.array([a for r in rows for a in r.values()], dtype=float)
    upper = np.full(n, np.inf)
    upper[:n_x] = 1.0
    integrality = np.zeros(n, dtype=np.int32)
    integrality[:n_x] = int(_highs.HighsVarType.kInteger)

    h = _highs._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("mip_rel_gap", 0.0)
    status = h.passModel(
        n, len(rows), len(index), int(_highs.MatrixFormat.kRowwise),
        int(_highs.ObjSense.kMinimize), 0.0, np.array(cost), np.zeros(n),
        upper, np.array(row_lower), np.array(row_upper), start, index, value,
        integrality)
    assert status != _highs.HighsStatus.kError
    assert h.run() != _highs.HighsStatus.kError
    assert h.getModelStatus() == _highs.HighsModelStatus.kOptimal
    return h.getObjectiveValue(), h.getInfo().mip_dual_bound


# chosen by MIP time (0.2-3.4 s each on a 2-core host), not by result
@pytest.mark.parametrize("n_vehicles, size_class, seed", [
    (11, "small", 103),
    (11, "medium", 8),
    (12, "medium", 8),
    (12, "large", 200),
])
def test_engine_matches_the_deterministic_equivalent(n_vehicles, size_class, seed):
    inst = generate(preset_config(n_vehicles, seed=seed, size_class=size_class))
    smp = sample(inst, 100, 200)
    mip_value, mip_bound = deterministic_equivalent(inst, smp)
    _, value = enumerate_optimal(inst, smp)
    assert value == pytest.approx(mip_value, abs=1e-6)
    assert mip_bound <= value + 1e-6
    objective = Objective(inst, smp)
    bound = objective.tu(objective._weigh(root_bound(objective)[None])[0])
    assert bound <= mip_value + 1e-6
