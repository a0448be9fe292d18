"""Thin linear-programming layer used by the exact solver.

Models are minimisations stated in row form (senses <= and ==) with
explicit variable bounds.  Solving is delegated to scipy's HiGHS dual
simplex, which returns vertex solutions and per-row slacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import MMSeqError

LE, EQ = "<=", "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    objective: np.ndarray            # coefficient per variable, minimised
    a: np.ndarray                    # dense constraint matrix, rows x vars
    senses: tuple[str, ...]          # LE or EQ per row
    rhs: np.ndarray
    lower: np.ndarray                # -inf allowed
    upper: np.ndarray                # +inf allowed

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n = self.objective.shape[0]
        m = self.rhs.shape[0]
        if self.a.shape != (m, n) and not (m == 0 and self.a.size == 0):
            raise ValueError(f"matrix shape {self.a.shape} != ({m}, {n})")
        if len(self.senses) != m:
            raise ValueError("one sense per row required")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("one bound pair per variable required")
        bad = set(self.senses) - {LE, EQ}
        if bad:
            raise ValueError(f"unknown senses {bad}")


@dataclass(frozen=True)
class LPResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    slack: np.ndarray | None = None  # per-row distance to the bound


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve to optimality or report infeasible/unbounded; anything else
    (iteration limit, numerical trouble) raises.

    The slack vector reports, per original row, how far the constraint
    sits from its bound at the optimum (zero for equalities); callers
    use it to spot binding rows without recomputing products.
    """
    eq_mask = np.array(lp.senses) == EQ
    ub_mask = ~eq_mask

    a_eq = lp.a[eq_mask] if eq_mask.any() else None
    b_eq = lp.rhs[eq_mask] if eq_mask.any() else None
    a_ub = lp.a[ub_mask] if ub_mask.any() else None
    b_ub = lp.rhs[ub_mask] if ub_mask.any() else None

    res = linprog(
        lp.objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=np.column_stack((lp.lower, lp.upper)),
        method="highs-ds",
    )
    if res.status == 2:
        return LPResult(INFEASIBLE, None, None)
    if res.status == 3:
        return LPResult(UNBOUNDED, None, None)
    if res.status != 0:
        raise MMSeqError(f"LP solve failed: {res.message}")

    slack = np.zeros(len(lp.senses))
    if ub_mask.any():
        slack[ub_mask] = res.slack
    return LPResult(OPTIMAL, np.asarray(res.x), float(res.fun), slack)
