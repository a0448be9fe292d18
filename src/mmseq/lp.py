"""Thin linear-programming layer used by the exact solver.

Models are minimisations stated in row form (senses <= and ==) with
explicit variable bounds.  They are solved by HiGHS's dual simplex
through the `Highs` class that scipy vendors, which returns vertex
solutions and per-row slacks.  A `Model` keeps one HiGHS model alive:
`<=` rows can be added and deleted and column bounds changed between
solves, and each re-solve starts from the last optimal basis instead of
from scratch.  `solve_lp` is one cold solve of a `LinearProgram`.

The bindings are scipy's `scipy.optimize._highspy._core` extension,
loaded by `_scipy.load` without running the `scipy.optimize` package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _scipy
from .errors import MMSeqError

_highs = _scipy.load("scipy.optimize._highspy._core")

LE, EQ = "<=", "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_STATUS = {_highs.HighsModelStatus.kOptimal: OPTIMAL,
           _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
           _highs.HighsModelStatus.kUnbounded: UNBOUNDED}


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


class Model:
    """One HiGHS model that outlives its solves.

    The rows of the initial program keep their positions; rows added
    later are `<=` rows appended after them, and deleting rows closes
    the gaps in order.  Every solve after the first warm-starts dual
    simplex from the previous basis.
    """

    def __init__(self, lp: LinearProgram):
        self._h = _highs._Highs()
        self._h.setOptionValue("output_flag", False)
        self._h.setOptionValue("simplex_strategy", 1)     # dual simplex
        m, n = len(lp.senses), lp.objective.shape[0]
        eq = np.array([s == EQ for s in lp.senses], dtype=bool)
        a = lp.a.reshape(m, n)
        rows, cols = np.nonzero(a)
        start = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=m), out=start[1:])
        status = self._h.passModel(
            n, m, len(cols), int(_highs.MatrixFormat.kRowwise),
            int(_highs.ObjSense.kMinimize), 0.0,
            lp.objective, lp.lower, lp.upper,
            np.where(eq, lp.rhs, -np.inf), lp.rhs,
            start, cols.astype(np.int32), a[rows, cols],
            np.zeros(n, dtype=np.int32))          # all continuous
        if status == _highs.HighsStatus.kError:
            raise MMSeqError("LP model rejected by HiGHS")
        self._rhs = lp.rhs.copy()
        self._eq = eq

    @property
    def n_rows(self) -> int:
        return self._h.getNumRow()

    def add_row(self, cols, values, rhs: float):
        """Append the row sum(values * x[cols]) <= rhs."""
        self._h.addRow(-np.inf, rhs, len(cols),
                       np.asarray(cols, dtype=np.int32),
                       np.asarray(values, dtype=float))
        self._rhs = np.append(self._rhs, rhs)
        self._eq = np.append(self._eq, False)

    def delete_rows(self, rows):
        rows = np.asarray(rows, dtype=np.int32)
        self._h.deleteRows(len(rows), rows)
        self._rhs = np.delete(self._rhs, rows)
        self._eq = np.delete(self._eq, rows)

    def set_bounds(self, cols, lower, upper):
        self._h.changeColsBounds(len(cols), np.asarray(cols, dtype=np.int32),
                                 np.asarray(lower, dtype=float),
                                 np.asarray(upper, dtype=float))

    def solve(self) -> LPResult:
        """Solve to optimality or report infeasible/unbounded; anything
        else (infeasible-or-unbounded, iteration limit, numerical
        trouble) raises.

        The slack vector reports, per row, how far the constraint sits
        from its bound at the optimum (zero for equalities); callers
        use it to spot binding rows without recomputing products.
        """
        if self._h.run() == _highs.HighsStatus.kError:
            raise MMSeqError("LP solve failed: HiGHS reported an error")
        model_status = self._h.getModelStatus()
        status = _STATUS.get(model_status)
        if status is None:
            raise MMSeqError("LP solve failed: "
                             + self._h.modelStatusToString(model_status))
        if status != OPTIMAL:
            return LPResult(status, None, None)
        sol = self._h.getSolution()
        slack = np.where(self._eq, 0.0, self._rhs - np.array(sol.row_value))
        return LPResult(OPTIMAL, np.array(sol.col_value),
                        self._h.getObjectiveValue(), slack)


def solve_lp(lp: LinearProgram) -> LPResult:
    """One cold solve of `lp`, with the statuses and slacks of
    `Model.solve`."""
    return Model(lp).solve()
