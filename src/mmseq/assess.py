"""Statistical quality assessment of candidate sequences.

The multiple replication procedure draws M fresh samples, solves each
replication's sampled problem, and contrasts the candidate's
out-of-sample cost with the replication optimum; the normalized
one-sided confidence bound on the optimality gap follows.  The
integrated variant walks an ascending list of generation sample sizes
and stops at the first candidate whose bound clears the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from . import _scipy
from .errors import MMSeqError, SizeGuardError
from .evaluator import Sequence, evaluate_expected
from .instance import Instance
from .scenario import Sample, sample
from .seeding import derive_seed

# a solver takes (instance, sample, seed) and returns a sequence and its
# sampled objective in TU
SAASolver = Callable[[Instance, Sample, int], tuple[Sequence, float]]

# scipy.stats.t.ppf calls scipy.special.stdtrit, the ufunc defined in
# the _ufuncs extension.  Loading that extension alone spares `import
# mmseq` the scipy.special package (about 0.24 s and 14 MB) and
# scipy.stats (another 0.7 s and 46 MB).
stdtrit = _scipy.load("scipy.special._ufuncs").stdtrit


def t_quantile(alpha: float, dof: int) -> float:
    """One-sided Student-t critical value t_{alpha; dof}."""
    if dof < 1:
        raise ValueError("degrees of freedom must be at least 1")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    return float(stdtrit(dof, 1.0 - alpha))


@dataclass(frozen=True)
class ReplicationRow:
    replication: int          # 1-based
    sample_optimum: float     # solved value of the replication's problem
    candidate_cost: float     # candidate's cost on the same sample
    gap: float


@dataclass(frozen=True)
class MRPReport:
    rows: tuple[ReplicationRow, ...]
    alpha: float
    n: int                    # per-replication sample size
    gap_mean: float
    gap_var: float            # sample variance, M-1 denominator
    optimum_mean: float
    t_value: float
    bound: float              # normalized unless flagged otherwise
    normalized: bool
    aborted_at: int | None = None   # replication whose solve failed

    def to_csv(self) -> str:
        lines = ["replication,sample_optimum,candidate_cost,gap"]
        for r in self.rows:
            lines.append(f"{r.replication},{r.sample_optimum:.6f},"
                         f"{r.candidate_cost:.6f},{r.gap:.6f}")
        lines.append(f"aggregate,{self.optimum_mean:.6f},"
                     f"{self._candidate_mean():.6f},{self.gap_mean:.6f}")
        lines.append(f"bound,{self.bound:.6f},t={self.t_value:.6f},"
                     f"normalized={int(self.normalized)}")
        return "\n".join(lines) + "\n"

    def _candidate_mean(self) -> float:
        if not self.rows:
            return math.nan
        return math.fsum(r.candidate_cost for r in self.rows) / len(self.rows)


def _aggregate(rows, alpha: float, n: int, aborted_at=None) -> MRPReport:
    m = len(rows)
    if m >= 2:
        gaps = [r.gap for r in rows]
        g_bar = math.fsum(gaps) / m
        s2 = math.fsum((g - g_bar) ** 2 for g in gaps) / (m - 1)
        z_bar = math.fsum(r.sample_optimum for r in rows) / m
        t_val = t_quantile(alpha, m - 1)
        raw = g_bar + t_val * math.sqrt(s2) / math.sqrt(m)
        if z_bar >= 1e-9:
            bound, normalized = raw / z_bar, True
        else:
            bound, normalized = raw, False
    else:
        g_bar = s2 = z_bar = t_val = bound = math.nan
        normalized = False
    return MRPReport(rows=tuple(rows), alpha=alpha, n=n, gap_mean=g_bar,
                     gap_var=s2, optimum_mean=z_bar, t_value=t_val,
                     bound=bound, normalized=normalized, aborted_at=aborted_at)


def mrp(instance: Instance, candidate, solver: SAASolver, *,
        replications: int, n: int, alpha: float = 0.05, seed: int = 0,
        forbid_low_risk_failures: bool = False) -> MRPReport:
    """Estimate a (1 - alpha) upper confidence bound on the candidate's
    optimality gap from `replications` fresh samples of size n.

    Replication m draws its sample from a seed derived as (seed, m) and
    hands the solver a seed derived as (seed, m, 1), so any replication
    is reproducible in isolation.  A solver failure aborts the procedure
    and the report carries the completed rows only; a size-guard refusal
    propagates instead, since the solver would refuse every replication.
    """
    if replications < 2:
        raise ValueError("need at least two replications")
    if n < 1:
        raise ValueError("replication sample size must be positive")
    rows = []
    for m in range(1, replications + 1):
        smp = sample(instance, n, derive_seed(seed, m),
                     forbid_low_risk_failures=forbid_low_risk_failures)
        try:
            _, z_m = solver(instance, smp, derive_seed(seed, m, 1))
        except SizeGuardError:
            raise
        except MMSeqError:
            return _aggregate(rows, alpha, n, aborted_at=m)
        zhat_m = evaluate_expected(instance, candidate, smp)
        rows.append(ReplicationRow(m, z_m, zhat_m, zhat_m - z_m))
    return _aggregate(rows, alpha, n)


@dataclass(frozen=True)
class SAAStage:
    sample_size: int
    objective: float          # candidate's value on its generation sample
    bound: float
    report: MRPReport


@dataclass(frozen=True)
class SAATrace:
    stages: tuple[SAAStage, ...]
    met: bool                 # whether any stage cleared the threshold


class SAAOutcome(NamedTuple):
    sequence: Sequence
    gap: float
    trace: SAATrace


def mrp_integrated_saa(instance: Instance, solver: SAASolver, n_list, *,
                       epsilon: float, alpha: float = 0.05,
                       replications: int = 10, n_mrp: int = 200,
                       seed: int = 0,
                       forbid_low_risk_failures: bool = False) -> SAAOutcome:
    """Generate candidates at increasing sample sizes and return the
    first whose estimated gap bound is at most epsilon; if none
    qualifies, the last candidate is returned with met=False."""
    sizes = list(n_list)
    if not sizes or any(b < a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("n_list must be nonempty and ascending")
    stages = []
    candidate, bound = None, math.nan
    for i, size in enumerate(sizes):
        gen = sample(instance, size, derive_seed(seed, 0, i),
                     forbid_low_risk_failures=forbid_low_risk_failures)
        candidate, objective = solver(instance, gen, derive_seed(seed, 1, i))
        report = mrp(instance, candidate, solver,
                     replications=replications, n=n_mrp, alpha=alpha,
                     seed=derive_seed(seed, 2, i),
                     forbid_low_risk_failures=forbid_low_risk_failures)
        bound = report.bound
        stages.append(SAAStage(size, objective, bound, report))
        if bound <= epsilon:
            return SAAOutcome(candidate, bound, SAATrace(tuple(stages), True))
    return SAAOutcome(candidate, bound, SAATrace(tuple(stages), False))


# ---------------------------------------------------------------------------
# ready-made solver adapters

def enumeration_solver(regenerative: bool = True) -> SAASolver:
    from .exact import enumerate_optimal

    def run(instance, smp, seed):
        return enumerate_optimal(instance, smp, regenerative)
    return run


def lshaped_solver(params=None) -> SAASolver:
    from .exact import lshaped_solve

    def run(instance, smp, seed):
        result = lshaped_solve(instance, smp, params)
        return result.sequence, result.upper_bound
    return run


def tabu_solver(params) -> SAASolver:
    """Greedy start plus two-phase search; the per-call seed feeds both."""
    from .greedy import construct
    from .tabu import search

    def run(instance, smp, seed):
        start, _ = construct(instance, seed)
        best, _ = search(instance, smp, start, replace(params, seed=seed))
        return best, evaluate_expected(instance, best, smp)
    return run
