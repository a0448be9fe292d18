"""Sequencing for mixed-model assembly lines under stochastic product
failures: exact branch-and-cut, greedy and tabu-search heuristics, and
replication-based solution quality assessment."""

import types

from .assess import (MRPReport, enumeration_solver, lshaped_solver, mrp,
                     t_quantile, tabu_solver)
from .errors import (ConfigError, MMSeqError, ParseError, SizeGuardError,
                     StaleStateError)
from .evaluator import (IMPROVED_NEUTRAL, REMOVAL, STANDARD_ZERO, EvalState,
                        Objective, Probe, Sequence, Trajectory, evaluate,
                        evaluate_expected, partial_reevaluate, trace_csv)
from .exact import (ENUMERATION_GUARD, LSHAPED_GUARD, DualSolution,
                    ExactParams, LShapedResult, OptimalityCut, SolveStats,
                    enumerate_optimal, lshaped_solve, recourse_lp, solve_dsp)
from .greedy import GreedyTrace, construct, ev_position_pattern
from .instance import (GeneratorConfig, Instance, Station, Vehicle, generate,
                       instance_digest, load, preset_config, save, validate)
from .lp import LinearProgram, LPResult, solve_lp
from .moves import (INSERT_BACKWARD, INSERT_FORWARD, INVERSION, MOVE_KINDS,
                    SWAP, Move, apply_to_order)
from .scenario import Sample, Scenario, sample
from .tabu import HistoryRecord, SearchParams, history_csv, is_tabu, search
from .timeunits import TICKS_PER_TU, format_ticks, to_ticks

__version__ = "0.1.0"

# the submodules the imports above load are attributes too, not exports
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
