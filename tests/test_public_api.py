"""The package's public names: adding or removing one is a deliberate edit."""

import mmseq

PUBLIC_NAMES = [
    "ConfigError", "DualSolution", "ENUMERATION_GUARD", "EvalState", "ExactParams",
    "GeneratorConfig", "GreedyTrace", "HistoryRecord", "IMPROVED_NEUTRAL",
    "INSERT_BACKWARD", "INSERT_FORWARD", "INVERSION", "Instance", "LPResult",
    "LSHAPED_GUARD", "LShapedResult", "LinearProgram", "MMSeqError", "MOVE_KINDS",
    "MRPReport", "Move", "Objective", "OptimalityCut", "ParseError", "Probe",
    "REMOVAL", "SAAOutcome", "SAATrace", "STANDARD_ZERO", "SWAP", "Sample",
    "Scenario", "SearchParams", "Sequence", "SizeGuardError", "SolveStats",
    "StaleStateError", "Station", "TICKS_PER_TU", "Trajectory", "Vehicle",
    "WeightedScenarios", "apply_to_order", "construct", "enumerate_all",
    "enumerate_optimal", "enumeration_solver", "ev_position_pattern", "evaluate",
    "evaluate_expected", "evaluate_weighted", "format_ticks", "full_information",
    "generate", "history_csv", "instance_digest", "is_tabu", "load", "load_sample",
    "lshaped_solve", "lshaped_solver", "mrp", "mrp_integrated_saa",
    "partial_reevaluate", "preset_config", "recourse_lp", "sample", "save",
    "save_sample", "scenario_probability", "search", "solve_dsp", "solve_lp",
    "t_quantile", "tabu_solver", "to_ticks", "trace_csv", "validate",
]

# __all__ is every public name of the package namespace, so the
# submodules its imports load are listed too
SUBMODULES = [
    "assess", "errors", "evaluator", "exact", "greedy", "instance", "lp", "moves",
    "scenario", "seeding", "tabu", "timeunits",
]


def test_public_names_are_pinned():
    assert sorted(mmseq.__all__) == sorted(PUBLIC_NAMES + SUBMODULES)

