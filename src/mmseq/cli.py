"""Command-line harness.

Subcommands: generate (benchmark instance files), solve (one solver run
plus optional solution file), assess (replication-based gap bound for a
stored solution), compare (failure-blind vs sampled solution on a
common out-of-sample set).  All outputs are CSV-ish lines with fixed
column order; under --deterministic, wall-clock fields are blanked and
iteration budgets replace time budgets so repeated runs are
byte-identical.

Exit codes: 0 success, 2 invalid input, 3 size-guard violation,
4 time limit hit with an incumbent available.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

from .assess import enumeration_solver, lshaped_solver, mrp, tabu_solver
from .errors import ConfigError, MMSeqError, ParseError, SizeGuardError
from .evaluator import Objective, Sequence, as_order, evaluate_expected
from .exact import (ENUMERATION_GUARD, ExactParams, enumerate_optimal,
                    lshaped_solve, root_bound)
from .greedy import construct
from .instance import (SIZE_CLASSES, Instance, generate, instance_digest,
                       load, preset_config, save)
from .scenario import Sample, sample
from .seeding import derive_seed
from .tabu import SearchParams, search

SOLUTION_FORMAT = "mms-solution/1"

PHASE_SPLIT = (10, 590)          # relative phase budgets for the search


# ---------------------------------------------------------------------------
# records and files

RUN_HEADER = ("command,instance,seed,method,params,objective,"
              "lower_bound,upper_bound,gap,wall_time,iterations")


@dataclass(frozen=True)
class RunRecord:
    command: str
    instance: str
    seed: int
    method: str
    params: str
    objective: float
    lower_bound: float | None = None
    upper_bound: float | None = None
    gap: float | None = None
    wall_time: float | None = None
    iterations: int = 0

    def to_csv_row(self) -> str:
        def num(x):
            return "" if x is None else f"{x:.6f}"
        return (f"{self.command},{self.instance},{self.seed},{self.method},"
                f"{self.params},{num(self.objective)},{num(self.lower_bound)},"
                f"{num(self.upper_bound)},{num(self.gap)},"
                f"{num(self.wall_time)},{self.iterations}")


def format_solution(instance: Instance, order, sample_seed) -> str:
    seed_text = "-" if sample_seed is None else str(sample_seed)
    seq_text = " ".join(str(v) for v in order)
    return (f"{SOLUTION_FORMAT}\n"
            f"instance {instance_digest(instance)}\n"
            f"sample-seed {seed_text}\n"
            f"sequence {seq_text}\n")


def parse_solution(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != SOLUTION_FORMAT:
        raise ParseError("not a recognized solution file")
    fields = {}
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        fields[key] = rest.strip()
    try:
        digest = fields["instance"]
        seed_text = fields["sample-seed"]
        seq_text = fields["sequence"]
    except KeyError as exc:
        raise ParseError(f"malformed solution file: missing {exc}") from exc
    try:
        seed = None if seed_text == "-" else int(seed_text)
    except ValueError as exc:
        raise ParseError(f"malformed solution file: bad sample-seed {seed_text!r}, "
                         "expected an integer or -") from exc
    try:
        order = tuple(int(tok) for tok in seq_text.split())
        Sequence(order)          # raises unless a permutation of 0..V-1
    except ValueError as exc:
        raise ParseError(f"malformed solution file: bad sequence {seq_text!r}, "
                         "expected a permutation of 0..V-1") from exc
    return digest, seed, order


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# shared plumbing

def _load_instance(path: str) -> Instance:
    if not os.path.exists(path):
        raise ConfigError(f"instance file not found: {path}")
    return load(path)


def _make_sample(instance: Instance, args) -> tuple[Sample, int | None]:
    if args.sample_size:
        return (sample(instance, args.sample_size, args.sample_seed),
                args.sample_seed)
    return Sample.degenerate(instance), None


def _split_iters(total: int) -> tuple[int, int]:
    one = round(total * PHASE_SPLIT[0] / sum(PHASE_SPLIT))
    return one, total - one


def _search_params(args) -> SearchParams:
    if args.deterministic or args.iters is not None:
        total = args.iters if args.iters is not None else 3000
        one, full = _split_iters(total)
        return SearchParams(iters_one=one, iters_full=full, seed=args.seed)
    if args.time_limit is not None:
        share = args.time_limit / sum(PHASE_SPLIT)
        return SearchParams(tau_one=PHASE_SPLIT[0] * share,
                            tau_full=PHASE_SPLIT[1] * share, seed=args.seed)
    return SearchParams(seed=args.seed)


def _pick_method(instance: Instance, requested: str) -> str:
    if requested != "auto":
        return requested
    return "enum" if instance.n_vehicles <= ENUMERATION_GUARD else "ts"


def _solver_for(method: str, args):
    if method == "enum":
        return enumeration_solver()
    if method == "lshaped":
        return lshaped_solver(ExactParams(
            time_limit=None if args.deterministic else args.time_limit))
    if method == "ts":
        return tabu_solver(_search_params(args))
    raise ConfigError(f"method {method!r} cannot solve sampled problems")


# ---------------------------------------------------------------------------
# commands

def cmd_generate(args) -> int:
    if args.size_class not in SIZE_CLASSES:
        raise ConfigError(f"unknown size class {args.size_class!r}")
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    written = 0
    for ni, n in enumerate(SIZE_CLASSES[args.size_class]):
        for i in range(args.count):
            cfg = preset_config(n, derive_seed(args.seed, ni, i),
                                args.size_class)
            inst = generate(cfg)
            path = os.path.join(out_dir,
                                f"{args.size_class}_{n:03d}_{i:02d}.yaml")
            save(inst, path)
            print(f"wrote {path}")
            written += 1
    print(f"{written} instance files")
    return 0


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    smp, sample_seed = _make_sample(instance, args)
    t0 = time.perf_counter()
    lower = upper = gap = None
    iterations = 0
    hit_time_limit = False
    params = []

    method = _pick_method(instance, args.method)
    if method == "greedy":
        seq, _ = construct(instance, args.seed)
        iterations = instance.n_vehicles
    elif method == "enum":
        seq, value = enumerate_optimal(instance, smp)
        lower = upper = value
        gap = 0.0
    elif method == "lshaped":
        ex = ExactParams(
            time_limit=None if args.deterministic else args.time_limit)
        result = lshaped_solve(instance, smp, ex)
        seq = result.sequence
        lower, upper = result.lower_bound, result.upper_bound
        gap = upper - lower
        iterations = result.stats.nodes
        params.append(f"cuts={result.stats.cuts_added}")
        hit_time_limit = result.stats.status == "time_limit"
    elif method == "ts":
        start, _ = construct(instance, args.seed)
        sp = _search_params(args)
        seq, history = search(instance, smp, start, sp)
        iterations = len(history)
        if sp.iters_one is not None:
            params.append(f"iters={sp.iters_one}+{sp.iters_full}")
        else:
            params.append(f"tau={sp.tau_one:g}+{sp.tau_full:g}")
    else:
        raise ConfigError(f"unknown method {method!r}")

    scored = Objective(instance, smp)
    objective = scored.tu(scored.keys([as_order(seq)])[0])
    if lower is None:               # greedy and ts carry no bound of their own
        lower = scored.tu(scored._weigh(root_bound(scored)[None])[0])
        gap = objective - lower
    wall = None if args.deterministic else time.perf_counter() - t0
    record = RunRecord(
        command="solve", instance=instance_digest(instance), seed=args.seed,
        method=method, params=";".join(params), objective=objective,
        lower_bound=lower, upper_bound=upper, gap=gap, wall_time=wall,
        iterations=iterations)
    print(RUN_HEADER)
    print(record.to_csv_row())
    if args.out:
        _write(args.out, format_solution(instance, tuple(seq), sample_seed))
    return 4 if hit_time_limit else 0


def cmd_assess(args) -> int:
    instance = _load_instance(args.instance)
    if not os.path.exists(args.solution):
        raise ConfigError(f"solution file not found: {args.solution}")
    with open(args.solution, encoding="utf-8") as fh:
        digest, _, order = parse_solution(fh.read())
    if digest != instance_digest(instance):
        raise ParseError("solution file does not match the instance")
    if len(order) != instance.n_vehicles:
        raise ParseError("solution length does not match the instance")
    candidate = Sequence(order)
    method = _pick_method(instance, args.method)
    solver = _solver_for(method, args)
    report = mrp(instance, candidate, solver,
                 replications=args.replications, n=args.sample_size,
                 alpha=args.alpha, seed=args.seed)
    text = report.to_csv()
    sys.stdout.write(text)
    if args.out:
        _write(args.out, text)
    return 0


COMPARE_HEADER = ("instance,method,sample_size,eval_size,"
                  "nominal_cost,robust_cost,improvement_pct")


def cmd_compare(args) -> int:
    instance = _load_instance(args.instance)
    method = _pick_method(instance, args.method)
    solver = _solver_for(method, args)
    smp = sample(instance, args.sample_size, args.sample_seed)
    eval_seed = (args.eval_seed if args.eval_seed is not None
                 else derive_seed(args.seed, 99))
    eval_smp = sample(instance, args.eval_size, eval_seed)

    nominal_seq, _ = solver(instance, Sample.degenerate(instance), args.seed)
    robust_seq, _ = solver(instance, smp, args.seed)
    nominal_cost = evaluate_expected(instance, nominal_seq, eval_smp)
    robust_cost = evaluate_expected(instance, robust_seq, eval_smp)
    if nominal_cost > 0:
        improvement = 100.0 * (nominal_cost - robust_cost) / nominal_cost
    else:
        improvement = 0.0
    row = (f"{instance_digest(instance)},{method},{args.sample_size},"
           f"{args.eval_size},{nominal_cost:.6f},{robust_cost:.6f},"
           f"{improvement:.6f}")
    print(COMPARE_HEADER)
    print(row)
    if args.out:
        _write(args.out, COMPARE_HEADER + "\n" + row + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser

def _checked(kind, ok, expected: str):
    """An argparse type: kind(text) when ok accepts it; otherwise an
    error that argparse prefixes with the flag's name (exit 2)."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_COUNT = _checked(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE = _checked(int, lambda v: v >= 1, "an integer >= 1")
# nan fails every comparison, so it is rejected too
_SECONDS = _checked(float, lambda v: v >= 0, "a number of seconds >= 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmseq",
        description="Sequencing under stochastic product failures: "
                    "benchmark generation, solvers, and assessment.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, deterministic="iteration budgets only; blank wall-clock fields"):
        p.add_argument("--seed", type=_COUNT, default=0)
        p.add_argument("--deterministic", action="store_true", help=deterministic)
        p.add_argument("--out", help="output path")

    # the subcommands that solve, where --deterministic drops --time-limit
    solving = ("iteration budgets only; blank wall-clock fields; --method "
               "lshaped then runs branch-and-cut with no time bound")

    def method(p, choices):
        p.add_argument("--method", default="auto", choices=choices,
                       help=f"auto (default): enum up to {ENUMERATION_GUARD} "
                            "vehicles, ts above")

    def budgets(p):
        p.add_argument("--iters", type=_COUNT,
                       help="ts iteration budget, split 10:590 between the "
                            "phases (default 3000 under --deterministic); with "
                            "neither --iters, --time-limit nor --deterministic, "
                            "ts spends the paper's 10 s + 590 s")
        p.add_argument("--time-limit", type=_SECONDS,
                       help="wall-clock seconds for lshaped, and for ts (split "
                            "10:590) unless --iters is given; ignored under "
                            "--deterministic")

    g = sub.add_parser("generate", help="write benchmark instance files")
    g.add_argument("--class", dest="size_class", required=True,
                   choices=sorted(SIZE_CLASSES))
    g.add_argument("--count", type=_COUNT, default=30,
                   help="instances per size in the class")
    common(g)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run one solver on one instance")
    s.add_argument("--instance", required=True)
    method(s, ["auto", "greedy", "ts", "lshaped", "enum"])
    s.add_argument("--sample-size", type=_COUNT, default=0,
                   help="scenario draws; 0 = the no-failure scenario")
    s.add_argument("--sample-seed", type=_COUNT, default=0)
    budgets(s)
    common(s, solving)
    s.set_defaults(func=cmd_solve)

    a = sub.add_parser("assess", help="gap bound for a stored solution")
    a.add_argument("--instance", required=True)
    a.add_argument("--solution", required=True)
    method(a, ["auto", "enum", "lshaped", "ts"])
    a.add_argument("--replications", default=10,
                   type=_checked(int, lambda v: v >= 2, "an integer >= 2"))
    a.add_argument("--sample-size", type=_POSITIVE, default=100,
                   help="per-replication sample size")
    a.add_argument("--alpha", default=0.05,
                   type=_checked(float, lambda v: 0 < v < 1, "a number in (0, 1)"))
    budgets(a)
    common(a, solving)
    a.set_defaults(func=cmd_assess)

    c = sub.add_parser("compare", help="failure-blind vs sampled solution")
    c.add_argument("--instance", required=True)
    method(c, ["auto", "enum", "lshaped", "ts"])
    c.add_argument("--sample-size", type=_POSITIVE, required=True)
    c.add_argument("--sample-seed", type=_COUNT, default=0)
    c.add_argument("--eval-size", type=_POSITIVE, default=1000)
    c.add_argument("--eval-seed", type=_COUNT)
    budgets(c)
    common(c, solving)
    c.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MMSeqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
