"""Failure scenarios and Monte Carlo samples.

A scenario fixes, for every vehicle, whether it still exists at the
final assembly stage (1) or dropped out upstream (0).  Failures are
independent across vehicles, so a scenario's probability is the product
prod_v f_v^(1 - e_v) * (1 - f_v)^e_v.

Samples deduplicate repeated draws: the estimator only ever needs the
distinct scenarios with their multiplicities n_w, and sums of integer
tick values weighted by integer counts keep sample averages exact.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import yaml

from .errors import ParseError, SizeGuardError
from .instance import SAFE_LOADER, Instance
from .seeding import make_rng

ENUMERATION_GUARD = 20

FORMAT_VERSION = "mms-sample/1"


@dataclass(frozen=True)
class Scenario:
    """Existence vector indexed by vehicle id; 1 = reaches final assembly."""
    exists: tuple[int, ...]

    def __post_init__(self):
        if any(e not in (0, 1) for e in self.exists):
            raise ValueError("scenario entries must be 0 or 1")

    @classmethod
    def all_exist(cls, n: int) -> "Scenario":
        return cls((1,) * n)

    @classmethod
    def from_bits(cls, bits: str) -> "Scenario":
        return cls(tuple(int(b) for b in bits))

    def bits(self) -> str:
        return "".join(str(e) for e in self.exists)

    @property
    def n_existing(self) -> int:
        return sum(self.exists)


def scenario_probability(instance: Instance, scenario: Scenario) -> float:
    if len(scenario.exists) != instance.n_vehicles:
        raise ValueError("scenario length does not match instance")
    prob = 1.0
    for veh, e in zip(instance.vehicles, scenario.exists):
        prob *= (1.0 - veh.failure_prob) if e else veh.failure_prob
    return prob


@dataclass(frozen=True)
class Sample:
    """N scenario draws, stored deduplicated in lexicographic order."""
    n: int
    seed: int | None
    unique: tuple[tuple[Scenario, int], ...]  # (scenario, multiplicity), sorted

    def __post_init__(self):
        if sum(c for _, c in self.unique) != self.n:
            raise ValueError("multiplicities must sum to n")
        keys = [s.exists for s, _ in self.unique]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("unique scenarios must be distinct and sorted")
        if any(c <= 0 for _, c in self.unique):
            raise ValueError("multiplicities must be positive")

    @classmethod
    def from_scenarios(cls, scenarios, seed: int | None = None) -> "Sample":
        counts: dict[tuple[int, ...], int] = {}
        for s in scenarios:
            counts[s.exists] = counts.get(s.exists, 0) + 1
        unique = tuple((Scenario(k), c) for k, c in sorted(counts.items()))
        return cls(n=sum(counts.values()), seed=seed, unique=unique)

    @classmethod
    def degenerate(cls, instance: Instance) -> "Sample":
        """The single no-failure scenario; models the failure-blind problem."""
        return cls.from_scenarios([Scenario.all_exist(instance.n_vehicles)])

    @property
    def n_unique(self) -> int:
        return len(self.unique)


def sample(instance: Instance, n: int, seed: int,
           forbid_low_risk_failures: bool = False) -> Sample:
    """Draw N iid scenarios: one uniform variate per (draw, vehicle) in
    row-major order; vehicle v exists iff its variate >= failure_prob.
    With forbid_low_risk_failures, low-risk vehicles always exist."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = make_rng(seed)
    u = rng.random((n, instance.n_vehicles))
    probs = [veh.failure_prob for veh in instance.vehicles]
    low = [veh.risk_class == "low" for veh in instance.vehicles]
    scenarios = []
    for i in range(n):
        row = u[i]
        exists = tuple(
            1 if (forbid_low_risk_failures and low[v]) or row[v] >= probs[v] else 0
            for v in range(instance.n_vehicles))
        scenarios.append(Scenario(exists))
    return Sample.from_scenarios(scenarios, seed=seed)


def enumerate_all(instance: Instance) -> Iterator[tuple[Scenario, float]]:
    """All 2^|V| scenarios with probabilities, lexicographic by existence
    vector.  Guarded: refuses |V| > 20."""
    n = instance.n_vehicles
    if n > ENUMERATION_GUARD:
        raise SizeGuardError(
            f"full enumeration needs 2^{n} scenarios; guard is |V| <= {ENUMERATION_GUARD}")
    for bits in itertools.product((0, 1), repeat=n):
        s = Scenario(bits)
        yield s, scenario_probability(instance, s)


# ---------------------------------------------------------------------------
# file I/O

def save_sample(smp: Sample, path) -> None:
    lines = [f"version: {FORMAT_VERSION}",
             f"seed: {'null' if smp.seed is None else smp.seed}",
             f"n: {smp.n}",
             "scenarios:"]
    for s, count in smp.unique:
        lines.append(f"- {{bits: \"{s.bits()}\", count: {count}}}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_sample(path) -> Sample:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = yaml.load(text, Loader=SAFE_LOADER)
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a mapping at top level")
    for key in ("version", "seed", "n", "scenarios"):
        if key not in doc:
            raise ParseError(f"{path}: missing required field '{key}'")
    if doc["version"] != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported version {doc['version']!r}")
    extra = sorted(set(doc) - {"version", "seed", "n", "scenarios"})
    if extra:
        warnings.warn(f"{path}: ignoring unknown fields {extra}", stacklevel=2)
    unique = []
    for i, row in enumerate(doc["scenarios"] or []):
        if not isinstance(row, dict) or "bits" not in row or "count" not in row:
            raise ParseError(f"{path}: scenarios[{i}]: need fields bits, count")
        unique.append((Scenario.from_bits(str(row["bits"])), int(row["count"])))
    try:
        return Sample(n=int(doc["n"]), seed=doc["seed"], unique=tuple(unique))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
