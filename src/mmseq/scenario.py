"""Failure scenarios and Monte Carlo samples.

A scenario fixes, for every vehicle, whether it still exists at the
final assembly stage (1) or dropped out upstream (0).  Failures are
independent across vehicles, so a scenario's probability is the product
prod_v f_v^(1 - e_v) * (1 - f_v)^e_v.

Samples deduplicate repeated draws: the estimator only ever needs the
distinct scenarios with their multiplicities n_w, and sums of integer
tick values weighted by integer counts keep sample averages exact.
`sample` draws all N x V variates at once and finds the distinct rows
by packing each into big-endian 64-bit words and lexsorting the words,
which orders the rows lexicographically, the order a Sample keeps.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ParseError, SizeGuardError
from .instance import Instance, read_mapping
from .seeding import make_rng

ENUMERATION_GUARD = 20

FORMAT_VERSION = "mms-sample/1"


@dataclass(frozen=True)
class Scenario:
    """Existence vector indexed by vehicle id; 1 = reaches final assembly."""
    exists: tuple[int, ...]

    def __post_init__(self):
        if not frozenset(self.exists) <= {0, 1}:
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
        if len(set(map(len, keys))) > 1:
            raise ValueError("unique scenarios must all have one length")
        # strictly increasing is sorted and distinct in one pass
        if not all(a < b for a, b in zip(keys, keys[1:])):
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

    @functools.cached_property
    def existence(self) -> np.ndarray:
        """Read-only vehicles x unique scenarios existence flags; sample()
        seeds them from its drawn rows."""
        n_vehicles = len(self.unique[0][0].exists) if self.unique else 0
        return existence([s for s, _ in self.unique], n_vehicles)


def existence(scenarios, n_vehicles: int) -> np.ndarray:
    """Read-only vehicles x scenarios array of existence flags."""
    flags = np.array([s.exists for s in scenarios], dtype=bool)
    flags = np.ascontiguousarray(flags.reshape(len(scenarios), n_vehicles).T)
    flags.flags.writeable = False
    return flags


def sample(instance: Instance, n: int, seed: int,
           forbid_low_risk_failures: bool = False) -> Sample:
    """Draw N iid scenarios: one uniform variate per (draw, vehicle) in
    row-major order; vehicle v exists iff its variate >= failure_prob.
    With forbid_low_risk_failures, low-risk vehicles always exist."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = make_rng(seed)
    u = rng.random((n, instance.n_vehicles))
    exists = u >= np.array([veh.failure_prob for veh in instance.vehicles])
    if forbid_low_risk_failures:
        exists |= np.array([veh.risk_class == "low" for veh in instance.vehicles])
    rows, counts = _unique_rows(exists)
    unique = tuple((Scenario(tuple(row)), count)
                   for row, count in zip(rows.view(np.int8).tolist(), counts.tolist()))
    smp = Sample(n=n, seed=seed, unique=unique)
    # seed the cached flags from the rows at hand instead of the tuples
    flags = np.ascontiguousarray(rows.T)
    flags.flags.writeable = False
    smp.__dict__["existence"] = flags
    return smp


def _unique_rows(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D bool array, in lexicographic order,
    with their counts: np.unique(axis=0, return_counts=True) without its
    void-row sort.  Each row is packed big-endian into 64-bit words, so
    comparing word tuples compares the rows."""
    n, width = flags.shape
    packed = np.zeros((n, -(-width // 64) * 8), dtype=np.uint8)
    packed[:, :-(-width // 8)] = np.packbits(flags, axis=1)
    words = packed.view(">u8").astype(np.uint64)
    order = np.lexsort(words.T[::-1])  # lexsort's last key is the primary one
    words = words[order]
    starts = np.flatnonzero(np.r_[True, (words[1:] != words[:-1]).any(axis=1)])
    counts = np.diff(np.r_[starts, n])
    return flags[order[starts]], counts


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


def _integer(value, field: str, path) -> int:
    """A YAML integer; bools and floats are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: bad {field} {value!r}, expected an integer")
    return value


def load_sample(path) -> Sample:
    doc = read_mapping(path)
    for key in ("version", "seed", "n", "scenarios"):
        if key not in doc:
            raise ParseError(f"{path}: missing required field '{key}'")
    if doc["version"] != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported version {doc['version']!r}")
    extra = sorted(set(doc) - {"version", "seed", "n", "scenarios"})
    if extra:
        warnings.warn(f"{path}: ignoring unknown fields {extra}", stacklevel=2)
    rows, seed = doc["scenarios"], doc["seed"]
    if not isinstance(rows, list):
        raise ParseError(f"{path}: bad scenarios {rows!r}, expected a list")
    if seed is not None:
        seed = _integer(seed, "seed", path)
    unique = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or "bits" not in row or "count" not in row:
            raise ParseError(f"{path}: scenarios[{i}]: need fields bits, count")
        bits, count = str(row["bits"]), row["count"]
        try:
            scenario = Scenario.from_bits(bits)
        except ValueError as exc:
            raise ParseError(f"{path}: bad scenarios[{i}].bits {bits!r}, "
                             "expected a string of 0s and 1s") from exc
        unique.append((scenario, _integer(count, f"scenarios[{i}].count", path)))
    try:
        return Sample(n=_integer(doc["n"], "n", path), seed=seed,
                      unique=tuple(unique))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
