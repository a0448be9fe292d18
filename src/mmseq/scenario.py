"""Failure scenarios and Monte Carlo samples.

A scenario fixes, for every vehicle, whether it still exists at the
final assembly stage (1) or dropped out upstream (0).  Failures are
independent across vehicles, so a scenario's probability is the product
prod_v f_v^(1 - e_v) * (1 - f_v)^e_v.

A scenario set is held as arrays, the form every consumer reads: a
read-only vehicles x scenarios bool existence matrix and a weight per
column.  A Sample deduplicates repeated draws: the estimator only ever
needs the distinct scenarios with their multiplicities n_w, so its
columns are distinct, in lexicographic order, and weighted by int64
draw counts; sums of integer tick values weighted by integer counts keep
sample averages exact.  WeightedScenarios keeps (Scenario, weight)
pairs, e.g. true probabilities, and derives the same arrays once.
Scenario objects are built only where one is needed, e.g. by
Sample.unique for the sample file.  `sample` draws its N x V variates
in blocks of _BLOCK_ROWS rows straight into the bool existence matrix,
the same stream as one N x V draw without its N x V floats, and finds
the distinct rows by packing each into big-endian 64-bit words and
lexsorting the words, which orders the rows lexicographically.
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

# draws per block of uniform variates in sample: 4096 x V float64 at a
# time instead of N x V (1.6 GB at N = 10^6, V = 200)
_BLOCK_ROWS = 4096

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
    def from_flags(cls, flags) -> "Scenario":
        """The scenario of one bool column of an existence matrix."""
        return cls(tuple(np.asarray(flags, dtype=np.int8).tolist()))

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Sample:
    """N scenario draws, deduplicated: existence[v, j] tells whether
    vehicle v exists in the j-th distinct scenario, which was drawn
    weights[j] times.  The columns are strictly increasing in
    lexicographic order.  Both arrays are read-only copies."""
    n: int
    seed: int | None
    existence: np.ndarray   # vehicles x unique scenarios, bool
    weights: np.ndarray     # draw count of each column, int64

    def __post_init__(self):
        flags = _read_only(np.array(self.existence, dtype=bool, order="C"))
        object.__setattr__(self, "existence", flags)
        if flags.ndim != 2 or flags.shape[1] == 0:
            raise ValueError("existence must be a vehicles x scenarios matrix "
                             "with at least one column")
        counts = np.asarray(self.weights)
        if counts.dtype.kind not in "iu":        # floats would be truncated
            raise ValueError("multiplicities must be integers below 2**63")
        counts = _read_only(counts.astype(np.int64))
        object.__setattr__(self, "weights", counts)
        if counts.shape != flags.shape[1:]:
            raise ValueError("need one multiplicity per scenario")
        if (counts <= 0).any():
            raise ValueError("multiplicities must be positive")
        if sum(counts.tolist()) != self.n:          # exact, no int64 wrap
            raise ValueError("multiplicities must sum to n")
        # strictly increasing is sorted and distinct in one pass: each
        # column differs from its left neighbour and has the 1 where they
        # first differ
        later = flags[:, 1:]
        differs = later != flags[:, :-1]
        ascending = differs.any(axis=0)
        if differs.size:
            ascending &= later[differs.argmax(axis=0), np.arange(later.shape[1])]
        if not ascending.all():
            raise ValueError("unique scenarios must be distinct and sorted")

    def __eq__(self, other):
        if not isinstance(other, Sample):
            return NotImplemented
        return (self.n == other.n and self.seed == other.seed
                and np.array_equal(self.existence, other.existence)
                and np.array_equal(self.weights, other.weights))

    @classmethod
    def from_scenarios(cls, scenarios, seed: int | None = None) -> "Sample":
        counts: dict[tuple[int, ...], int] = {}
        for s in scenarios:
            counts[s.exists] = counts.get(s.exists, 0) + 1
        if len(set(map(len, counts))) > 1:
            raise ValueError("scenarios must all have one length")
        keys = sorted(counts)
        return cls(n=sum(counts.values()), seed=seed,
                   existence=np.array(keys, dtype=bool).T,
                   weights=[counts[k] for k in keys])

    @classmethod
    def degenerate(cls, instance: Instance) -> "Sample":
        """The single no-failure scenario; models the failure-blind problem."""
        return cls(n=1, seed=None, existence=np.ones((instance.n_vehicles, 1), dtype=bool),
                   weights=[1])

    @property
    def n_unique(self) -> int:
        return self.existence.shape[1]

    @property
    def unique(self) -> tuple[tuple[Scenario, int], ...]:
        """(scenario, multiplicity) pairs in column order, built on demand."""
        return tuple((Scenario.from_flags(col), count)
                     for col, count in zip(self.existence.T, self.weights.tolist()))


@dataclass(frozen=True)
class WeightedScenarios:
    """Scenario set with real-valued weights (e.g. true probabilities)."""
    pairs: tuple[tuple[Scenario, float], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("need at least one scenario")
        if len({len(s.exists) for s, _ in self.pairs}) > 1:
            raise ValueError("scenarios must all have one length")
        if any(w < 0 for _, w in self.pairs):
            raise ValueError("weights must be nonnegative")

    def __iter__(self):
        return iter(self.pairs)

    @functools.cached_property
    def existence(self) -> np.ndarray:
        """Read-only vehicles x scenarios existence flags."""
        flags = np.array([s.exists for s, _ in self.pairs], dtype=bool)
        return _read_only(np.ascontiguousarray(flags.T))

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Read-only float weight of each column."""
        return _read_only(np.array([w for _, w in self.pairs], dtype=float))


def sample(instance: Instance, n: int, seed: int,
           forbid_low_risk_failures: bool = False) -> Sample:
    """Draw N iid scenarios: one uniform variate per (draw, vehicle) in
    row-major order; vehicle v exists iff its variate >= failure_prob.
    With forbid_low_risk_failures, low-risk vehicles always exist."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = make_rng(seed)
    fail = np.array([veh.failure_prob for veh in instance.vehicles])
    exists = np.empty((n, instance.n_vehicles), dtype=bool)
    u = np.empty((min(n, _BLOCK_ROWS), instance.n_vehicles))
    for a in range(0, n, _BLOCK_ROWS):
        block = u[:min(_BLOCK_ROWS, n - a)]
        rng.random(out=block)
        np.greater_equal(block, fail, out=exists[a:a + len(block)])
    if forbid_low_risk_failures:
        exists |= np.array([veh.risk_class == "low" for veh in instance.vehicles])
    rows, counts = _unique_rows(exists)
    return Sample(n=n, seed=seed, existence=rows.T, weights=counts)


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


def _int64(value, field: str, path) -> int:
    """A YAML integer that an int64 count array can hold."""
    value = _integer(value, field, path)
    if not -2**63 <= value < 2**63:
        raise ParseError(f"{path}: bad {field} {value!r}, expected an integer "
                         "below 2**63")
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
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{path}: bad scenarios {rows!r}, expected a non-empty list")
    if seed is not None:
        seed = _integer(seed, "seed", path)
    bits, counts = [], []
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or "bits" not in row or "count" not in row:
            raise ParseError(f"{path}: scenarios[{i}]: need fields bits, count")
        bits.append(str(row["bits"]))
        if bits[-1].strip("01") or len(bits[-1]) != len(bits[0]):
            raise ParseError(f"{path}: bad scenarios[{i}].bits {bits[-1]!r}, expected "
                             f"a string of {len(bits[0])} 0s and 1s")
        counts.append(_int64(row["count"], f"scenarios[{i}].count", path))
    text = np.frombuffer("".join(bits).encode("ascii"), dtype=np.uint8)
    flags = text.reshape(len(bits), len(bits[0])) == ord("1")
    try:
        return Sample(n=_int64(doc["n"], "n", path), seed=seed,
                      existence=flags.T, weights=counts)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
