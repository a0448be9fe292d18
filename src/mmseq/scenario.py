"""Failure scenarios and Monte Carlo samples.

A scenario fixes, for every vehicle, whether it still exists at the
final assembly stage (1) or dropped out upstream (0).  Failures are
independent across vehicles, and a Monte Carlo sample of N draws stands
in for the 2^|V| scenarios (sample average approximation).

A Sample is the only scenario set.  It is held as arrays, the form every
consumer reads: a read-only vehicles x scenarios bool existence matrix
and a weight per column.  It deduplicates repeated draws: the estimator
only ever needs the distinct scenarios with their multiplicities n_w, so
its columns are distinct, in lexicographic order, and weighted by int64
draw counts; sums of integer tick values weighted by integer counts keep
sample averages exact.  Scenario objects are built only where one is
needed: by Sample.unique for tabu search's reference spot check and the
bench's draw check.
`sample` draws its N x V variates in blocks of at most _BLOCK_BYTES
bytes of floats straight into the bool existence matrix, the same
stream as one N x V draw without its N x V floats, and finds the
distinct rows by packing each into big-endian 64-bit words and
lexsorting the words, which orders the rows lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .seeding import make_rng

# bytes of uniform variates per block in sample, in whole rows, at least
# one: 1310 rows at V = 200, where one N x V draw would take 1.6 GB at
# N = 10^6.  Freeing the block also sets glibc's heap trim threshold to
# twice its size.  With 512 KB blocks, the 1.9 MB of trajectory arrays
# a tabu search allocates at V = 200 and 95 scenarios went back to the
# system after each search and were faulted in again by the next, about
# 500 page faults (1.6 ms) per round of the bench's tabu-large workload.
_BLOCK_BYTES = 2**21


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


def sample(instance: Instance, n: int, seed: int) -> Sample:
    """Draw N iid scenarios: one uniform variate per (draw, vehicle) in
    row-major order; vehicle v exists iff its variate >= failure_prob."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = make_rng(seed)
    fail = np.array([veh.failure_prob for veh in instance.vehicles])
    exists = np.empty((n, instance.n_vehicles), dtype=bool)
    rows = max(1, _BLOCK_BYTES // (8 * instance.n_vehicles))
    u = np.empty((min(n, rows), instance.n_vehicles))
    for a in range(0, n, rows):
        block = u[:min(rows, n - a)]
        rng.random(out=block)
        np.greater_equal(block, fail, out=exists[a:a + len(block)])
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
