"""Reference computations the benchmark checks mmseq's outputs against.

Each function is written from a rule the package documents and shares
no code with it; only numpy and the standard library are imported.

- Seeds: a child stream under ``base`` with key path ``keys`` is seeded
  by the first uint64 word of ``SeedSequence((base, k1 + 1, k2 + 1, ...))``.
- Samples: one PCG64 generator seeded from ``SeedSequence(seed)`` draws
  an (N, V) block of uniforms in row-major order; vehicle v exists in
  draw i iff ``u[i, v] >= f_v``.  Draws are deduplicated with counts
  and kept in lexicographic order of the existence vector.
- Station recursion, in integer ticks, per station with cycle time c
  and operating length l: ``s = z + b``; overload ``max(0, s - l)``, or
  ``max(0, s - c)`` at the last position (the regenerative end); next
  start ``min(l - c, max(0, s - c))``.  A failed vehicle takes b = c.
- Exact optimum: every permutation of V <= 9 vehicles, the objective
  being the count-weighted overload summed over scenarios; the first
  minimum in lexicographic order is the argmin.
"""

from __future__ import annotations

import itertools

import numpy as np

TICKS_PER_TU = 10_000
BRUTE_FORCE_LIMIT = 9


def derive_seed(base: int, *keys: int) -> int:
    ss = np.random.SeedSequence((int(base),) + tuple(int(k) + 1 for k in keys))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def draw(fail_probs, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated sample: (U, V) 0/1 rows in lexicographic order and
    their (U,) counts."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
    probs = np.asarray(fail_probs, dtype=float)
    u = rng.random((n, probs.shape[0]))
    exists = (u >= probs).astype(np.int8)
    rows, counts = np.unique(exists, axis=0, return_counts=True)
    return rows, counts.astype(np.int64)


def overload_ticks(p, lengths, c: int, order, exists) -> np.ndarray:
    """Total overload in ticks of ``order`` under each scenario row.

    p is the (K, V) processing-time matrix in ticks, lengths the (K,)
    operating lengths, exists a (U, V) 0/1 matrix.
    """
    p = np.asarray(p, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    exists = np.asarray(exists, dtype=bool)
    cap = lengths - c
    z = np.zeros((exists.shape[0], p.shape[0]), dtype=np.int64)
    total = np.zeros(exists.shape[0], dtype=np.int64)
    last = len(order) - 1
    for t, v in enumerate(order):
        b = np.where(exists[:, v, None], p[None, :, v], c)
        s = z + b
        border = c if t == last else lengths
        total += np.maximum(s - border, 0).sum(axis=1)
        z = np.minimum(np.maximum(s - c, 0), cap)
    return total


def numerator(p, lengths, c: int, order, exists, counts) -> int:
    """Exact sample-average numerator: sum_w n_w * overload_w in ticks."""
    return int(overload_ticks(p, lengths, c, order, exists) @ np.asarray(counts))


def brute_force(p, lengths, c: int, exists, counts,
                chunk: int = 5040) -> tuple[int, tuple[int, ...]]:
    """(minimum numerator, lexicographically smallest argmin) over all
    permutations, vectorised over permutations and scenarios."""
    p = np.asarray(p, dtype=np.int64)
    n_veh = p.shape[1]
    if n_veh > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force over {n_veh}! permutations refused")
    lengths = np.asarray(lengths, dtype=np.int64)
    exists = np.asarray(exists, dtype=bool)
    counts = np.asarray(counts, dtype=np.int64)
    cap = lengths - c
    perms = np.array(list(itertools.permutations(range(n_veh))), dtype=np.int64)
    nums = np.empty(len(perms), dtype=np.int64)
    for lo in range(0, len(perms), chunk):
        block = perms[lo:lo + chunk]
        z = np.zeros((len(block), exists.shape[0], p.shape[0]), dtype=np.int64)
        total = np.zeros((len(block), exists.shape[0]), dtype=np.int64)
        for t in range(n_veh):
            v = block[:, t]
            b = np.where(exists[:, v].T[:, :, None], p[:, v].T[:, None, :], c)
            s = z + b
            border = c if t == n_veh - 1 else lengths
            total += np.maximum(s - border, 0).sum(axis=2)
            z = np.minimum(np.maximum(s - c, 0), cap)
        nums[lo:lo + len(block)] = total @ counts
    best = int(np.argmin(nums))
    return int(nums[best]), tuple(int(v) for v in perms[best])


def ev_spacing_ok(order, is_ev) -> bool:
    """The constructive pattern: an EV at position 0 and every gap between
    consecutive EVs at least floor(V / #EV)."""
    pos = [t for t, v in enumerate(order) if is_ev[v]]
    if not pos:
        return True
    base = len(order) // len(pos)
    return pos[0] == 0 and all(b - a >= base for a, b in zip(pos, pos[1:]))


def no_adjacent_evs(order, is_ev) -> bool:
    return not any(is_ev[a] and is_ev[b] for a, b in zip(order, order[1:]))


def is_permutation(order, n: int) -> bool:
    return sorted(order) == list(range(n))
