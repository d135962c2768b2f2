"""The benchmark's own reference band-join, in plain numpy.

Independent of ``repro.local_join`` on purpose: results only count when they
agree with a reference the measured program cannot influence.  The method is
sort + window + residual: sort T on the first attribute, find each S-row's
window with two binary searches, expand the windows chunk by chunk and keep
the candidates that also satisfy the remaining attributes.

Pairs that sit within a rounding error of the band's edge are *undecided*:
the program may shift values before comparing them (the engine separates
partition units by adding offsets to the first attribute), so whether such a
pair matches depends on the last bits.  The reference accepts either answer
for them and is exact about every other pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Candidate pairs expanded per chunk.  Kept small on purpose: 8 MB temporaries
#: are reused by the allocator, while 32 MB ones are mapped and page-faulted
#: afresh on every chunk, which made the same join three times slower.
CHUNK_CANDIDATES = 1_000_000

#: Width of the undecided zone, as a share of the largest input magnitude.
EDGE_RELATIVE = 1e-12


def edge_tolerance(s: np.ndarray, t: np.ndarray) -> float:
    """Return the half-width of the undecided zone for these inputs."""
    return EDGE_RELATIVE * max(1.0, float(np.abs(s).max()), float(np.abs(t).max()))


def _matches(s: np.ndarray, t: np.ndarray, eps):
    """Yield ``(s_rows, t_rows, gap)`` for all pairs with ``gap <= 0`` where
    ``gap = max_k(|s[i, k] - t[j, k]| - eps[k])``."""
    order = np.argsort(t[:, 0], kind="stable")
    s_cols = [np.ascontiguousarray(s[:, k]) for k in range(s.shape[1])]
    t_cols = [np.ascontiguousarray(t[order, k]) for k in range(t.shape[1])]
    # One ulp of slack on the window: the residual below decides the edge.
    lo = np.searchsorted(t_cols[0], np.nextafter(s_cols[0] - eps[0], -np.inf), side="left")
    hi = np.searchsorted(t_cols[0], np.nextafter(s_cols[0] + eps[0], np.inf), side="right")
    width = hi - lo
    ends = np.cumsum(width)
    start_row = 0
    while start_row < s.shape[0]:
        base = ends[start_row - 1] if start_row else 0
        stop_row = int(np.searchsorted(ends, base + CHUNK_CANDIDATES, side="right"))
        stop_row = max(stop_row, start_row + 1)
        counts = width[start_row:stop_row]
        s_rows = np.repeat(np.arange(start_row, stop_row), counts)
        # Candidate j of the chunk sits (j - first candidate of its row) into
        # its row's window.
        window_shift = lo[start_row:stop_row] - (ends[start_row:stop_row] - counts - base)
        t_pos = np.arange(s_rows.size) + np.repeat(window_shift, counts)
        gap = None
        for k in range(s.shape[1] - 1, -1, -1):
            gap_k = np.abs(s_cols[k][s_rows] - t_cols[k][t_pos])
            gap_k -= eps[k]
            keep = gap_k <= 0
            s_rows, t_pos, gap_k = s_rows[keep], t_pos[keep], gap_k[keep]
            gap = gap_k if gap is None else np.maximum(gap[keep], gap_k)
        yield s_rows, order[t_pos], gap
        start_row = stop_row


def near_pairs(s: np.ndarray, t: np.ndarray, eps, tolerance: float):
    """Return ``(pairs, gap)`` of every pair within ``eps + tolerance``.

    ``gap`` is measured against ``eps`` itself: a pair surely matches when
    ``gap <= -tolerance`` and is undecided when ``|gap| < tolerance``.
    """
    wide = np.asarray(eps, dtype=float) + tolerance
    pairs, gaps = [], []
    for s_rows, t_rows, gap in _matches(s, t, wide):
        pairs.append(np.column_stack([s_rows, t_rows]))
        gaps.append(gap + tolerance)
    if not pairs:
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    return np.concatenate(pairs).astype(np.int64, copy=False), np.concatenate(gaps)


def _scramble(pairs: np.ndarray) -> np.ndarray:
    """Pack each pair into one 64-bit word and mix it (splitmix64 finaliser)."""
    word = (pairs[:, 0].astype(np.uint64) << np.uint64(32)) | pairs[:, 1].astype(np.uint64)
    word ^= word >> np.uint64(30)
    word *= np.uint64(0xBF58476D1CE4E5B9)
    word ^= word >> np.uint64(27)
    word *= np.uint64(0x94D049BB133111EB)
    word ^= word >> np.uint64(31)
    return word


def _digest(words: np.ndarray) -> tuple[int, int, int]:
    """Return ``(count, wrapped sum, xor)`` — the same for any order of the
    words, and changed by a missing or a repeated one."""
    if words.size == 0:
        return 0, 0, 0
    return int(words.size), int(words.sum(dtype=np.uint64)), int(np.bitwise_xor.reduce(words))


def pair_hash(pairs: np.ndarray) -> tuple[int, int, int]:
    """Return the order-independent digest of a pair set."""
    return _digest(_scramble(pairs))


@dataclass(frozen=True)
class PairSetReference:
    """What a materialised join of fixed inputs must return."""

    sure: tuple[int, int, int]
    undecided: np.ndarray  # scrambled words of the pairs on the band's edge

    @classmethod
    def build(cls, s: np.ndarray, t: np.ndarray, eps) -> "PairSetReference":
        tolerance = edge_tolerance(s, t)
        pairs, gap = near_pairs(s, t, eps, tolerance)
        return cls(
            sure=pair_hash(pairs[gap <= -tolerance]),
            undecided=_scramble(pairs[gap > -tolerance]),
        )

    @property
    def count(self) -> int:
        """Return the number of pairs that surely match."""
        return self.sure[0]

    def accepts(self, pairs: np.ndarray) -> bool:
        """Return whether ``pairs`` is the sure set plus any undecided pairs,
        each exactly once."""
        words = _scramble(pairs)
        if self.undecided.size == 0:
            return _digest(words) == self.sure
        taken = np.unique(words[np.isin(words, self.undecided)])
        count, total, xor = _digest(taken)
        expected = (
            self.sure[0] + count,
            (self.sure[1] + total) % 2**64,
            self.sure[2] ^ xor,
        )
        return _digest(words) == expected


@dataclass(frozen=True)
class CountReference:
    """Pair counts of one relation pair for any prefix and any epsilon.

    Holds every pair within the widest epsilon of a run with its Chebyshev
    distance.  Appended rows come after the rows already there, so a
    relation at an earlier version is a row-count prefix, and — with one
    epsilon for all attributes — a narrower band is a distance filter: one
    join answers every (version, epsilon) the run asks about.
    """

    pairs: np.ndarray
    distance: np.ndarray
    tolerance: float

    @classmethod
    def build(cls, s: np.ndarray, t: np.ndarray, eps_max: float) -> "CountReference":
        tolerance = edge_tolerance(s, t)
        pairs, gap = near_pairs(s, t, [eps_max] * s.shape[1], tolerance)
        return cls(pairs=pairs, distance=gap + eps_max, tolerance=tolerance)

    def bounds(self, s_rows: int, t_rows: int, eps: float) -> tuple[int, int]:
        """Return the ``(least, most)`` pairs a correct answer may report for
        the first ``s_rows`` × ``t_rows`` rows at band width ``eps``."""
        inside = (self.pairs[:, 0] < s_rows) & (self.pairs[:, 1] < t_rows)
        distance = self.distance[inside]
        least = int(np.count_nonzero(distance <= eps - self.tolerance))
        most = int(np.count_nonzero(distance < eps + self.tolerance))
        return least, most


def satisfies(s_row: np.ndarray, t_row: np.ndarray, eps, tolerance: float) -> bool:
    """Return whether one pair of rows meets the band condition (edge included)."""
    return bool(np.all(np.abs(s_row - t_row) <= np.asarray(eps) + tolerance))
