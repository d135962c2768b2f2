"""Join-output sampling.

RecPart (like CSIO) uses a sample of the *join output* to estimate how much
output each candidate partition would produce.  The paper adopts the output
sampler of Vitorovic et al. [38]; the key property it needs is a set of
output pairs whose distribution over the join-attribute space approximates
the true output distribution, together with an estimate of the total output
cardinality.

This module implements that contract with one growing cross-sample join:

1. draw random samples ``S_c ⊆ S`` and ``T_c ⊆ T``,
2. join the samples exactly (index-nested-loop),
3. estimate the full output as ``|pairs| * (|S| / |S_c|) * (|T| / |T_c|)``
   (every pair of the cross product is included in the sample join with
   probability ``(|S_c|/|S|) * (|T_c|/|T|)``, so this estimator is unbiased),
4. if too few pairs were found, add uniformly drawn unused rows to both
   samples — straight to the first scheduled fraction at which the pair
   count, which grows with the square of the fraction, predicts enough
   pairs — and join again; finally subsample the pairs down to the
   requested output-sample size.

The sampled pairs keep both their S-side and T-side join-attribute
coordinates because split ownership follows the *non-duplicated* side, which
differs between S-splits and T-splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.relation import Relation
from repro.exceptions import SamplingError
from repro.geometry.band import BandCondition
from repro.local_join.interval import IntervalJoin


@dataclass(frozen=True)
class OutputSample:
    """A sample of band-join output pairs plus an output-cardinality estimate.

    Attributes
    ----------
    s_coords / t_coords:
        ``(m, d)`` join-attribute coordinates of the S-side / T-side tuple of
        each sampled output pair.
    estimated_output:
        Estimate of ``|S join T|``.
    pair_scale:
        Multiplier converting a count of sampled pairs into an output
        estimate (``estimated_output / m``; 0 when the sample is empty).
    """

    s_coords: np.ndarray
    t_coords: np.ndarray
    estimated_output: float
    pair_scale: float

    def __len__(self) -> int:
        return int(self.s_coords.shape[0])

    @property
    def is_empty(self) -> bool:
        """Return ``True`` when no output pair was sampled."""
        return len(self) == 0


def _grow_rows(
    rows: np.ndarray, size: int, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Extend the distinct row sample ``rows`` of a ``size``-row relation to
    ``fraction`` of it with uniformly drawn rows it does not hold yet.

    From an empty sample this draws exactly what :meth:`Relation.sample`
    draws, so a first round consumes the same random numbers.
    """
    target = max(1, min(size, int(round(fraction * size))))
    free = np.ones(size, dtype=bool)
    free[rows] = False
    free = np.flatnonzero(free)
    if target - rows.size < free.size:
        free = free[rng.choice(free.size, size=target - rows.size, replace=False)]
    return np.concatenate([rows, free])


def draw_output_sample(
    s: Relation,
    t: Relation,
    condition: BandCondition,
    sample_size: int,
    rng: np.random.Generator,
    initial_fraction: float = 0.02,
    max_fraction: float = 0.35,
    growth: float = 2.0,
) -> OutputSample:
    """Draw an output sample of (up to) ``sample_size`` pairs.

    Parameters
    ----------
    initial_fraction / max_fraction / growth:
        Control the progressive enlargement of the cross-sample: start with
        ``initial_fraction`` of each relation and, while too few pairs were
        found, grow the same samples along the schedule ``initial_fraction *
        growth**k`` (capped at ``max_fraction``), skipping the fractions at
        which the last round's pair count predicts too few pairs.  The cap
        bounds sampling cost (the paper bounds statistics time at 5% of join
        time); if the join output is tiny the final sample may simply hold
        fewer pairs, which is fine because a small output has negligible
        impact on load anyway (paper Section 4.2).
    """
    if sample_size < 1:
        raise SamplingError("output sample_size must be at least 1")
    if not 0 < initial_fraction <= max_fraction <= 1.0:
        raise SamplingError("need 0 < initial_fraction <= max_fraction <= 1")
    if growth <= 1.0:
        raise SamplingError("growth must be greater than 1")
    condition.validate_against(s.column_names)
    condition.validate_against(t.column_names)
    attrs = condition.attributes
    if len(s) == 0 or len(t) == 0:
        empty = np.empty((0, condition.dimensionality))
        return OutputSample(empty, empty, 0.0, 0.0)

    joiner = IntervalJoin()
    s_rows = t_rows = np.empty(0, dtype=np.int64)
    fraction = initial_fraction
    while True:
        s_rows = _grow_rows(s_rows, len(s), fraction, rng)
        t_rows = _grow_rows(t_rows, len(t), fraction, rng)
        s_matrix = s.take(s_rows).join_matrix(attrs)
        t_matrix = t.take(t_rows).join_matrix(attrs)
        pairs = joiner.join(s_matrix, t_matrix, condition)
        found = pairs.shape[0]
        if found >= sample_size or fraction >= max_fraction:
            break
        # Pairs grow with the square of the fraction: skip the scheduled
        # fractions at which this round's count predicts too few of them.
        start = fraction
        fraction = min(max_fraction, fraction * growth)
        while fraction < max_fraction and found * (fraction / start) ** 2 < sample_size:
            fraction = min(max_fraction, fraction * growth)
    scale = (len(s) / s_rows.size) * (len(t) / t_rows.size)
    estimated_output = float(found) * scale
    if pairs.shape[0] == 0:
        empty = np.empty((0, condition.dimensionality))
        return OutputSample(empty, empty, estimated_output, 0.0)

    if pairs.shape[0] > sample_size:
        keep = rng.choice(pairs.shape[0], size=sample_size, replace=False)
        pairs = pairs[keep]
    s_coords = s_matrix[pairs[:, 0]]
    t_coords = t_matrix[pairs[:, 1]]
    pair_scale = estimated_output / pairs.shape[0] if pairs.shape[0] else 0.0
    return OutputSample(
        s_coords=s_coords,
        t_coords=t_coords,
        estimated_output=estimated_output,
        pair_scale=float(pair_scale),
    )
