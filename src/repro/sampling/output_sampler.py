"""Join-output sampling.

RecPart (like CSIO) uses a sample of the *join output* to estimate how much
output each candidate partition would produce.  The paper adopts the output
sampler of Vitorovic et al. [38]; the key property it needs is a set of
output pairs whose distribution over the join-attribute space approximates
the true output distribution, together with an estimate of the total output
cardinality.

This module implements that contract with a progressive cross-sample join:

1. draw random samples ``S_c ⊆ S`` and ``T_c ⊆ T``,
2. join the samples exactly (index-nested-loop),
3. estimate the full output as ``|pairs| * (|S| / |S_c|) * (|T| / |T_c|)``
   (every pair of the cross product is included in the sample join with
   probability ``(|S_c|/|S|) * (|T_c|/|T|)``, so this estimator is unbiased),
4. if too few pairs were found, grow the samples and repeat; finally
   subsample the pairs down to the requested output-sample size.

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
from repro.local_join.interval import default_local_join


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
        ``initial_fraction`` of each relation, multiply by ``growth`` until
        either enough pairs are found or ``max_fraction`` is reached.  The cap
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

    joiner = default_local_join()
    fraction = initial_fraction
    best: tuple[np.ndarray, np.ndarray, np.ndarray, float] | None = None
    while True:
        n_s = max(1, min(len(s), int(round(fraction * len(s)))))
        n_t = max(1, min(len(t), int(round(fraction * len(t)))))
        s_sub = s.sample(n_s, rng)
        t_sub = t.sample(n_t, rng)
        s_matrix = s_sub.join_matrix(attrs)
        t_matrix = t_sub.join_matrix(attrs)
        pairs = joiner.join(s_matrix, t_matrix, condition)
        scale = (len(s) / len(s_sub)) * (len(t) / len(t_sub))
        estimated_output = float(pairs.shape[0]) * scale
        best = (pairs, s_matrix, t_matrix, estimated_output)
        if pairs.shape[0] >= sample_size or fraction >= max_fraction:
            break
        fraction = min(max_fraction, fraction * growth)

    pairs, s_matrix, t_matrix, estimated_output = best
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
