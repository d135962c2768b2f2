"""Input, join-output and band-selectivity sampling.

Input and output samples feed the optimization phase; the selectivity
estimates feed EXPLAIN and the serving layer's admission control.
"""

from repro.sampling.input_sampler import InputSample, draw_input_sample
from repro.sampling.output_sampler import OutputSample, draw_output_sample
from repro.sampling.selectivity import (
    estimate_join_selectivity,
    window_fractions,
)

__all__ = [
    "InputSample",
    "draw_input_sample",
    "OutputSample",
    "draw_output_sample",
    "window_fractions",
    "estimate_join_selectivity",
]
