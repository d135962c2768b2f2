"""The reporting rules: tail percentile, spread, span self time, coverage."""

import pytest

from summary import coverage, layer_self_times, median, quartile_spread, self_times, tail


def test_tail_is_the_eleventh_largest_sample():
    values = list(range(1, 41))  # 40 samples: 1..40
    value, percentile = tail(values)
    assert value == 30  # exactly ten samples (31..40) lie beyond it
    assert percentile == pytest.approx(75.0)


def test_tail_moves_up_with_the_sample_count():
    value, percentile = tail(list(range(1, 2001)))
    assert value == 1990
    assert percentile == pytest.approx(99.5)


def test_tail_ignores_input_order():
    assert tail([5, 1, 4, 2, 3] * 4) == tail(sorted([5, 1, 4, 2, 3] * 4))


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_of_too_few_samples_is_the_median(n):
    values = [float(v) for v in range(n)]
    assert tail(values) == (median(values), 50.0)


def test_eleven_samples_is_the_fewest_with_a_tail():
    value, percentile = tail(list(range(11)))
    assert value == 0
    assert percentile == pytest.approx(100 / 11)


def test_quartile_spread_matches_the_drivers_formula():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def span(ident, name, start, end, parent=None, op_id=0):
    return {"id": ident, "name": name, "start": start, "end": end, "parent": parent, "op_id": op_id}


def test_self_time_is_duration_minus_children():
    spans = [
        span(1, "op", 0.0, 10.0),
        span(2, "core.partition", 1.0, 5.0, parent=1),
        span(3, "sampling.draw_input", 2.0, 3.0, parent=2),
        span(4, "routing.route", 6.0, 7.0, parent=1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)  # 10 - (4 + 1)
    assert own[2] == pytest.approx(3.0)  # 4 - 1
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_parallel_children_share_the_wall_time():
    # Two pool threads run kernels over the same second of a two-second run.
    spans = [
        span(1, "backends.run", 0.0, 2.0),
        span(2, "kernels.join", 0.0, 1.0, parent=1),
        span(3, "kernels.join", 0.0, 1.0, parent=1),
    ]
    own = self_times(spans)
    assert own[2] == pytest.approx(0.5)
    assert own[3] == pytest.approx(0.5)
    assert own[1] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(2.0)  # wall time, not thread time


def test_ops_are_kept_apart():
    spans = [span(1, "op", 0.0, 1.0, op_id=0), span(2, "op", 0.5, 2.0, op_id=1)]
    own = self_times(spans)
    assert own[1] == pytest.approx(1.0)
    assert own[2] == pytest.approx(1.5)


def test_layer_self_times_and_coverage():
    spans = [
        span(1, "op", 0.0, 10.0),
        span(2, "core.partition", 0.0, 4.0, parent=1),
        span(3, "sampling.draw_input", 1.0, 2.0, parent=2),
        span(4, "kernels.join", 4.0, 9.0, parent=1),
    ]
    prefixes = {"core": "core", "sampling": "sampling", "kernels": "local_join.kernels"}
    layers = layer_self_times(spans, lambda name: prefixes.get(name.split(".")[0]))
    assert layers == {
        "core": {0: pytest.approx(3.0)},
        "sampling": {0: pytest.approx(1.0)},
        "local_join.kernels": {0: pytest.approx(5.0)},
    }
    # 9 of the op's 10 seconds sit in a layer; the untraced op took 9.5.
    assert coverage([3.0, 1.0, 5.0], 9.5) == pytest.approx(9.0 / 9.5)
