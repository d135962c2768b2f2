"""The harness's own reference join against a brute-force one."""

import numpy as np
import pytest

import oracle


def brute_force(s, t, eps):
    close = (np.abs(s[:, None, :] - t[None, :, :]) <= np.asarray(eps)).all(axis=2)
    return np.argwhere(close)


def pareto(rng, rows, dims):
    return np.power(1.0 - rng.random((rows, dims)), -1.0 / 1.5)


@pytest.mark.parametrize("dims, eps", [(1, 0.002), (2, 0.05), (3, 0.1)])
def test_reference_accepts_exactly_the_brute_force_pairs(dims, eps):
    rng = np.random.default_rng(dims)
    s, t = pareto(rng, 400, dims), pareto(rng, 300, dims)
    expected = brute_force(s, t, [eps] * dims)
    assert len(expected) > 20
    reference = oracle.PairSetReference.build(s, t, [eps] * dims)
    assert reference.count == len(expected)
    assert reference.accepts(expected)
    assert reference.accepts(expected[rng.permutation(len(expected))])  # any order
    assert not reference.accepts(expected[1:])  # a pair missing
    assert not reference.accepts(np.concatenate([expected, expected[:1]]))  # a pair twice
    wrong = expected.copy()
    wrong[0, 1] = (wrong[0, 1] + 1) % len(t)
    assert not reference.accepts(wrong)


def test_small_chunks_give_the_same_pairs(monkeypatch):
    rng = np.random.default_rng(7)
    s, t = pareto(rng, 300, 2), pareto(rng, 300, 2)
    whole = oracle.pair_hash(oracle.near_pairs(s, t, [0.05, 0.05], 0.0)[0])
    monkeypatch.setattr(oracle, "CHUNK_CANDIDATES", 50)
    assert oracle.pair_hash(oracle.near_pairs(s, t, [0.05, 0.05], 0.0)[0]) == whole


def test_a_pair_on_the_edge_may_go_either_way():
    s = np.array([[1.0], [5.0]])
    t = np.array([[1.5], [5.2]])  # |1.0 - 1.5| is exactly the band width
    reference = oracle.PairSetReference.build(s, t, [0.5])
    assert reference.count == 1  # only (1, 1) is sure
    assert reference.accepts(np.array([[1, 1]]))
    assert reference.accepts(np.array([[0, 0], [1, 1]]))
    assert not reference.accepts(np.array([[0, 0]]))
    assert not reference.accepts(np.array([[0, 0], [0, 0], [1, 1]]))


def test_count_reference_answers_prefixes_and_narrower_bands():
    rng = np.random.default_rng(3)
    s, t = pareto(rng, 500, 2), pareto(rng, 450, 2)
    reference = oracle.CountReference.build(s, t, 0.08)
    for s_rows, t_rows, eps in [(500, 450, 0.08), (400, 450, 0.03), (500, 300, 0.05), (1, 1, 0.08)]:
        expected = len(brute_force(s[:s_rows], t[:t_rows], [eps, eps]))
        least, most = reference.bounds(s_rows, t_rows, eps)
        assert least <= expected <= most
        assert most - least <= 1  # continuous data: the edge is (almost) empty


def test_satisfies_checks_every_attribute():
    assert oracle.satisfies(np.array([1.0, 2.0]), np.array([1.05, 2.05]), [0.1, 0.1], 0.0)
    assert not oracle.satisfies(np.array([1.0, 2.0]), np.array([1.05, 2.2]), [0.1, 0.1], 0.0)
