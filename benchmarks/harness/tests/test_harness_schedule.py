"""A seed fixes the op schedule byte for byte."""

import json

import pytest

from serve import SHAPES, ClientData, schedule_bytes


@pytest.mark.parametrize("name, ops", [("serve-mix", 120), ("serve-append-mmap", 8)])
def test_same_seed_same_bytes(name, ops):
    first = schedule_bytes(name, seed=5, client=0, ops=ops)
    second = schedule_bytes(name, seed=5, client=0, ops=ops)
    assert first == second
    assert len(first.splitlines()) == ops


@pytest.mark.parametrize("name, ops", [("serve-mix", 120), ("serve-append-mmap", 8)])
def test_other_seed_other_bytes(name, ops):
    assert schedule_bytes(name, 5, 0, ops) != schedule_bytes(name, 6, 0, ops)


def test_clients_of_one_seed_differ():
    assert schedule_bytes("serve-mix", 5, 0, 120) != schedule_bytes("serve-mix", 5, 1, 120)


def test_mix_cycle_has_the_documented_shape():
    data = ClientData(SHAPES["serve-mix"], seed=1, client=0)
    steps = list(data.cycle(1))
    kinds = [[kind for _, kind, _ in step] for step in steps]
    assert len(steps) == 4
    for round_kinds in kinds[:3]:
        assert round_kinds[:84] == ["query"] * 84  # 4 cold + 4 x 20 repeats
        assert round_kinds[84] == "append"
        assert round_kinds[85:89] == ["query"] * 4
    assert kinds[0][89:] == [] and kinds[1][89:] == []
    assert kinds[2][89:] == ["prepare"] + ["query"] * 4
    assert kinds[3] == ["register", "register"]
    # The four epsilons of a round are fresh: no round repeats another's.
    epsilons = [{request["epsilons"][0] for _, kind, request in step if kind == "query"} for step in steps[:3]]
    assert all(len(group) == 4 for group in epsilons)
    assert len(set.union(*epsilons)) == 12
    assert epsilons != [
        {r["epsilons"][0] for _, k, r in step if k == "query"} for step in list(data.cycle(2))[:3]
    ]


def test_mmap_cycle_rotates_the_base_rows():
    data = ClientData(SHAPES["serve-append-mmap"], seed=1, client=0)
    steps = list(data.cycle(1))
    assert len(steps) == 27
    assert [kind for _, kind, _ in steps[0]] == ["append", "query"]
    assert [request["name"] for step in steps[:4] for _, kind, request in step if kind == "append"] == [
        "S0", "T0", "S0", "T0",
    ]
    closing = steps[-1]
    assert [(cycle, kind) for cycle, kind, _ in closing] == [(2, "register"), (2, "register")]
    registered = closing[0][2]["columns"]["A1"]
    assert registered[2:] == data.s_base[:-2, 0].tolist()  # rotated by the cycle number
    assert json.dumps(closing[0][2])  # requests are plain JSON
