"""Tests for rank sequences and maximal-rank enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import path_example, running_example
from reference import maximal_rank_sequences_bruteforce, random_colored_quiver

from gentle_si import quivers
from gentle_si.errors import InputError
from gentle_si.peg import build_peg
from gentle_si.quivers import Arrow, Coloring, Quiver
from gentle_si.ranks import (
    _color_maximal,
    _slack,
    check_beta,
    is_maximal_rank,
    maximal_rank_sequences,
)
from gentle_si.si import si_presentation


def rank_violations(q, c, beta, r):
    """The (vertex, color) pairs where r(in) + r(out) exceeds beta."""
    return [key for key, room in _slack(q, c, beta, r)[1].items() if room < 0]


def test_running_full_rank_is_admissible():
    q, c, beta, r = running_example()
    assert rank_violations(q, c, beta, r) == []


def test_running_overflow_at_vertex_four():
    q, c, beta, r = running_example()
    bad = dict(r, b2=3)
    assert rank_violations(q, c, beta, bad) == [("4", "b")]
    with pytest.raises(InputError, match=r"violations at \[\('4', 'b'\)\]"):
        build_peg(q, c, beta, bad)


def test_zero_ranks_always_admissible():
    q, c, beta, _ = running_example()
    zero = {a: 0 for a in q.arrow_names()}
    assert rank_violations(q, c, beta, zero) == []


def test_missing_entries_raise():
    q, c, beta, r = running_example()
    partial = dict(r)
    del partial["c1"]
    with pytest.raises(InputError, match="rank sequence missing arrow c1"):
        rank_violations(q, c, beta, partial)
    with pytest.raises(InputError, match="dimension vector missing vertex"):
        rank_violations(q, c, {"1": 2}, r)


@pytest.mark.parametrize("bad", [-1, 1.5, "2", None])
def test_bad_dimension_is_input_error(bad):
    q, c, beta, r = running_example()
    beta = {**beta, "2": bad}
    with pytest.raises(InputError, match="dimension at 2"):
        check_beta(q, beta)
    with pytest.raises(InputError, match="dimension at 2"):
        rank_violations(q, c, beta, r)
    with pytest.raises(InputError, match="dimension at 2"):
        si_presentation(q, c, beta, r)


@pytest.mark.parametrize("bad", [-1, 1.5, "2", None])
def test_bad_rank_is_input_error(bad):
    q, c, beta, r = running_example()
    r = dict(r, b2=bad)
    with pytest.raises(InputError, match="rank at b2"):
        rank_violations(q, c, beta, r)
    with pytest.raises(InputError, match="rank at b2"):
        is_maximal_rank(q, c, beta, r)


def test_path_maximal_ranks_dimension_one():
    q, c, beta = path_example()
    got = maximal_rank_sequences(q, c, beta)
    assert got == [{"a1": 0, "a2": 1}, {"a1": 1, "a2": 0}]


def test_path_maximal_ranks_dimension_two_middle():
    q, c, _ = path_example()
    got = maximal_rank_sequences(q, c, {"1": 1, "2": 2, "3": 1})
    assert got == [{"a1": 1, "a2": 1}]


def test_running_maximal_ranks():
    q, c, beta, r = running_example()
    got = maximal_rank_sequences(q, c, beta)
    assert r in got
    variant = dict(r, b2=3, b3=1)
    assert variant in got
    for cand in got:
        assert rank_violations(q, c, beta, cand) == []
    order = sorted(q.arrow_names())
    tuples = [tuple(cand[a] for a in order) for cand in got]
    for i, p in enumerate(tuples):
        for j, other in enumerate(tuples):
            if i != j:
                assert not all(x <= y for x, y in zip(p, other))
    assert got == maximal_rank_sequences_bruteforce(q, c, beta)


def test_maximal_ranks_no_arrows():
    q = Quiver(["1", "2"], [])
    c = Coloring({})
    assert maximal_rank_sequences(q, c, {"1": 3, "2": 1}) == [{}]


def test_maximal_ranks_zero_dimension_vertex():
    q = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    c = Coloring({"a": "s"})
    assert maximal_rank_sequences(q, c, {"1": 0, "2": 5}) == [{"a": 0}]


def _color_maximal_by_box(beta_path):
    """Reference: every admissible tuple in the rank box, then a dominance filter."""
    k = len(beta_path) - 1
    box = [range(min(beta_path[i], beta_path[i + 1]) + 1) for i in range(k)]
    admissible = [
        p
        for p in itertools.product(*box)
        if all(p[i] + p[i + 1] <= beta_path[i + 1] for i in range(k - 1))
    ]
    # only a tuple of larger sum can dominate, and then so does a kept one
    admissible.sort(key=sum, reverse=True)
    kept = []
    for p in admissible:
        if not any(all(a <= b for a, b in zip(p, q)) for q in kept):
            kept.append(p)
    return sorted(kept)


def test_color_maximal_matches_box_scan_on_long_paths():
    """Single color paths of up to 7 arrows with dimensions up to 8."""
    rng = random.Random(31)
    lengths = set()
    for _ in range(120):
        arrows = rng.randint(1, 7)
        beta_path = [rng.randint(0, 8) for _ in range(arrows + 1)]
        assert _color_maximal(beta_path) == _color_maximal_by_box(beta_path)
        lengths.add(arrows)
    assert lengths == set(range(1, 8))
    assert _color_maximal([4]) == [()]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_maximal_ranks_match_bruteforce(seed):
    rng = random.Random(seed)
    q, c = random_colored_quiver(rng, max_vertices=5)
    beta = {v: rng.randint(0, 3) for v in q.vertices}
    got = maximal_rank_sequences(q, c, beta)
    assert got == maximal_rank_sequences_bruteforce(q, c, beta)
    for cand in got:
        assert rank_violations(q, c, beta, cand) == []


def test_is_maximal_rank_on_running_example():
    q, c, beta, r = running_example()
    assert is_maximal_rank(q, c, beta, r)
    assert not is_maximal_rank(q, c, beta, dict(r, b2=1))
    with pytest.raises(InputError):
        is_maximal_rank(q, c, beta, dict(r, b2=5))


def test_is_maximal_rank_validates_the_coloring_once(monkeypatch):
    """Admissibility and tightness read one color incidence, not one per arrow."""
    fn = quivers.validate_coloring
    runs = []

    def counted(*args, **kwargs):
        runs.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(quivers, "validate_coloring", counted)
    q, c, beta, r = running_example()
    for cand, maximal in ((r, True), (dict(r, b2=1), False)):
        runs.clear()
        assert is_maximal_rank(q, c, beta, cand) == maximal
        assert len(runs) <= 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_is_maximal_rank_matches_enumeration(seed):
    rng = random.Random(seed)
    q, c = random_colored_quiver(rng, max_vertices=4)
    beta = {v: rng.randint(0, 3) for v in q.vertices}
    maximal = maximal_rank_sequences(q, c, beta)
    for cand in maximal:
        assert is_maximal_rank(q, c, beta, cand)
        lowered = dict(cand)
        positive = [a for a in lowered if lowered[a] > 0]
        if positive:
            a = rng.choice(positive)
            lowered[a] -= 1
            assert is_maximal_rank(q, c, beta, lowered) == (lowered in maximal)
