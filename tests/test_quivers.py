"""Tests for the quiver and coloring layer."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixtures import cover_example, running_example
from reference import random_colored_quiver

from gentle_si.errors import InputError
from gentle_si.quivers import (
    Arrow,
    Coloring,
    Quiver,
    RelationSet,
    color_classes,
    color_incidence,
    coloring_from_gentle,
    gentle_cover,
    is_gentle,
    is_string_algebra,
    monochromatic_ideal,
    validate_coloring,
    validate_relations,
)


def test_running_monochromatic_ideal():
    q, c, _, _ = running_example()
    ideal = monochromatic_ideal(q, c)
    assert ideal == RelationSet(
        [("a2", "a1"), ("b2", "b1"), ("b3", "b2"), ("c2", "c1")]
    )


def test_running_coloring_is_valid():
    q, c, _, _ = running_example()
    rep = validate_coloring(q, c)
    assert rep.ok, rep.violations


def test_running_color_classes():
    q, c, _, _ = running_example()
    assert color_classes(q, c) == {
        "a": ["a1", "a2"],
        "b": ["b1", "b2", "b3"],
        "c": ["c1", "c2"],
    }


def test_running_incidence_and_vertex_colors():
    q, c, _, _ = running_example()
    inc = color_incidence(q, c)
    assert inc[("2", "a")].in_arrow == "a1"
    assert inc[("2", "a")].out_arrow == "a2"
    assert inc[("4", "b")].in_arrow == "b2"
    assert inc[("4", "b")].out_arrow == "b3"
    assert inc[("1", "a")].in_arrow is None
    assert [s for x, s in inc if x == "4"] == ["b", "c"]
    assert [s for x, s in inc if x == "2"] == ["a", "b"]


def test_running_ideal_is_gentle():
    q, c, _, _ = running_example()
    ideal = monochromatic_ideal(q, c)
    assert is_gentle(q, ideal).ok


def test_coloring_roundtrip_on_running_ideal():
    # the derived coloring renames classes canonically but keeps the classes
    q, c, _, _ = running_example()
    ideal = monochromatic_ideal(q, c)
    derived = coloring_from_gentle(q, ideal)
    assert sorted(color_classes(q, derived).values()) == sorted(
        color_classes(q, c).values()
    )
    assert derived.colors() == ["1", "2", "3"]
    assert derived.color("a1") == "1"
    assert derived.color("b1") == "2"
    assert derived.color("c1") == "3"
    assert monochromatic_ideal(q, derived) == ideal


def test_cover_example_is_string_not_gentle():
    q, rels = cover_example()
    assert is_string_algebra(q, rels).ok
    rep = is_gentle(q, rels)
    assert not rep.ok
    assert "succ-rel" in rep.tags() or "pred-rel" in rep.tags()


def test_cover_example_peel():
    q, rels = cover_example()
    res = gentle_cover(q, rels)
    assert res.kernel == RelationSet([("b3", "a2")])
    assert res.flags == []
    classes = sorted(color_classes(q, res.coloring).values())
    assert classes == [["a1", "a2", "a3"], ["b1"], ["b2", "b3"]]
    assert res.coloring.color("a1") == "1"
    assert res.coloring.color("b1") == "2"
    assert res.coloring.color("b2") == "3"
    kept = monochromatic_ideal(q, res.coloring)
    assert kept == rels.difference(res.kernel)
    assert is_gentle(q, kept).ok


def test_cover_of_gentle_input_keeps_everything():
    q, c, _, _ = running_example()
    ideal = monochromatic_ideal(q, c)
    res = gentle_cover(q, ideal)
    assert len(res.kernel) == 0
    assert monochromatic_ideal(q, res.coloring) == ideal


def test_relation_validation_rejects_non_path():
    q = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "1", "3")])
    rep = validate_relations(q, RelationSet([("b", "a")]))
    assert not rep.ok
    assert "relation-shape" in rep.tags()


def test_string_degree_violation():
    q = Quiver(
        ["1", "2"],
        [Arrow("a", "1", "2"), Arrow("b", "1", "2"), Arrow("c", "1", "2")],
    )
    rep = is_string_algebra(q, RelationSet([]))
    assert not rep.ok
    assert "degree-out" in rep.tags()


def test_two_continuations_without_relation():
    # both continuations of a survive, so this is not a string algebra
    q = Quiver(
        ["1", "2", "3", "4"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "2", "4")],
    )
    rep = is_string_algebra(q, RelationSet([]))
    assert not rep.ok
    assert "succ-nonrel" in rep.tags()
    # killing one of them repairs it
    assert is_string_algebra(q, RelationSet([("b", "a")])).ok


def test_coloring_violations_are_tagged():
    q = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")])
    # a color class with two arrows out of the same vertex is not a path
    bad = Coloring({"a": "s", "b": "s"})
    assert validate_coloring(q, bad).ok  # a then b is a path, so this one is fine
    q2 = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "1", "3")])
    rep = validate_coloring(q2, Coloring({"a": "s", "b": "s"}))
    assert not rep.ok
    assert "local-path" in rep.tags()
    missing = Coloring({"a": "s"})
    rep2 = validate_coloring(q, missing)
    assert not rep2.ok
    assert "domain" in rep2.tags()
    q3 = Quiver(
        ["1", "2", "3", "4"],
        [Arrow("a", "1", "2"), Arrow("b", "3", "4"), Arrow("c", "2", "3")],
    )
    rep3 = validate_coloring(q3, Coloring({"a": "s", "b": "s", "c": "t"}))
    assert not rep3.ok
    assert "connected" in rep3.tags()


def test_coloring_from_non_gentle_raises():
    q, rels = cover_example()
    with pytest.raises(InputError):
        coloring_from_gentle(q, rels)


# A random valid coloring need not give a gentle quotient (a vertex can
# receive a color that has no continuation among two outgoing arrows), so
# the gentle-only properties filter on is_gentle first.


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_gentle_colorings_roundtrip(seed):
    rng = random.Random(seed)
    q, c = random_colored_quiver(rng)
    rep = validate_coloring(q, c)
    assert rep.ok, rep.violations
    ideal = monochromatic_ideal(q, c)
    assume(is_gentle(q, ideal).ok)
    derived = coloring_from_gentle(q, ideal)
    assert sorted(color_classes(q, derived).values()) == sorted(
        color_classes(q, c).values()
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_cover_keeps_ideal_inside_input(seed):
    rng = random.Random(seed)
    q, c = random_colored_quiver(rng)
    rels = monochromatic_ideal(q, c)
    assume(is_string_algebra(q, rels).ok)
    res = gentle_cover(q, rels)
    kept = monochromatic_ideal(q, res.coloring)
    for pair in kept:
        assert pair in rels
    for pair in res.kernel:
        assert pair in rels
    assert len(kept) + len(res.kernel) == len(rels)
    assert is_gentle(q, kept).ok
