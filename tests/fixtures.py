"""Shared example builders for the test suite."""

from __future__ import annotations

from gentle_si.matching import make_system
from gentle_si.quivers import Arrow, Coloring, Quiver, RelationSet
from gentle_si.si import Runs


def closing_system():
    """Ten variables in two loop-capped chains tied by four equations."""
    return make_system(
        [
            (("a1", "a2"), ("a4", "a5")),
            (("b1", "b2"), ("b4", "b5")),
            (("a2", "a3"), ("b2", "b3")),
            (("a3", "a4"), ("b3", "b4")),
        ],
        var_names=["a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "b4", "b5"],
    )


# frozen from the brute-force oracle; tests/test_oracle.py pins them in
# test_closing_generators_frozen, test_closing_relations_frozen,
# test_eleven_var_generators_frozen and
# test_running_generators_and_relation_frozen
CLOSING_GENERATORS = {
    "X1": (1, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    "X2": (0, 0, 0, 0, 0, 1, 0, 0, 0, 1),
    "Y1": (1, 0, 0, 1, 0, 1, 0, 0, 1, 0),
    "Y2": (0, 1, 0, 0, 1, 0, 1, 0, 0, 1),
    "Z1": (0, 1, 0, 1, 0, 0, 0, 1, 0, 0),
    "Z2": (0, 0, 1, 0, 0, 0, 1, 0, 1, 0),
    "B1": (0, 1, 0, 1, 0, 0, 1, 0, 1, 0),
    "B2": (0, 0, 1, 0, 0, 0, 0, 1, 0, 0),
}

# each relation as a pair of frozensets of the labels above
CLOSING_RELATIONS = [
    ({"Z1", "Z2"}, {"B1", "B2"}),
    ({"Y1", "Y2"}, {"X1", "X2", "B1"}),
]


def eleven_var_system():
    return make_system(
        [
            (("x1", "x2"), ()),
            (("x2", "x3"), ("x8", "x9")),
            (("x3", "x4"), ("x9", "x10")),
            (("x5", "x4"), ("x7", "x11")),
            (("x6", "x7"), ("x11",)),
        ],
        var_names=[f"x{i}" for i in range(1, 12)],
    )


ELEVEN_W1 = (0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0)  # x3+x9
ELEVEN_W2 = (0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1)  # x5+x6+x11
ELEVEN_REJECT = (0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0)  # x3+x6

# frozen from the oracle: all seven minimal generators
ELEVEN_GENERATORS = [
    (0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 2, 0, 1, 0, 0, 0, 1),
    (0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1),
    (0, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1),
    (0, 0, 0, 2, 0, 0, 1, 0, 0, 2, 1),
    (0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0),
]


def running_example():
    """Five vertices, three color paths, dimensions (2,6,2,4,2), all ranks 2."""
    q = Quiver(
        ["1", "2", "3", "4", "5"],
        [
            Arrow("a1", "1", "2"),
            Arrow("a2", "2", "3"),
            Arrow("b1", "1", "2"),
            Arrow("b2", "2", "4"),
            Arrow("b3", "4", "5"),
            Arrow("c1", "3", "4"),
            Arrow("c2", "4", "5"),
        ],
    )
    c = Coloring(
        {
            "a1": "a",
            "a2": "a",
            "b1": "b",
            "b2": "b",
            "b3": "b",
            "c1": "c",
            "c2": "c",
        }
    )
    beta = {"1": 2, "2": 6, "3": 2, "4": 4, "5": 2}
    r = {a: 2 for a in ["a1", "a2", "b1", "b2", "b3", "c1", "c2"]}
    return q, c, beta, r


def running_system():
    """The matching system the running example extracts."""
    return make_system(
        [
            (("a2",), ("b1",)),
            (("a1",), ("b2",)),
            (("b3", "b2"), ("c2", "c1")),
        ],
        var_names=["a1", "a2", "b1", "b2", "b3", "c1", "c2"],
    )


# frozen from the oracle
RUNNING_GENERATORS = [
    (0, 0, 0, 0, 1, 0, 1),  # b3+c2
    (0, 0, 0, 0, 1, 1, 0),  # b3+c1
    (0, 1, 1, 0, 0, 0, 0),  # a2+b1
    (1, 0, 0, 1, 0, 0, 1),  # a1+b2+c2
    (1, 0, 0, 1, 0, 1, 0),  # a1+b2+c1
]

# one relation: (b3+c2)+(a1+b2+c1) agrees with (b3+c1)+(a1+b2+c2)
RUNNING_RELATION = (
    {(0, 0, 0, 0, 1, 0, 1), (1, 0, 0, 1, 0, 1, 0)},
    {(0, 0, 0, 0, 1, 1, 0), (1, 0, 0, 1, 0, 0, 1)},
)


def cover_example():
    """String algebra with one non-gentle overlap; the cover drops one pair."""
    q = Quiver(
        ["1", "2", "3", "4", "5", "6", "7"],
        [
            Arrow("a1", "1", "2"),
            Arrow("a2", "2", "4"),
            Arrow("a3", "4", "3"),
            Arrow("b1", "5", "6"),
            Arrow("b2", "6", "4"),
            Arrow("b3", "4", "7"),
        ],
    )
    rels = RelationSet([("a3", "a2"), ("a2", "a1"), ("b3", "b2"), ("b3", "a2")])
    return q, rels


def determinant_example():
    """One arrow between two 2-dimensional vertices at full rank."""
    q = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    c = Coloring({"a": "s"})
    beta = {"1": 2, "2": 2}
    r = {"a": 2}
    return q, c, beta, r


def path_example():
    """Three vertices in a line, one color, all dimensions 1."""
    q = Quiver(["1", "2", "3"], [Arrow("a1", "1", "2"), Arrow("a2", "2", "3")])
    c = Coloring({"a1": "s", "a2": "s"})
    beta = {"1": 1, "2": 1, "3": 1}
    return q, c, beta


def generator_named(pres, name):
    """The generator of an SiPresentation with the given name."""
    (g,) = [g for g in pres.generators if g.name == name]
    return g


def relation_degree(pres, rel):
    """The degree of a relation of an SiPresentation: the summed degrees of
    the generators on its left side."""
    return sum(generator_named(pres, n).degree for n in rel.lhs)


def expand_runs(obj):
    """obj with every Runs inside its dicts, lists and tuples written out as
    its expanded tuple: what json.dumps can write, and what the dense
    references compare with."""
    if isinstance(obj, Runs):
        return obj.expand()
    if isinstance(obj, dict):
        return {k: expand_runs(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [expand_runs(v) for v in obj]
    if isinstance(obj, tuple):
        return tuple(expand_runs(v) for v in obj)
    return obj
