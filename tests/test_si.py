"""Tests for the translation from semigroup elements to partitions and weights."""

import dataclasses
import json
import random
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    RUNNING_GENERATORS,
    determinant_example,
    expand_runs,
    generator_named,
    path_example,
    relation_degree,
    running_example,
)
from reference import (
    dense_component_values,
    dense_membership,
    dense_partitions,
    disjoint_copies,
    random_tight_component,
)

import gentle_si.si as si_module
from gentle_si import oracle
from gentle_si.errors import InputError, InvariantError
from gentle_si.peg import build_peg
from gentle_si.quivers import (
    Arrow,
    Coloring,
    Quiver,
    color_incidence,
    is_gentle,
    monochromatic_ideal,
)
from gentle_si.ranks import is_maximal_rank, maximal_rank_sequences
from gentle_si.si import (
    Runs,
    component_labels,
    component_values,
    degree_bounds,
    lambda_from_uy,
    peg_context,
    roundtrip_uy,
    root_jumps,
    si_membership,
    si_presentation,
)


def running_context():
    q, c, beta, r = running_example()
    return peg_context(q, c, beta, r), q, c, beta, r


def scaled_running(k):
    """The running example with every dimension and rank times k."""
    q, c, beta, r = running_example()
    return q, c, {x: b * k for x, b in beta.items()}, {a: v * k for a, v in r.items()}


def degree(lam):
    """Total size of all partitions in the map."""
    return sum(map(sum, lam.values()))


def add_maps(lam1, lam2):
    return {
        a: tuple(x + y for x, y in zip(lam1[a], lam2[a])) for a in lam1
    }


def running_element(rng, ctx):
    """A random semigroup element over the running example."""
    u = [0] * 7
    for vec in RUNNING_GENERATORS:
        k = rng.randint(0, 3)
        u = [a + k * b for a, b in zip(u, vec)]
    y = (rng.randint(0, 3),)
    return tuple(u), y


# ---------------------------------------------------------------------------
# the determinant example

def test_determinant_presentation_frozen():
    pres = si_presentation(*determinant_example())
    assert pres.rank_maximal
    assert pres.band_vars == ()
    assert pres.matching.relations == []
    assert [g.name for g in pres.generators] == ["g1"]
    g = generator_named(pres, "g1")
    assert g.kind == "free"
    assert g.u == (1,)
    assert g.y.expand() == ()
    assert expand_runs(g.partitions) == {"a": (1, 1)}
    assert g.degree == 2
    assert g.sigma == {"1": 1, "2": -1}
    assert g.grade.expand() == (0,)
    assert {g.name: g.grade.expand() for g in pres.generators} == {"g1": (0,)}
    assert (pres.degree_bound_gens, pres.degree_bound_rels) == (6, 24)
    assert component_labels(pres.context) == ["1|s|1"]


def test_determinant_membership_failure_witness():
    q, c, beta, r = determinant_example()
    res = si_membership({"a": (2, 1)}, q, c, beta)
    assert not res.ok
    assert res.sigma is None
    assert res.witness == ("1", 2)
    assert not oracle.verify_si_equations({"a": (2, 1)}, q, c, beta)


@pytest.mark.parametrize(
    "arrow,parts,witness", [("b2", (1, 0), ("2", 6)), ("a2", (2, 1), ("2", 2))]
)
def test_running_membership_failure_witness_at_two_color_vertex(arrow, parts, witness):
    """One part of g3 changed. Vertex 2 carries colors a and b; its mirrored
    sums disagree only at entry 6 in the first case, and at entries 2..6 in
    the second, where the witness is the first of them."""
    q, c, beta, r = running_example()
    lam = expand_runs(generator_named(si_presentation(q, c, beta, r), "g3").partitions)
    lam[arrow] = parts
    res = si_membership(lam, q, c, beta)
    assert not res.ok
    assert res.sigma is None
    assert res.witness == witness
    assert not oracle.verify_si_equations(lam, q, c, beta)


def test_membership_validates_partitions():
    q, c, beta, r = determinant_example()
    with pytest.raises(InputError):
        si_membership({"b": (1, 1)}, q, c, beta)
    with pytest.raises(InputError):
        si_membership({"a": (1, 2)}, q, c, beta)
    with pytest.raises(InputError):
        si_membership({"a": (1, -1)}, q, c, beta)
    with pytest.raises(InputError):
        si_membership({"a": (1, 1, 1)}, q, c, beta)
    with pytest.raises(InputError, match="non-integer parts"):
        si_membership({"a": (True, True)}, q, c, beta)


# ---------------------------------------------------------------------------
# the running example

def test_running_band_unit_generator_frozen():
    pres = si_presentation(*running_example())
    assert pres.rank_maximal
    assert pres.band_vars == ("y1",)
    g = generator_named(pres, "y1")
    assert g.kind == "band_var"
    assert g.u == (0,) * 7
    assert g.y.expand() == (1,)
    assert expand_runs(g.partitions) == {a: (1, 0) for a in g.partitions}
    assert g.degree == 7
    assert g.sigma == {"1": 1, "2": 0, "3": 0, "4": 0, "5": -1}
    assert g.grade.expand() == (1, 0, 0, 0, 0)


def test_running_walk_generators_frozen():
    pres = si_presentation(*running_example())
    walk_gens = [g for g in pres.generators if g.name != "y1"]
    assert [g.u for g in walk_gens] == RUNNING_GENERATORS
    assert [g.degree for g in walk_gens] == [4, 4, 4, 6, 6]
    for g in walk_gens:
        assert expand_runs(g.partitions) == {
            a: (g.u[i], g.u[i])
            for i, a in enumerate(pres.matching.system.var_names)
        }
    g1 = generator_named(pres, "g1")
    assert g1.sigma == {"1": 0, "2": 0, "3": 0, "4": 1, "5": -2}
    assert g1.grade.expand() == (0, 0, 0, 0, 1)
    assert generator_named(pres, "g3").grade.expand() == (0, 1, 0, 0, 0)
    assert generator_named(pres, "g4").grade.expand() == (0, 0, 0, 1, 1)


def test_running_relation_degrees_within_bound():
    pres = si_presentation(*running_example())
    assert (pres.degree_bound_gens, pres.degree_bound_rels) == (42, 168)
    sides = {
        (frozenset(rel.lhs), frozenset(rel.rhs))
        for rel in pres.matching.relations
    }
    assert (
        sides == {(frozenset({"g1", "g5"}), frozenset({"g2", "g4"}))}
        or sides == {(frozenset({"g2", "g4"}), frozenset({"g1", "g5"}))}
    )
    for rel in pres.matching.relations:
        assert relation_degree(pres, rel) <= pres.degree_bound_rels


@pytest.mark.parametrize("k", [1, 2, 3])
def test_scaled_running_relation_degrees_within_bound(k):
    pres = si_presentation(*scaled_running(k))
    degrees = [relation_degree(pres, rel) for rel in pres.matching.relations]
    assert degrees == [10 * k]
    assert max(degrees) <= pres.degree_bound_rels


def test_relation_above_degree_bound_raises(monkeypatch):
    monkeypatch.setattr(si_module, "degree_bounds", lambda q, r: (42, 9))
    with pytest.raises(InvariantError, match="above the bound 9"):
        si_presentation(*running_example())


def test_wrong_engine_generator_is_an_invariant_error(monkeypatch):
    """A generator vector that fails the system is an engine bug (exit 2)."""
    engine = si_module.presentation

    def broken(sys_):
        pres = engine(sys_)
        g = pres.generators[0]
        bumped = (g.vector[0] + 1,) + g.vector[1:]
        pres.generators[0] = dataclasses.replace(g, vector=bumped)
        return pres

    monkeypatch.setattr(si_module, "presentation", broken)
    with pytest.raises(InvariantError, match="generator g1 fails the weight"):
        si_presentation(*running_example())


def test_running_generators_satisfy_oracle_equations():
    q, c, beta, r = running_example()
    pres = si_presentation(q, c, beta, r)
    for g in pres.generators:
        assert oracle.verify_si_equations(expand_runs(g.partitions), q, c, beta)


def test_running_component_labels():
    ctx, q, c, beta, r = running_context()
    assert component_labels(ctx) == [
        "1|a|1",
        "2|a|2",
        "2|a|3",
        "2|a|4",
        "4|b|2",
    ]


def test_grades_match_component_values():
    """Each grade is the element's component values; raw engine vectors,
    which carry no band part, grade the same."""
    pres = si_presentation(*running_example())
    ctx = pres.context
    grading = {g.name: g.grade.expand() for g in pres.generators}
    for g in pres.generators:
        assert g.grade.expand() == component_values(ctx, g.u, g.y.expand())
    for g in pres.matching.generators:
        assert component_values(ctx, g.vector) == grading[g.name]


# ---------------------------------------------------------------------------
# the element map and its inverse

def test_lambda_rejects_bad_input():
    ctx, q, c, beta, r = running_context()
    with pytest.raises(InputError):
        lambda_from_uy(ctx, (1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(InputError):
        lambda_from_uy(ctx, (1, 0, 0))
    with pytest.raises(InputError):
        lambda_from_uy(ctx, (-1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(InputError):
        lambda_from_uy(ctx, (0,) * 7, (1, 2))
    with pytest.raises(InputError, match="u must have nonnegative integer"):
        lambda_from_uy(ctx, (False,) * 7)
    nb = len(ctx.extract.band_index)
    with pytest.raises(InputError, match="y must have nonnegative integer"):
        lambda_from_uy(ctx, (0,) * 7, (True,) * nb)


def test_roundtrip_identity_random():
    ctx, q, c, beta, r = running_context()
    rng = random.Random(7)
    for _ in range(100):
        u, y = running_element(rng, ctx)
        lam = lambda_from_uy(ctx, u, y)
        assert si_membership(lam, q, c, beta).ok
        assert roundtrip_uy(ctx, lam) == (u, y)


def test_jumps_constant_per_component():
    ctx, q, c, beta, r = running_context()
    rng = random.Random(11)
    for _ in range(25):
        u, y = running_element(rng, ctx)
        lam = lambda_from_uy(ctx, u, y)
        jumps = root_jumps(ctx, lam)
        vals = component_values(ctx, u, y)
        for idx, cp in enumerate(ctx.extract.components):
            assert {jumps[rt] for rt in cp.roots} == {vals[idx]}


def test_lambda_and_weight_are_additive():
    ctx, q, c, beta, r = running_context()
    rng = random.Random(13)
    for _ in range(25):
        u1, y1 = running_element(rng, ctx)
        u2, y2 = running_element(rng, ctx)
        lam1 = lambda_from_uy(ctx, u1, y1)
        lam2 = lambda_from_uy(ctx, u2, y2)
        u12 = tuple(a + b for a, b in zip(u1, u2))
        y12 = tuple(a + b for a, b in zip(y1, y2))
        lam12 = lambda_from_uy(ctx, u12, y12)
        assert lam12 == add_maps(lam1, lam2)
        s1 = si_membership(lam1, q, c, beta).sigma
        s2 = si_membership(lam2, q, c, beta).sigma
        s12 = si_membership(lam12, q, c, beta).sigma
        assert s12 == {x: s1[x] + s2[x] for x in s1}
        assert degree(lam12) == degree(lam1) + degree(lam2)


def test_membership_agrees_with_oracle_on_random_maps():
    q, c, beta, r = running_example()
    rng = random.Random(17)
    for _ in range(200):
        lam = {
            a: tuple(
                sorted((rng.randint(0, 3), rng.randint(0, 3)), reverse=True)
            )
            for a in q.arrow_names()
        }
        res = si_membership(lam, q, c, beta)
        assert res.ok == oracle.verify_si_equations(lam, q, c, beta)


def test_band_jump_disagreement_raises():
    ctx, q, c, beta, r = running_context()
    lam = {a: (0, 0) for a in q.arrow_names()}
    lam["a1"] = (1, 0)
    with pytest.raises(InvariantError):
        roundtrip_uy(ctx, lam)


def test_roundtrip_requires_full_partitions():
    ctx, q, c, beta, r = running_context()
    lam = {a: (0, 0) for a in q.arrow_names()}
    lam["a1"] = (0,)
    with pytest.raises(InputError):
        roundtrip_uy(ctx, lam)


# ---------------------------------------------------------------------------
# partition runs against the dense reference

def assert_matches_dense(pres, q, c, beta):
    """Every generator's partitions, degree, sigma and grade are those the
    reference builds part by part, padded to the rank and to beta. So is
    the partition map of the sum of all generators, whose partitions step
    at many heights."""
    ctx = pres.context
    for g in pres.generators:
        y = g.y.expand()
        vals = dense_component_values(ctx, g.u, y)
        lam = dense_partitions(ctx, g.u, vals)
        assert expand_runs(g.partitions) == lam
        assert lambda_from_uy(ctx, g.u, y) == lam
        assert g.degree == degree(lam)
        assert dense_membership(lam, q, c, beta) == (True, g.sigma, None)
        assert g.grade.expand() == tuple(vals) == component_values(ctx, g.u, y)
    if not pres.generators:
        return
    u = [sum(col) for col in zip(*(g.u for g in pres.generators))]
    y = [sum(col) for col in zip(*(g.y.expand() for g in pres.generators))]
    lam = dense_partitions(ctx, u, dense_component_values(ctx, u, y))
    assert lambda_from_uy(ctx, u, y) == lam
    assert si_membership(lam, q, c, beta).ok


def test_runs_match_dense_reference_on_random_components():
    presented = 0
    for seed in range(600):
        q, c, beta, r = random_tight_component(random.Random(seed))
        with warnings.catch_warnings():
            # a draw whose r is not maximal presents a smaller stratum
            warnings.simplefilter("ignore", UserWarning)
            try:
                pres = si_presentation(q, c, beta, r)
            except InputError:  # a vertex carries three colors
                continue
        assert_matches_dense(pres, q, c, beta)
        presented += 1
    assert presented >= 500


@pytest.mark.parametrize("k", range(1, 11))
def test_runs_match_dense_reference_on_scaled_running(k):
    q, c, beta, r = scaled_running(k)
    assert_matches_dense(si_presentation(q, c, beta, r), q, c, beta)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_membership_on_runs_matches_dense_after_one_part_changes(data):
    """Change one part of one partition of a generator, keeping it weakly
    decreasing; ok, sigma and the witness are the dense reference's."""
    q, c, beta, r = data.draw(
        st.sampled_from([determinant_example(), running_example(), scaled_running(3)])
    )
    g = data.draw(st.sampled_from(si_presentation(q, c, beta, r).generators))
    lam = expand_runs(g.partitions)
    a = data.draw(st.sampled_from(sorted(a for a, parts in lam.items() if parts)))
    parts = list(lam[a])
    i = data.draw(st.integers(0, len(parts) - 1))
    lo = parts[i + 1] if i + 1 < len(parts) else 0
    hi = parts[i - 1] if i else parts[0] + 3
    parts[i] = data.draw(st.integers(lo, hi))
    lam[a] = tuple(parts)
    res = si_membership(lam, q, c, beta)
    assert (res.ok, res.sigma, res.witness) == dense_membership(lam, q, c, beta)


def _outcome(check, lam, q, c, beta):
    """(ok, sigma, witness) of a membership check, or the message it raised."""
    try:
        res = check(lam, q, c, beta)
    except InputError as e:
        return str(e)
    return res if isinstance(res, tuple) else (res.ok, res.sigma, res.witness)


def test_membership_on_any_map_returns_and_raises_as_dense():
    """Caller maps with most parts zero, and now and then one part more than
    fits: some exceed a dimension where no nonzero part reaches, some fail
    an equation elsewhere, and whichever vertex comes first in sorted order
    decides, as in the dense reference."""
    rng = random.Random(29)
    kinds = Counter()
    for q, c, beta, _ in (running_example(), scaled_running(2), determinant_example()):
        for _ in range(700):
            lam = {}
            for a in q.arrows:
                top = min(beta[a.tail], beta[a.head])
                n = top + 1 if rng.random() < 0.1 else rng.randint(0, top)
                parts = [rng.choice((0, 0, 0, 1, 2)) for _ in range(n)]
                lam[a.name] = tuple(sorted(parts, reverse=True))
            got = _outcome(si_membership, lam, q, c, beta)
            assert got == _outcome(dense_membership, lam, q, c, beta), lam
            if isinstance(got, str):
                kinds["raised"] += 1
            else:
                length = {a: len(parts) for a, parts in lam.items()}
                plan = si_module._vertex_plan(q, beta, color_incidence(q, c), length)
                kinds[got[0], plan.refused < len(plan.vertices)] += 1
    # a failed equation before a refused layout is among them
    assert kinds[False, True] and kinds[False, False] and kinds[True, False]
    assert kinds["raised"] > 100


def test_runs_at_rank_zero_arrows_and_dimension_zero_vertices():
    """a2 has rank 0 and its head, vertex 3, dimension 0: a2 has no runs,
    and nothing is constrained at vertex 3, nor measured against its
    dimension."""
    q, c, _ = path_example()
    beta = {"1": 1, "2": 1, "3": 0}
    pres = si_presentation(q, c, beta, {"a1": 1, "a2": 0})
    assert_matches_dense(pres, q, c, beta)
    assert expand_runs(generator_named(pres, "g1").partitions) == {
        "a1": (1,),
        "a2": (),
    }
    assert generator_named(pres, "g1").sigma == {"1": 1, "2": -1, "3": 0}
    for lam in ({"a1": (0,), "a2": ()}, {"a1": (2,), "a2": ()}):
        res = si_membership(lam, q, c, beta)
        assert (res.ok, res.sigma, res.witness) == dense_membership(lam, q, c, beta)
    lam = {"a1": (1,), "a2": (1,)}  # two parts at vertex 2, of dimension 1
    with pytest.raises(InputError, match="exceed the dimension at vertex 2"):
        si_membership(lam, q, c, beta)
    with pytest.raises(InputError, match="exceed the dimension at vertex 2"):
        dense_membership(lam, q, c, beta)


# ---------------------------------------------------------------------------
# random rank components that present relations

# the seeds in 0..24,999 whose random_tight_component draw is gentle, maximal
# and presents a relation
TIGHT_RELATION_SEEDS = [2817, 6552, 15793, 16632, 17608, 20536, 21056, 24460]


@pytest.mark.parametrize("seed", TIGHT_RELATION_SEEDS)
def test_tight_components_present_relations(seed):
    """Each pinned draw reaches the relation path and every check along it."""
    q, c, beta, r = random_tight_component(random.Random(seed))
    assert is_gentle(q, monochromatic_ideal(q, c)).ok
    assert is_maximal_rank(q, c, beta, r)
    pres = si_presentation(q, c, beta, r)
    assert pres.matching.relations, "the sampler no longer draws this component"
    rep = oracle.verify_presentation(pres.matching.system, pres.matching)
    assert rep["generators_match"] and rep["relations_match"], rep["witnesses"]
    for g in pres.generators:
        lam = expand_runs(g.partitions)
        assert oracle.verify_si_equations(lam, q, c, beta), g.name
        if g.kind != "band_var":
            assert roundtrip_uy(pres.context, lam) == (g.u, g.y.expand()), g.name
    for rel in pres.matching.relations:
        assert relation_degree(pres, rel) <= pres.degree_bound_rels


# SI(C1 x C2) = SI(C1) (x) SI(C2): (generators, relations, equations) of one
# copy of each pinned draw, which k disjoint copies multiply by k
ONE_COPY = {17608: (4, 1, 3), 16632: (6, 1, 1)}


@pytest.mark.parametrize("k", [1, 2, 8, 32])
@pytest.mark.parametrize("seed", sorted(ONE_COPY))
def test_disjoint_copies_present_k_times_one_copy(seed, k):
    """k disjoint copies of a pinned relation component present exactly k
    times its generators, relations and equations. Each generator lives in
    one copy, each copy has its share, and no relation joins generators of
    two copies."""
    one = random_tight_component(random.Random(seed))
    q, c, beta, r = disjoint_copies(*one, k)
    pres = si_presentation(q, c, beta, r)
    gens, rels, eqs = ONE_COPY[seed]
    assert (
        len(pres.generators),
        len(pres.matching.relations),
        pres.matching.system.m,
    ) == (k * gens, k * rels, k * eqs)
    copy_of = {}
    for g in pres.generators:
        copies = {
            a.rsplit(".", 1)[1]
            for a, runs in g.partitions.items()
            if any(v for v, _ in runs.pairs)
        }
        assert len(copies) == 1, g.name
        copy_of[g.name] = copies.pop()
    assert sorted(Counter(copy_of.values()).values()) == [gens] * k
    for rel in pres.matching.relations:
        assert len({copy_of[n] for n in (*rel.lhs, *rel.rhs)}) == 1, rel


def _count_visits(monkeypatch):
    """A one-item list that counts the (generator, vertex) pairs whose vertex
    equations membership checks: every read of a vertex from the plan."""
    visits = [0]
    plan = si_module._vertex_plan

    class Counted(list):
        def __getitem__(self, i):
            visits[0] += 1
            return list.__getitem__(self, i)

    def counted_plan(*args):
        built = plan(*args)
        return built._replace(vertices=Counted(built.vertices))

    monkeypatch.setattr(si_module, "_vertex_plan", counted_plan)
    return visits


@pytest.mark.parametrize("seed", sorted(ONE_COPY))
def test_membership_visits_grow_linearly_in_copies(seed, monkeypatch):
    """Membership checks only the vertices a generator's nonzero runs touch,
    so k disjoint copies make exactly k times the visits of one copy."""
    visits = _count_visits(monkeypatch)
    one = random_tight_component(random.Random(seed))
    counts = {}
    for k in (1, 2, 8, 32):
        visits[0] = 0
        si_presentation(*disjoint_copies(*one, k))
        counts[k] = visits[0]
    assert counts[1] > 0
    assert counts == {k: k * counts[1] for k in counts}


# ---------------------------------------------------------------------------
# closed forms from classical invariant theory
#
# With every arrow its own color there are no relations in the algebra, and
# Skowronski & Weyman, Transform. Groups 5 (2000), give the ring: polynomial
# for Dynkin quivers, polynomial or a hypersurface for Euclidean ones.

def present_own_colors(q, beta):
    """si_presentation with one color per arrow, on its one maximal rank sequence."""
    c = Coloring({a.name: f"s{a.name}" for a in q.arrows})
    (r,) = maximal_rank_sequences(q, c, beta)
    return si_presentation(q, c, beta, r)


def oriented(pairs, flips):
    """Arrow a<i> along pairs[i], reversed where flips[i] is set."""
    return [
        Arrow(f"a{i}", y, x) if flip else Arrow(f"a{i}", x, y)
        for i, ((x, y), flip) in enumerate(zip(pairs, flips))
    ]


@pytest.mark.parametrize("d", range(1, 9))
def test_kronecker_ring_is_polynomial_in_degree_d(d):
    """beta = (d, d): the d + 1 coefficients of det(sA + tB), no relations."""
    q = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
    pres = present_own_colors(q, {"1": d, "2": d})
    assert len(pres.generators) == d + 1
    assert {g.degree for g in pres.generators} == {d}
    assert pres.matching.relations == []


def test_type_a_rings_are_polynomial():
    """A_n in random orientations, n <= 20 and beta <= 8: no relations."""
    rng = random.Random(4)
    for _ in range(100):
        vs = [str(i) for i in range(rng.randint(1, 20))]
        pairs = list(zip(vs, vs[1:]))
        q = Quiver(vs, oriented(pairs, [rng.random() < 0.5 for _ in pairs]))
        beta = {v: rng.randint(0, 8) for v in vs}
        assert present_own_colors(q, beta).matching.relations == [], (q.arrows, beta)


def test_affine_type_a_rings_have_at_most_one_relation():
    """Acyclic affine A_n, n <= 12 and beta <= 6: polynomial or a hypersurface."""
    rng = random.Random(5)
    for _ in range(100):
        vs = [str(i) for i in range(rng.randint(2, 13))]
        cycle = list(zip(vs, vs[1:] + vs[:1]))
        flips = [rng.random() < 0.5 for _ in cycle]
        if all(flips) or not any(flips):
            flips[0] = not flips[0]  # a directed cycle is not a quiver here
        q = Quiver(vs, oriented(cycle, flips))
        beta = {v: rng.randint(0, 6) for v in vs}
        rels = present_own_colors(q, beta).matching.relations
        assert len(rels) <= 1, (q.arrows, beta)


# ---------------------------------------------------------------------------
# degrees, bounds and degenerate ranks

def test_degree_bounds_frozen():
    q, c, beta, r = running_example()
    assert degree_bounds(q, r) == (42, 168)
    assert degree_bounds(q, {a: 1 for a in r}) == (14, 56)
    assert degree_bounds(q, {a: 0 for a in r}) == (0, 0)
    with pytest.raises(InputError):
        degree_bounds(q, {"a1": 2})
    with pytest.raises(InputError, match="rank at a1 must be a nonnegative integer"):
        degree_bounds(q, {a: True for a in r})


def test_rank_zero_arrow_presentation():
    q, c, beta = path_example()
    pres = si_presentation(q, c, beta, {"a1": 1, "a2": 0})
    assert pres.rank_maximal
    assert [g.name for g in pres.generators] == ["g1"]
    g = generator_named(pres, "g1")
    assert expand_runs(g.partitions) == {"a1": (1,), "a2": ()}
    assert g.degree == 1
    assert g.sigma == {"1": 1, "2": -1, "3": 0}
    assert (pres.degree_bound_gens, pres.degree_bound_rels) == (2, 8)
    assert pres.as_dict()["grading_components"] == []


def test_non_maximal_rank_warns():
    q, c, beta, r = running_example()
    smaller = dict(r, b2=1)
    with pytest.warns(UserWarning):
        pres = si_presentation(q, c, beta, smaller)
    assert not pres.rank_maximal
    for g in pres.generators:
        assert oracle.verify_si_equations(expand_runs(g.partitions), q, c, beta)


def test_presentation_as_dict_is_json_ready():
    """as_dict is ready for cli._render_json: plain dicts, lists and scalars,
    except that each generator's y, partitions and grade are Runs, passed
    on unexpanded. json.dumps refuses a Runs rather than write its pairs;
    with every Runs expanded it writes the report."""
    pres = si_presentation(*running_example())
    data = pres.as_dict()
    with pytest.raises(TypeError, match="Runs is not JSON serializable"):
        json.dumps(data)
    assert set(data) == {
        "component",
        "dimensions",
        "variables",
        "band_vars",
        "free_arrows",
        "forced_zero",
        "generators",
        "relations",
        "relation_cap",
        "degree_bounds",
        "grading_components",
        "rank_maximal",
    }
    text = json.dumps(expand_runs(data), sort_keys=True)
    assert json.loads(text)["component"] == {a: 2 for a in data["variables"]}
    for entry in data["generators"]:
        runs = [entry["y"], entry["grade"], *entry["partitions"].values()]
        assert all(type(v) is Runs for v in runs)
        assert set(entry) == {
            "name",
            "kind",
            "u",
            "y",
            "partitions",
            "degree",
            "sigma",
            "grade",
        }
        assert len(entry["grade"].expand()) == len(data["grading_components"])


# the public entries that take a colored quiver with dimensions, and a rank
# sequence where they read one; each checks its input once, up front
QUIVER_ENTRIES = {
    "build_peg": build_peg,
    "peg_context": peg_context,
    "si_presentation": si_presentation,
    "is_maximal_rank": is_maximal_rank,
    "maximal_rank_sequences": lambda q, c, beta, r: maximal_rank_sequences(q, c, beta),
}

BAD_INPUTS = {
    "coloring": ("c", {"a2": "b"}, "invalid coloring: .*two arrows out of 2"),
    "missing beta": ("beta", {"5": None}, "dimension vector missing vertex 5"),
    "rank above beta": ("r", {"a1": 5}, "rank sequence"),
    "negative rank": ("r", {"a1": -1}, "rank at a1 must be a nonnegative integer"),
    "bool beta": ("beta", {"2": True}, "dimension at 2 must be a nonnegative integer"),
    "bool rank": ("r", {"a1": True}, "rank at a1 must be a nonnegative integer"),
}


@pytest.mark.parametrize(
    "entry, fault",
    [
        (entry, fault)
        for entry in QUIVER_ENTRIES
        for fault in BAD_INPUTS
        if entry != "maximal_rank_sequences" or BAD_INPUTS[fault][0] != "r"
    ],
)
def test_quiver_entries_reject_bad_input(entry, fault):
    q, c, beta, r = running_example()
    args = {"c": dict(c.color_of), "beta": dict(beta), "r": dict(r)}
    which, changes, message = BAD_INPUTS[fault]
    for key, value in changes.items():
        if value is None:
            del args[which][key]
        else:
            args[which][key] = value
    with pytest.raises(InputError, match=message):
        QUIVER_ENTRIES[entry](q, Coloring(args["c"]), args["beta"], args["r"])
