"""Walk engine: graphs, enumeration, configurations, presentations."""

import gc
import hashlib
import itertools
import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    CLOSING_GENERATORS,
    CLOSING_RELATIONS,
    ELEVEN_GENERATORS,
    ELEVEN_W1,
    ELEVEN_W2,
    RUNNING_GENERATORS,
    RUNNING_RELATION,
    closing_system,
    eleven_var_system,
    running_system,
)
from reference import (
    best_walks_both_directions,
    congruent,
    greedy_prune,
    minimal_generators_bruteforce,
    toric_relations_bruteforce,
)
from gentle_si import matching, oracle
from gentle_si.errors import InputError, InvariantError, require
from gentle_si.matching import (
    DOTTED,
    FIELD,
    MatchingGraph,
    Walk,
    _band_canonical,
    _band_orientations,
    _best_walk,
    _count_width,
    _generators,
    _guard,
    _h_candidates,
    _pack,
    _prune,
    _SideCounts,
    _tokens,
    _unpack,
    _walks,
    _x_candidates,
    build_graph,
    forced_zero_vars,
    generators,
    is_member,
    make_system,
    presentation,
)


@pytest.fixture(scope="module")
def closing_pres():
    return presentation(closing_system())


@pytest.fixture(scope="module")
def eleven_pres():
    return presentation(eleven_var_system())


@pytest.fixture(scope="module")
def running_pres():
    return presentation(running_system())


def edge_map(graph: MatchingGraph):
    return {
        graph.system.var_names[e.var]: e.ends for e in graph.solid_edges
    }


def test_closing_graph_shape():
    g = build_graph(closing_system())
    assert edge_map(g) == {
        "a1": (1,),
        "a2": (1, 3),
        "a3": (3, 4),
        "a4": (4, 5),
        "a5": (5,),
        "b1": (2,),
        "b2": (2, 7),
        "b3": (7, 8),
        "b4": (6, 8),
        "b5": (6,),
    }
    assert g.dotted_edges() == [(1, 5), (2, 6), (3, 7), (4, 8)]
    assert g.free_vars == ()
    assert g.forced_zero == ()


def test_eleven_graph_presolve():
    sys_ = eleven_var_system()
    names = sys_.var_names
    forced = {names[j] for j in sorted(forced_zero_vars(sys_))}
    assert forced == {"x1", "x2"}
    g = build_graph(sys_)
    assert edge_map(g) == {
        "x3": (2, 3),
        "x4": (3, 4),
        "x5": (4,),
        "x6": (5,),
        "x7": (5, 9),
        "x8": (7,),
        "x9": (7, 8),
        "x10": (8,),
        "x11": (9, 10),
    }
    assert [names[j] for j in g.forced_zero] == ["x1", "x2"]


def test_presolve_cascades():
    sys_ = make_system([(("x",), ()), (("y",), ("x",))])
    forced = forced_zero_vars(sys_)
    assert {sys_.var_names[j] for j in forced} == {"x", "y"}
    g = build_graph(sys_)
    assert g.solid_edges == ()
    assert generators(g) == []


def test_closing_walk_vectors_match_oracle_freeze():
    gens = generators(build_graph(closing_system()))
    kinds = {x.vector: x.kind for x in gens}
    assert set(kinds) == set(CLOSING_GENERATORS.values())
    assert kinds[CLOSING_GENERATORS["X1"]] == "string"
    assert kinds[CLOSING_GENERATORS["Y2"]] == "string"
    assert kinds[CLOSING_GENERATORS["Z1"]] == "band"
    assert kinds[CLOSING_GENERATORS["B2"]] == "band"


def test_eleven_walks_contain_w1_w2():
    g = build_graph(eleven_var_system())
    best = _best_walks(g)
    assert ELEVEN_W1 in best
    assert best[ELEVEN_W1].kind == "band"
    assert ELEVEN_W2 in best
    assert best[ELEVEN_W2].kind == "string"
    gens = generators(g)
    assert {x.kind for x in gens} <= {"string", "band"}
    assert {x.vector for x in gens} == set(ELEVEN_GENERATORS)


def test_band_canonical_rotation_invariant():
    g = build_graph(closing_system())
    for band in _bands_from_every_closure(g).values():
        key, _ = _band_canonical(g, band.vertices, band.edges)
        for vv, ee in _band_orientations(band.vertices, band.edges):
            key2, _ = _band_canonical(g, vv, ee)
            assert key2 == key


def test_render_walk_tokens():
    rendered = {x.vector: x.walk for x in generators(build_graph(running_system()))}
    # a2+b1 is the two-loop string across the first dotted edge
    assert rendered[(0, 1, 1, 0, 0, 0, 0)] == "1 -a2- 1 ~ 4 -b1- 4"


def test_free_variables_become_unit_generators():
    sys_ = make_system([(("x",), ("y",))], var_names=["x", "y", "z"])
    p = presentation(sys_)
    vecs = {g.vector: g.kind for g in p.generators}
    assert vecs == {(0, 0, 1): "free", (1, 1, 0): "string"}
    assert p.relations == []


def test_empty_system_is_polynomial():
    sys_ = make_system([], var_names=["u", "v"])
    p = presentation(sys_)
    assert [g.kind for g in p.generators] == ["free", "free"]
    assert p.relations == []


def name_vector_map(pres):
    return {g.name: g.vector for g in pres.generators}


def relation_vector_sides(pres, rel):
    byname = name_vector_map(pres)
    return (
        frozenset(byname[n] for n in rel.lhs),
        frozenset(byname[n] for n in rel.rhs),
    )


def test_closing_presentation_frozen(closing_pres):
    p = closing_pres
    assert len(p.generators) == 8
    assert sorted(g.vector for g in p.generators) == sorted(
        CLOSING_GENERATORS.values()
    )
    assert len(p.relations) == 2
    label = {v: k for k, v in CLOSING_GENERATORS.items()}
    byname = name_vector_map(p)
    seen = []
    for r in p.relations:
        seen.append(
            frozenset(
                [
                    frozenset(label[byname[n]] for n in r.lhs),
                    frozenset(label[byname[n]] for n in r.rhs),
                ]
            )
        )
    want = [frozenset([frozenset(a), frozenset(b)]) for a, b in CLOSING_RELATIONS]
    assert sorted(seen, key=sorted) == sorted(want, key=sorted)


def test_eleven_presentation_matches_oracle(eleven_pres):
    p = eleven_pres
    assert sorted(g.vector for g in p.generators) == ELEVEN_GENERATORS
    assert len(p.relations) == 3
    rep = oracle.verify_presentation(eleven_var_system(), p)
    assert rep["generators_match"] and rep["relations_match"], rep["witnesses"]


def test_running_presentation_frozen(running_pres):
    p = running_pres
    assert sorted(g.vector for g in p.generators) == RUNNING_GENERATORS
    assert len(p.relations) == 1
    sides = relation_vector_sides(p, p.relations[0])
    assert set(sides) == {
        frozenset(RUNNING_RELATION[0]),
        frozenset(RUNNING_RELATION[1]),
    }
    assert p.relations[0].provenance.startswith("X-configuration")


def test_relation_sides_balance_and_are_disjoint(closing_pres, eleven_pres, running_pres):
    for p in (closing_pres, eleven_pres, running_pres):
        byname = name_vector_map(p)
        for r in p.relations:
            lsum = [0] * p.system.num_vars
            rsum = [0] * p.system.num_vars
            for n in r.lhs:
                lsum = [a + b for a, b in zip(lsum, byname[n])]
            for n in r.rhs:
                rsum = [a + b for a, b in zip(rsum, byname[n])]
            assert lsum == rsum
            assert not (set(r.lhs) & set(r.rhs))


def test_generator_entries_and_fvalues_capped_at_two(
    closing_pres, eleven_pres, running_pres
):
    for p in (closing_pres, eleven_pres, running_pres):
        for g in p.generators:
            assert max(g.vector) <= 2
            assert max(oracle._fprofile(p.system, g.vector), default=0) <= 2


def _side_counts(sys_, gens):
    """The side counts presentation uses: one digit width per system."""
    return _SideCounts(gens, _count_width(2 * sys_.m))


def _decoded(c, w):
    """The generator indices of packed counts c, one base-2^w digit each,
    with repetition, in increasing order."""
    out = []
    i = 0
    while c:
        out += [i] * (c & ((1 << w) - 1))
        c >>= w
        i += 1
    return tuple(out)


def _pruned(sys_):
    """The relations the X and the H candidates each keep on their own, and
    the generators."""
    g = build_graph(sys_)
    best, arms, h_walks = _walks(g)
    gens = _generators(g, best)
    counts = _side_counts(sys_, gens)
    xrels, _ = _prune(_x_candidates(g, arms, counts, set()), gens, counts)
    hrels, _ = _prune(_h_candidates(g, h_walks, counts, set()), gens, counts)
    return xrels, hrels, gens


def test_find_x_closing_contains_swap_relation():
    rels, _, gens = _pruned(closing_system())
    byname = {x.name: x.vector for x in gens}
    label = {v: k for k, v in CLOSING_GENERATORS.items()}
    assert rels, "no X-configuration found"
    as_labels = [
        {
            frozenset(label[byname[n]] for n in r.lhs),
            frozenset(label[byname[n]] for n in r.rhs),
        }
        for r in rels
    ]
    assert {frozenset({"Y1", "Y2"}), frozenset({"X1", "X2", "B1"})} in as_labels
    for r in rels:
        assert r.provenance.startswith("X-configuration")


def test_find_h_closing_is_band_swap():
    _, rels, gens = _pruned(closing_system())
    byname = {x.name: x.vector for x in gens}
    label = {v: k for k, v in CLOSING_GENERATORS.items()}
    assert len(rels) == 1
    r = rels[0]
    sides = {
        frozenset(label[byname[n]] for n in r.lhs),
        frozenset(label[byname[n]] for n in r.rhs),
    }
    assert sides == {frozenset({"Z1", "Z2"}), frozenset({"B1", "B2"})}
    assert r.provenance.startswith("H-configuration")


def test_configuration_relations_lie_in_kernel():
    sys_ = closing_system()
    xrels, hrels, gens = _pruned(sys_)
    byname = {x.name: x.vector for x in gens}
    ogens = minimal_generators_bruteforce(sys_)
    orels = toric_relations_bruteforce(ogens, 4, system=sys_)
    idx = {v: i for i, v in enumerate(ogens)}
    for r in xrels + hrels:
        lhs = tuple(sorted(idx[byname[n]] for n in r.lhs))
        rhs = tuple(sorted(idx[byname[n]] for n in r.rhs))
        assert congruent(ogens, orels, lhs, rhs), (r.lhs, r.rhs)


def test_presentation_leaves_no_cyclic_garbage():
    """Walk tables and decomposition caches are freed by reference counting,
    not left for the next full garbage collection."""
    sys_ = closing_system()
    gc.collect()
    gc.disable()
    try:
        assert presentation(sys_).relations
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_membership_rejects_wrong_length():
    with pytest.raises(InputError):
        is_member(closing_system(), (0, 0))


@pytest.mark.parametrize("x", [True, 1.0, "a", None])
def test_membership_rejects_entries_that_are_not_ints(x):
    """x = y: (True, 1.0) solved it, 'a' raised ValueError, None TypeError."""
    with pytest.raises(InputError):
        is_member(make_system([(["x"], ["y"])]), (x, 1))


@pytest.mark.parametrize("c", [0.5, "1", 1.0, True])
def test_coefficients_that_are_not_ints_are_rejected(c):
    """int(c) made each of these a valid 0 or 1 before."""
    with pytest.raises(InputError):
        matching.system_from_rows([[0, c, 0], [1, 0, 1]])
    sys_ = matching.MatchingSystem(1, ("x", "y", "z"), ((0, c, 0), (1, 0, 1)))
    assert [kind for kind, _ in matching.validate_system(sys_).violations] == [
        "coeff"
    ]


FIELD_TOP = (1 << (FIELD - 1)) - 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=FIELD_TOP),
                st.integers(min_value=0, max_value=FIELD_TOP),
            ),
            min_size=n,
            max_size=n,
        )
    )
)
def test_packed_vectors_round_trip_compare_and_subtract(pairs):
    a, b = (tuple(v) for v in zip(*pairs))
    n = len(a)
    pa, pb = _pack(a), _pack(b)
    assert _unpack(pa, n) == a
    guard = _guard(n, FIELD)
    below = all(y <= x for x, y in zip(a, b))
    assert (((pa | guard) - pb) & guard == guard) == below
    if below:
        assert pa - pb == _pack(tuple(x - y for x, y in zip(a, b)))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=FIELD_TOP), min_size=1, max_size=8),
    st.integers(min_value=0),
    st.one_of(st.integers(max_value=-1), st.integers(min_value=FIELD_TOP + 1)),
)
def test_pack_rejects_entries_outside_the_field(u, at, bad):
    u[at % len(u)] = bad
    with pytest.raises(InvariantError):
        _pack(u)


def test_pack_names_the_vector_that_does_not_fit():
    with pytest.raises(InvariantError, match=r"vector \(8,\) does not fit"):
        _pack((8,))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.data())
def test_count_digits_compare_and_move_at_count_widths(walk_total, data):
    """At every width _count_width gives, digit vectors below 2^(w-1) pass
    the guarded test exactly when src <= s componentwise, and a move
    s - src + dst then packs the componentwise result."""
    w = _count_width(walk_total)
    n = data.draw(st.integers(min_value=1, max_value=10))
    digit = st.integers(min_value=0, max_value=(1 << (w - 1)) - 1)
    vectors = st.lists(digit, min_size=n, max_size=n)
    s, src, dst = (data.draw(vectors) for _ in range(3))

    def packed(u):
        return sum(x << (w * j) for j, x in enumerate(u))

    guard = _guard(n, w)
    fits = ((packed(s) | guard) - packed(src)) & guard == guard
    assert fits == all(y <= x for x, y in zip(s, src))
    if fits:
        moved = [x - y + z for x, y, z in zip(s, src, dst)]
        assert packed(s) - packed(src) + packed(dst) == packed(moved)


def test_walk_vectors_fit_the_packed_fields():
    """Walk entries are at most 2, so the X/H side sums p + q that the
    decomposer packs are at most 4 < 2**(FIELD - 1)."""
    rng = random.Random(2002)
    top = 0
    for _ in range(2000):
        sys_ = oracle.random_matching_system(rng, max_m=6, max_l=12)
        best, arms, h_walks = _walks(build_graph(sys_))
        n = sys_.num_vars
        for u in itertools.chain(best, *arms.values(), *h_walks.values()):
            top = max(top, *_unpack(u, n))
    assert top <= 2
    assert 2 * top < 1 << (FIELD - 1)


def test_presentation_as_dict_shape(running_pres):
    d = running_pres.as_dict()
    assert set(d) == {
        "generators",
        "relations",
        "free_variables",
        "forced_zero",
        "relation_cap",
    }
    assert [g["name"] for g in d["generators"]] == [
        f"g{i + 1}" for i in range(5)
    ]
    assert d["relations"][0]["provenance"].startswith("X-configuration")
    for g in d["generators"]:
        assert g["kind"] in {"string", "band", "free"}
        assert "walk" in g


# the states that one search per candidate visits on chain (k, w), as
# tests/reference.py's greedy_prune counts them
GREEDY_STATES = {(3, 2): 161, (4, 2): 1324, (3, 3): 8343}


def _count_states(monkeypatch):
    """A one-item list that sums the states each pruning search returns."""
    visited = [0]
    explore = matching._explore

    def counted(*args):
        states = explore(*args)
        visited[0] += len(states)
        return states

    monkeypatch.setattr(matching, "_explore", counted)
    return visited


def _count_tries(monkeypatch):
    """A one-item list that sums the moves each pruning search tries: every
    move it reads for a state, whether or not the move fits."""
    tried = [0]
    explore = matching._explore

    class Counted(dict):
        def get(self, i, default=()):
            found = dict.get(self, i, default)
            tried[0] += len(found)
            return found

    monkeypatch.setattr(
        matching, "_explore", lambda moves, *args: explore(Counted(moves), *args)
    )
    return tried


@pytest.mark.parametrize("k,w", [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (7, 2)])
def test_chained_system_closed_form(k, w, monkeypatch):
    """chain(k, w): equation i reads u(i,1) + ... + u(i,w) = u(i+1,1) + ...
    + u(i+1,w). Its ring is the Segre product of k + 1 polynomial rings in w
    variables, so it has N = w^(k+1) generators, one variable per group, and
    C(N+1, 2) - C(w+1, 2)^(k+1) relations, all balanced and quadratic:
    26,335 on chain (7, 2). Every generator has total k + 1, so every
    candidate has one degree, and pruning tries no move at all: a move of
    one degree fits no other fiber of that degree.
    """
    group = [[f"u{i}_{j}" for j in range(1, w + 1)] for i in range(1, k + 2)]
    sys_ = make_system([(group[i], group[i + 1]) for i in range(k)])
    tried = _count_tries(monkeypatch)
    p = presentation(sys_)
    assert tried == [0]

    n = w ** (k + 1)
    assert len(p.generators) == n
    want = set()
    for pick in itertools.product(range(w), repeat=k + 1):
        u = [0] * (w * (k + 1))
        for i, j in enumerate(pick):
            u[sys_.var_names.index(group[i][j])] = 1
        want.add(tuple(u))
    assert {g.vector for g in p.generators} == want

    assert len(p.relations) == math.comb(n + 1, 2) - math.comb(w + 1, 2) ** (k + 1)
    vec = {g.name: g.vector for g in p.generators}

    def side_sum(names):
        return tuple(map(sum, zip(*(vec[g] for g in names))))

    for rel in p.relations:
        assert len(rel.lhs) == len(rel.rhs) == 2
        assert side_sum(rel.lhs) == side_sum(rel.rhs)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_systems_agree_with_oracle(seed):
    rng = random.Random(seed)
    sys_ = oracle.random_matching_system(rng, max_m=3, max_l=7)
    p = presentation(sys_)
    rep = oracle.verify_presentation(sys_, p)
    assert rep["generators_match"], rep["witnesses"]
    assert rep["relations_match"], rep["witnesses"]
    for g in p.generators:
        assert is_member(sys_, g.vector)
        assert max(oracle._fprofile(p.system, g.vector), default=0) <= 2


def test_relation_rich_random_systems_agree_with_oracle():
    """A sampler mix rich in two-row columns: 73 of these 200 draws have
    relations, against about one in eight with the default mix."""
    rng = random.Random(3141)
    checked = with_relations = 0
    while checked < 200:
        sys_ = oracle.random_matching_system(rng, occupancy=(2, 2, 2, 1))
        if sys_.num_vars < 5:
            continue
        checked += 1
        p = presentation(sys_)
        rep = oracle.verify_presentation(sys_, p)
        assert rep["generators_match"] and rep["relations_match"], (
            sys_.rows,
            rep["witnesses"],
        )
        with_relations += bool(p.relations)
    assert with_relations >= 60


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_walks_are_members(seed):
    rng = random.Random(seed)
    sys_ = oracle.random_matching_system(rng, max_m=4, max_l=8)
    g = build_graph(sys_)
    for u, w in _best_walks(g).items():
        assert _reference_vector(g, w.edges) == u
        assert is_member(sys_, u)


RANDOM_DIGEST = (
    pathlib.Path(__file__).parent / "goldens" / "random777_presentations.sha256"
)


def test_random_presentations_match_golden_digest():
    """400 seeded systems present exactly as recorded, relation order included."""
    rng = random.Random(777)
    h = hashlib.sha256()
    for _ in range(400):
        d = presentation(oracle.random_matching_system(rng)).as_dict()
        h.update((json.dumps(d, sort_keys=True) + "\n").encode("utf-8"))
    assert h.hexdigest() == RANDOM_DIGEST.read_text(encoding="utf-8").split()[0]


RICH_DIGEST = (
    pathlib.Path(__file__).parent / "goldens" / "relation_rich_presentations.sha256"
)


def _rich_systems(seed, count):
    """The first count draws of the (2, 2, 2, 1) mix with at least 5 variables."""
    rng = random.Random(seed)
    while count:
        sys_ = oracle.random_matching_system(rng, occupancy=(2, 2, 2, 1))
        if sys_.num_vars >= 5:
            count -= 1
            yield sys_


def test_relation_rich_presentations_match_golden_digest():
    """300 seeded systems from a mix rich in two-row columns (121 of them with
    relations, 1,498 in all), then chained and Segre systems, present
    exactly as recorded."""
    systems = list(_rich_systems(2718, 300))
    systems += [_chain_system(k, w) for k, w in ((3, 2), (4, 2), (5, 2), (3, 3))]
    systems += [_chain_system(1, n) for n in range(2, 9)]
    h = hashlib.sha256()
    for sys_ in systems:
        d = presentation(sys_).as_dict()
        h.update((json.dumps(d, sort_keys=True) + "\n").encode("utf-8"))
    assert h.hexdigest() == RICH_DIGEST.read_text(encoding="utf-8").split()[0]


# ---------------------------------------------------------------------------
# metamorphic checks: relabelling a system relabels its presentation


def _transformed(sys_, perm, order, flipped):
    """sys_ with variable j moved to position perm[j], its equations taken
    in the given order, and the sides of the equations in flipped swapped.
    """
    names = [None] * sys_.num_vars
    for j, name in enumerate(sys_.var_names):
        names[perm[j]] = name
    eqs = sys_.equations()
    return make_system(
        [eqs[k][::-1] if k in flipped else eqs[k] for k in order],
        var_names=names,
    )


def _transforms(sys_, rng):
    """(name, perm, order, flipped): each relabelling on its own."""
    n, m = sys_.num_vars, sys_.m
    perm = rng.sample(range(n), n)
    order = rng.sample(range(m), m)
    ident_v, ident_e = list(range(n)), list(range(m))
    yield "variables", perm, ident_e, set()
    yield "equations", ident_v, order, set()
    if m:
        yield "sides", ident_v, ident_e, {rng.randrange(m)}


def _degrees(pres):
    total = {g.name: sum(g.vector) for g in pres.generators}
    return sorted(sum(total[n] for n in rel.lhs) for rel in pres.relations)


def _check_relabelling(sys_, rng):
    base = presentation(sys_)
    for name, perm, order, flipped in _transforms(sys_, rng):
        image = presentation(_transformed(sys_, perm, order, flipped))
        moved = []
        for g in base.generators:
            u = [0] * sys_.num_vars
            for j, x in enumerate(g.vector):
                u[perm[j]] = x
            moved.append(tuple(u))
        assert sorted(moved) == sorted(g.vector for g in image.generators), name
        assert len(image.relations) == len(base.relations), name
        assert _degrees(image) == _degrees(base), name


def _chain_system(k, w):
    group = [[f"u{i}_{j}" for j in range(1, w + 1)] for i in range(1, k + 2)]
    return make_system([(group[i], group[i + 1]) for i in range(k)])


@pytest.mark.parametrize(
    "sys_", [closing_system(), _chain_system(3, 3)], ids=["closing", "chain33"]
)
def test_relabelling_fixed_systems(sys_):
    _check_relabelling(sys_, random.Random(5))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelling_random_systems(seed):
    """Permuting variables, reordering equations or swapping the sides of
    one equation permutes the generators the same way and keeps the
    relation count and the multiset of relation degrees.
    """
    rng = random.Random(seed)
    for _ in range(150):
        _check_relabelling(oracle.random_matching_system(rng, max_m=4, max_l=8), rng)


# ---------------------------------------------------------------------------
# references for the candidate step and band enumeration


def _cancel_orient(lhs, rhs):
    """Cancel shared generators, orient the smaller side first."""
    la, rb = list(lhs), list(rhs)
    for x in list(la):
        if x in rb:
            la.remove(x)
            rb.remove(x)
    if not la and not rb:
        return None
    a, b = tuple(sorted(la)), tuple(sorted(rb))
    require(bool(a) and bool(b), "relation with an empty side")
    if (len(b), b) < (len(a), a):
        a, b = b, a
    return (a, b)


def _quadruple_swap_candidates(counts, left, right, provenance, cands, seen):
    """One cancelled relation per arm quadruple p1 < p2, q1 < q2, from the
    decompositions that the packed side counts hold; seen is not read, so
    a relation is formed again in every configuration that meets it."""
    if len(left) < 2 or len(right) < 2:
        return
    left, right = sorted(left), sorted(right)
    table = [[_decoded(counts[p + q], counts.width) for q in right] for p in left]
    cols = list(itertools.combinations(range(len(right)), 2))
    for r1, r2 in itertools.combinations(table, 2):
        for j1, j2 in cols:
            rel = _cancel_orient(r1[j1] + r2[j2], r1[j2] + r2[j1])
            if rel is not None:
                cands.append((rel, provenance))


def _best_walks(graph):
    """Each walk vector of the walk passes, unpacked, with its best walk."""
    best, _, _ = _walks(graph)
    n = graph.system.num_vars
    return {_unpack(u, n): _best_walk(graph, ws) for u, (_, _, ws) in best.items()}


def _unpacked(by_end, n):
    return {end: {_unpack(u, n) for u in us} for end, us in by_end.items()}


def _reference_vector(graph, edges):
    u = [0] * graph.system.num_vars
    for e in edges:
        if e != DOTTED:
            u[graph.solid_edges[e].var] += 1
    return tuple(u)


def _partner(graph, v):
    """The vertex dotted-matched to v."""
    return v + graph.m if v <= graph.m else v - graph.m


def _edges_at(graph, v):
    """The ids of the solid edges at v, in increasing order, read off
    solid_edges independently of the step table."""
    return tuple(eid for eid, e in enumerate(graph.solid_edges) if v in e.ends)


def _far_end(e, v):
    """The end of non-loop solid edge e that is not v."""
    p, q = e.ends
    return q if v == p else p


def _walk_every(graph, verts, edges, fv, visit):
    """Every alternating continuation of the walk that keeps each row count
    at most 2; visit(w) is called after each dotted step, to w."""

    def extend(cur):
        w = _partner(graph, cur)
        verts.append(w)
        edges.append(DOTTED)
        visit(w)
        for eid in _edges_at(graph, w):
            e = graph.solid_edges[eid]
            if e.is_loop:
                continue
            z = _far_end(e, w)
            if fv.get(w, 0) + 1 <= 2 and fv.get(z, 0) + 1 <= 2:
                fv[w] = fv.get(w, 0) + 1
                fv[z] = fv.get(z, 0) + 1
                verts.append(z)
                edges.append(eid)
                extend(z)
                edges.pop()
                verts.pop()
                fv[z] -= 1
                fv[w] -= 1
        verts.pop()
        edges.pop()

    extend(verts[-1])


def _bands_from_every_closure(graph):
    """Every closure of every band walked from each solid edge, by its
    canonical tokens."""
    found = {}
    for start, e in enumerate(graph.solid_edges):
        if e.is_loop:
            continue
        p, q = e.ends
        for v0, v1 in ((p, q), (q, p)):
            verts, edges = [v0, v1], [start]

            def visit(w):
                if w == v0 and len(edges) >= 4:
                    key, (vv, ee) = _band_canonical(graph, tuple(verts), tuple(edges))
                    found.setdefault(key, Walk("band", vv, ee))

            _walk_every(graph, verts, edges, {p: 1, q: 1}, visit)
    return found


def _arms_and_h_walks(graph):
    """X arm vectors by end, walked from each loop, and H walk vectors by
    (start, end), walked from each solid edge at each start; an end is the
    far end of the last solid edge."""
    arms, h_walks = {}, {}
    for eid, e in enumerate(graph.solid_edges):
        if e.is_loop:
            v = e.ends[0]
            verts, edges = [v, v], [eid]

            def arm(_w):
                arms.setdefault(verts[-2], set()).add(_reference_vector(graph, edges))

            _walk_every(graph, verts, edges, {v: 1}, arm)
    for x in range(1, 2 * graph.m + 1):
        for eid in _edges_at(graph, x):
            e = graph.solid_edges[eid]
            if e.is_loop:
                continue
            y = _far_end(e, x)
            verts, edges = [x, y], [eid]

            def h_walk(_w):
                key = (x, verts[-2])
                h_walks.setdefault(key, set()).add(_reference_vector(graph, edges))

            _walk_every(graph, verts, edges, {x: 1, y: 1}, h_walk)
    return arms, h_walks


def _reference_systems():
    yield closing_system()
    yield eleven_var_system()
    yield running_system()
    for seed, count, max_m, max_l in ((12345, 300, 4, 8), (4242, 60, 6, 12)):
        rng = random.Random(seed)
        for _ in range(count):
            yield oracle.random_matching_system(rng, max_m=max_m, max_l=max_l)
    yield from _rich_systems(1618, 150)
    yield _chain_system(3, 3)


def _distinct_candidates(sys_):
    """Each distinct X/H candidate relation with the provenance it is first
    formed with; the pruning step orders exactly these."""
    first = {}
    for rel, prov in _candidates(sys_)[2]:
        first.setdefault(rel, prov)
    return first


def test_candidates_and_bands_match_references(monkeypatch):
    """The walk passes give the reference walker's X arms and H walks. Each
    band vector's best walk is its best band closure, by (edge count,
    tokens), or a string ahead of it. One relation per distinct signed
    generator count gives the quadruple scan's candidates, provenance
    included."""
    for sys_ in _reference_systems():
        graph = build_graph(sys_)
        _, arms, h_walks = _walks(graph)
        n = sys_.num_vars
        assert (_unpacked(arms, n), _unpacked(h_walks, n)) == _arms_and_h_walks(graph)
        best = _best_walks(graph)
        closures = {}
        for key, band in _bands_from_every_closure(graph).items():
            u = _reference_vector(graph, band.edges)
            rank = (len(band.edges), key)
            if u not in closures or rank < closures[u][0]:
                closures[u] = (rank, band)
        assert {u for u, w in best.items() if w.kind == "band"} <= set(closures)
        for u, (rank, band) in closures.items():
            w = best[u]
            if w.kind == "band":
                assert w == band
            else:
                assert (len(w.edges), _tokens(graph, w.vertices, w.edges)) < rank
        got = _distinct_candidates(sys_)
        with monkeypatch.context() as m:
            m.setattr(matching, "_swap_candidates", _quadruple_swap_candidates)
            want = _distinct_candidates(sys_)
        assert got == want


class _CountedSet(set):
    """A set that counts its membership tests."""

    lookups = 0

    def __contains__(self, item):
        self.lookups += 1
        return super().__contains__(item)


def test_closing_candidate_step_forms_few_relations(monkeypatch):
    """closing.model: each distinct relation is formed once, 9 in all, in
    the first configuration that meets it; not once per configuration (45),
    nor once per quadruple (20,222 quadruples, 10,065 of them non-trivial).
    With each configuration's rows taken modulo their first entry, 396
    pairs of distinct row differences look |r| up in the shared seen set;
    with duplicate rows dropped unshifted there would be 992."""
    formed = []
    swap = matching._swap_candidates

    def counted(counts, left, right, provenance, cands, seen):
        before = len(cands)
        swap(counts, left, right, provenance, cands, seen)
        formed.append(len(cands) - before)

    monkeypatch.setattr(matching, "_swap_candidates", counted)
    graph = build_graph(closing_system())
    best, arms, h_walks = _walks(graph)
    counts = _side_counts(graph.system, _generators(graph, best))
    seen = _CountedSet()
    _x_candidates(graph, arms, counts, seen)
    _h_candidates(graph, h_walks, counts, seen)
    assert sum(formed) == len(seen) == 9
    assert seen.lookups == 396


def test_swap_candidates_keep_counts_apart_in_packed_keys():
    """Row differences (g1, g1) - (g2) and (g2) - (g1, g1, g2) differ, but
    both pack to -8 in base 4; the base must leave room for every signed
    count, or the one relation between the rows is never formed. The walk
    vectors are packed: 20 is (4, 1) and 1 is (1, 0). The longest side has
    3 generators, so walks of total 3 bound it."""
    sides = {0: (1, 1), 1: (2,), 20: (2,), 21: (1, 1, 2)}

    def packed(w):
        return {t: sum(1 << (w * i) for i in d) for t, d in sides.items()}

    narrow = packed(2)
    assert narrow[0] - narrow[1] == narrow[20] - narrow[21] == -8
    counts = _SideCounts([], _count_width(3))
    counts.update(packed(counts.width))
    left, right = [0, 20], [0, 1]
    got, want = [], []
    matching._swap_candidates(counts, left, right, "p", got, set())
    _quadruple_swap_candidates(counts, left, right, "p", want, set())
    assert got == want == [(((2,), (1, 1, 1, 1)), "p")]


def test_closing_bands_canonicalise_few_closures(monkeypatch):
    """One closing presentation canonicalises only the shortest walks
    offered for its 8 generators: 4 strings and 5 bands, each string and
    band offered in one direction (8 and 8 when both directions were; 42
    when every shortest walk offered was, 24 strings and 18 bands, and 80
    in both directions; 120 band calls when every closure from every edge
    was). Its 14 bands have 13 vectors."""
    graph = build_graph(closing_system())
    assert sum(w.kind == "band" for w in _best_walks(graph).values()) == 13
    calls = []
    for name in ("_string_canonical", "_band_canonical"):

        def counted(*args, name=name, canonical=getattr(matching, name)):
            calls.append(name)
            return canonical(*args)

        monkeypatch.setattr(matching, name, counted)
    presentation(closing_system())
    assert sorted(calls) == ["_band_canonical"] * 5 + ["_string_canonical"] * 4


def test_best_walks_match_both_directions():
    """Each string and band is offered in one direction, yet every walk
    vector's best walk is the one chosen from every string and band walked
    both ways: on the bundled systems, 1,000 default draws and 500 draws of
    the (2, 2, 2, 1) mix, among them strings that start and end at one loop
    and bands of two solid edges."""
    rng = random.Random(2801)
    systems = [closing_system(), eleven_var_system(), running_system()]
    systems += [oracle.random_matching_system(rng) for _ in range(1000)]
    systems += [
        oracle.random_matching_system(rng, occupancy=(2, 2, 2, 1)) for _ in range(500)
    ]
    same_loop = two_edge = 0
    for sys_ in systems:
        graph = build_graph(sys_)
        got = {u: (w.kind, w.vertices, w.edges) for u, w in _best_walks(graph).items()}
        assert got == best_walks_both_directions(graph), sys_.rows
        for kind, _, edges in got.values():
            same_loop += kind == "string" and edges[0] == edges[-1]
            two_edge += kind == "band" and len(edges) == 4
    assert same_loop and two_edge


def test_closing_presentation_starts_twelve_walks(monkeypatch):
    """closing.model: one walk starts at each of its 4 loops and at each of
    its 2m = 8 vertices (28 when strings, bands, X arms and H walks each had
    their own traversal). Only top-level entries of _extend count."""
    extend = matching._extend
    depth, starts = [0], [0]

    def counted(*args):
        starts[0] += depth[0] == 0
        depth[0] += 1
        try:
            extend(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(matching, "_extend", counted)
    presentation(closing_system())
    assert starts == [12]


# ---------------------------------------------------------------------------
# the step table, the count width and the membership check


def test_step_table_matches_the_graph_accessors():
    """At every vertex the step table holds v's dotted partner, each
    non-loop solid edge at v as (id, far end, unit) and each loop as
    (id, unit), in edge id order, as the reference accessors read them off
    solid_edges."""
    rng = random.Random(2103)
    systems = [oracle.random_matching_system(rng) for _ in range(500)]
    for sys_ in systems + [closing_system(), _chain_system(3, 3)]:
        graph = build_graph(sys_)
        n = 2 * sys_.m
        assert len(graph.partners) == len(graph.steps) == len(graph.loops) == n + 1
        for v in range(1, n + 1):
            edges = [(eid, graph.solid_edges[eid]) for eid in _edges_at(graph, v)]
            assert graph.partners[v] == _partner(graph, v)
            assert graph.steps[v] == tuple(
                (eid, _far_end(e, v), e.unit) for eid, e in edges if not e.is_loop
            )
            assert graph.loops[v] == tuple(
                (eid, e.unit) for eid, e in edges if e.is_loop
            )


def _dense_member(sys_, u):
    profile = oracle._fprofile(sys_, u)
    return profile[: sys_.m] == profile[sys_.m :]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.data())
def test_membership_agrees_with_the_dense_definition(seed, data):
    """is_member sums each row's support; it agrees with comparing the
    dense values of both sides of every equation, for nonnegative vectors,
    on sums of generators, on other vectors and on the zero vector. A
    balanced vector with a negative entry is no member."""
    sys_ = oracle.random_matching_system(random.Random(seed), max_m=4, max_l=8)
    n = sys_.num_vars
    gens = presentation(sys_).generators
    member = [0] * n
    for g in gens:
        k = data.draw(st.integers(0, 3))
        member = [a + k * b for a, b in zip(member, g.vector)]
    other = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    for u in (tuple(member), tuple(other), (0,) * n):
        assert is_member(sys_, u) == _dense_member(sys_, u)
    assert is_member(sys_, tuple(member)) and is_member(sys_, (0,) * n)
    if any(member):
        negated = tuple(-x for x in member)
        assert _dense_member(sys_, negated) and not is_member(sys_, negated)


def _side_targets(graph, arms, h_walks):
    """Every X/H side p + q of a configuration with two walks on each side."""
    pairs = [(arms.get(v, ()), arms.get(w, ())) for v, w in graph.dotted_edges()]
    for (v, vbar), (w, wbar) in itertools.combinations(graph.dotted_edges(), 2):
        for aend, bend in ((w, wbar), (wbar, w)):
            pairs.append((h_walks.get((v, aend), ()), h_walks.get((vbar, bend), ())))
    return {
        p + q
        for left, right in pairs
        if len(left) >= 2 and len(right) >= 2
        for p in left
        for q in right
    }


def test_count_width_bounds_every_decomposition():
    """Arms and H walks have total at most 2m, and every decomposition of
    M generators has 2^(w-1) > 2M at the width presentation chooses. In
    each of the X and the H pass, a width too narrow for that pass's own
    longest decomposition raises, not aliases."""
    for walk_total in range(1, 200):
        w = _count_width(walk_total)
        assert 1 << (w - 1) > 2 * walk_total
    systems = [_chain_system(k, w) for k, w in ((3, 2), (4, 2), (3, 3))]
    systems += [_chain_system(1, n) for n in range(2, 9)]
    # the chains have no H configuration; these two do
    systems += [closing_system(), eleven_var_system()]
    raised = {"X": 0, "H": 0}
    for sys_ in systems:
        graph = build_graph(sys_)
        best, arms, h_walks = _walks(graph)
        n = sys_.num_vars
        for u in itertools.chain(*arms.values(), *h_walks.values()):
            assert sum(_unpack(u, n)) <= 2 * sys_.m
        gens = _generators(graph, best)
        counts = _side_counts(sys_, gens)
        _x_candidates(graph, arms, counts, set())
        _h_candidates(graph, h_walks, counts, set())
        assert set(counts) == _side_targets(graph, arms, h_walks)
        longest = max(len(_decoded(c, counts.width)) for c in counts.values())
        assert 1 << (counts.width - 1) > 2 * longest
        passes = {
            "X": lambda c: _x_candidates(graph, arms, c, set()),
            "H": lambda c: _h_candidates(graph, h_walks, c, set()),
        }
        for kind, form in passes.items():
            own = _side_counts(sys_, gens)
            form(own)
            if not own:
                continue
            longest = max(len(_decoded(c, own.width)) for c in own.values())
            narrow = _SideCounts(gens, (2 * longest).bit_length())
            with pytest.raises(InvariantError, match="overflow"):
                form(narrow)
            raised[kind] += 1
    assert raised["X"] == len(systems)
    assert raised["H"] >= 1


def test_closing_presentation_packs_each_side_once(monkeypatch):
    """One closing presentation decomposes and packs each distinct X/H side
    p + q exactly once, however many configurations read it."""
    packed = []
    missing = _SideCounts.__missing__

    def counted(self, target):
        packed.append(target)
        return missing(self, target)

    monkeypatch.setattr(_SideCounts, "__missing__", counted)
    presentation(closing_system())
    graph = build_graph(closing_system())
    _, arms, h_walks = _walks(graph)
    assert len(packed) == len(set(packed))
    assert set(packed) == _side_targets(graph, arms, h_walks)


def _candidates(sys_):
    """The generators, the side counts and the X/H candidates that
    presentation prunes, formed with one shared seen set."""
    graph = build_graph(sys_)
    best, arms, h_walks = _walks(graph)
    gens = _generators(graph, best)
    counts = _side_counts(sys_, gens)
    seen = set()
    cands = _x_candidates(graph, arms, counts, seen) + _h_candidates(
        graph, h_walks, counts, seen
    )
    return gens, counts, cands


def test_prune_keeps_what_one_search_per_candidate_keeps(monkeypatch):
    """Pruning per fiber keeps the relations that one search per candidate
    keeps, in the same order, with the same provenance and side sums: on
    1,000 draws of the (2, 2, 2, 1) mix and on chains (3, 2), (4, 2) and
    (3, 3). 227 of the draws keep a relation, and 185 of their fibers hold
    more than one candidate. On the chains it visits fewer states, and the
    reference visits as many as GREEDY_STATES records."""
    rng = random.Random(2727)
    systems = [
        oracle.random_matching_system(rng, occupancy=(2, 2, 2, 1)) for _ in range(1000)
    ]
    chains = {(k, w): _chain_system(k, w) for k, w in ((3, 2), (4, 2), (3, 3))}
    visited = _count_states(monkeypatch)
    kept_any = 0
    for key, sys_ in [(None, s) for s in systems] + list(chains.items()):
        gens, counts, cands = _candidates(sys_)
        want, want_sums, greedy_states = greedy_prune(cands, gens, counts.width)
        visited[0] = 0
        got, got_sums = _prune(cands, gens, counts)
        assert [(r.lhs, r.rhs, r.provenance) for r in got] == want, sys_.rows
        assert got_sums == want_sums
        kept_any += bool(got)
        if key is not None:
            assert greedy_states == GREEDY_STATES[key]
            assert visited[0] < greedy_states
    assert kept_any == 227


def test_prune_width_bounds_every_fiber():
    """On chain (3, 3) the width presentation chooses, and the narrowest
    width with 2^(w-1) above every candidate's sum(v) / 2, keep the same
    relations. A narrower width raises instead of aliasing counts."""
    gens, counts, cands = _candidates(_chain_system(3, 3))
    vectors = {g.name: g.vector for g in gens}
    half = max(
        sum(x for i in a for x in gens[i].vector) // 2 for (a, _), _ in cands
    )
    assert 1 << (counts.width - 1) > half
    kept = _prune(cands, gens, counts)
    assert len(kept[0]) == 2025
    assert _prune(cands, gens, _SideCounts(gens, half.bit_length() + 1)) == kept
    with pytest.raises(InvariantError, match="overflow"):
        _prune(cands, gens, _SideCounts(gens, half.bit_length()))
    for rel, v in zip(*kept):
        assert tuple(map(sum, zip(*(vectors[n] for n in rel.lhs)))) == v
