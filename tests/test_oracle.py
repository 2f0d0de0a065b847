"""Brute-force reference implementation, pinned on the worked examples."""

import gc
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    CLOSING_GENERATORS,
    CLOSING_RELATIONS,
    ELEVEN_GENERATORS,
    ELEVEN_REJECT,
    ELEVEN_W1,
    ELEVEN_W2,
    RUNNING_GENERATORS,
    RUNNING_RELATION,
    closing_system,
    determinant_example,
    eleven_var_system,
    running_example,
    running_system,
)
from reference import (
    congruent,
    decompositions,
    enumerate_points,
    minimal_generators_bruteforce,
    random_colored_quiver,
    toric_relations_bruteforce,
)
from gentle_si import oracle
from gentle_si.errors import InputError
from gentle_si.matching import is_member, make_system, presentation, validate_system
from gentle_si.quivers import validate_coloring


def test_enumerate_points_tiny():
    sys_ = make_system([(("x", "y"), ("z",))])
    pts = enumerate_points(sys_, 2)
    assert (0, 0, 0) in pts
    assert (1, 0, 1) in pts
    assert (1, 1, 2) in pts
    assert (1, 0, 0) not in pts
    assert pts == sorted(pts)
    for u in pts:
        assert is_member(sys_, u)


def test_enumerate_points_leaves_no_cyclic_garbage():
    """The point list, and the multiset list of decompositions, are freed by
    reference counting once their user drops them."""
    sys_ = closing_system()
    gens = sorted(CLOSING_GENERATORS.values())
    # Y1 + Y2 = X1 + X2 + B1, so it has at least two decompositions
    target = tuple(map(sum, zip(CLOSING_GENERATORS["Y1"], CLOSING_GENERATORS["Y2"])))
    calls = [
        lambda: enumerate_points(sys_, 2),
        lambda: decompositions(gens, target),
    ]
    for call in calls:
        gc.collect()
        gc.disable()
        try:
            assert len(call()) > 1
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_enumerate_points_respects_cap():
    sys_ = make_system([(("x",), ("y",))])
    pts = enumerate_points(sys_, 1)
    assert pts == [(0, 0), (1, 1)]


@pytest.mark.parametrize("seed", [12345, 522])
def test_hilbert_basis_equals_box_scan_on_random_systems(seed):
    rng = random.Random(seed)
    for _ in range(150):
        sys_ = oracle.random_matching_system(rng, max_m=4, max_l=8)
        assert oracle.hilbert_basis(sys_) == minimal_generators_bruteforce(
            sys_
        ), sys_.rows


def test_hilbert_basis_equals_box_scan_on_frozen_systems():
    # the *_generators_frozen tests pin the box scan to the same values
    assert oracle.hilbert_basis(closing_system()) == sorted(
        CLOSING_GENERATORS.values()
    )
    assert oracle.hilbert_basis(eleven_var_system()) == ELEVEN_GENERATORS
    assert oracle.hilbert_basis(running_system()) == RUNNING_GENERATORS


@pytest.mark.parametrize("occupancy", [(0, 1, 1, 2, 2), (2, 2, 2, 1)])
def test_fibers_equal_box_recomputation(occupancy):
    """Every region point with two or more decompositions, by a box scan."""
    d = 4
    rng = random.Random(4099)
    with_fibers = 0
    for _ in range(150):
        sys_ = oracle.random_matching_system(
            rng, max_m=3, max_l=6, occupancy=occupancy
        )
        gens = oracle.hilbert_basis(sys_)
        free = [j for j in range(sys_.num_vars) if not sys_.column_rows(j)]
        want = []
        for u in enumerate_points(sys_, d):
            if not any(u) or any(u[j] for j in free):
                continue
            if max(oracle._fprofile(sys_, u)) > d:
                continue
            decs = decompositions(gens, u)
            if len(decs) > 1:
                want.append((u, decs))
        want.sort(key=lambda f: (sum(f[0]), f[0]))
        assert oracle.fibers(gens, d, sys_) == want, sys_.rows
        with_fibers += bool(want)
    assert with_fibers >= 5


def test_closing_generators_frozen():
    gens = minimal_generators_bruteforce(closing_system())
    assert set(gens) == set(CLOSING_GENERATORS.values())
    assert len(gens) == 8


def test_closing_relations_frozen():
    sys_ = closing_system()
    gens = minimal_generators_bruteforce(sys_)
    rels = toric_relations_bruteforce(gens, 4, system=sys_)
    assert len(rels) == 2
    label = {v: k for k, v in CLOSING_GENERATORS.items()}
    seen = []
    for lhs, rhs in rels:
        sides = frozenset(
            [
                frozenset(label[gens[i]] for i in lhs),
                frozenset(label[gens[i]] for i in rhs),
            ]
        )
        seen.append(sides)
    want = [frozenset([frozenset(a), frozenset(b)]) for a, b in CLOSING_RELATIONS]
    assert sorted(seen, key=sorted) == sorted(want, key=sorted)


def test_eleven_var_generators_frozen():
    gens = minimal_generators_bruteforce(eleven_var_system())
    assert gens == ELEVEN_GENERATORS
    assert ELEVEN_W1 in gens
    assert ELEVEN_W2 in gens


def test_eleven_var_membership():
    sys_ = eleven_var_system()
    assert is_member(sys_, ELEVEN_W1)
    assert is_member(sys_, ELEVEN_W2)
    assert not is_member(sys_, ELEVEN_REJECT)


def test_running_generators_and_relation_frozen():
    sys_ = running_system()
    gens = minimal_generators_bruteforce(sys_)
    assert gens == RUNNING_GENERATORS
    rels = toric_relations_bruteforce(gens, 4, system=sys_)
    assert len(rels) == 1
    lhs, rhs = rels[0]
    sides = {frozenset(gens[i] for i in lhs), frozenset(gens[i] for i in rhs)}
    assert sides == {frozenset(RUNNING_RELATION[0]), frozenset(RUNNING_RELATION[1])}


def test_generator_profiles_small():
    for sys_ in (closing_system(), running_system(), eleven_var_system()):
        for g in minimal_generators_bruteforce(sys_):
            assert max(g) <= 2
            assert max(oracle._fprofile(sys_, g), default=0) <= 2


def test_congruent_on_closing():
    sys_ = closing_system()
    gens = minimal_generators_bruteforce(sys_)
    rels = toric_relations_bruteforce(gens, 4, system=sys_)
    lhs, rhs = rels[0]
    assert congruent(gens, rels, lhs, rhs)
    # mismatched sums are never congruent
    assert not congruent(gens, rels, (0,), (1,))


def _reference_match(gens, orels, pres):
    """The mutual-implication check verify_presentation used to run: the
    engine relations and a second minimal basis, orels, each imply the
    other."""
    if sorted(g.vector for g in pres.generators) != gens:
        return False, False
    idx = {v: i for i, v in enumerate(gens)}
    byname = {g.name: g.vector for g in pres.generators}
    erels = [
        (
            tuple(sorted(idx[byname[n]] for n in r.lhs)),
            tuple(sorted(idx[byname[n]] for n in r.rhs)),
        )
        for r in pres.relations
    ]
    implied = all(congruent(gens, orels, a, b) for a, b in erels) and all(
        congruent(gens, erels, a, b) for a, b in orels
    )
    return True, implied


def _broken_presentations(pres):
    """(case, mutant) pairs: a dropped, an unbalanced and a duplicated
    relation, and a dropped generator."""
    rels = pres.relations
    first = rels[0]
    unbalanced = replace(first, rhs=tuple(sorted(first.rhs + first.lhs[:1])))
    return [
        ("dropped relation", replace(pres, relations=rels[1:])),
        ("unbalanced relation", replace(pres, relations=[unbalanced] + rels[1:])),
        ("duplicated relation", replace(pres, relations=rels + [first])),
        ("dropped generator", replace(pres, generators=pres.generators[1:])),
    ]


def test_verify_detects_broken_presentations():
    rng = random.Random(2718)
    cases = [(s, presentation(s)) for s in (closing_system(), running_system())]
    while len(cases) < 42:
        # most draws have no relation; keep the ones that can lose one
        sys_ = oracle.random_matching_system(rng, max_m=4, max_l=7)
        pres = presentation(sys_)
        if pres.relations:
            cases.append((sys_, pres))
    for sys_, pres in cases:
        # the box scan runs once per system, shared by its four mutants
        gens = minimal_generators_bruteforce(sys_)
        orels = toric_relations_bruteforce(
            gens, max(4, pres.relation_cap), system=sys_
        )
        for case, mutant in _broken_presentations(pres):
            rep = oracle.verify_presentation(sys_, mutant)
            got = (rep["generators_match"], rep["relations_match"])
            assert got == _reference_match(gens, orels, mutant), case
            if case == "dropped relation":
                assert got == (True, False)
                assert rep["witnesses"][0].startswith("fiber ")
            elif case == "unbalanced relation":
                assert got == (True, False)
                assert "differ in sum" in rep["witnesses"][0]
            elif case == "duplicated relation":
                assert got == (True, True)
                assert rep["witnesses"] == []
            else:
                assert not rep["generators_match"]


def test_verify_si_equations_determinant():
    q, c, beta, r = determinant_example()
    assert oracle.verify_si_equations({"a": (1, 1)}, q, c, beta)
    assert not oracle.verify_si_equations({"a": (1, 0)}, q, c, beta)


def test_verify_si_equations_running():
    q, c, beta, r = running_example()
    lam = {a: (1, 1) for a in r}
    assert oracle.verify_si_equations(lam, q, c, beta)
    bad = dict(lam)
    bad["a2"] = (2, 0)
    assert not oracle.verify_si_equations(bad, q, c, beta)


def test_verify_si_equations_rejects_malformed():
    q, c, beta, r = determinant_example()
    with pytest.raises(InputError):
        oracle.verify_si_equations({"a": (0, 1)}, q, c, beta)
    with pytest.raises(InputError):
        oracle.verify_si_equations({"a": (True, True)}, q, c, beta)
    with pytest.raises(InputError):
        oracle.verify_si_equations({"a": (1.0, 1.0)}, q, c, beta)
    with pytest.raises(InputError):
        oracle.verify_si_equations({"a": (1, 1)}, q, c, {"1": 2})


def test_random_system_axioms_hold():
    rng = random.Random(7)
    for _ in range(100):
        sys_ = oracle.random_matching_system(rng)
        report = validate_system(sys_)
        assert report.ok, report.violations


def test_random_quiver_colorings_valid():
    rng = random.Random(11)
    for _ in range(100):
        q, c = random_colored_quiver(rng)
        report = validate_coloring(q, c)
        assert report.ok, report.violations


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_minimal_generators_generate_all_points(seed):
    rng = random.Random(seed)
    sys_ = oracle.random_matching_system(rng, max_m=3, max_l=6)
    cap = 2
    gens = minimal_generators_bruteforce(sys_, cap=cap)
    pts = enumerate_points(sys_, cap)
    for u in pts:
        if sum(u) == 0:
            continue
        assert decompositions(gens, u), (sys_.rows, u)
