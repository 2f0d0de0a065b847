"""Acceptance gate: the fixed examples and cross-checks the package must
reproduce exactly, each inside its runtime budget.

Every test prints one "criterion N: PASS (...)" line on success; run with
-s to see them, or rely on the test names in the -v listing.
"""

from __future__ import annotations

import random
import time

from gentle_si.matching import build_graph, generators, is_member, presentation
from gentle_si.oracle import _fprofile, random_matching_system, verify_presentation
from gentle_si.quivers import color_classes, gentle_cover, monochromatic_ideal
from gentle_si.ranks import maximal_rank_sequences
from gentle_si.si import (
    lambda_from_uy,
    roundtrip_uy,
    si_membership,
    si_presentation,
)

from fixtures import (
    closing_system,
    cover_example,
    eleven_var_system,
    expand_runs,
    path_example,
    relation_degree,
    running_example,
)
from reference import maximal_rank_sequences_bruteforce, random_colored_quiver

# expected support sets for the ten-variable closing example; all its
# generators are 0/1 vectors, so supports determine them
CLOSING_SUPPORTS = {
    "X1": {"a1", "a5"},
    "X2": {"b1", "b5"},
    "Y1": {"a1", "a4", "b4", "b1"},
    "Y2": {"a5", "a2", "b2", "b5"},
    "Z1": {"a2", "b3", "a4"},
    "Z2": {"b2", "a3", "b4"},
    "B1": {"a2", "b2", "b4", "a4"},
    "B2": {"a3", "b3"},
}

# each relation as an unordered pair of label sets
CLOSING_EXPECTED_RELATIONS = [
    ({"Z1", "Z2"}, {"B1", "B2"}),
    ({"Y1", "Y2"}, {"X1", "X2", "B1"}),
]

RANDOM_SYSTEM_SEED = 20240817


def _report(n: int, start: float) -> None:
    print(f"criterion {n}: PASS ({time.perf_counter() - start:.2f}s)")


def _support(sys_, vector) -> set:
    return {sys_.var_names[j] for j, x in enumerate(vector) if x}


def _unit_sum(n: int, *idx: int) -> tuple[int, ...]:
    v = [0] * n
    for i in idx:
        v[i - 1] += 1
    return tuple(v)


def _crit_3_systems(rng: random.Random):
    for _ in range(100):
        yield random_matching_system(rng, max_m=4, max_l=8)


def test_criterion_1_closing_example_presentation():
    start = time.perf_counter()
    sys_ = closing_system()
    pres = presentation(sys_)

    assert len(pres.generators) == 8
    label_of = {}
    for g in pres.generators:
        assert set(g.vector) <= {0, 1}
        support = _support(sys_, g.vector)
        matches = [lab for lab, s in CLOSING_SUPPORTS.items() if s == support]
        assert matches, f"unexpected generator support {sorted(support)}"
        label_of[g.name] = matches[0]
    assert sorted(label_of.values()) == sorted(CLOSING_SUPPORTS)

    assert len(pres.relations) == 2
    got = {
        frozenset(
            (
                frozenset(label_of[n] for n in rel.lhs),
                frozenset(label_of[n] for n in rel.rhs),
            )
        )
        for rel in pres.relations
    }
    want = {
        frozenset((frozenset(l), frozenset(r)))
        for l, r in CLOSING_EXPECTED_RELATIONS
    }
    assert got == want

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, budget 1s"
    _report(1, start)


def test_criterion_2_eleven_variable_membership():
    start = time.perf_counter()
    sys_ = eleven_var_system()
    w2 = _unit_sum(11, 5, 6, 11)
    w1 = _unit_sum(11, 3, 9)
    reject = _unit_sum(11, 3, 6)

    assert is_member(sys_, w2)
    assert is_member(sys_, w1)
    assert not is_member(sys_, reject)

    vectors = {g.vector for g in generators(build_graph(sys_))}
    assert w1 in vectors
    assert w2 in vectors

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s, budget 1s"
    _report(2, start)


def test_criterion_3_oracle_equivalence_on_random_systems():
    start = time.perf_counter()
    rng = random.Random(RANDOM_SYSTEM_SEED)
    passed = 0
    for sys_ in _crit_3_systems(rng):
        pres = presentation(sys_)
        report = verify_presentation(sys_, pres)
        assert report["generators_match"], report["witnesses"]
        assert report["relations_match"], report["witnesses"]
        passed += 1
    assert passed == 100

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.2f}s, budget 60s"
    _report(3, start)


def test_criterion_4_generator_entries_capped_at_two():
    start = time.perf_counter()
    systems = [closing_system(), eleven_var_system()]
    systems.extend(_crit_3_systems(random.Random(RANDOM_SYSTEM_SEED)))

    violations = []
    for sys_ in systems:
        for g in generators(build_graph(sys_)):
            if any(x > 2 for x in g.vector):
                violations.append(("coordinate", sys_.var_names, g.vector))
            if any(v > 2 for v in _fprofile(sys_, g.vector)):
                violations.append(("fvalue", sys_.var_names, g.vector))
    assert violations == []
    _report(4, start)


def test_criterion_5_gentle_machinery():
    start = time.perf_counter()
    q, rels = cover_example()
    res = gentle_cover(q, rels)
    assert color_classes(q, res.coloring) == {
        "1": ["a1", "a2", "a3"],
        "2": ["b1"],
        "3": ["b2", "b3"],
    }
    assert set(res.kernel) == {("b3", "a2")}

    rq, rc, _beta, _r = running_example()
    assert set(monochromatic_ideal(rq, rc)) == {
        ("a2", "a1"),
        ("b2", "b1"),
        ("b3", "b2"),
        ("c2", "c1"),
    }
    _report(5, start)


def test_criterion_6_components():
    start = time.perf_counter()
    q, c, beta = path_example()
    seqs = maximal_rank_sequences(q, c, beta)
    assert {(r["a1"], r["a2"]) for r in seqs} == {(1, 0), (0, 1)}

    rng = random.Random(11)
    for _ in range(50):
        q2, c2 = random_colored_quiver(rng)
        beta2 = {v: rng.randint(0, 3) for v in q2.vertices}
        assert maximal_rank_sequences(
            q2, c2, beta2
        ) == maximal_rank_sequences_bruteforce(q2, c2, beta2)
    _report(6, start)


def test_criterion_7_running_pipeline():
    start = time.perf_counter()
    q, c, beta, r = running_example()
    pres = si_presentation(q, c, beta, r)
    ctx = pres.context

    assert (pres.degree_bound_gens, pres.degree_bound_rels) == (42, 168)
    for g in pres.generators:
        res = si_membership(expand_runs(g.partitions), q, c, beta)
        assert res.ok, f"{g.name} fails membership at {res.witness}"
        assert res.sigma == g.sigma
        assert g.degree <= 42
    for rel in pres.matching.relations:
        assert relation_degree(pres, rel) <= 168

    base = [g.u for g in pres.generators if g.kind != "band_var"]
    nvars = len(ctx.extract.system.var_names)
    rng = random.Random(20240819)
    for _ in range(500):
        u = [0] * nvars
        for vec in base:
            k = rng.randint(0, 3)
            u = [x + k * y for x, y in zip(u, vec)]
        y = tuple(rng.randint(0, 3) for _ in range(len(pres.band_vars)))
        lam = lambda_from_uy(ctx, tuple(u), y)
        assert roundtrip_uy(ctx, lam) == (tuple(u), y)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 7 took {elapsed:.2f}s, budget 30s"
    _report(7, start)
