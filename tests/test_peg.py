"""Tests for the partition equivalence graph pipeline."""

import json
import pathlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixtures import (
    determinant_example,
    path_example,
    relation_degree,
    running_example,
    running_system,
)
from reference import enumerate_points, random_colored_quiver

from gentle_si.cli import CliConfig, parse_model, run_command
from gentle_si.errors import InputError
from gentle_si.peg import (
    Root,
    build_peg,
    classify_endpoints,
    components,
    export_dot,
    extract_matching_system,
    theta,
)
from gentle_si.quivers import Arrow, Coloring, Quiver, monochromatic_ideal, is_gentle
from gentle_si.ranks import maximal_rank_sequences
from gentle_si.si import si_presentation

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def running_peg():
    q, c, beta, r = running_example()
    return build_peg(q, c, beta, r), q, c, beta, r


def test_determinant_peg_shape():
    q, c, beta, r = determinant_example()
    g = build_peg(q, c, beta, r)
    assert g.roots == (Root("1", "s", 1), Root("2", "s", 1))
    assert g.vertex_edges == ()
    assert g.colored_edges == ((Root("1", "s", 1), Root("2", "s", 1), "a"),)


def test_dimension_one_vertices_have_no_roots():
    q = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    g = build_peg(q, Coloring({"a": "s"}), {"1": 1, "2": 1}, {"a": 1})
    assert g.roots == ()
    assert components(g) == []


def test_bad_rank_sequence_rejected():
    q, c, beta, r = running_example()
    with pytest.raises(InputError):
        build_peg(q, c, beta, dict(r, b2=3))


def test_running_root_count():
    g, q, c, beta, r = running_peg()
    assert len(g.roots) == 22
    per_pair = {}
    for rt in g.roots:
        per_pair[(rt.vertex, rt.color)] = per_pair.get((rt.vertex, rt.color), 0) + 1
    assert per_pair == {
        ("1", "a"): 1, ("1", "b"): 1,
        ("2", "a"): 5, ("2", "b"): 5,
        ("3", "a"): 1, ("3", "c"): 1,
        ("4", "b"): 3, ("4", "c"): 3,
        ("5", "b"): 1, ("5", "c"): 1,
    }
    assert len(g.vertex_edges) == 11
    assert len(g.colored_edges) == 7


def test_running_components():
    g, *_ = running_peg()
    comps = components(g)
    assert [cp.kind for cp in comps] == ["band", "string", "string", "string", "string"]
    band = comps[0]
    assert len(band.roots) == 14
    expected = [
        ("1", "a", 1), ("1", "b", 1), ("2", "b", 5), ("2", "a", 1),
        ("3", "a", 1), ("3", "c", 1), ("4", "c", 3), ("4", "b", 1),
        ("5", "b", 1), ("5", "c", 1), ("4", "c", 1), ("4", "b", 3),
        ("2", "b", 1), ("2", "a", 5),
    ]
    assert [tuple(rt) for rt in band.roots] == expected
    strings = [sorted(tuple(rt) for rt in cp.roots) for cp in comps[1:]]
    assert strings == [
        [("2", "a", 2), ("2", "b", 4)],
        [("2", "a", 3), ("2", "b", 3)],
        [("2", "a", 4), ("2", "b", 2)],
        [("4", "b", 2), ("4", "c", 2)],
    ]


def test_running_walks_alternate_edge_kinds():
    g, *_ = running_peg()
    band = components(g)[0]
    kinds = []
    n = len(band.roots)
    for i in range(n):
        u, w = band.roots[i], band.roots[(i + 1) % n]
        kind = next(k for nb, k, _ in g.neighbors(u) if nb == w)
        kinds.append(kind)
    assert all(a != b for a, b in zip(kinds, kinds[1:]))
    assert n % 2 == 0


def test_running_endpoint_classes():
    g, q, c, beta, r = running_peg()
    eps = {tuple(ep.root): (ep.cls, ep.phi) for ep in classify_endpoints(g, beta, r)}
    assert eps == {
        ("2", "a", 2): ("Ib", ("a2",)),
        ("2", "a", 3): ("Id", ()),
        ("2", "a", 4): ("Ic", ("a1",)),
        ("2", "b", 2): ("Ib", ("b2",)),
        ("2", "b", 3): ("Id", ()),
        ("2", "b", 4): ("Ic", ("b1",)),
        ("4", "b", 2): ("Ia", ("b3", "b2")),
        ("4", "c", 2): ("Ia", ("c2", "c1")),
    }


def test_theta_running():
    g, *_ = running_peg()
    assert theta(g, Root("2", "a", 2)) == Root("2", "b", 4)
    assert theta(g, theta(g, Root("2", "a", 2))) == Root("2", "a", 2)
    with pytest.raises(InputError):
        theta(g, Root("1", "a", 1))  # band root, degree 2


def test_root_contract():
    """Roots hash, compare and sort as (vertex, color, index) tuples, print
    as Root(x,s,i), serve theta alone or inside their Endpoint and render as
    lists in peg --json (peg --dot is a golden in test_cli)."""
    g, q, c, beta, r = running_peg()
    rt = Root("2", "a", 2)
    assert tuple(rt) == ("2", "a", 2)
    assert hash(rt) == hash(("2", "a", 2))
    assert rt == ("2", "a", 2) and rt < Root("2", "a", 10) < Root("2", "b", 1)
    shuffled = list(g.roots)
    random.Random(3).shuffle(shuffled)
    assert sorted(shuffled) == sorted(shuffled, key=tuple)
    assert min(shuffled) == min(map(tuple, shuffled))
    assert repr(rt) == "Root(2,a,2)"
    endpoint = next(ep for ep in classify_endpoints(g, beta, r) if ep.root == rt)
    assert theta(g, endpoint) == theta(g, rt) == Root("2", "b", 4)
    model = parse_model((GOLDENS / "running.model").read_text(encoding="utf-8"))
    report = json.loads(run_command("peg", model, CliConfig(json=True)))
    assert report["roots"] == [list(rt) for rt in g.roots]
    assert report["components"][0]["roots"][:2] == [["1", "a", 1], ["1", "b", 1]]


def test_running_extraction_matches_frozen_system():
    g, q, c, beta, r = running_peg()
    ext = extract_matching_system(g, q, beta, r)
    assert ext.system == running_system()
    assert ext.free_arrows == ()
    assert ext.forced_index == {}
    assert sorted(ext.string_index) == [0, 1, 2]
    assert len(ext.band_index) == 1
    e1, e2 = ext.string_index[2]
    assert (e1.phi, e2.phi) == (("b3", "b2"), ("c2", "c1"))


def test_phi_agrees_across_strings_on_members():
    g, q, c, beta, r = running_peg()
    ext = extract_matching_system(g, q, beta, r)
    pts = enumerate_points(ext.system, cap=2)
    idx = {a: j for j, a in enumerate(ext.system.var_names)}
    for u in pts:
        for e1, e2 in ext.string_index.values():
            assert sum(u[idx[a]] for a in e1.phi) == sum(u[idx[a]] for a in e2.phi)


def test_trivial_string_frees_its_arrow():
    # both endpoints carry empty coefficient sets, so the arrow stays free
    q = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    c = Coloring({"a": "s"})
    g = build_peg(q, c, {"1": 2, "2": 2}, {"a": 2})
    comps = components(g)
    assert [cp.kind for cp in comps] == ["string"]
    ext = extract_matching_system(g, q, {"1": 2, "2": 2}, {"a": 2})
    assert ext.system.m == 0
    assert ext.free_arrows == ("a",)


def test_isolated_boundary_root_forces_zero():
    # rectangular full-rank map: the lone boundary root pins the arrow at 0
    q = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    c = Coloring({"a": "s"})
    beta = {"1": 2, "2": 3}
    g = build_peg(q, c, beta, {"a": 2})
    kinds = {cp.kind for cp in components(g)}
    assert kinds == {"string", "isolated"}
    ext = extract_matching_system(g, q, beta, {"a": 2})
    assert ext.system.equations() == [(("a",), ())]
    assert ext.free_arrows == ()
    assert list(ext.forced_index) == [0]
    assert ext.forced_index[0].cls == "IIc"
    assert enumerate_points(ext.system, cap=3) == [(0,)]


def test_lonely_interior_vertex_forces_both_arrows():
    q, c, beta = path_example()
    beta2 = {"1": 1, "2": 2, "3": 1}
    r = {"a1": 1, "a2": 1}
    g = build_peg(q, c, beta2, r)
    comps = components(g)
    assert [cp.kind for cp in comps] == ["isolated"]
    ext = extract_matching_system(g, q, beta2, r)
    assert ext.forced_index[0].cls == "IIa"
    assert ext.system.equations() == [(("a1", "a2"), ())]
    assert enumerate_points(ext.system, cap=3) == [(0, 0)]


def test_rank_zero_arrow_carries_no_variable():
    q, c, beta = path_example()
    r = {"a1": 1, "a2": 0}
    g = build_peg(q, c, beta, r)
    assert g.roots == ()
    ext = extract_matching_system(g, q, beta, r)
    assert ext.system.var_names == ("a1",)
    assert ext.free_arrows == ("a1",)


def test_export_dot_determinant():
    q, c, beta, r = determinant_example()
    g = build_peg(q, c, beta, r)
    assert export_dot(g) == (
        "digraph peg {\n"
        "  edge [dir=none];\n"
        '  "1|s|1" [label="(1,s) 1"];\n'
        '  "2|s|1" [label="(2,s) 1"];\n'
        '  "1|s|1" -> "2|s|1" [style=dashed, label="a"];\n'
        "}\n"
    )


def test_export_dot_running_counts():
    g, *_ = running_peg()
    text = export_dot(g)
    lines = text.strip().splitlines()
    assert len([ln for ln in lines if "label=\"(" in ln]) == 22
    assert len([ln for ln in lines if "->" in ln and "dashed" not in ln]) == 11
    assert len([ln for ln in lines if "dashed" in ln]) == 7


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_pipelines_extract_valid_systems(seed):
    rng = random.Random(seed)
    q, c = random_colored_quiver(rng, max_vertices=5)
    assume(is_gentle(q, monochromatic_ideal(q, c)).ok)
    beta = {v: rng.randint(1, 4) for v in q.vertices}
    choices = maximal_rank_sequences(q, c, beta)
    r = rng.choice(choices)
    g = build_peg(q, c, beta, r)
    for rt in g.roots:
        assert g.degree(rt) <= 2
    comps = components(g)
    assert sorted(rt for cp in comps for rt in cp.roots) == sorted(g.roots)
    ext = extract_matching_system(g, q, beta, r)
    for j, (e1, e2) in ext.string_index.items():
        assert theta(g, e1.root) == e2.root
        assert theta(g, e2.root) == e1.root
    used = {a for lhs, rhs in ext.system.equations() for a in lhs + rhs}
    assert not used & set(ext.free_arrows)
    for a in ext.free_arrows:
        assert r[a] > 0
    pres = si_presentation(q, c, beta, r)
    for rel in pres.matching.relations:
        assert relation_degree(pres, rel) <= pres.degree_bound_rels
