"""Matching systems of counting equations and their semigroups of solutions.

A system consists of m equations between sums of 0/1-weighted variables,
written as 2m rows: row k and row m+k are the two sides of equation k
(0-based). The axioms are:

* coefficients are 0 or 1,
* no variable occurs on both sides of one equation,
* each variable occurs in at most two rows total.

The solution set U collects the nonnegative integer vectors making every
equation balance. Its generators and relations are computed from walks in
the matching graph further down in this module; the oracle module
recomputes them from the equations alone.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import InputError, InvariantError, ValidationReport, require


@dataclass(frozen=True)
class MatchingSystem:
    """2m coefficient rows over named variables.

    rows[k] and rows[m+k] are the sides of equation k. Row entries are 0/1.
    """

    m: int
    var_names: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    def row_support(self, row: int) -> tuple[int, ...]:
        return tuple(j for j, cj in enumerate(self.rows[row]) if cj)

    @cached_property
    def row_supports(self) -> tuple[tuple[int, ...], ...]:
        """row_support of every row, computed on first use."""
        return tuple(self.row_support(i) for i in range(2 * self.m))

    def equations(self) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
        out = []
        for k in range(self.m):
            lhs = tuple(self.var_names[j] for j in self.row_support(k))
            rhs = tuple(self.var_names[j] for j in self.row_support(self.m + k))
            out.append((lhs, rhs))
        return out

    def column_rows(self, j: int) -> tuple[int, ...]:
        return tuple(i for i in range(2 * self.m) if self.rows[i][j])


def make_system(
    equations: Sequence[tuple[Iterable[str], Iterable[str]]],
    var_names: Optional[Sequence[str]] = None,
) -> MatchingSystem:
    """Build a system from (lhs names, rhs names) pairs.

    Variable order is taken from var_names when given, else from first
    appearance. A name repeated within one side would need coefficient 2 and
    is rejected.
    """
    order: list[str] = list(var_names) if var_names is not None else []
    known = set(order)
    if len(known) != len(order):
        raise InputError("duplicate variable name")
    sides: list[list[str]] = []
    for lhs, rhs in equations:
        for side in (lhs, rhs):
            names = [str(n) for n in side]
            if len(set(names)) != len(names):
                raise InputError(f"variable repeated within one side: {names}")
            for n in names:
                if n not in known:
                    if var_names is not None:
                        raise InputError(f"undeclared variable {n!r}")
                    known.add(n)
                    order.append(n)
            sides.append(names)
    sys_ = _from_sides(sides, order)
    rep = validate_system(sys_)
    if not rep.ok:
        raise InputError(f"not a matching system: {rep.violations}")
    return sys_


def _from_sides(
    sides: Sequence[Sequence[str]], order: Sequence[str]
) -> MatchingSystem:
    """The unchecked system whose equation k reads sides[2k] = sides[2k+1].

    Rows k and m+k hold the two sides of equation k over the variables in
    order.
    """
    m = len(sides) // 2
    idx = {n: j for j, n in enumerate(order)}
    rows = []
    for offset in (0, 1):
        for k in range(m):
            row = [0] * len(order)
            for n in sides[2 * k + offset]:
                row[idx[n]] = 1
            rows.append(tuple(row))
    return MatchingSystem(m=m, var_names=tuple(order), rows=tuple(rows))


def system_from_rows(
    rows: Sequence[Sequence[int]], var_names: Optional[Sequence[str]] = None
) -> MatchingSystem:
    if len(rows) % 2 != 0:
        raise InputError("row count must be even")
    m = len(rows) // 2
    width = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != width:
            raise InputError("ragged coefficient rows")
    if var_names is None:
        var_names = [f"x{j + 1}" for j in range(width)]
    if len(var_names) != width:
        raise InputError("variable name count does not match row width")
    sys_ = MatchingSystem(
        m=m,
        var_names=tuple(str(n) for n in var_names),
        rows=tuple(tuple(r) for r in rows),
    )
    rep = validate_system(sys_)
    if not rep.ok:
        raise InputError(f"not a matching system: {rep.violations}")
    return sys_


def validate_system(sys_: MatchingSystem) -> ValidationReport:
    rep = ValidationReport()
    if len(sys_.rows) != 2 * sys_.m:
        rep.add("shape", "row count is not 2m")
        return rep
    for i, row in enumerate(sys_.rows):
        if len(row) != sys_.num_vars:
            rep.add("shape", f"row {i} has wrong width")
            return rep
        for j, cj in enumerate(row):
            # type, not isinstance: bool is an int subclass and no coefficient
            if type(cj) is not int or cj not in (0, 1):
                rep.add("coeff", f"coefficient at row {i}, var {j} is {cj!r}")
    if not rep.ok:
        # the checks below count coefficients as 0/1 ints
        return rep
    for k in range(sys_.m):
        for j in range(sys_.num_vars):
            if sys_.rows[k][j] and sys_.rows[sys_.m + k][j]:
                rep.add(
                    "pair",
                    f"variable {sys_.var_names[j]} sits on both sides of"
                    f" equation {k + 1}",
                )
    for j in range(sys_.num_vars):
        occ = sum(row[j] for row in sys_.rows)
        if occ > 2:
            rep.add(
                "column",
                f"variable {sys_.var_names[j]} occurs in {occ} rows",
            )
    return rep


def is_member(sys_: MatchingSystem, u: Sequence[int]) -> bool:
    """Whether u solves every equation. u must be a nonnegative int vector."""
    if len(u) != sys_.num_vars:
        raise InputError(
            f"vector length {len(u)} does not match {sys_.num_vars} variables"
        )
    if not {int}.issuperset(map(type, u)):
        raise InputError("membership is defined for integer vectors")
    if min(u, default=0) < 0:
        return False
    supports, m, entry = sys_.row_supports, sys_.m, u.__getitem__
    return all(
        sum(map(entry, supports[k])) == sum(map(entry, supports[m + k]))
        for k in range(m)
    )


# ---------------------------------------------------------------------------
# the matching graph

DOTTED = -1

# The engine packs each nonnegative vector u into one int, u[j] in bits
# FIELD*j .. FIELD*j + FIELD - 1, the top one of them a guard bit kept 0.
# A walk uses each row at most twice, so its entries are at most 2, and an
# X/H side sum p + q of two walks has entries at most 4 < 2**(FIELD - 1).
FIELD = 4


def _pack(u: Sequence[int]) -> int:
    if not all(0 <= x < 1 << (FIELD - 1) for x in u):
        raise InvariantError(f"vector {tuple(u)} does not fit {FIELD}-bit fields")
    return sum(x << (FIELD * j) for j, x in enumerate(u))


def _unpack(packed: int, n: int) -> tuple[int, ...]:
    mask = (1 << FIELD) - 1
    return tuple((packed >> (FIELD * j)) & mask for j in range(n))


def _guard(n: int, width: int) -> int:
    """The guard bits of n digits of the given bit width. For a and b packed
    at that width, each digit below 2**(width - 1), b <= a componentwise
    exactly when ((a | guard) - b) & guard == guard: each digit subtracts
    from its own guard bit and borrows from nothing above it."""
    return sum(1 << (width * j + width - 1) for j in range(n))


@dataclass(frozen=True)
class SolidEdge:
    """One engaged variable, drawn between the rows it occurs in."""

    var: int
    ends: tuple[int, ...]  # (v,) for a loop, else (p, q) with p < q
    unit: int  # the packed unit vector of var

    @property
    def is_loop(self) -> bool:
        return len(self.ends) == 1


@dataclass
class MatchingGraph:
    """Vertices 1..2m, one per row; solid edges per engaged variable.

    Vertex k+1 is row k's side of equation k and is dotted-matched to vertex
    k+1+m. Zero columns are free variables. Presolve marks columns that every
    solution sends to zero (an empty equation side forces the other side, and
    the forcing cascades); their edges are dropped.

    The walk passes read the step table, indexed by vertex (entry 0 unused):
    partners[v] is v's dotted partner, steps[v] holds (edge id, far end,
    unit) for each non-loop solid edge at v and loops[v] holds (edge id,
    unit) for each loop at v, both in edge id order.
    """

    system: MatchingSystem
    solid_edges: tuple[SolidEdge, ...]
    free_vars: tuple[int, ...]
    forced_zero: tuple[int, ...]
    partners: tuple[int, ...] = field(repr=False)
    steps: tuple[tuple[tuple[int, int, int], ...], ...] = field(repr=False)
    loops: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)

    @property
    def m(self) -> int:
        return self.system.m

    def dotted_edges(self) -> list[tuple[int, int]]:
        return [(k + 1, k + 1 + self.m) for k in range(self.m)]


def forced_zero_vars(sys_: MatchingSystem) -> set[int]:
    """Columns that must be zero in every solution."""
    forced: set[int] = set()
    changed = True
    while changed:
        changed = False
        for k in range(sys_.m):
            lhs = [j for j in sys_.row_support(k) if j not in forced]
            rhs = [j for j in sys_.row_support(sys_.m + k) if j not in forced]
            if lhs and not rhs:
                forced.update(lhs)
                changed = True
            elif rhs and not lhs:
                forced.update(rhs)
                changed = True
    return forced


def build_graph(sys_: MatchingSystem) -> MatchingGraph:
    rep = validate_system(sys_)
    if not rep.ok:
        raise InputError(f"not a matching system: {rep.violations}")
    forced = forced_zero_vars(sys_)
    edges: list[SolidEdge] = []
    free: list[int] = []
    for j in range(sys_.num_vars):
        rows = sys_.column_rows(j)
        if not rows:
            free.append(j)
            continue
        if j in forced:
            continue
        verts = tuple(sorted(r + 1 for r in rows))
        if len(verts) == 2:
            require(
                not (verts[0] <= sys_.m and verts[1] == verts[0] + sys_.m),
                "solid edge would close an alternating two-cycle",
            )
        edges.append(SolidEdge(var=j, ends=verts, unit=1 << (FIELD * j)))
    nv = 2 * sys_.m + 1
    steps: list[list] = [[] for _ in range(nv)]
    loops: list[list] = [[] for _ in range(nv)]
    for eid, e in enumerate(edges):
        if e.is_loop:
            loops[e.ends[0]].append((eid, e.unit))
        else:
            p, q = e.ends
            steps[p].append((eid, q, e.unit))
            steps[q].append((eid, p, e.unit))
    return MatchingGraph(
        system=sys_,
        solid_edges=tuple(edges),
        free_vars=tuple(free),
        forced_zero=tuple(sorted(forced)),
        partners=(0, *range(sys_.m + 1, nv), *range(1, sys_.m + 1)),
        steps=tuple(map(tuple, steps)),
        loops=tuple(map(tuple, loops)),
    )


# ---------------------------------------------------------------------------
# alternating walks


@dataclass(frozen=True)
class Walk:
    """Alternating walk; edges[i] joins vertices[i] to vertices[i+1].

    Edge entries are solid edge ids, or DOTTED for the step between a vertex
    and its dotted partner. Strings run loop to loop; bands are closed walks
    with vertices[0] == vertices[-1] and no loop edges.
    """

    kind: str  # "string" or "band"
    vertices: tuple[int, ...]
    edges: tuple[int, ...]


def render_walk(graph: MatchingGraph, walk: Walk) -> str:
    names = graph.system.var_names
    parts = [str(walk.vertices[0])]
    for e, v in zip(walk.edges, walk.vertices[1:]):
        label = "~" if e == DOTTED else f"-{names[graph.solid_edges[e].var]}-"
        parts.append(label)
        parts.append(str(v))
    return " ".join(parts)


def _tokens(graph: MatchingGraph, vertices, edges) -> tuple:
    out = [vertices[0]]
    for e, v in zip(edges, vertices[1:]):
        out.append(DOTTED if e == DOTTED else graph.solid_edges[e].var)
        out.append(v)
    return tuple(out)


def _string_canonical(graph, vertices, edges):
    fwd = (tuple(vertices), tuple(edges))
    rev = (tuple(reversed(vertices)), tuple(reversed(edges)))
    tf = _tokens(graph, *fwd)
    tr = _tokens(graph, *rev)
    return (tf, fwd) if tf <= tr else (tr, rev)


def _band_orientations(vertices, edges):
    # vertices v0..vn with v0 == vn; edges e1..en, odd positions solid
    n = len(edges)
    vs = list(vertices[:-1])
    es = list(edges)
    cands = []
    for start in range(0, n, 2):
        vv = [vs[(start + i) % n] for i in range(n)]
        vv.append(vv[0])
        cands.append((tuple(vv), tuple(es[(start + i) % n] for i in range(n))))
    # reversed traversal: starts with the last edge, which is dotted, so only
    # odd rotation offsets give a solid-first closed walk
    rvs = [vs[0]] + vs[:0:-1]
    res = es[::-1]
    for start in range(1, n, 2):
        vv = [rvs[(start + i) % n] for i in range(n)]
        vv.append(vv[0])
        cands.append((tuple(vv), tuple(res[(start + i) % n] for i in range(n))))
    return cands


def _band_canonical(graph, vertices, edges):
    best = None
    for vv, ee in _band_orientations(vertices, edges):
        t = _tokens(graph, vv, ee)
        if best is None or t < best[0]:
            best = (t, (vv, ee))
    return best


def _extend(graph: MatchingGraph, verts, edges, fv, u, visit) -> None:
    """Grow an alternating walk from its end, depth first.

    The walk, of packed vector u, steps to the dotted partner w of its end
    and calls visit(w, u) there. It then goes on through every non-loop
    solid edge at w which keeps both row counts in fv, a list indexed by
    vertex, at most 2. verts, edges and fv are as they were when this
    returns.
    """
    w = graph.partners[verts[-1]]
    verts.append(w)
    edges.append(DOTTED)
    visit(w, u)
    if fv[w] < 2:
        for eid, z, unit in graph.steps[w]:
            if fv[z] < 2:
                fv[w] += 1
                fv[z] += 1
                verts.append(z)
                edges.append(eid)
                _extend(graph, verts, edges, fv, u + unit, visit)
                edges.pop()
                verts.pop()
                fv[z] -= 1
                fv[w] -= 1
    verts.pop()
    edges.pop()


def _walks(graph: MatchingGraph):
    """Every walk the presentation reads, from two depth-first passes.

    The loop-started pass starts once from each loop. At each dotted step it
    records the walk so far as an X arm, by the end of its last solid edge,
    and it offers a string wherever a loop at the new end closes the walk,
    if that loop is no smaller than the start loop. The loop-free pass
    starts once from each vertex x, at its partner as a virtual end, so its
    first solid step is taken at x. It records each walk as an H walk, by x
    and the end of its last solid edge, and it offers a band wherever the
    walk closes at x with at least two solid edges, the first of them its
    smallest and the second no larger than the last. So each string and
    each band is offered in one direction only, or in both where the two
    tests tie: the reverse walk has the same vector and length, and the
    canonical forms take the minimum over both orientations, so the
    reverse offer never changes a best walk.

    Returns (best, arms, h_walks), all over packed vectors. best maps each
    walk vector u to (edge count, u unpacked, walks): its shortest walks
    offered, as (kind, vertices, edges), ties included. arms and h_walks map
    ends to sets of vectors.
    """
    nv = graph.system.num_vars
    loops = graph.loops
    best: dict[int, tuple] = {}
    arms: dict[int, set] = {}
    h_walks: dict[tuple[int, int], set] = {}

    def offer(kind, u, verts, edges):
        walk = (kind, tuple(verts), tuple(edges))
        cur = best.get(u)
        if cur is None:
            vec = _unpack(u, nv)
            require(
                is_member(graph.system, vec), f"{kind} walk vector fails membership"
            )
            best[u] = (len(edges), vec, [walk])
        elif len(edges) < cur[0]:
            best[u] = (len(edges), cur[1], [walk])
        elif len(edges) == cur[0]:
            cur[2].append(walk)

    for eid, e in enumerate(graph.solid_edges):
        if not e.is_loop:
            continue
        v0 = e.ends[0]
        verts, edges, fv = [v0, v0], [eid], [0] * len(loops)
        fv[v0] = 1

        def visit(w, u):
            arms.setdefault(verts[-2], set()).add(u)
            if fv[w] < 2:
                for lid, unit in loops[w]:
                    if lid >= edges[0]:
                        offer("string", u + unit, verts + [w], edges + [lid])

        _extend(graph, verts, edges, fv, e.unit, visit)

    for x in range(1, 2 * graph.m + 1):
        verts, edges = [graph.partners[x]], []

        def visit(w, u):
            if len(edges) > 1:
                h_walks.setdefault((x, verts[-2]), set()).add(u)
            if (
                w == x
                and len(edges) >= 5
                and edges[3] <= edges[-2]
                and edges[1] == min(edges[1::2])
            ):
                offer("band", u, verts[1:], edges[1:])

        _extend(graph, verts, edges, [0] * len(loops), 0, visit)
    return best, arms, h_walks


def _best_walk(graph: MatchingGraph, walks) -> Walk:
    """Of walks of one length, as (kind, vertices, edges), the one of
    smallest canonical tokens, in its canonical orientation."""
    picks = []
    for kind, vv, ee in walks:
        canonical = _string_canonical if kind == "string" else _band_canonical
        key, (cv, ce) = canonical(graph, vv, ee)
        picks.append((key, kind, cv, ce))
    _, kind, vv, ee = min(picks)
    return Walk(kind, vv, ee)


def _decompose_first(vectors, guard, rem, start, memo):
    """One expression of packed rem as a sum of vectors[start:], by index.

    guard holds the guard bits of every field; memo caches each answer,
    None included, under (rem, start).
    """
    if not rem:
        return ()
    key = (rem, start)
    if key not in memo:
        out = None
        for i in range(start, len(vectors)):
            g = vectors[i]
            if ((rem | guard) - g) & guard == guard:
                sub = _decompose_first(vectors, guard, rem - g, i, memo)
                if sub is not None:
                    out = (i,) + sub
                    break
        memo[key] = out
    return memo[key]


# ---------------------------------------------------------------------------
# generators and relations


@dataclass(frozen=True)
class Generator:
    name: str
    vector: tuple[int, ...]
    kind: str  # "string", "band" or "free"
    walk: Optional[str] = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "vector": list(self.vector), "kind": self.kind}
        if self.walk is not None:
            out["walk"] = self.walk
        return out


@dataclass(frozen=True)
class Relation:
    lhs: tuple[str, ...]  # generator names with repetition, sorted
    rhs: tuple[str, ...]
    provenance: str

    def as_dict(self) -> dict:
        return {
            "lhs": list(self.lhs),
            "rhs": list(self.rhs),
            "provenance": self.provenance,
        }


@dataclass
class Presentation:
    system: MatchingSystem
    graph: MatchingGraph
    generators: list[Generator]
    relations: list[Relation]
    relation_cap: int

    def as_dict(self) -> dict:
        return {
            "generators": [g.as_dict() for g in self.generators],
            "relations": [r.as_dict() for r in self.relations],
            "free_variables": [
                self.system.var_names[j] for j in self.graph.free_vars
            ],
            "forced_zero": [
                self.system.var_names[j] for j in self.graph.forced_zero
            ],
            "relation_cap": self.relation_cap,
        }


def generators(graph: MatchingGraph) -> list[Generator]:
    """Irreducible walk vectors plus unit generators for free variables."""
    return _generators(graph, _walks(graph)[0])


def _generators(graph: MatchingGraph, best: dict) -> list[Generator]:
    """The vectors of best with no split into smaller ones, each with its
    best walk, and a unit vector per free variable, named by (total, vector)."""
    # a split of u uses only vectors of smaller total; by descending total
    # these are the suffix after the last vector of total at least sum(u)
    totals = {u: sum(vec) for u, (_, vec, _) in best.items()}
    vecs = sorted(best, key=totals.__getitem__, reverse=True)
    neg_totals = [-totals[u] for u in vecs]
    guard = _guard(graph.system.num_vars, FIELD)
    memo: dict[tuple, Optional[tuple]] = {}
    items = []
    for u, (_, vec, walks) in best.items():
        start = bisect.bisect_right(neg_totals, -totals[u])
        if _decompose_first(vecs, guard, u, start, memo) is None:
            w = _best_walk(graph, walks)
            items.append((vec, w.kind, render_walk(graph, w)))
    nv = graph.system.num_vars
    for j in graph.free_vars:
        u = tuple(1 if i == j else 0 for i in range(nv))
        items.append((u, "free", None))
    items.sort(key=lambda t: (sum(t[0]), t[0]))
    return [
        Generator(name=f"g{i + 1}", vector=u, kind=k, walk=r)
        for i, (u, k, r) in enumerate(items)
    ]


def _count_width(walk_total: int) -> int:
    """The digit width w of packed generator counts for X/H sides p + q
    of walks p, q of total at most walk_total.

    Every non-free generator has total at least 2, so a side p + q
    decomposes into M <= total(p + q) / 2 <= walk_total generators. A
    relation's signed counts r = c(p1,q1) - c(p1,q2) - c(p2,q1) + c(p2,q2)
    then have digits in [-2M, 2M], which read back as signed base-2^w
    digits since 2^(w-1) > 2 * walk_total >= 2M.
    """
    return (2 * walk_total).bit_length() + 1


class _SideCounts(dict):
    """Packed target -> its generator counts as a sum of non-free
    generators, packed into one int, one base-2^width digit per generator
    index.

    vectors and units hold each generator's packed vector and its count
    digit 1, by generator index. A free generator never fits a target: its
    variable is on no walk. A missing target is decomposed and packed on
    its first lookup and then read from the dict. Every target shares one
    memo of _decompose_first sub-results, so a remainder met under one
    target is not searched again under another.
    """

    __slots__ = ("width", "vectors", "units", "_guard", "_memo")

    def __init__(self, gens: list[Generator], width: int):
        self.width = width
        self.vectors = [_pack(g.vector) for g in gens]
        self.units = [1 << (width * i) for i in range(len(gens))]
        self._guard = _guard(len(gens[0].vector), FIELD) if gens else 0
        self._memo: dict[tuple, Optional[tuple]] = {}

    def __missing__(self, target: int) -> int:
        found = _decompose_first(self.vectors, self._guard, target, 0, self._memo)
        require(
            found is not None,
            "configuration side does not decompose into generators",
        )
        require(
            1 << (self.width - 1) > 2 * len(found),
            "a decomposition overflows the signed count digits",
        )
        counts = self[target] = sum([self.units[i] for i in found])
        return counts


def _signed_relation(r: int, w: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The relation whose sides count each generator index i by the
    positive and by the negative signed base-2^w digit i of r, smaller side
    first."""
    mask, half = (1 << w) - 1, 1 << (w - 1)
    pos: list[int] = []
    neg: list[int] = []
    while r:
        i = ((r & -r).bit_length() - 1) // w  # lowest nonzero digit
        d = (r >> (w * i)) & mask
        if d >= half:
            d -= 1 << w
        r -= d << (w * i)
        (pos if d > 0 else neg).extend([i] * abs(d))
    require(bool(pos) and bool(neg), "relation with an empty side")
    a, b = tuple(pos), tuple(neg)
    return (b, a) if (len(b), b) < (len(a), a) else (a, b)


def _swap_candidates(counts, left, right, provenance, cands, seen):
    """Relations dec(p1+q1) + dec(p2+q2) = dec(p1+q2) + dec(p2+q1).

    p1, p2 run over left and q1, q2 over right, all packed vectors, so
    p + q is one int add, and c(p, q) = counts[p + q] is the packed
    generator count of its decomposition dec(p + q). Every digit of
    r = c(p1,q1) - c(p1,q2) - c(p2,q1) + c(p2,q2) is a signed count (see
    _count_width), so r is the relation's signed generator counts: -r is
    the same relation with its sides swapped. r is symmetric in left and
    right, so the pairs are taken on the shorter side.

    r is a 2x2 minor of the matrix of c, one row per q, so adding a
    constant to a row leaves it as it is. Each row is taken modulo its
    first entry and duplicate rows are dropped: the set of nonzero r stays
    the same. For a fixed pair of rows, r = d(p1) - d(p2) with d(p) their
    difference at p, so only distinct differences are paired. seen holds
    |r| for each relation formed so far, across every configuration of one
    presentation, so each relation is formed once, in the first
    configuration that meets it.
    """
    if len(left) < 2 or len(right) < 2:
        return
    if len(left) < len(right):
        left, right = right, left
    rows = set()
    for q in right:
        row = [counts[p + q] for p in left]
        base = row[0]
        rows.add(tuple([c - base for c in row]))
    for c1, c2 in itertools.combinations(rows, 2):
        diffs = set(map(operator.sub, c1, c2))
        for d1, d2 in itertools.combinations(diffs, 2):
            r = abs(d1 - d2)
            if r in seen:
                continue
            seen.add(r)
            cands.append((_signed_relation(r, counts.width), provenance))


def _x_candidates(graph, arms, counts, seen):
    cands = []
    for v, w in graph.dotted_edges():
        _swap_candidates(
            counts,
            arms.get(v, ()),
            arms.get(w, ()),
            "X-configuration({%d,%d})" % (v, w),
            cands,
            seen,
        )
    return cands


def _h_candidates(graph, h_walks, counts, seen):
    cands = []
    dotted = graph.dotted_edges()
    for (v, vbar), (w, wbar) in itertools.combinations(dotted, 2):
        provenance = "H-configuration({%d,%d},{%d,%d})" % (v, vbar, w, wbar)
        for aend, bend in ((w, wbar), (wbar, w)):
            _swap_candidates(
                counts,
                h_walks.get((v, aend), ()),
                h_walks.get((vbar, bend), ()),
                provenance,
                cands,
                seen,
            )
    return cands


def _explore(moves, guard, width, start, target) -> set:
    """The packed counts the moves rewrite start into, breadth first,
    start included.

    The search stops as soon as it meets target, which the result then
    holds; a target of 0, which is no multiset of a fiber, asks for the
    whole component. moves maps a generator index to the (src, dst) moves
    whose source's lowest generator it is, so a state only tries the moves
    of the generators read off its nonzero digits. A move applies where
    src fits inside the state, one guarded subtraction, so no state it
    makes is negative; the digit scan would not end on one.
    """
    mask = (1 << width) - 1
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            rest = s
            while rest:
                i = ((rest & -rest).bit_length() - 1) // width
                rest &= ~(mask << (width * i))
                for src, dst in moves.get(i, ()):
                    if ((s | guard) - src) & guard == guard:
                        t = s - src + dst
                        if t not in seen:
                            require(t >= 0, "a pruning move made a negative count")
                            seen.add(t)
                            if t == target:
                                return seen
                            nxt.append(t)
        frontier = nxt
    return seen


def _join(moves, guard, width, fiber):
    """The candidates (a, b, pa, pb) of one fiber, in order, that join two
    classes of its multisets.

    The classes start as the components under moves, which hold the moves
    of lower fibers only: each side's component is explored once and
    labelled, or is the side alone when there are no moves. A union-find
    over the labels then takes the candidates in turn. A move of this
    fiber rewrites only its own side, the one multiset of the fiber that
    it fits, into its other side, so a candidate whose sides share a class
    is implied by the lower moves and the candidates kept before it, and
    one that joins two classes is not.
    """
    label: dict[int, int] = {}
    parent: list[int] = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = []
    for cand in fiber:
        roots = []
        for side in cand[2:]:
            if side not in label:
                if moves:
                    for t in _explore(moves, guard, width, side, 0):
                        label[t] = len(parent)
                else:
                    label[side] = len(parent)
                parent.append(len(parent))
            roots.append(find(label[side]))
        ra, rb = roots
        if ra != rb:
            parent[ra] = rb
            kept.append(cand)
    return kept


def _prune(
    cands, gens: list[Generator], counts: _SideCounts
) -> tuple[list[Relation], list[tuple[int, ...]]]:
    """Distinct candidates kept unless the lower ones kept imply them.

    Each side is held as generator counts packed into one int, one
    base-2^width digit per generator index, as counts packs them. A
    kept relation rewrites a multiset holding either side into one holding
    the other, and a candidate is dropped when these moves rewrite its one
    side into its other. Candidates are taken in order of (total, vector)
    of their side sums, and a fiber is the run of candidates of one side
    sum. A relation can only rewrite multisets whose sum dominates its
    side sum, so this order presents each fiber after every fiber below
    it. A fiber with one candidate searches from its one side for the
    other; a larger one is settled by _join. A relation formed more than
    once keeps its first provenance. Returns the kept relations and, in
    the same order, their side sums.

    The moves of a fiber join the search only once the total of the side
    sums, the degree, rises past it. A move from the fiber of sum G fits a
    multiset of sum F only as its side plus a rest of sum F - G. At equal
    totals the rest has total 0, so it is empty, since each generator it
    holds has total at least 2, and F = G. So a move never fires in
    another fiber of its own degree, and holding it back changes nothing
    that is kept. Until some move is in, there is nothing to search: a
    single candidate is kept, and each side of a larger fiber is its own
    class.
    """
    if not cands:
        return [], []
    n = len(gens[0].vector)
    width, units = counts.width, counts.units
    first: dict[tuple, str] = {}
    for rel, prov in cands:
        first.setdefault(rel, prov)
    # each generator's vector packed with its first entry in the top field
    # and its total above that, so that a side's key, the sum of its
    # generators' keys, orders as (total, vector) of the side sum: a side
    # sum p + q fits the fields (see FIELD), so no field carries
    shift = FIELD * n
    fields = range(shift - FIELD, -1, -FIELD)
    keys = [
        sum(g.vector) << shift | sum(map(operator.lshift, g.vector, fields))
        for g in gens
    ]
    ordered = sorted([(sum(map(keys.__getitem__, a)), a, b) for a, b in first])
    # a multiset of the fiber of sum v holds non-free generators only, each
    # of total at least 2, so none of its digits exceeds sum(v) / 2; the
    # largest sum comes last
    require(
        1 << (width - 1) > (ordered[-1][0] >> shift) // 2,
        "a fiber's generator counts overflow their digits",
    )
    guard = _guard(len(gens), width)
    moves: dict[int, list[tuple[int, int]]] = {}
    kept = []
    sums = []
    # kept[:flushed] have their moves in moves; the rest are of this degree
    degree = flushed = 0
    for key, group in itertools.groupby(ordered, operator.itemgetter(0)):
        if key >> shift > degree:
            degree = key >> shift
            for a, b, pa, pb in kept[flushed:]:
                moves.setdefault(a[0], []).append((pa, pb))
                moves.setdefault(b[0], []).append((pb, pa))
            flushed = len(kept)
        fiber = [
            (a, b, sum(map(units.__getitem__, a)), sum(map(units.__getitem__, b)))
            for _, a, b in group
        ]
        if len(fiber) == 1:
            # the sides of a candidate are disjoint, so pa != pb
            _, _, pa, pb = fiber[0]
            if moves and pb in _explore(moves, guard, width, pa, pb):
                continue
        else:
            fiber = _join(moves, guard, width, fiber)
        kept += fiber
        # the key's low fields hold the side sum, its last entry first
        sums += [_unpack(key, n)[::-1]] * len(fiber)
    names = [g.name for g in gens]
    relations = [
        Relation(
            lhs=tuple(map(names.__getitem__, a)),
            rhs=tuple(map(names.__getitem__, b)),
            provenance=first[a, b],
        )
        for a, b, _, _ in kept
    ]
    return relations, sums


# the reported relation_cap never drops below the oracle's
# RELATION_DEGREE_FLOOR, so a verify run checks at least that far
RELATION_CAP_FLOOR = 4


def presentation(sys_: MatchingSystem) -> Presentation:
    """Generators and a minimal relation set for the solution semigroup.

    Generators are the irreducible walk vectors plus one unit vector per
    free variable. Relations are the X- and H-configurations of the
    matching graph, taken in order of their side sums and dropped when the
    relations already kept imply them by congruence. relation_cap is the
    largest row count of a kept relation's side sum, at least
    RELATION_CAP_FLOOR.
    """
    graph = build_graph(sys_)
    best, arms, h_walks = _walks(graph)
    gens = _generators(graph, best)
    # each solid step of a walk raises two row counts, or one for an X
    # arm's first loop, and every row count stays at most 2: so an X arm or
    # an H walk has total at most 2m
    counts = _SideCounts(gens, _count_width(2 * sys_.m))
    seen: set[int] = set()
    cands = _x_candidates(graph, arms, counts, seen) + _h_candidates(
        graph, h_walks, counts, seen
    )
    # each |r| is as wide as the generator counts; pruning does not read them
    del seen
    relations, sums = _prune(cands, gens, counts)
    cap = max(
        [RELATION_CAP_FLOOR]
        + [sum(map(u.__getitem__, s)) for u in set(sums) for s in sys_.row_supports]
    )
    return Presentation(
        system=sys_,
        graph=graph,
        generators=gens,
        relations=relations,
        relation_cap=cap,
    )
