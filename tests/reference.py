"""Brute-force references for the tests, beside the referee in gentle_si.oracle.

The package keeps what `verify` runs: the Contejean-Devie completion, the
fiber pass and the class join. These routines recompute the same answers a
slower way, from first principles, reading only the equations: points by a
box scan, generators by subtracting points inside the box, decompositions
and relation congruence by search, relations by joining every fiber's
classes, and the engine's relation pruning by one search per candidate.
Each walk vector's best walk is chosen from every string and band walked
in both directions.
The tests wire them against the referee and the engine. The samplers
draw random colored quivers, and rank components that reach the
relation path; disjoint_copies repeats a component k times. The quiver
side's partition maps and vertex equations are written out part by part,
padded to the rank and to beta, and the root graph is built as a general
graph, with a search per component. Nothing here imports the engine it
is compared with.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from gentle_si.errors import InputError, InvariantError, require
from gentle_si.matching import MatchingSystem
from gentle_si.oracle import (
    _classes,
    _counting_bound_checked,
    _madd,
    _msub,
    _vector_sum,
    fibers,
)
from gentle_si.quivers import Arrow, Coloring, Quiver, color_incidence


# ---------------------------------------------------------------------------
# the box scan


def enumerate_points(sys_: MatchingSystem, cap: int) -> list[tuple[int, ...]]:
    """All solutions with coordinates at most cap, in lexicographic order.

    Walks the box depth first keeping running side counts, so each step
    touches only the rows of one variable.
    """
    if cap < 0:
        raise InputError("cap must be nonnegative")
    l = sys_.num_vars
    m = sys_.m
    cols = [sys_.column_rows(j) for j in range(l)]
    prof = [0] * (2 * m)
    u = [0] * l
    out: list[tuple[int, ...]] = []

    def rec(j: int) -> None:
        if j == l:
            for k in range(m):
                if prof[k] != prof[m + k]:
                    return
            out.append(tuple(u))
            return
        for val in range(cap + 1):
            u[j] = val
            for r in cols[j]:
                prof[r] += val
            rec(j + 1)
            for r in cols[j]:
                prof[r] -= val
        u[j] = 0

    rec(0)
    # rec reaches itself through its closure; dropping the name breaks that
    # cycle, so out is freed with its last user instead of at the next full
    # garbage collection
    del rec
    return out


def minimal_generators_bruteforce(
    sys_: MatchingSystem, cap: int = 3
) -> list[tuple[int, ...]]:
    """Points that are not sums of two nonzero solutions: the box-scan
    reference for hilbert_basis.

    Inside the box this test is exact, because both parts of any split are
    coordinatewise below the point being split. Requires cap >= 2 so that
    splits of small points stay visible. The counting bound (no side of any
    equation above 2, no coordinate above 2) is asserted on the result.
    """
    if cap < 2:
        raise InputError("generator search needs cap >= 2")
    pts = enumerate_points(sys_, cap)
    zero = tuple([0] * sys_.num_vars)
    ptset = set(pts)
    nonzero = [p for p in pts if p != zero]
    nonzero.sort(key=lambda p: (sum(p), p))
    gens = []
    for u in nonzero:
        total = sum(u)
        reducible = False
        for v in nonzero:
            if sum(v) >= total:
                break
            if all(vj <= uj for vj, uj in zip(v, u)):
                rest = tuple(uj - vj for uj, vj in zip(u, v))
                if rest != zero and rest in ptset:
                    reducible = True
                    break
        if not reducible:
            gens.append(u)
    return _counting_bound_checked(sys_, gens)


# ---------------------------------------------------------------------------
# decompositions and relations by search


def _cancel_common(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    rest_b = list(b)
    lhs = []
    for i in a:
        if i in rest_b:
            rest_b.remove(i)
        else:
            lhs.append(i)
    return tuple(lhs), tuple(rest_b)


def _orient(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (a, b) if (len(a), a) <= (len(b), b) else (b, a)


def decompositions(
    gens: Sequence[tuple[int, ...]], v: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """All multisets of generator indices with the given sum, sorted."""
    gens = [tuple(g) for g in gens]
    out: list[tuple[int, ...]] = []
    acc: list[int] = []

    def rec(rem: tuple[int, ...], start: int) -> None:
        if not any(rem):
            out.append(tuple(acc))
            return
        for i in range(start, len(gens)):
            g = gens[i]
            if all(rj >= gj for rj, gj in zip(rem, g)):
                acc.append(i)
                rec(tuple(rj - gj for rj, gj in zip(rem, g)), i)
                acc.pop()

    rec(tuple(v), 0)
    # as in enumerate_points: rec reaches itself through its closure
    del rec
    return sorted(out)


def congruent(
    gens: Sequence[tuple[int, ...]],
    relations: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
    a: tuple[int, ...],
    b: tuple[int, ...],
) -> bool:
    """Whether the relation moves connect the two generator multisets.

    A move replaces an embedded relation side by the opposite side; the sum
    vector never changes, so the search space is the finite decomposition
    fiber and plain breadth-first search decides the question exactly.
    """
    a = tuple(sorted(a))
    b = tuple(sorted(b))
    if a == b:
        return True
    if _vector_sum(gens, a) != _vector_sum(gens, b):
        return False
    seen = {a}
    frontier = [a]
    while frontier:
        nxt = []
        for m in frontier:
            for lhs, rhs in relations:
                for src, dst in ((lhs, rhs), (rhs, lhs)):
                    rest = _msub(m, src)
                    if rest is None:
                        continue
                    m2 = _madd(rest, dst)
                    if m2 == b:
                        return True
                    if m2 not in seen:
                        seen.add(m2)
                        nxt.append(m2)
        frontier = nxt
    return False


def toric_relations_bruteforce(
    gens: Sequence[tuple[int, ...]],
    degree_cap: int,
    system: MatchingSystem,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A minimal list of binomial relations among the generators.

    Sums are processed small to large; whenever a decomposition fiber is
    still disconnected under the relations found so far, the two smallest
    multisets in different classes are joined (common generators cancelled,
    shorter side first). The result generates the congruence of equal sums
    restricted to the bounded region, and no listed relation follows from
    the ones before it.
    """
    gens = [tuple(g) for g in gens]
    relations: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for _, decs in fibers(gens, degree_cap, system):
        while True:
            classes = _classes(decs, relations)
            if len(classes) == 1:
                break
            a = classes[0][0]
            b = classes[1][0]
            lhs, rhs = _cancel_common(a, b)
            require(bool(lhs) and bool(rhs), "trivial relation reached the fiber join")
            relations.append(_orient(lhs, rhs))
    return relations


def _reaches(moves, guard, width, start, target) -> tuple[bool, int]:
    """Whether the moves rewrite packed counts start into target, and the
    number of states the search visits, start included and target too
    when it is met.

    moves maps a generator index to the (src, dst) moves whose source's
    lowest generator it is, so a state only tries the moves of the
    generators read off its nonzero digits. A move applies where src fits
    inside the state, one guarded subtraction.
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
                        if t == target:
                            return True, len(seen) + 1
                        if t not in seen:
                            seen.add(t)
                            nxt.append(t)
        frontier = nxt
    return False, len(seen)


def greedy_prune(cands, gens, width: int):
    """The relations kept greedily, with one search per candidate.

    cands are ((a, b), provenance) pairs, a and b sorted tuples of
    generator indices into gens, which have a name and a vector. A
    relation formed more than once keeps its first provenance. The
    distinct relations are taken in order of (total, vector) of their side
    sums, and one is dropped when the moves of those kept before it, each
    in both directions, rewrite its one side into its other. A side is
    held as generator counts packed into one int, one base-2^width digit
    per generator index. Returns the kept relations as (lhs names, rhs
    names, provenance), their side sums, and the number of states the
    searches visit.
    """
    first: dict[tuple, str] = {}
    for rel, prov in cands:
        first.setdefault(rel, prov)
    ordered = []
    for a, b in first:
        v = tuple(map(sum, zip(*(gens[i].vector for i in a))))
        ordered.append((sum(v), v, (a, b)))
    ordered.sort()
    guard = sum(1 << (width * i + width - 1) for i in range(len(gens)))
    moves: dict[int, list[tuple[int, int]]] = {}
    kept, sums, visited = [], [], 0
    for _, v, (a, b) in ordered:
        pa = sum(1 << (width * i) for i in a)
        pb = sum(1 << (width * i) for i in b)
        found, states = _reaches(moves, guard, width, pa, pb)
        visited += states
        if found:
            continue
        moves.setdefault(a[0], []).append((pa, pb))
        moves.setdefault(b[0], []).append((pb, pa))
        lhs = tuple(gens[i].name for i in a)
        rhs = tuple(gens[i].name for i in b)
        kept.append((lhs, rhs, first[a, b]))
        sums.append(v)
    return kept, sums, visited


# ---------------------------------------------------------------------------
# best walks, every string and band walked in both directions

DOTTED = -1  # the edge entry of a dotted step, as the engine writes it


def best_walks_both_directions(graph) -> dict[tuple[int, ...], tuple]:
    """Each walk vector's best walk, as (kind, vertices, edges): of its
    walks with the fewest edges, the one of smallest canonical tokens, in
    its canonical orientation.

    graph is a matching graph: vertex v of 1..2m is dotted-matched to
    v + m or v - m, and each solid edge has a .var and .ends, (v,) for a
    loop. Strings are walked from each loop, and closed at every loop of
    every end reached; bands are walked from every vertex x along every
    solid edge at x, and closed at every return to x. So each string and
    band is walked in both directions, and each band from every solid
    edge. A solid edge counts once at each end and a loop once at its
    vertex, and no row count passes 2. A walk's tokens are its first
    vertex, then each step's variable (or DOTTED) and vertex; its
    orientations are its two directions, each band rotated to start at
    each of its solid edges.
    """
    m, solid = graph.m, graph.solid_edges
    steps: dict[int, list[tuple[int, int]]] = {}
    loops: dict[int, list[int]] = {}
    for eid, e in enumerate(solid):
        if len(e.ends) == 1:
            loops.setdefault(e.ends[0], []).append(eid)
        else:
            p, q = e.ends
            steps.setdefault(p, []).append((eid, q))
            steps.setdefault(q, []).append((eid, p))

    def tokens(vertices, edges):
        out = [vertices[0]]
        for e, v in zip(edges, vertices[1:]):
            out += [DOTTED if e == DOTTED else solid[e].var, v]
        return tuple(out)

    def orientations(kind, vertices, edges):
        both = [(vertices, edges), (vertices[::-1], edges[::-1])]
        if kind == "string":
            return both
        return [
            (vv[i:-1] + vv[:i] + (vv[i],), ee[i:] + ee[:i])
            for vv, ee in both
            for i in range(len(ee))
            if ee[i] != DOTTED
        ]

    found: dict[tuple[int, ...], tuple] = {}

    def offer(kind, vertices, edges):
        u = [0] * graph.system.num_vars
        for e in edges:
            if e != DOTTED:
                u[solid[e].var] += 1
        key, vv, ee = min(
            (tokens(vv, ee), vv, ee)
            for vv, ee in orientations(kind, tuple(vertices), tuple(edges))
        )
        rank = (len(edges), key, kind, vv, ee)
        if tuple(u) not in found or rank < found[tuple(u)]:
            found[tuple(u)] = rank

    count = Counter()

    def extend(verts, edges, visit):
        w = verts[-1] + m if verts[-1] <= m else verts[-1] - m
        verts.append(w)
        edges.append(DOTTED)
        visit(verts, edges)
        for eid, z in steps.get(w, ()):
            if count[w] < 2 and count[z] < 2:
                count[w] += 1
                count[z] += 1
                extend(verts + [z], edges + [eid], visit)
                count[w] -= 1
                count[z] -= 1
        verts.pop()
        edges.pop()

    def close_string(verts, edges):
        w = verts[-1]
        if count[w] < 2:
            for lid in loops.get(w, ()):
                offer("string", verts + [w], edges + [lid])

    for v0, lids in loops.items():
        for lid in lids:
            count[v0] += 1
            extend([v0, v0], [lid], close_string)
            count[v0] -= 1
    for x in range(1, 2 * m + 1):

        def close_band(verts, edges, x=x):
            if verts[-1] == x and len(edges) >= 5:
                offer("band", verts[1:], edges[1:])

        extend([x + m if x <= m else x - m], [], close_band)
    return {u: (kind, vv, ee) for u, (_, _, kind, vv, ee) in found.items()}


# ---------------------------------------------------------------------------
# random quivers and rank components


def random_colored_quiver(
    rng: random.Random, max_vertices: int = 6, max_colors: int = 3
) -> tuple[Quiver, Coloring]:
    """A small acyclic quiver whose arrows are grouped into directed paths.

    Each color class is built as an increasing run through a fixed vertex
    order, which makes the coloring valid by construction. Parallel arrows
    and shared vertices between colors are allowed.
    """
    n = rng.randint(1, max_vertices)
    vertices = [str(i) for i in range(1, n + 1)]
    arrows: list[Arrow] = []
    color_of: dict[str, str] = {}
    ncolors = rng.randint(0, max_colors)
    color = 0
    for _ in range(ncolors):
        if n < 2:
            break
        # strictly increasing vertex run, so the class is automatically a path
        start = rng.randrange(1, n)
        run = [start]
        cur = start
        while cur < n and rng.random() < 0.6:
            cur += rng.randint(1, min(2, n - cur))
            run.append(cur)
        if len(run) < 2:
            run.append(start + 1)
        color += 1
        cid = str(color)
        for a, b in zip(run, run[1:]):
            name = f"a{len(arrows) + 1}"
            arrows.append(Arrow(name, str(a), str(b)))
            color_of[name] = cid
    return Quiver(vertices, arrows), Coloring(color_of)


def random_tight_component(
    rng: random.Random,
) -> tuple[Quiver, Coloring, dict[str, int], dict[str, int]]:
    """(quiver, coloring, beta, r) with the colors tight where they meet.

    The quiver is random_colored_quiver(rng, 6, 3). Ranks are drawn first,
    from 1..3; beta at each vertex is then the largest r(in) + r(out) over
    the colors there, 0 where no arrow touches it, so the heaviest colors
    through a vertex are tight. Tight hubs where two colors meet give
    strings between class-a endpoints, and so equations with two variables
    a side, which is what relations need. The draw need not be gentle, nor
    r maximal for beta; callers keep the draws that are.
    """
    q, c = random_colored_quiver(rng, 6, 3)
    r = {a: rng.randint(1, 3) for a in q.arrow_names()}
    beta = dict.fromkeys(q.vertices, 0)
    for (x, _), pair in color_incidence(q, c).items():
        n = r.get(pair.in_arrow, 0) + r.get(pair.out_arrow, 0)
        beta[x] = max(beta[x], n)
    return q, c, beta, r


def disjoint_copies(
    q: Quiver, c: Coloring, beta: dict[str, int], r: dict[str, int], k: int
) -> tuple[Quiver, Coloring, dict[str, int], dict[str, int]]:
    """k disjoint copies of a rank component. Copy i renames each vertex,
    arrow and color x to x.i, so an arrow's copy is the text after its
    last dot."""
    vertices = [f"{x}.{i}" for i in range(k) for x in q.vertices]
    arrows = [
        Arrow(f"{a.name}.{i}", f"{a.tail}.{i}", f"{a.head}.{i}")
        for i in range(k)
        for a in q.arrows
    ]
    colors = {
        f"{a.name}.{i}": f"{c.color(a.name)}.{i}" for i in range(k) for a in q.arrows
    }
    return (
        Quiver(vertices, arrows),
        Coloring(colors),
        {f"{x}.{i}": n for i in range(k) for x, n in beta.items()},
        {f"{a}.{i}": n for i in range(k) for a, n in r.items()},
    )


# ---------------------------------------------------------------------------
# rank sequences by a joint box scan


def maximal_rank_sequences_bruteforce(
    q: Quiver, c: Coloring, beta: dict[str, int]
) -> list[dict[str, int]]:
    """Maximal rank sequences by scanning the joint box over all arrows.

    The admissibility test is rebuilt here from the quiver directly, and the
    enumeration runs over all arrows at once instead of per color, so this
    is a genuinely different route from the per-color product.
    """
    names = sorted(q.arrow_names())
    bounds = {}
    for n in names:
        a = q.arrow(n)
        bounds[n] = min(beta[a.tail], beta[a.head])

    def admissible(r: dict[str, int]) -> bool:
        for v in q.vertices:
            for a_in in q.incoming(v):
                for a_out in q.outgoing(v):
                    if c.color(a_in.name) != c.color(a_out.name):
                        continue
                    if r[a_in.name] + r[a_out.name] > beta[v]:
                        return False
            for a_in in q.incoming(v):
                if r[a_in.name] > beta[v]:
                    return False
            for a_out in q.outgoing(v):
                if r[a_out.name] > beta[v]:
                    return False
        return True

    points = []
    for combo in itertools.product(*(range(bounds[n] + 1) for n in names)):
        r = dict(zip(names, combo))
        if admissible(r):
            points.append(combo)
    maximal = []
    for p in points:
        dominated = any(
            p != other and all(x <= y for x, y in zip(p, other)) for other in points
        )
        if not dominated:
            maximal.append(p)
    maximal.sort()
    return [dict(zip(names, pt)) for pt in maximal]


# ---------------------------------------------------------------------------
# partition maps part by part


def dense_component_values(ctx, u: Sequence[int], y: Sequence[int]) -> list[int]:
    """Jump value of (u, y) on each component of a PegContext, every
    component listed: strings read u through ctx.readers, bands read y."""
    vals = [0] * len(ctx.extract.components)
    for idx, v in zip(ctx.band_slots, y):
        vals[idx] = v
    for uj, comps in zip(u, ctx.readers):
        if uj:
            for idx in comps:
                vals[idx] += uj
    return vals


def dense_partitions(
    ctx, u: Sequence[int], vals: Sequence[int]
) -> dict[str, tuple[int, ...]]:
    """The partition map of (u, y) built part by part, r(a) parts at each
    arrow: the bottom part is u(a), and part i adds to part i+1 the jump
    of the component through a's tail-side root at height i."""
    lam = {}
    for a in ctx.q.arrow_names():
        if ctx.r[a] == 0:
            lam[a] = ()
            continue
        acc = u[ctx.var_pos[a]]
        parts = [acc]
        for idx in reversed(ctx.arrow_comps[a]):
            acc += vals[idx]
            parts.append(acc)
        lam[a] = tuple(reversed(parts))
    return lam


def _incidence_vector(lam, pair, bx: int, x: str) -> list[int]:
    out_parts = list(lam[pair.out_arrow]) if pair.out_arrow else []
    in_parts = list(lam[pair.in_arrow]) if pair.in_arrow else []
    if len(out_parts) + len(in_parts) > bx:
        raise InputError(f"partition parts exceed the dimension at vertex {x}")
    pad = bx - len(out_parts) - len(in_parts)
    return out_parts + [0] * pad + [-p for p in reversed(in_parts)]


def dense_membership(
    lam: dict[str, tuple[int, ...]],
    q: Quiver,
    c: Coloring,
    beta: dict[str, int],
) -> tuple[bool, Optional[dict[str, int]], Optional[tuple[str, int]]]:
    """(ok, sigma, witness) of the vertex equations, on incidence vectors
    padded with zeros to beta: sigma on success, else the first bad
    (vertex, entry), vertices in sorted order and entries upward."""
    at: dict[str, list] = {}
    for (x, _), pair in color_incidence(q, c).items():
        at.setdefault(x, []).append(pair)
    sigma = {}
    for x in sorted(q.vertices):
        pairs = at.get(x, [])
        bx = beta[x]
        if not pairs or bx == 0:
            sigma[x] = 0
            continue
        vecs = [_incidence_vector(lam, pair, bx, x) for pair in pairs]
        if len(vecs) == 1:
            sums = vecs[0]
        elif len(vecs) == 2:
            sums = [p + q for p, q in zip(vecs[0], reversed(vecs[1]))]
        else:
            raise InputError(f"vertex {x} carries more than two colors")
        sig = sums[0]
        if sums.count(sig) != bx:
            i = next(i for i, s in enumerate(sums) if s != sig)
            return False, None, (x, i + 1)
        sigma[x] = sig
    return True, sigma, None


# ---------------------------------------------------------------------------
# the root graph as a general graph


@dataclass
class ReferencePeg:
    """The root graph on (vertex, color, index) tuples, with the color
    incidence and a sorted (other root, edge kind, arrow id or None) list
    at each root."""

    roots: tuple
    vertex_edges: tuple
    colored_edges: tuple
    inc: dict
    adj: dict

    def neighbors(self, root):
        return self.adj[root]

    def degree(self, root) -> int:
        return len(self.adj[root])


def reference_peg(q: Quiver, c: Coloring, beta: dict, r: dict) -> ReferencePeg:
    """The root graph from Root-keyed sets, an adjacency dict and a sort at
    each root, with the same checks and messages as the engine."""
    inc = color_incidence(q, c)
    slack = {
        (x, s): beta[x] - r.get(pair.in_arrow, 0) - r.get(pair.out_arrow, 0)
        for (x, s), pair in inc.items()
    }
    bad = [key for key, room in slack.items() if room < 0]
    if bad:
        raise InputError(f"not a rank sequence, violations at {bad}")
    colors_at: dict[str, list[str]] = {v: [] for v in q.vertices}
    for x, s in inc:
        colors_at[x].append(s)
    for v, colors in colors_at.items():
        if len(colors) > 2:
            raise InputError(f"vertex {v} carries {len(colors)} colors")

    roots = []
    for (x, s) in inc:
        for i in range(1, beta[x]):
            roots.append((x, s, i))
    root_set = set(roots)

    vertex_edges = set()
    for x, colors in colors_at.items():
        if len(colors) != 2:
            continue
        s1, s2 = colors
        for i in range(1, beta[x]):
            pair = tuple(sorted([(x, s1, i), (x, s2, beta[x] - i)]))
            vertex_edges.add(pair)

    colored_edges = set()
    for a in q.arrows:
        s = c.color(a.name)
        for i in range(1, r[a.name]):
            u = (a.tail, s, i)
            w = (a.head, s, beta[a.head] - i)
            if u not in root_set or w not in root_set:
                raise InvariantError(f"edge {a.name}:{i} off the root set")
            lo, hi = sorted([u, w])
            colored_edges.add((lo, hi, a.name))

    adj: dict = {rt: [] for rt in roots}
    for u, w in vertex_edges:
        adj[u].append((w, "vertex", None))
        adj[w].append((u, "vertex", None))
    for u, w, a in colored_edges:
        adj[u].append((w, "colored", a))
        adj[w].append((u, "colored", a))
    for rt, nbrs in adj.items():
        kinds = [k for _, k, _ in nbrs]
        if kinds.count("vertex") > 1 or kinds.count("colored") > 1:
            raise InvariantError(f"root {rt} has two edges of one kind")
        nbrs.sort()
    return ReferencePeg(
        roots=tuple(roots),
        vertex_edges=tuple(sorted(vertex_edges)),
        colored_edges=tuple(sorted(colored_edges)),
        inc=inc,
        adj=adj,
    )


def _walk_string(graph: ReferencePeg, start) -> list:
    walk = [start]
    prev = None
    while True:
        nxt = [n for n, _, _ in graph.neighbors(walk[-1]) if n != prev]
        if not nxt:
            return walk
        prev = walk[-1]
        walk.append(nxt[0])


def reference_components(graph: ReferencePeg) -> list[tuple]:
    """(kind, roots, endpoints) per component, from a search per component:
    strings run from their smaller endpoint, bands from their smallest root
    toward its smaller neighbor, components by smallest root."""
    seen: set = set()
    out = []
    for root in graph.roots:
        if root in seen:
            continue
        comp = {root}
        frontier = [root]
        while frontier:
            cur = frontier.pop()
            for n, _, _ in graph.neighbors(cur):
                if n not in comp:
                    comp.add(n)
                    frontier.append(n)
        seen |= comp
        ends = sorted(rt for rt in comp if graph.degree(rt) <= 1)
        if len(comp) == 1 and not graph.degree(root):
            out.append(("isolated", (root,), ()))
            continue
        if ends:
            if len(ends) != 2:
                raise InvariantError(f"string component with ends {ends}")
            walk = _walk_string(graph, ends[0])
            require(walk[-1] == ends[1], "string walk misses its second end")
            out.append(("string", tuple(walk), (walk[0], walk[-1])))
        else:
            start = min(comp)
            second = min(n for n, _, _ in graph.neighbors(start))
            walk = [start, second]
            while True:
                nxt = [n for n, _, _ in graph.neighbors(walk[-1]) if n != walk[-2]]
                require(len(nxt) == 1, "band root without a unique successor")
                if nxt[0] == start:
                    break
                walk.append(nxt[0])
            require(
                len(walk) % 2 == 0 and len(walk) >= 4,
                f"band of odd or short length {len(walk)}",
            )
            out.append(("band", tuple(walk), ()))
    out.sort(key=lambda cp: min(cp[1]))
    return out


def reference_endpoints(graph: ReferencePeg, beta: dict, r: dict) -> list[tuple]:
    """(root, class, phi) for each root of degree at most one, in root order."""
    ncolors = Counter(x for x, _ in graph.inc)
    out = []
    for root in graph.roots:
        if graph.degree(root) > 1:
            continue
        x, s, i = root
        pair = graph.inc[(x, s)]
        ro = r[pair.out_arrow] if pair.out_arrow else 0
        ri = r[pair.in_arrow] if pair.in_arrow else 0
        if i == ro and ro + ri == beta[x]:
            sub, phi = "a", (pair.out_arrow, pair.in_arrow)
        elif i == ro:
            sub, phi = "b", (pair.out_arrow,)
        elif i == beta[x] - ri:
            sub, phi = "c", (pair.in_arrow,)
        else:
            sub, phi = "d", ()
        prefix = "I" if ncolors[x] == 2 else "II"
        out.append((root, prefix + sub, phi))
    return out
