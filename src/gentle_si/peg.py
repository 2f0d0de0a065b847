"""Partition equivalence graphs over colored quivers.

The graph lives on labeled simple roots: one root per (vertex, color)
incidence pair and internal index 1..beta_x - 1. Two edge kinds connect
them, mirror pairs at a two-color vertex and index-reflected pairs along
each arrow of rank >= 2. Components decompose into strings (paths with two
endpoints), bands (alternating cycles) and isolated roots; the string
endpoints carry the coefficient data that turns the graph into a matching
system over the rank-positive arrows.

Lonely-vertex roots are forced to value zero in any semi-invariant weight.
For roots on strings this is automatic (their endpoints carry empty
coefficient sets), but an isolated root at a boundary index still pins its
arrow values, so those emit equations with an empty right side.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .errors import InputError, InvariantError, require
from .matching import MatchingSystem, make_system
from .quivers import Coloring, Incidence, Quiver
from .ranks import _slack


class Root(NamedTuple):
    """Labeled simple root alpha_index at (vertex, color).

    A plain tuple, so roots hash, compare and sort as (vertex, color, index).
    The field index shadows tuple.index; nothing calls that method on a root.
    """

    vertex: str
    color: str
    index: int

    def __repr__(self):
        return f"Root({self.vertex},{self.color},{self.index})"


@dataclass
class PegGraph:
    """The root graph, with the color incidence its roots are read from and
    the slack beta(x) - r(in) - r(out) at each incidence pair."""

    roots: tuple[Root, ...]
    vertex_edges: tuple[tuple[Root, Root], ...]
    colored_edges: tuple[tuple[Root, Root, str], ...]
    inc: dict[tuple[str, str], Incidence] = field(repr=False)
    slack: dict[tuple[str, str], int] = field(repr=False)
    _adj: dict[Root, list[tuple[Root, str, Optional[str]]]] = field(repr=False)

    def neighbors(self, root: Root) -> list[tuple[Root, str, Optional[str]]]:
        """(other root, edge kind, arrow id or None) pairs, sorted."""
        return self._adj[root]

    def degree(self, root: Root) -> int:
        return len(self._adj[root])


def build_peg(
    q: Quiver, c: Coloring, beta: dict[str, int], r: dict[str, int]
) -> PegGraph:
    inc, slack = _slack(q, c, beta, r)
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
            roots.append(Root(x, s, i))
    root_set = set(roots)

    vertex_edges = set()
    for x, colors in colors_at.items():
        if len(colors) != 2:
            continue
        s1, s2 = colors
        for i in range(1, beta[x]):
            pair = tuple(sorted([Root(x, s1, i), Root(x, s2, beta[x] - i)]))
            vertex_edges.add(pair)

    colored_edges = set()
    for a in q.arrows:
        s = c.color(a.name)
        for i in range(1, r[a.name]):
            u = Root(a.tail, s, i)
            w = Root(a.head, s, beta[a.head] - i)
            if u not in root_set or w not in root_set:
                raise InvariantError(f"edge {a.name}:{i} off the root set")
            lo, hi = sorted([u, w])
            colored_edges.add((lo, hi, a.name))

    adj: dict[Root, list[tuple[Root, str, Optional[str]]]] = {rt: [] for rt in roots}
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
    return PegGraph(
        roots=tuple(roots),
        vertex_edges=tuple(sorted(vertex_edges)),
        colored_edges=tuple(sorted(colored_edges)),
        inc=inc,
        slack=slack,
        _adj=adj,
    )


@dataclass
class PegComponent:
    kind: str  # "string", "band", "isolated"
    roots: tuple[Root, ...]
    endpoints: tuple[Root, ...]  # two walk ends for strings, empty otherwise


def _walk_string(graph: PegGraph, start: Root) -> list[Root]:
    walk = [start]
    prev = None
    while True:
        nxt = [n for n, _, _ in graph.neighbors(walk[-1]) if n != prev]
        if not nxt:
            return walk
        prev = walk[-1]
        walk.append(nxt[0])


def components(graph: PegGraph) -> list[PegComponent]:
    """Connected components in canonical order and orientation.

    Strings run from their smaller endpoint; bands start at their smallest
    root and continue toward its smaller neighbor, which realizes the
    minimum over even rotations and both directions; components are listed
    by smallest root.
    """
    seen: set[Root] = set()
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
            out.append(PegComponent("isolated", (root,), ()))
            continue
        if ends:
            if len(ends) != 2:
                raise InvariantError(f"string component with ends {ends}")
            walk = _walk_string(graph, ends[0])
            require(walk[-1] == ends[1], "string walk misses its second end")
            out.append(PegComponent("string", tuple(walk), (walk[0], walk[-1])))
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
            out.append(PegComponent("band", tuple(walk), ()))
    out.sort(key=lambda cp: min(cp.roots))
    return out


@dataclass(frozen=True)
class Endpoint:
    """A degree <= 1 root with its boundary class and coefficient arrows.

    cls is Ia/Ib/Ic/Id at a two-color vertex and IIa/IIb/IIc/IId at a
    one-color vertex; phi lists the arrows whose values the root reads off,
    ordered (out, in) when both are present.
    """

    root: Root
    cls: str
    phi: tuple[str, ...]


def classify_endpoints(
    graph: PegGraph, beta: dict[str, int], r: dict[str, int]
) -> list[Endpoint]:
    ncolors = Counter(x for x, _ in graph.inc)
    out = []
    for root in graph.roots:
        if graph.degree(root) > 1:
            continue
        pair = graph.inc[(root.vertex, root.color)]
        ro = r[pair.out_arrow] if pair.out_arrow else 0
        ri = r[pair.in_arrow] if pair.in_arrow else 0
        bx = beta[root.vertex]
        if root.index == ro and ro + ri == bx:
            sub, phi = "a", (pair.out_arrow, pair.in_arrow)
        elif root.index == ro:
            sub, phi = "b", (pair.out_arrow,)
        elif root.index == bx - ri:
            sub, phi = "c", (pair.in_arrow,)
        else:
            sub, phi = "d", ()
        prefix = "I" if ncolors[root.vertex] == 2 else "II"
        out.append(Endpoint(root, prefix + sub, phi))
    return out


def theta(graph: PegGraph, root) -> Root:
    """The opposite endpoint of the string through root."""
    if isinstance(root, Endpoint):
        root = root.root
    if graph.degree(root) == 0:
        raise InputError(f"{root} is isolated, not on a string")
    if graph.degree(root) > 1:
        raise InputError(f"{root} is interior, not an endpoint")
    return _walk_string(graph, root)[-1]


@dataclass
class MatchingSystemExtract:
    """The extracted system with the components and endpoints it was read from."""

    system: MatchingSystem
    string_index: dict[int, tuple[Endpoint, Endpoint]]
    forced_index: dict[int, Endpoint]
    free_arrows: tuple[str, ...]
    band_index: tuple[PegComponent, ...]
    components: list[PegComponent]
    endpoint_of: dict[Root, Endpoint]


def extract_matching_system(
    graph: PegGraph, q: Quiver, beta: dict[str, int], r: dict[str, int]
) -> MatchingSystemExtract:
    """One equation per string (and per forced isolated root), reduced.

    Variables are the rank-positive arrows in sorted order. A shared arrow
    on both sides of an equation is cancelled; 0 = 0 equations are dropped.
    """
    comps = components(graph)
    endpoint_of = {ep.root: ep for ep in classify_endpoints(graph, beta, r)}
    var_names = sorted(a for a in q.arrow_names() if r[a] > 0)
    equations = []
    string_index: dict[int, tuple[Endpoint, Endpoint]] = {}
    forced_index: dict[int, Endpoint] = {}
    bands = []
    for comp in comps:
        if comp.kind == "band":
            bands.append(comp)
            continue
        if comp.kind == "isolated":
            ep = endpoint_of[comp.roots[0]]
            if ep.phi:
                forced_index[len(equations)] = ep
                equations.append((ep.phi, ()))
            continue
        e1, e2 = endpoint_of[comp.endpoints[0]], endpoint_of[comp.endpoints[1]]
        lhs = [a for a in e1.phi if a not in e2.phi]
        rhs = [a for a in e2.phi if a not in e1.phi]
        if not lhs and not rhs:
            continue
        string_index[len(equations)] = (e1, e2)
        equations.append((tuple(lhs), tuple(rhs)))
    try:
        system = make_system(equations, var_names=var_names)
    except InputError as e:
        # the equations come from a validated quiver, so this is an extractor bug
        raise InvariantError(f"extracted system is invalid: {e}") from e
    used = {a for lhs, rhs in equations for a in lhs + rhs}
    free = tuple(a for a in var_names if a not in used)
    return MatchingSystemExtract(
        system=system,
        string_index=string_index,
        forced_index=forced_index,
        free_arrows=free,
        band_index=tuple(bands),
        components=comps,
        endpoint_of=endpoint_of,
    )


def export_dot(graph: PegGraph) -> str:
    """DOT text with vertex edges solid and colored edges dashed."""

    def ident(rt: Root) -> str:
        return f'"{rt.vertex}|{rt.color}|{rt.index}"'

    lines = ["digraph peg {", "  edge [dir=none];"]
    for rt in sorted(graph.roots):
        lines.append(f'  {ident(rt)} [label="({rt.vertex},{rt.color}) {rt.index}"];')
    for u, w in graph.vertex_edges:
        lines.append(f"  {ident(u)} -> {ident(w)};")
    for u, w, a in graph.colored_edges:
        lines.append(f'  {ident(u)} -> {ident(w)} [style=dashed, label="{a}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
