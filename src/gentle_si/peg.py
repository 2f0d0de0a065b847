"""Partition equivalence graphs over colored quivers.

The graph lives on labeled simple roots: one root per (vertex, color)
incidence pair and internal index 1..beta_x - 1. Two edge kinds connect
them, mirror pairs at a two-color vertex and index-reflected pairs along
each arrow of rank >= 2. A root has at most one edge of each kind, so
components are strings (paths with two endpoints), bands (alternating
cycles) and isolated roots, and each is found by one walk; the string
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
    the slack beta(x) - r(in) - r(out) at each incidence pair.

    Roots are numbered by their place in roots, which is sorted: root i at
    pair (x, s) is first[(x, s)] + i - 1. A root has at most one edge of
    each kind, so each kind is a partner array over the numbers, -1 where a
    root has no edge of it: vpart for the mirror pairs, cpart for the
    index-reflected pairs along arrows.
    """

    roots: tuple[Root, ...]
    vertex_edges: tuple[tuple[Root, Root], ...]
    colored_edges: tuple[tuple[Root, Root, str], ...]
    inc: dict[tuple[str, str], Incidence] = field(repr=False)
    slack: dict[tuple[str, str], int] = field(repr=False)
    first: dict[tuple[str, str], int] = field(repr=False)
    vpart: list[int] = field(repr=False)
    cpart: list[int] = field(repr=False)

    def _number(self, root) -> int:
        """The number of root, or InputError naming it if it is none."""
        if isinstance(root, tuple) and len(root) == 3 and type(root[2]) is int:
            k = self.first.get(root[:2], -len(self.roots)) + root[2] - 1
            if 0 <= k < len(self.roots) and self.roots[k] == root:
                return k
        raise InputError(f"{root} is not a root of the graph")

    def degree(self, root: Root) -> int:
        k = self._number(root)
        return (self.vpart[k] >= 0) + (self.cpart[k] >= 0)


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

    first: dict[tuple[str, str], int] = {}
    roots: list[Root] = []
    for (x, s) in inc:
        first[(x, s)] = len(roots)
        roots += [Root(x, s, i) for i in range(1, beta[x])]
    n = len(roots)

    # mirror pairs: (x, s1, i) <-> (x, s2, beta(x) - i)
    vpart = [-1] * n
    for x, colors in colors_at.items():
        if len(colors) == 2 and beta[x] > 1:
            f1, f2 = first[(x, colors[0])], first[(x, colors[1])]
            m = beta[x] - 1
            vpart[f1:f1 + m] = range(f2 + m - 1, f2 - 1, -1)
            vpart[f2:f2 + m] = range(f1 + m - 1, f1 - 1, -1)

    # index-reflected pairs: (tail, s, i) <-> (head, s, beta(head) - i), i < r(a)
    cpart = [-1] * n
    carrow: list[Optional[str]] = [None] * n
    for a in q.arrows:
        ra = r[a.name]
        if ra < 2:
            continue
        off = max(1, min(beta[a.tail], beta[a.head]))
        if off < ra:
            raise InvariantError(f"edge {a.name}:{off} off the root set")
        s = c.color(a.name)
        t = first[(a.tail, s)]
        h = first[(a.head, s)] + beta[a.head] - 2  # the head root of i = 1
        cpart[t:t + ra - 1] = range(h, h - ra + 1, -1)
        cpart[h - ra + 2:h + 1] = range(t + ra - 2, t - 1, -1)
        carrow[t:t + ra - 1] = carrow[h - ra + 2:h + 1] = [a.name] * (ra - 1)

    return PegGraph(
        roots=tuple(roots),
        vertex_edges=tuple(
            (roots[i], roots[j]) for i, j in enumerate(vpart) if j > i
        ),
        colored_edges=tuple(
            (roots[i], roots[j], carrow[i]) for i, j in enumerate(cpart) if j > i
        ),
        inc=inc,
        slack=slack,
        first=first,
        vpart=vpart,
        cpart=cpart,
    )


@dataclass
class PegComponent:
    kind: str  # "string", "band", "isolated"
    roots: tuple[Root, ...]
    endpoints: tuple[Root, ...]  # two walk ends for strings, empty otherwise
    numbers: tuple[int, ...] = field(repr=False, compare=False)  # of roots, in order


def _walk(
    graph: PegGraph, start: int, mirror: bool, seen: bytearray
) -> tuple[list[int], int]:
    """Roots from start, by a mirror edge first when mirror and then by
    alternate kinds, each marked seen, up to a root with no edge of the next
    kind or one already seen; that root is returned, -1 if none."""
    vpart, cpart = graph.vpart, graph.cpart
    walk = [start]
    seen[start] = 1
    nxt = vpart[start] if mirror else cpart[start]
    while nxt >= 0 and not seen[nxt]:
        seen[nxt] = 1
        walk.append(nxt)
        mirror = not mirror
        nxt = vpart[nxt] if mirror else cpart[nxt]
    return walk, nxt


def components(graph: PegGraph) -> list[PegComponent]:
    """Connected components in canonical order and orientation.

    Strings run from their smaller endpoint; bands start at their smallest
    root and continue toward its smaller neighbor, which realizes the
    minimum over even rotations and both directions; components are listed
    by smallest root.
    """
    roots, vpart, cpart = graph.roots, graph.vpart, graph.cpart
    n = len(roots)
    for part in (vpart, cpart):
        unpaired = part.count(-1)
        if len(set(part)) - (unpaired > 0) != n - unpaired:
            twice = min(j for j, k in Counter(part).items() if j >= 0 and k > 1)
            raise InvariantError(f"root {roots[twice]} has two edges of one kind")

    seen = bytearray(n)
    found = []
    for e in range(n):
        if seen[e] or (vpart[e] >= 0 and cpart[e] >= 0):
            continue
        if vpart[e] < 0 and cpart[e] < 0:
            seen[e] = 1
            found.append((e, PegComponent("isolated", (roots[e],), (), (e,))))
            continue
        walk, stop = _walk(graph, e, vpart[e] >= 0, seen)
        if stop >= 0:
            raise InvariantError(f"string component with ends {[roots[e]]}")
        path = tuple([roots[k] for k in walk])
        comp = PegComponent("string", path, (path[0], path[-1]), tuple(walk))
        found.append((min(walk), comp))
    start = seen.find(0)
    while start >= 0:
        walk, stop = _walk(graph, start, vpart[start] < cpart[start], seen)
        require(stop == start, "band root without a unique successor")
        require(
            len(walk) % 2 == 0 and len(walk) >= 4,
            f"band of odd or short length {len(walk)}",
        )
        comp = PegComponent("band", tuple([roots[k] for k in walk]), (), tuple(walk))
        found.append((start, comp))
        start = seen.find(0, start + 1)
    found.sort(key=lambda pair: pair[0])
    return [comp for _, comp in found]


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
    vpart, cpart = graph.vpart, graph.cpart
    out = []
    for k, root in enumerate(graph.roots):
        if vpart[k] >= 0 and cpart[k] >= 0:
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
    degree = graph.degree(root)
    if degree == 0:
        raise InputError(f"{root} is isolated, not on a string")
    if degree > 1:
        raise InputError(f"{root} is interior, not an endpoint")
    k = graph._number(root)
    walk, _ = _walk(graph, k, graph.vpart[k] >= 0, bytearray(len(graph.roots)))
    return graph.roots[walk[-1]]


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
