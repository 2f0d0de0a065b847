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

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
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


# Root from a (vertex, color, index) tuple, without NamedTuple's Python-level __new__
_new_root = partial(tuple.__new__, Root)


@dataclass(repr=False)
class PegGraph:
    """The root graph, with the color incidence its roots are read from and
    the slack beta(x) - r(in) - r(out) at each incidence pair.

    Roots are numbered in sorted order: root i at pair (x, s) is
    first[(x, s)] + i - 1, and a pair's roots run up to the next pair's
    first number. A root has at most one edge of each kind, so each kind is
    a partner array over the numbers, -1 where a root has no edge of it:
    vpart for the mirror pairs, cpart for the index-reflected pairs along
    arrows, with carrow the arrow of each root's cpart edge. The pipeline
    reads numbers only; roots, vertex_edges and colored_edges give the same
    graph as Roots and are built on first read. So are the pair blocks and
    the roots of degree <= 1, which components, classify_endpoints and roots
    share: each is built once per graph, on the partner arrays as they are
    at that first read.
    """

    inc: dict[tuple[str, str], Incidence]
    slack: dict[tuple[str, str], int]
    first: dict[tuple[str, str], int]
    vpart: list[int]
    cpart: list[int]
    carrow: list[Optional[str]]

    @cached_property
    def roots(self) -> tuple[Root, ...]:
        """Every root, sorted, so that roots[k] has number k."""
        return tuple(
            _new_root((x, s, i))
            for x, s, f, end in self._blocks
            for i in range(1, end - f + 1)
        )

    @cached_property
    def vertex_edges(self) -> tuple[tuple[Root, Root], ...]:
        roots = self.roots
        return tuple((roots[i], roots[j]) for i, j in enumerate(self.vpart) if j > i)

    @cached_property
    def colored_edges(self) -> tuple[tuple[Root, Root, str], ...]:
        roots, carrow = self.roots, self.carrow
        return tuple(
            (roots[i], roots[j], carrow[i]) for i, j in enumerate(self.cpart) if j > i
        )

    @cached_property
    def _blocks(self) -> list[tuple[str, str, int, int]]:
        """(vertex, color, first number, end number) for each incidence pair."""
        ends = [*list(self.first.values())[1:], len(self.vpart)]
        return [(x, s, f, e) for ((x, s), f), e in zip(self.first.items(), ends)]

    @cached_property
    def _low(self) -> list[int]:
        """The numbers of the roots of degree <= 1, ascending: those that one
        partner array leaves unpaired."""
        low = set()
        for part in (self.vpart, self.cpart):
            k = -1
            for _ in range(part.count(-1)):
                k = part.index(-1, k + 1)
                low.add(k)
        return sorted(low)

    def _roots_at(self, numbers: list[int]) -> list[Root]:
        """The roots with the given numbers, read off the pair table."""
        pairs, starts = list(self.first), list(self.first.values())
        out = []
        for k in numbers:
            j = bisect_right(starts, k) - 1  # the last pair starting at or before k
            out.append(_new_root((*pairs[j], k - starts[j] + 1)))
        return out

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
    n = 0
    for (x, s) in inc:
        first[(x, s)] = n
        n += max(beta[x] - 1, 0)

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

    return PegGraph(inc, slack, first, vpart, cpart, carrow)


@dataclass(eq=False)
class PegComponent:
    """A component as root numbers: numbers in walk order, ends the two
    walk ends of a string and empty otherwise. roots and endpoints give the
    same as Roots, are built on first read, and are what == compares."""

    kind: str  # "string", "band", "isolated"
    numbers: tuple[int, ...]
    ends: tuple[int, ...]
    graph: PegGraph = field(repr=False)

    @cached_property
    def roots(self) -> tuple[Root, ...]:
        roots = self.graph.roots
        return tuple([roots[k] for k in self.numbers])

    @cached_property
    def endpoints(self) -> tuple[Root, ...]:
        roots = self.graph.roots
        return tuple([roots[k] for k in self.ends])

    def __eq__(self, other):
        if not isinstance(other, PegComponent):
            return NotImplemented
        return (self.kind, self.roots, self.endpoints) == (
            other.kind,
            other.roots,
            other.endpoints,
        )


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
    vpart, cpart = graph.vpart, graph.cpart
    n = len(vpart)
    for part in (vpart, cpart):
        unpaired = part.count(-1)
        if len(set(part)) - (unpaired > 0) != n - unpaired:
            twice = min(j for j, k in Counter(part).items() if j >= 0 and k > 1)
            raise InvariantError(f"root {graph.roots[twice]} has two edges of one kind")

    seen = bytearray(n)
    found = []
    for e in graph._low:
        if seen[e]:
            continue
        if vpart[e] < 0 and cpart[e] < 0:
            seen[e] = 1
            found.append((e, PegComponent("isolated", (e,), (), graph)))
            continue
        walk, stop = _walk(graph, e, vpart[e] >= 0, seen)
        if stop >= 0:
            raise InvariantError(f"string component with ends {[graph.roots[e]]}")
        comp = PegComponent("string", tuple(walk), (e, walk[-1]), graph)
        found.append((min(walk), comp))
    start = seen.find(0)
    while start >= 0:
        walk, stop = _walk(graph, start, vpart[start] < cpart[start], seen)
        require(stop == start, "band root without a unique successor")
        require(
            len(walk) % 2 == 0 and len(walk) >= 4,
            f"band of odd or short length {len(walk)}",
        )
        found.append((start, PegComponent("band", tuple(walk), (), graph)))
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
    """The roots of degree <= 1 in root order, each with its class and phi."""
    ncolors = Counter(x for x, _ in graph.inc)
    low = graph._low
    out = []
    for x, s, f, end in graph._blocks:
        at = low[bisect_left(low, f):bisect_left(low, end)]
        if not at:
            continue
        pair = graph.inc[(x, s)]
        ro = r[pair.out_arrow] if pair.out_arrow else 0
        ri = r[pair.in_arrow] if pair.in_arrow else 0
        bx = beta[x]
        prefix = "I" if ncolors[x] == 2 else "II"
        for k in at:
            i = k - f + 1
            if i == ro and ro + ri == bx:
                sub, phi = "a", (pair.out_arrow, pair.in_arrow)
            elif i == ro:
                sub, phi = "b", (pair.out_arrow,)
            elif i == bx - ri:
                sub, phi = "c", (pair.in_arrow,)
            else:
                sub, phi = "d", ()
            out.append(Endpoint(_new_root((x, s, i)), prefix + sub, phi))
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
    walk, _ = _walk(graph, k, graph.vpart[k] >= 0, bytearray(len(graph.vpart)))
    return graph.roots[walk[-1]]


@dataclass
class MatchingSystemExtract:
    """The extracted system with the components and endpoints it was read
    from; endpoint_of holds each endpoint by its root's number."""

    system: MatchingSystem
    string_index: dict[int, tuple[Endpoint, Endpoint]]
    forced_index: dict[int, Endpoint]
    free_arrows: tuple[str, ...]
    band_index: tuple[PegComponent, ...]
    components: list[PegComponent]
    endpoint_of: dict[int, Endpoint]


def extract_matching_system(
    graph: PegGraph, q: Quiver, beta: dict[str, int], r: dict[str, int]
) -> MatchingSystemExtract:
    """One equation per string (and per forced isolated root), reduced.

    Variables are the rank-positive arrows in sorted order. A shared arrow
    on both sides of an equation is cancelled; 0 = 0 equations are dropped.
    """
    comps = components(graph)
    endpoint_of = {}
    for ep in classify_endpoints(graph, beta, r):
        x, s, i = ep.root
        endpoint_of[graph.first[(x, s)] + i - 1] = ep
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
            ep = endpoint_of[comp.numbers[0]]
            if ep.phi:
                forced_index[len(equations)] = ep
                equations.append((ep.phi, ()))
            continue
        e1, e2 = endpoint_of[comp.ends[0]], endpoint_of[comp.ends[1]]
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
