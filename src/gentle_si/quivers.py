"""Quivers, arrow colorings, and quadratic monomial relations.

Conventions used throughout the package:

* A relation pair (b, a) stands for the length-two path "a then b", which
  requires head(a) == tail(b). The pair set generates the ideal.
* A coloring assigns each arrow a color id so that every color class is a
  single directed path. Consecutive same-color arrows are exactly the
  monochromatic relations.
* Quivers are finite, loop-free and acyclic, with string ids for vertices
  and arrows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from .errors import InputError, InvariantError, ValidationReport, require


@dataclass(frozen=True)
class Arrow:
    name: str
    tail: str
    head: str


class Quiver:
    """Finite acyclic quiver without loops. Parallel arrows are allowed."""

    def __init__(self, vertices: Iterable[str], arrows: Iterable[Arrow]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.arrows: tuple[Arrow, ...] = tuple(arrows)
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise InputError(f"duplicate vertex id {v!r}")
            seen.add(v)
        vset = set(self.vertices)
        self._by_name: dict[str, Arrow] = {}
        self._out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        self._in: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            if a.name in self._by_name:
                raise InputError(f"duplicate arrow id {a.name!r}")
            if a.tail not in vset:
                raise InputError(f"arrow {a.name!r} has unknown tail {a.tail!r}")
            if a.head not in vset:
                raise InputError(f"arrow {a.name!r} has unknown head {a.head!r}")
            if a.tail == a.head:
                raise InputError(f"arrow {a.name!r} is a loop at {a.tail!r}")
            self._by_name[a.name] = a
            self._out[a.tail].append(a)
            self._in[a.head].append(a)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        indeg = {v: len(self._in[v]) for v in self.vertices}
        queue = [v for v in self.vertices if indeg[v] == 0]
        visited = 0
        while queue:
            v = queue.pop()
            visited += 1
            for a in self._out[v]:
                indeg[a.head] -= 1
                if indeg[a.head] == 0:
                    queue.append(a.head)
        if visited != len(self.vertices):
            raise InputError("quiver contains a directed cycle")

    def arrow(self, name: str) -> Arrow:
        try:
            return self._by_name[name]
        except KeyError:
            raise InputError(f"unknown arrow id {name!r}") from None

    def has_arrow(self, name: str) -> bool:
        return name in self._by_name

    def outgoing(self, v: str) -> list[Arrow]:
        return list(self._out[v])

    def incoming(self, v: str) -> list[Arrow]:
        return list(self._in[v])

    def arrow_names(self) -> list[str]:
        return [a.name for a in self.arrows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __repr__(self) -> str:
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class RelationSet:
    """A set of pairs (b, a), each meaning the path "a then b" is a relation."""

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()):
        self.pairs: frozenset[tuple[str, str]] = frozenset(
            (str(b), str(a)) for b, a in pairs
        )

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self.pairs

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, RelationSet) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"RelationSet({sorted(self.pairs)})"

    def restricted(self, arrow_names: Iterable[str]) -> "RelationSet":
        keep = set(arrow_names)
        return RelationSet(
            (b, a) for b, a in self.pairs if b in keep and a in keep
        )

    def difference(self, other: "RelationSet") -> "RelationSet":
        return RelationSet(self.pairs - other.pairs)


class Coloring:
    """Arrow name to color id map."""

    def __init__(self, color_of: Mapping[str, str]):
        self.color_of: dict[str, str] = {str(k): str(v) for k, v in color_of.items()}

    def color(self, arrow_name: str) -> str:
        try:
            return self.color_of[arrow_name]
        except KeyError:
            raise InputError(f"arrow {arrow_name!r} has no color") from None

    def colors(self) -> list[str]:
        return sorted(set(self.color_of.values()))

    def class_of(self, color: str) -> list[str]:
        return sorted(a for a, s in self.color_of.items() if s == color)

    def __eq__(self, other) -> bool:
        return isinstance(other, Coloring) and self.color_of == other.color_of

    def __repr__(self) -> str:
        return f"Coloring({self.color_of})"


@dataclass(frozen=True)
class Incidence:
    """The at most one incoming and one outgoing arrow of one color at a vertex."""

    in_arrow: Optional[str]
    out_arrow: Optional[str]


def validate_relations(q: Quiver, rels: RelationSet) -> ValidationReport:
    """Check every pair names existing arrows and is composable head-to-tail."""
    rep = ValidationReport()
    for b, a in rels:
        if not q.has_arrow(a) or not q.has_arrow(b):
            rep.add("relation-shape", f"relation ({b},{a}) names an unknown arrow")
            continue
        if q.arrow(a).head != q.arrow(b).tail:
            rep.add(
                "relation-shape",
                f"relation ({b},{a}) is not composable: head({a})={q.arrow(a).head}"
                f" but tail({b})={q.arrow(b).tail}",
            )
    return rep


def _color_paths(
    q: Quiver, c: Coloring
) -> tuple[ValidationReport, dict[str, list[str]]]:
    """The coloring's report and, when it is ok, each color's arrows in path order."""
    rep = ValidationReport()
    missing = [a.name for a in q.arrows if a.name not in c.color_of]
    extra = [n for n in c.color_of if not q.has_arrow(n)]
    if missing:
        rep.add("domain", f"arrows without color: {sorted(missing)}")
    if extra:
        rep.add("domain", f"colored names not in quiver: {sorted(extra)}")
    if not rep.ok:
        return rep, {}
    # one in and one out arrow per (vertex, color) at most
    seen_in: dict[tuple[str, str], str] = {}
    seen_out: dict[tuple[str, str], str] = {}
    for a in q.arrows:
        s = c.color(a.name)
        key_out = (a.tail, s)
        key_in = (a.head, s)
        if key_out in seen_out:
            rep.add(
                "local-path",
                f"color {s} has two arrows out of {a.tail}:"
                f" {seen_out[key_out]} and {a.name}",
            )
        seen_out[key_out] = a.name
        if key_in in seen_in:
            rep.add(
                "local-path",
                f"color {s} has two arrows into {a.head}:"
                f" {seen_in[key_in]} and {a.name}",
            )
        seen_in[key_in] = a.name
    if not rep.ok:
        return rep, {}
    # each class must be one connected directed path
    paths: dict[str, list[str]] = {}
    for s in c.colors():
        arrows = [q.arrow(n) for n in c.class_of(s)]
        heads = {a.head for a in arrows}
        starts = [a for a in arrows if a.tail not in heads]
        by_tail = {a.tail: a for a in arrows}
        chain = list(starts) if len(starts) == 1 else []
        while chain and chain[-1].head in by_tail:
            chain.append(by_tail[chain[-1].head])
        if len(chain) != len(arrows):
            rep.add("connected", f"color {s} does not form a single path")
            continue
        paths[s] = [a.name for a in chain]
    return rep, paths


def validate_coloring(q: Quiver, c: Coloring) -> ValidationReport:
    return _color_paths(q, c)[0]


def color_classes(q: Quiver, c: Coloring) -> dict[str, list[str]]:
    """Color id to arrow names in path order. Requires a valid coloring."""
    rep, paths = _color_paths(q, c)
    if not rep.ok:
        raise InputError(f"invalid coloring: {rep.violations}")
    return paths


def monochromatic_ideal(q: Quiver, c: Coloring) -> RelationSet:
    """All composable same-color pairs. For valid colorings these are the
    consecutive pairs along each color path."""
    pairs = []
    for a in q.arrows:
        for b in q.outgoing(a.head):
            if c.color(a.name) == c.color(b.name):
                pairs.append((b.name, a.name))
    return RelationSet(pairs)


def color_incidence(q: Quiver, c: Coloring) -> dict[tuple[str, str], Incidence]:
    """Map (vertex, color) to its in/out arrow of that color.

    The keys are exactly the pairs where the color touches the vertex.
    """
    rep = validate_coloring(q, c)
    if not rep.ok:
        raise InputError(f"invalid coloring: {rep.violations}")
    acc: dict[tuple[str, str], dict[str, Optional[str]]] = {}
    for a in q.arrows:
        s = c.color(a.name)
        acc.setdefault((a.tail, s), {"in": None, "out": None})["out"] = a.name
        acc.setdefault((a.head, s), {"in": None, "out": None})["in"] = a.name
    return {
        k: Incidence(in_arrow=v["in"], out_arrow=v["out"])
        for k, v in sorted(acc.items())
    }


def _degree_checks(q: Quiver, rep: ValidationReport) -> None:
    for v in q.vertices:
        if len(q.outgoing(v)) > 2:
            rep.add("degree-out", f"vertex {v} has {len(q.outgoing(v))} outgoing arrows")
        if len(q.incoming(v)) > 2:
            rep.add("degree-in", f"vertex {v} has {len(q.incoming(v))} incoming arrows")


def _unique_continuations(
    q: Quiver, rels: RelationSet, rep: ValidationReport, in_ideal: bool
) -> None:
    """Flag arrows with two successors, or two predecessors, whose length-two
    path lies inside the ideal (in_ideal) or outside it."""
    if in_ideal:
        tag = "rel"
        succ_words, pred_words = "relation continuations", "relation predecessors"
    else:
        tag = "nonrel"
        succ_words = "continuations outside the ideal"
        pred_words = "predecessors outside the ideal"
    for a in q.arrows:
        succ = sorted(
            b.name for b in q.outgoing(a.head) if ((b.name, a.name) in rels) == in_ideal
        )
        if len(succ) > 1:
            rep.add(f"succ-{tag}", f"arrow {a.name} has two {succ_words}: {succ}")
        pred = sorted(
            b.name for b in q.incoming(a.tail) if ((a.name, b.name) in rels) == in_ideal
        )
        if len(pred) > 1:
            rep.add(f"pred-{tag}", f"arrow {a.name} has two {pred_words}: {pred}")


def is_string_algebra(q: Quiver, rels: RelationSet) -> ValidationReport:
    """Degree bounds plus the unique non-relation continuation conditions."""
    rep = validate_relations(q, rels)
    if not rep.ok:
        return rep
    _degree_checks(q, rep)
    _unique_continuations(q, rels, rep, in_ideal=False)
    return rep


def is_gentle(q: Quiver, rels: RelationSet) -> ValidationReport:
    """String algebra conditions plus unique relation continuations."""
    rep = is_string_algebra(q, rels)
    if rep.tags() & {"relation-shape"}:
        return rep
    _unique_continuations(q, rels, rep, in_ideal=True)
    return rep


def _canonical_coloring(classes: Iterable[list[str]]) -> Coloring:
    ordered = sorted(classes, key=lambda cls: min(cls))
    color_of = {}
    for idx, cls in enumerate(ordered, start=1):
        for name in cls:
            color_of[name] = str(idx)
    return Coloring(color_of)


def coloring_from_gentle(q: Quiver, rels: RelationSet) -> Coloring:
    """Color classes are the maximal chains of consecutive relations.

    Requires the input to satisfy the gentle conditions; the chains are then
    unique. The monochromatic pairs of the result reproduce the input
    relation set exactly.
    """
    rep = is_gentle(q, rels)
    if not rep.ok:
        raise InputError(f"not gentle: {rep.violations}")
    succ: dict[str, str] = {}
    has_pred: set[str] = set()
    for b, a in rels:
        require(a not in succ, f"arrow {a} has two relation continuations")
        succ[a] = b
        has_pred.add(b)
    classes: list[list[str]] = []
    covered: set[str] = set()
    for a in q.arrows:
        if a.name in has_pred:
            continue
        chain = [a.name]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        classes.append(chain)
        covered.update(chain)
    require(covered == set(q.arrow_names()), "relation chains do not cover the quiver")
    coloring = _canonical_coloring(classes)
    require(validate_coloring(q, coloring).ok, "derived coloring is not valid")
    require(
        monochromatic_ideal(q, coloring) == rels,
        "derived coloring does not reproduce the relation set",
    )
    return coloring


@dataclass
class CoverResult:
    coloring: Coloring
    kernel: RelationSet
    flags: list[str]


def gentle_cover(q: Quiver, rels: RelationSet) -> CoverResult:
    """Peel maximal relation-following paths off a string algebra.

    Each extracted path becomes one color class. The monochromatic ideal of
    the result is contained in the input relations and the quotient by it is
    gentle; the kernel holds the input relations that were dropped.

    Extension rule when two continuations b1 < b2 are possible after the
    current last arrow: look at the other remaining arrow a2 into the same
    vertex. With no such a2, take b1. If exactly one of the candidates forms
    a relation after a2, take the other candidate, which keeps a
    continuation available for a2. If both candidates form relations after
    a2 the choice is genuinely open; we take b1 and flag the step.
    """
    rep = is_string_algebra(q, rels)
    if not rep.ok:
        raise InputError(f"not a string algebra: {rep.violations}")
    remaining: set[str] = set(q.arrow_names())
    classes: list[list[str]] = []
    flags: list[str] = []
    while remaining:
        rels_rem = rels.restricted(remaining)
        sources = sorted(
            v
            for v in q.vertices
            if not any(a.name in remaining for a in q.incoming(v))
            and any(a.name in remaining for a in q.outgoing(v))
        )
        require(bool(sources), "no source vertex in a nonempty acyclic remainder")
        x = sources[0]
        first = min(a.name for a in q.outgoing(x) if a.name in remaining)
        chain = [first]
        while True:
            last = q.arrow(chain[-1])
            cands = sorted(
                b.name
                for b in q.outgoing(last.head)
                if b.name in remaining and (b.name, last.name) in rels_rem
            )
            if not cands:
                break
            if len(cands) == 1:
                chain.append(cands[0])
                continue
            require(len(cands) == 2, "more than two continuations in a string algebra")
            b1, b2 = cands
            others = [
                a.name
                for a in q.incoming(last.head)
                if a.name in remaining and a.name != last.name
            ]
            if not others:
                chain.append(b1)
                continue
            require(len(others) == 1, "three arrows into one vertex")
            a2 = others[0]
            killers = [b for b in (b1, b2) if (b, a2) in rels_rem]
            if len(killers) == 1:
                chain.append(b2 if killers[0] == b1 else b1)
            elif len(killers) == 2:
                flags.append(
                    f"both continuations {b1},{b2} after {last.name} form relations"
                    f" with {a2}; took {b1}"
                )
                chain.append(b1)
            else:
                raise InvariantError(
                    "two non-relation continuations after an arrow in a string algebra"
                )
        classes.append(chain)
        remaining.difference_update(chain)
    coloring = _canonical_coloring(classes)
    require(validate_coloring(q, coloring).ok, "cover coloring is not valid")
    ideal = monochromatic_ideal(q, coloring)
    require(ideal.pairs <= rels.pairs, "cover kept a pair outside the input ideal")
    require(is_gentle(q, ideal).ok, "cover result is not gentle")
    return CoverResult(
        coloring=coloring, kernel=rels.difference(ideal), flags=flags
    )
