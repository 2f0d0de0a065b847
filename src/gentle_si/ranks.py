"""Rank sequences for colored quivers and the maximal ones.

A rank sequence assigns a nonnegative rank to each arrow so that at every
vertex and color the incoming and outgoing ranks fit inside the dimension
there: r(in) + r(out) <= beta(x), with rank 0 for a missing side. The
maximal rank sequences under the coordinatewise order label the irreducible
components of the representation variety, and the constraints never couple
different colors, so they are enumerated per color and combined as a
product.

The admissible set is closed under lowering entries, so a sequence is
maximal exactly when no single rank can be raised by one: every arrow is
tight at its tail or at its head. Along a color path this lets the maximal
tuples be built entry by entry, without visiting the admissible ones.

Dimension vectors and rank sequences are plain dicts (vertex id -> int and
arrow id -> int).
"""

from __future__ import annotations

import itertools

from .errors import InputError
from .quivers import Coloring, Incidence, Quiver, color_classes, color_incidence


def check_beta(q: Quiver, beta: dict[str, int]) -> None:
    for v in q.vertices:
        if v not in beta:
            raise InputError(f"dimension vector missing vertex {v}")
        # type, not isinstance: bool is an int subclass and no count
        if not (type(beta[v]) is int and beta[v] >= 0):
            raise InputError(
                f"dimension at {v} must be a nonnegative integer, got {beta[v]!r}"
            )


def _slack(
    q: Quiver, c: Coloring, beta: dict[str, int], r: dict[str, int]
) -> tuple[dict[tuple[str, str], Incidence], dict[tuple[str, str], int]]:
    """The color incidence, and beta(x) - r(in) - r(out) at each of its pairs.

    Checks beta, then r, then the coloring.
    """
    check_beta(q, beta)
    for a in q.arrow_names():
        if a not in r:
            raise InputError(f"rank sequence missing arrow {a}")
        if not (type(r[a]) is int and r[a] >= 0):
            raise InputError(
                f"rank at {a} must be a nonnegative integer, got {r[a]!r}"
            )
    inc = color_incidence(q, c)
    slack = {
        (x, s): beta[x] - r.get(pair.in_arrow, 0) - r.get(pair.out_arrow, 0)
        for (x, s), pair in inc.items()
    }
    return inc, slack


def is_maximal_rank(
    q: Quiver, c: Coloring, beta: dict[str, int], r: dict[str, int]
) -> bool:
    """Whether r is maximal among admissible rank sequences.

    Every constraint is an upper bound on a sum of ranks, so the admissible
    set is closed under lowering coordinates and r is maximal exactly when
    no single rank can be raised by one: every arrow is tight at its tail
    or at its head. Quivers have no loops, so raising one rank adds one to
    each of those two sums and to no other.
    """
    _, slack = _slack(q, c, beta, r)
    if min(slack.values(), default=0) < 0:
        raise InputError("not an admissible rank sequence")
    return _all_tight(q, c, slack)


def _all_tight(
    q: Quiver, c: Coloring, slack: dict[tuple[str, str], int]
) -> bool:
    """Whether every arrow has no slack left at its tail or at its head."""
    return all(
        slack[a.tail, c.color(a.name)] == 0 or slack[a.head, c.color(a.name)] == 0
        for a in q.arrows
    )


def _color_maximal(beta_path: list[int]) -> list[tuple[int, ...]]:
    """Maximal rank tuples along one path with vertex dimensions beta_path.

    The tuple has one entry per arrow; entry i sits between beta_path[i]
    and beta_path[i+1], and consecutive entries share the vertex between
    them. Entries are chosen left to right. An entry that leaves room at
    its left vertex must be tight at its right one, so it forces the next
    entry to fill that vertex. A forced value above the next dimension, or
    a last entry tight at neither end, ends the branch. Tuples come out in
    lexicographic order.
    """
    k = len(beta_path) - 1
    out = []
    # (entries so far, room they leave at the next vertex, next entry forced)
    stack = [((), beta_path[0], False)]
    while stack:
        prefix, room, forced = stack.pop()
        i = len(prefix)
        if i == k:
            if room == 0 or not forced:
                out.append(prefix)
            continue
        nxt = beta_path[i + 1]
        values = [room] if forced else range(min(room, nxt) + 1)
        for v in reversed(values):
            if v <= nxt:
                stack.append((prefix + (v,), nxt - v, v < room))
    return out


def maximal_rank_sequences(
    q: Quiver, c: Coloring, beta: dict[str, int]
) -> list[dict[str, int]]:
    """All coordinatewise-maximal rank sequences, sorted by arrow id."""
    check_beta(q, beta)
    classes = color_classes(q, c)
    per_color = []
    for s in sorted(classes):
        names = classes[s]
        path = [q.arrow(names[0]).tail] + [q.arrow(n).head for n in names]
        beta_path = [beta[v] for v in path]
        per_color.append([dict(zip(names, pt)) for pt in _color_maximal(beta_path)])
    order = sorted(q.arrow_names())
    combined = []
    for parts in itertools.product(*per_color):
        r = {}
        for part in parts:
            r.update(part)
        combined.append(r)
    combined.sort(key=lambda r: tuple(r[a] for a in order))
    return combined
