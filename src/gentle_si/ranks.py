"""Rank sequences for colored quivers and the maximal ones.

A rank sequence assigns a nonnegative rank to each arrow so that at every
vertex and color the incoming and outgoing ranks fit inside the dimension
there: r(in) + r(out) <= beta(x), with rank 0 for a missing side. The
maximal rank sequences under the coordinatewise order label the irreducible
components of the representation variety, and the constraints never couple
different colors, so they are enumerated per color and combined as a
product.

Dimension vectors and rank sequences are plain dicts (vertex id -> int and
arrow id -> int).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError
from .quivers import (
    Coloring,
    Quiver,
    color_classes,
    color_incidence,
    color_path_vertices,
)


def check_beta(q: Quiver, beta: dict[str, int]) -> None:
    for v in q.vertices:
        if v not in beta:
            raise InputError(f"dimension vector missing vertex {v}")
        if not (isinstance(beta[v], int) and beta[v] >= 0):
            raise InputError(
                f"dimension at {v} must be a nonnegative integer, got {beta[v]!r}"
            )


def rank_violations(
    q: Quiver, c: Coloring, beta: dict[str, int], r: dict[str, int]
) -> list[tuple[str, str]]:
    """The (vertex, color) pairs where r(in) + r(out) exceeds beta."""
    check_beta(q, beta)
    for a in q.arrow_names():
        if a not in r:
            raise InputError(f"rank sequence missing arrow {a}")
        if not (isinstance(r[a], int) and r[a] >= 0):
            raise InputError(
                f"rank at {a} must be a nonnegative integer, got {r[a]!r}"
            )
    bad = []
    for (x, s), inc in color_incidence(q, c).items():
        used = r.get(inc.in_arrow, 0) + r.get(inc.out_arrow, 0)
        if used > beta[x]:
            bad.append((x, s))
    return bad


def is_rank_sequence(
    q: Quiver, c: Coloring, beta: dict[str, int], r: dict[str, int]
) -> bool:
    return not rank_violations(q, c, beta, r)


def is_maximal_rank(
    q: Quiver, c: Coloring, beta: dict[str, int], r: dict[str, int]
) -> bool:
    """Whether r is maximal among admissible rank sequences.

    Every constraint is an upper bound on a sum of ranks, so the admissible
    set is closed under lowering coordinates and r is maximal exactly when
    no single rank can be raised by one.
    """
    if not is_rank_sequence(q, c, beta, r):
        raise InputError("not an admissible rank sequence")
    for a in q.arrow_names():
        bumped = dict(r)
        bumped[a] += 1
        if is_rank_sequence(q, c, beta, bumped):
            return False
    return True


@dataclass(frozen=True)
class ColorRestriction:
    """One color path with the dimensions and ranks read off along it."""

    color: str
    vertex_path: tuple[str, ...]
    beta_s: tuple[int, ...]
    r_s: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "color": self.color,
            "vertex_path": list(self.vertex_path),
            "beta": list(self.beta_s),
            "r": list(self.r_s),
        }


def restrict_to_color(
    q: Quiver, c: Coloring, beta: dict[str, int], r: dict[str, int], s: str
) -> ColorRestriction:
    check_beta(q, beta)
    if s not in c.colors():
        raise InputError(f"unknown color {s}")
    names = color_classes(q, c)[s]
    verts = color_path_vertices(q, c, s)
    for a in names:
        if a not in r:
            raise InputError(f"rank sequence missing arrow {a}")
    return ColorRestriction(
        color=s,
        vertex_path=tuple(verts),
        beta_s=tuple(beta[v] for v in verts),
        r_s=tuple(r[a] for a in names),
    )


def _dominance_maximal(points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    out = []
    for p in points:
        if any(p != q and all(a <= b for a, b in zip(p, q)) for q in points):
            continue
        out.append(p)
    return out


def _color_maximal(beta_path: list[int]) -> list[tuple[int, ...]]:
    """Maximal rank tuples along one path with vertex dimensions beta_path.

    The tuple has one entry per arrow; entry i sits between beta_path[i]
    and beta_path[i+1], and consecutive entries share the vertex between
    them. Paths are short, so the whole box is scanned.
    """
    k = len(beta_path) - 1
    bounds = [min(beta_path[i], beta_path[i + 1]) for i in range(k)]
    admissible = []
    for combo in itertools.product(*(range(b + 1) for b in bounds)):
        if all(combo[i] + combo[i + 1] <= beta_path[i + 1] for i in range(k - 1)):
            admissible.append(combo)
    return _dominance_maximal(admissible)


def maximal_rank_sequences(
    q: Quiver, c: Coloring, beta: dict[str, int]
) -> list[dict[str, int]]:
    """All coordinatewise-maximal rank sequences, sorted by arrow id."""
    check_beta(q, beta)
    classes = color_classes(q, c)
    per_color = []
    for s in sorted(classes):
        names = classes[s]
        beta_path = [beta[v] for v in color_path_vertices(q, c, s)]
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
