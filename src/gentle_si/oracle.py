"""The referee: recomputes a presentation from the equations alone.

Nothing here reads the walk machinery. Generators come from the
Contejean-Devie completion of the unit vectors, so the work follows the
size of the basis. The relations an engine reports are right when each
balances and every fiber of the bounded region, found in one depth-first
pass, is joined into one class by their moves. Semi-invariance is checked by
summing mirrored entries. `verify` runs these routines; slower references
that recompute the same answers by box scans and searches live with the
tests, in tests/reference.py.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .errors import InputError, require
from .matching import MatchingSystem, system_from_rows
from .quivers import Coloring, Quiver, color_incidence


# verify checks fibers up to at least this row count, whatever the engine reports
RELATION_DEGREE_FLOOR = 4


def _fprofile(sys_: MatchingSystem, u: Sequence[int]) -> tuple[int, ...]:
    """The value of every row at u: each row's coefficients dotted with u."""
    return tuple(sum(cj * uj for cj, uj in zip(row, u)) for row in sys_.rows)


def _counting_bound_checked(
    sys_: MatchingSystem, gens: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """gens sorted, once no coordinate and no equation side is above 2."""
    for g in gens:
        require(
            max(g) <= 2,
            f"irreducible solution {g} has a coordinate above 2",
        )
        require(
            max(_fprofile(sys_, g), default=0) <= 2,
            f"irreducible solution {g} has an equation side above 2",
        )
    return sorted(gens)


def hilbert_basis(sys_: MatchingSystem) -> list[tuple[int, ...]]:
    """The minimal nonzero solutions, by Contejean-Devie completion.

    Let A have the rows (lhs row - rhs row), so A.e_j is column j's defect.
    The frontier starts at the unit vectors. At each level, points of zero
    defect are minimal solutions; any other point p grows to p + e_j only
    when <A.p, A.e_j> < 0, and never onto a point above a solution already
    found. This reaches every minimal solution and stops (Contejean & Devie,
    Information and Computation 113, 1994), so the work follows the size of
    the basis, with no box. A zero column gives e_j as a solution at once.
    The counting bound (no coordinate and no equation side above 2) is
    asserted on the result.
    """
    l, m, rows = sys_.num_vars, sys_.m, sys_.rows
    # column j's defect as (equation, +-1) pairs, at most two of them
    defect = [
        [
            (k, rows[k][j] - rows[m + k][j])
            for k in range(m)
            if rows[k][j] != rows[m + k][j]
        ]
        for j in range(l)
    ]
    solutions: list[tuple[int, ...]] = []
    frontier: dict[tuple[int, ...], list[int]] = {}
    for j in range(l):
        d = [0] * m
        for k, a in defect[j]:
            d[k] = a
        frontier[tuple(int(i == j) for i in range(l))] = d
    while frontier:
        growing = []
        for p, d in frontier.items():
            if any(d):
                growing.append((p, d))
            else:
                solutions.append(p)
        nxt: dict[tuple[int, ...], list[int]] = {}
        for p, d in growing:
            for j in range(l):
                if sum(a * d[k] for k, a in defect[j]) >= 0:
                    continue
                q = p[:j] + (p[j] + 1,) + p[j + 1 :]
                if q in nxt or any(
                    all(sx <= qx for sx, qx in zip(s, q)) for s in solutions
                ):
                    continue
                dq = list(d)
                for k, a in defect[j]:
                    dq[k] += a
                nxt[q] = dq
        frontier = nxt
    return _counting_bound_checked(sys_, solutions)


# ---------------------------------------------------------------------------
# multiset utilities over generator index tuples


def _msub(m: tuple[int, ...], s: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    out = list(m)
    for i in s:
        if i in out:
            out.remove(i)
        else:
            return None
    return tuple(out)


def _madd(m: tuple[int, ...], s: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(m + s))


def _vector_sum(gens: Sequence[tuple[int, ...]], mset: tuple[int, ...]):
    width = len(gens[0]) if gens else 0
    acc = [0] * width
    for i in mset:
        for j, gj in enumerate(gens[i]):
            acc[j] += gj
    return tuple(acc)


def _classes(
    decs: list[tuple[int, ...]],
    relations: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
) -> list[list[tuple[int, ...]]]:
    index = {m: i for i, m in enumerate(decs)}
    parent = list(range(len(decs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for m in decs:
        for lhs, rhs in relations:
            for src, dst in ((lhs, rhs), (rhs, lhs)):
                rest = _msub(m, src)
                if rest is None:
                    continue
                m2 = _madd(rest, dst)
                require(m2 in index, "relation move left the decomposition fiber")
                union(index[m], index[m2])
    groups: dict[int, list[tuple[int, ...]]] = {}
    for m in decs:
        groups.setdefault(find(index[m]), []).append(m)
    return sorted(groups.values(), key=lambda g: min(g))


def fibers(
    gens: Sequence[tuple[int, ...]],
    degree_cap: int,
    system: MatchingSystem,
) -> list[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """(sum, its sorted decompositions) for every fiber with at least two
    generator multisets and no equation side above degree_cap.

    One depth-first pass enumerates the multisets as non-decreasing index
    sequences into gens and buckets them by sum. A branch stops as soon as
    a side count passes degree_cap; counts only grow along a branch, so
    nothing inside the region is missed. Generators with a zero profile are
    unit vectors on zero columns: they would make the region infinite, and
    no other generator touches a zero column, so they never occur in a
    decomposition of a region sum and are left out. Fibers come in
    (total, sum) order.
    """
    # (index, nonzero (row, count) pairs) of each generator with a nonzero profile
    live = []
    for i, g in enumerate(gens):
        sides = [(r, c) for r, c in enumerate(_fprofile(system, g)) if c]
        if sides:
            live.append((i, sides))
    prof = [0] * (2 * system.m)
    acc = [0] * system.num_vars
    seq: list[int] = []
    by_sum: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def rec(start: int) -> None:
        for pos in range(start, len(live)):
            i, sides = live[pos]
            for r, c in sides:
                prof[r] += c
            if all(prof[r] <= degree_cap for r, _ in sides):
                for j, x in enumerate(gens[i]):
                    acc[j] += x
                seq.append(i)
                by_sum.setdefault(tuple(acc), []).append(tuple(seq))
                rec(pos)
                seq.pop()
                for j, x in enumerate(gens[i]):
                    acc[j] -= x
            for r, c in sides:
                prof[r] -= c

    rec(0)
    # rec reaches itself through its closure; dropping the name breaks that
    # cycle, so by_sum is freed with its last user instead of at the next
    # full garbage collection
    del rec
    out = [(v, sorted(decs)) for v, decs in by_sum.items() if len(decs) > 1]
    return sorted(out, key=lambda f: (sum(f[0]), f[0]))


# ---------------------------------------------------------------------------
# semi-invariance equations, summed form


def _partition_vector(
    lam: dict[str, tuple[int, ...]],
    inc_in: Optional[str],
    inc_out: Optional[str],
    beta_x: int,
) -> list[int]:
    out_parts = list(lam[inc_out]) if inc_out is not None else []
    in_parts = list(lam[inc_in]) if inc_in is not None else []
    if len(out_parts) + len(in_parts) > beta_x:
        raise InputError("partition lengths exceed the dimension at a vertex")
    pad = beta_x - len(out_parts) - len(in_parts)
    return out_parts + [0] * pad + [-p for p in reversed(in_parts)]


def _check_partition_map(q: Quiver, lam: dict[str, tuple[int, ...]]) -> None:
    names = set(q.arrow_names())
    if set(lam) != names:
        raise InputError("partition map keys must be exactly the arrow names")
    for a, parts in lam.items():
        parts = tuple(parts)
        if any(type(p) is not int for p in parts):
            raise InputError(f"partition for {a} has non-integer parts")
        if any(p < 0 for p in parts):
            raise InputError(f"partition for {a} has negative parts")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise InputError(f"partition for {a} is not weakly decreasing")


def verify_si_equations(
    lam: dict[str, tuple[int, ...]],
    q: Quiver,
    c: Coloring,
    beta: dict[str, int],
) -> bool:
    """Summed form of the semi-invariance test, entry plus mirrored entry.

    At a vertex carrying two colors, all sums vec1[i] + vec2[beta-1-i] must
    agree; at a vertex carrying one color, all entries of its vector must
    agree. Independent of the difference form used by the engine.
    """
    _check_partition_map(q, lam)
    missing = [x for x in q.vertices if x not in beta]
    if missing:
        raise InputError(f"vertices without dimension entry: {missing}")
    inc = color_incidence(q, c)
    touching: dict[str, list[str]] = {}
    for x, s in inc:
        touching.setdefault(x, []).append(s)
    for x in q.vertices:
        colors = touching.get(x, [])
        bx = beta[x]
        if not colors or bx == 0:
            continue
        vecs = []
        for s in colors:
            pair = inc[(x, s)]
            vecs.append(_partition_vector(lam, pair.in_arrow, pair.out_arrow, bx))
        if len(vecs) == 1:
            if any(v != vecs[0][0] for v in vecs[0]):
                return False
        elif len(vecs) == 2:
            sums = {vecs[0][i] + vecs[1][bx - 1 - i] for i in range(bx)}
            if len(sums) > 1:
                return False
        else:
            raise InputError(f"vertex {x} carries more than two colors")
    return True


# ---------------------------------------------------------------------------
# random instances


def random_matching_system(
    rng: random.Random,
    max_m: int = 4,
    max_l: int = 8,
    occupancy: Sequence[int] = (0, 1, 1, 2, 2),
) -> MatchingSystem:
    """Sample a valid system: no same-equation pair in a column.

    Each column's row count is drawn from occupancy (entries 0..2; a 2
    becomes a 1 when there is one equation). Mixes rich in 2s give more
    relations.
    """
    m = rng.randint(1, max_m)
    l = rng.randint(1, max_l)
    while True:
        rows = [[0] * l for _ in range(2 * m)]
        for j in range(l):
            k = rng.choice(occupancy)
            if k == 2 and m == 1:
                k = 1
            placed: list[int] = []
            attempts = 0
            while len(placed) < k:
                attempts += 1
                if attempts > 50:
                    break
                i = rng.randrange(2 * m)
                if i in placed:
                    continue
                if any(abs(i - p) == m for p in placed):
                    continue
                placed.append(i)
            for i in placed:
                rows[i][j] = 1
        try:
            return system_from_rows(rows)
        except InputError:  # pragma: no cover - construction obeys the axioms
            continue


def verify_presentation(sys_: MatchingSystem, pres) -> dict:
    """Check an engine presentation against brute force.

    pres needs .generators (objects with .name and .vector), .relations
    (objects with .lhs/.rhs name tuples) and .relation_cap. The generators
    must equal hilbert_basis's minimal solutions as a vector set. The
    relations are right exactly when both sides of each have the same sum
    and every fiber (all generator multisets with one sum) is connected by
    the relation moves: the fundamental theorem of Markov bases. The fibers
    come from one fibers() pass over the region with no equation side above
    the larger of relation_cap and RELATION_DEGREE_FLOOR; that pass runs
    only when every relation is balanced, since an unbalanced move leaves
    its fiber. Returns the report dict; witnesses list each discrepancy.
    """
    witnesses: list[str] = []
    relation_cap = max(RELATION_DEGREE_FLOOR, pres.relation_cap)

    ogens = hilbert_basis(sys_)
    evecs = sorted(g.vector for g in pres.generators)
    generators_match = evecs == ogens
    if not generators_match:
        for v in ogens:
            if v not in evecs:
                witnesses.append(f"oracle generator missing from engine: {v}")
        for v in evecs:
            if v not in ogens:
                witnesses.append(f"engine generator unknown to oracle: {v}")

    relations_match = False
    if generators_match:
        idx = {v: i for i, v in enumerate(ogens)}
        byname = {g.name: g.vector for g in pres.generators}
        try:
            erels = [
                (
                    tuple(sorted(idx[byname[n]] for n in r.lhs)),
                    tuple(sorted(idx[byname[n]] for n in r.rhs)),
                )
                for r in pres.relations
            ]
        except KeyError as missing:
            raise InputError(f"relation names unknown generator {missing}")
        for lhs, rhs in erels:
            if _vector_sum(ogens, lhs) != _vector_sum(ogens, rhs):
                witnesses.append(f"engine relation sides differ in sum: {lhs} ~ {rhs}")
        if not witnesses:
            for v, decs in fibers(ogens, relation_cap, sys_):
                classes = _classes(decs, erels)
                if len(classes) > 1:
                    witnesses.append(
                        f"fiber {v} not connected by engine relations: "
                        f"{classes[0][0]} ~ {classes[1][0]}"
                    )
        relations_match = not witnesses
    else:
        witnesses.append("relation comparison skipped: generator sets differ")

    return {
        "system": {
            "m": sys_.m,
            "var_names": list(sys_.var_names),
        },
        "relation_cap": relation_cap,
        "generators_match": generators_match,
        "relations_match": relations_match,
        "witnesses": witnesses,
    }


