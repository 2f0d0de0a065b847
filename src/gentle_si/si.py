"""From matching semigroup elements back to partition maps and weights.

The graph layer turns a rank component into a matching system whose
solution semigroup the engine presents. This module translates the results
the other way: an element (u, y), a system solution plus one value per
band, unfolds into the partition map that stacks component jump values on
top of u, and mirrored entry sums at each vertex recover the weight, the
degree and the grading by graph components.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Optional, Sequence

from .errors import InputError, require
from .matching import Presentation, is_member, presentation
from .peg import (
    MatchingSystemExtract,
    PegGraph,
    Root,
    build_peg,
    extract_matching_system,
)
from .quivers import Coloring, Incidence, Quiver, color_incidence
from .ranks import _all_tight, check_beta

PartitionMap = dict[str, tuple[int, ...]]
# a partition, or an incidence vector, as (value, multiplicity) runs in order
_Runs = tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# pipeline context

@dataclass
class PegContext:
    """Graph and extraction for one (beta, r) pair, with lookups.

    The extraction holds the components and their endpoints; indices below
    are positions in extract.components. arrow_comps maps each arrow a to
    the components through its tail-side roots at heights 1..r(a)-1, in
    that order; positions is its transpose, the (arrow, height) pairs of
    each component. var_pos maps each variable to its position, readers
    lists for each variable the string components whose first endpoint
    reads it (once per read), and band_slots the bands in order.
    """

    q: Quiver
    beta: dict[str, int]
    r: dict[str, int]
    graph: PegGraph
    extract: MatchingSystemExtract
    arrow_comps: dict[str, tuple[int, ...]]
    positions: tuple[tuple[tuple[str, int], ...], ...]
    var_pos: dict[str, int]
    readers: tuple[tuple[int, ...], ...]
    band_slots: tuple[int, ...]


def peg_context(
    q: Quiver, c: Coloring, beta: dict[str, int], r: dict[str, int]
) -> PegContext:
    graph = build_peg(q, c, beta, r)
    extract = extract_matching_system(graph, q, beta, r)
    comps = extract.components
    comp_of = [0] * len(graph.roots)
    for idx, cp in enumerate(comps):
        for k in cp.numbers:
            comp_of[k] = idx
    arrow_comps = {}
    for a in q.arrows:
        t = graph.first[(a.tail, c.color(a.name))]  # the tail root of height 1
        arrow_comps[a.name] = tuple(comp_of[t:t + r[a.name] - 1])
    positions: list[list[tuple[str, int]]] = [[] for _ in comps]
    for a, idxs in arrow_comps.items():
        for h, idx in enumerate(idxs, 1):
            positions[idx].append((a, h))
    var_pos = {a: j for j, a in enumerate(extract.system.var_names)}
    readers: list[list[int]] = [[] for _ in var_pos]
    for idx, cp in enumerate(comps):
        if cp.kind == "string":
            for a in extract.endpoint_of[cp.endpoints[0]].phi:
                readers[var_pos[a]].append(idx)
    band_slots = tuple(idx for idx, cp in enumerate(comps) if cp.kind == "band")
    return PegContext(
        q, beta, r, graph, extract, arrow_comps, tuple(map(tuple, positions)),
        var_pos, tuple(map(tuple, readers)), band_slots,
    )


def _check_uy(
    ctx: PegContext, u: Sequence[int], y: Optional[Sequence[int]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    sys_ = ctx.extract.system
    u = tuple(u)
    if len(u) != sys_.num_vars:
        raise InputError(
            f"vector length {len(u)} does not match {sys_.num_vars} variables"
        )
    # type, not isinstance: bool is an int subclass and no count
    if any(type(v) is not int or v < 0 for v in u):
        raise InputError("u must have nonnegative integer entries")
    if not is_member(sys_, u):
        raise InputError("u does not solve the matching system")
    nb = len(ctx.extract.band_index)
    y = (0,) * nb if y is None else tuple(y)
    if len(y) != nb:
        raise InputError(f"y must have one entry per band, expected {nb}")
    if any(type(v) is not int or v < 0 for v in y):
        raise InputError("y must have nonnegative integer entries")
    return u, y


def _jumps(
    ctx: PegContext, u: Sequence[int], bands: Iterable[tuple[int, int]]
) -> dict[int, int]:
    """Nonzero jump values of an element by component index: each string
    reads u off its first endpoint, bands gives (component index, value)."""
    jumps = {idx: v for idx, v in bands if v}
    for uj, comps in zip(u, ctx.readers):
        if uj:
            for idx in comps:
                jumps[idx] = jumps.get(idx, 0) + uj
    return jumps


def _grade(ctx: PegContext, jumps: dict[int, int]) -> tuple[int, ...]:
    vals = [0] * len(ctx.extract.components)
    for idx, v in jumps.items():
        vals[idx] = v
    return tuple(vals)


def component_values(
    ctx: PegContext, u: Sequence[int], y: Optional[Sequence[int]] = None
) -> tuple[int, ...]:
    """Jump value of the element (u, y) on each component, canonical order.

    Strings read their boundary coefficients off u, bands read y, isolated
    roots always sit at jump zero.
    """
    u, y = _check_uy(ctx, u, y)
    return _grade(ctx, _jumps(ctx, u, zip(ctx.band_slots, y)))


def component_labels(ctx: PegContext) -> list[str]:
    """One label per component, its smallest root in vertex|color|index form."""
    out = []
    for cp in ctx.extract.components:
        rt = min(cp.roots)
        out.append(f"{rt.vertex}|{rt.color}|{rt.index}")
    return out


# ---------------------------------------------------------------------------
# partition maps

def lambda_from_uy(
    ctx: PegContext, u: Sequence[int], y: Optional[Sequence[int]] = None
) -> PartitionMap:
    """Partition map of the semigroup element (u, y).

    The partition at an arrow has r(a) parts; the bottom part is u(a) and
    moving up from part i+1 to part i adds the jump value of the component
    through the tail-side root of a at height i. u must solve the extracted
    matching system, y gives one value per band and defaults to zero.
    """
    u, y = _check_uy(ctx, u, y)
    return _expand(_partition_runs(ctx, u, _jumps(ctx, u, zip(ctx.band_slots, y))))


def _partition_runs(
    ctx: PegContext, u: Sequence[int], jumps: dict[int, int]
) -> dict[str, _Runs]:
    """lambda_from_uy as runs, from the nonzero jumps alone.

    A partition changes value only at the heights of its arrow's components
    with a nonzero jump, so its runs end there and at r(a).
    """
    steps: dict[str, list[tuple[int, int]]] = {}
    for idx, v in jumps.items():
        for a, h in ctx.positions[idx]:
            steps.setdefault(a, []).append((h, v))
    lam: dict[str, _Runs] = {}
    for a in ctx.q.arrow_names():
        r = ctx.r[a]
        if r == 0:
            lam[a] = ()
            continue
        acc = u[ctx.var_pos[a]]
        at = steps.get(a)
        if not at:
            lam[a] = ((acc, r),)
            continue
        at.sort()
        acc += sum(v for _, v in at)
        runs = []
        prev = 0
        for h, v in at:
            runs.append((acc, h - prev))
            acc -= v
            prev = h
        runs.append((acc, r - prev))
        lam[a] = tuple(runs)
    return lam


def _expand(lam: dict[str, _Runs]) -> PartitionMap:
    """The partition map written out part by part."""
    out: PartitionMap = {}
    for a, runs in lam.items():
        parts: list[int] = []
        for p, m in runs:
            parts += [p] * m
        out[a] = tuple(parts)
    return out


def _check_partitions(q: Quiver, lam: PartitionMap) -> None:
    names = set(q.arrow_names())
    if set(lam) != names:
        raise InputError("partition map keys must be exactly the arrow names")
    for a, parts in lam.items():
        if any(type(p) is not int for p in parts):
            raise InputError(f"partition for {a} has non-integer parts")
        if any(p < 0 for p in parts):
            raise InputError(f"partition for {a} has negative parts")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise InputError(f"partition for {a} is not weakly decreasing")


def _incidence_vector(
    lam: PartitionMap, pair: Incidence, bx: int, x: str
) -> list[int]:
    out_parts = list(lam[pair.out_arrow]) if pair.out_arrow else []
    in_parts = list(lam[pair.in_arrow]) if pair.in_arrow else []
    if len(out_parts) + len(in_parts) > bx:
        raise InputError(f"partition parts exceed the dimension at vertex {x}")
    pad = bx - len(out_parts) - len(in_parts)
    return out_parts + [0] * pad + [-p for p in reversed(in_parts)]


@dataclass
class MembershipResult:
    ok: bool
    sigma: Optional[dict[str, int]] = None
    witness: Optional[tuple[str, int]] = None


def si_membership(
    lam: PartitionMap, q: Quiver, c: Coloring, beta: dict[str, int]
) -> MembershipResult:
    """Check the vertex equations of a partition map and read off its weight.

    At a two-color vertex, entry i of one incidence vector plus entry
    beta+1-i of the other must not depend on i; at a one-color vertex all
    entries of the single vector must agree. On success sigma maps every
    vertex to the common value (zero where nothing is constrained); on
    failure witness names the first bad (vertex, entry) pair, scanning
    vertices in sorted order and entries upward.
    """
    _check_partitions(q, lam)
    check_beta(q, beta)
    runs = {
        a: tuple((p, sum(1 for _ in g)) for p, g in groupby(parts))
        for a, parts in lam.items()
    }
    length = {a: len(parts) for a, parts in lam.items()}
    return _membership(runs, _vertex_plan(q, beta, color_incidence(q, c), length))


# each vertex in sorted order with its incidence pairs, by color, as
# (out arrow, in arrow, padding); no pairs where nothing is constrained
_Pair = tuple[Optional[str], Optional[str], int]
_VertexPlan = list[tuple[str, list[_Pair]]]


def _vertex_plan(
    q: Quiver,
    beta: dict[str, int],
    inc: dict[tuple[str, str], Incidence],
    length: dict[str, int],
) -> _VertexPlan:
    """The incidence vectors' layout at each vertex: the out arrow's parts,
    then zeros up to beta, then the in arrow's parts negated and reversed,
    for partitions with the given number of parts at each arrow. A negative
    padding means the parts exceed the dimension."""
    at: dict[str, list[_Pair]] = {}
    for (x, _), pair in inc.items():
        out_a, in_a = pair.out_arrow, pair.in_arrow
        pad = beta[x]
        pad -= length[out_a] if out_a else 0
        pad -= length[in_a] if in_a else 0
        at.setdefault(x, []).append((out_a, in_a, pad))
    return [(x, at.get(x, []) if beta[x] else []) for x in sorted(q.vertices)]


def _mirror_sums(
    vec: list[tuple[int, int]], other: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Runs of entry i of vec plus entry n+1-i of other, both of length n:
    vec's runs merged with other's runs read backward."""
    sums = []
    rest = reversed(other)
    q = n = 0
    for p, m in vec:
        while m:
            if not n:
                q, n = next(rest)
            step = min(m, n)
            sums.append((p + q, step))
            m -= step
            n -= step
    return sums


def _membership(lam: dict[str, _Runs], plan: _VertexPlan) -> MembershipResult:
    """si_membership on checked partition runs laid out by plan."""
    sigma: dict[str, int] = {}
    for x, pairs in plan:
        if not pairs:
            sigma[x] = 0
            continue
        vecs = []
        for out_a, in_a, pad in pairs:
            if pad < 0:
                raise InputError(f"partition parts exceed the dimension at vertex {x}")
            vec = list(lam[out_a]) if out_a else []
            if pad:
                vec.append((0, pad))
            if in_a:
                vec += [(-p, m) for p, m in reversed(lam[in_a])]
            vecs.append(vec)
        if len(vecs) == 1:
            sums = vecs[0]
        elif len(vecs) == 2:
            sums = _mirror_sums(vecs[0], vecs[1])
        else:
            raise InputError(f"vertex {x} carries more than two colors")
        sig = sums[0][0]
        entry = 1
        for s, m in sums:
            if s != sig:
                return MembershipResult(False, witness=(x, entry))
            entry += m
        sigma[x] = sig
    return MembershipResult(True, sigma=sigma)


def root_jumps(ctx: PegContext, lam: PartitionMap) -> dict[Root, int]:
    """Difference between consecutive incidence vector entries at each root.

    For maps built by lambda_from_uy the jump is constant along every graph
    component.
    """
    _check_partitions(ctx.q, lam)
    out = {}
    cache: dict[tuple[str, str], list[int]] = {}
    for rt in ctx.graph.roots:
        key = (rt.vertex, rt.color)
        if key not in cache:
            cache[key] = _incidence_vector(
                lam, ctx.graph.inc[key], ctx.beta[rt.vertex], rt.vertex
            )
        v = cache[key]
        out[rt] = v[rt.index - 1] - v[rt.index]
    return out


def roundtrip_uy(
    ctx: PegContext, lam: PartitionMap
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Recover (u, y) from a partition map: bottom parts and band jumps.

    Partitions must have exactly r(a) parts. The jump values along each band
    must agree; disagreement means lam did not come from a semigroup element
    and raises InvariantError.
    """
    _check_partitions(ctx.q, lam)
    for a in ctx.q.arrow_names():
        if len(lam[a]) != ctx.r[a]:
            raise InputError(f"partition for {a} must have exactly {ctx.r[a]} parts")
    u = tuple(lam[a][-1] for a in ctx.extract.system.var_names)
    jumps = root_jumps(ctx, lam)
    ys = []
    for slot, band in enumerate(ctx.extract.band_index):
        vals = {jumps[rt] for rt in band.roots}
        require(
            len(vals) == 1,
            f"jump values along band {slot + 1} disagree: {sorted(vals)}",
        )
        ys.append(vals.pop())
    return u, tuple(ys)


# ---------------------------------------------------------------------------
# degrees and bounds

def degree_bounds(q: Quiver, r: dict[str, int]) -> tuple[int, int]:
    """Degree ceilings for generators and relations of the invariant ring.

    Both are multiples of the sum over arrows of the triangular number
    C(r(a)+1, 2): generators appear in degree at most twice that sum and
    relations in degree at most eight times it.
    """
    total = 0
    for a in q.arrow_names():
        if a not in r:
            raise InputError(f"rank sequence missing arrow {a}")
        if type(r[a]) is not int or r[a] < 0:
            raise InputError(f"rank at {a} must be a nonnegative integer")
        total += math.comb(r[a] + 1, 2)
    return 2 * total, 8 * total


# ---------------------------------------------------------------------------
# the translated presentation

@dataclass
class SiGenerator:
    """One ring generator with its partition map, weight, degree and grade."""

    name: str
    kind: str
    u: tuple[int, ...]
    y: tuple[int, ...]
    partitions: PartitionMap
    degree: int
    sigma: dict[str, int]
    grade: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "u": list(self.u),
            "y": list(self.y),
            "partitions": {a: list(p) for a, p in sorted(self.partitions.items())},
            "degree": self.degree,
            "sigma": dict(sorted(self.sigma.items())),
            "grade": list(self.grade),
        }


@dataclass
class SiPresentation:
    """Finite presentation data for the invariant ring of one rank component."""

    context: PegContext
    matching: Presentation
    band_vars: tuple[str, ...]
    generators: list[SiGenerator]
    degree_bound_gens: int
    degree_bound_rels: int
    rank_maximal: bool

    def as_dict(self) -> dict:
        sys_ = self.matching.system
        return {
            "component": dict(sorted(self.context.r.items())),
            "dimensions": dict(sorted(self.context.beta.items())),
            "variables": list(sys_.var_names),
            "band_vars": list(self.band_vars),
            "free_arrows": list(self.context.extract.free_arrows),
            "forced_zero": [
                sys_.var_names[j] for j in self.matching.graph.forced_zero
            ],
            "generators": [g.as_dict() for g in self.generators],
            "relations": [rel.as_dict() for rel in self.matching.relations],
            "relation_cap": self.matching.relation_cap,
            "degree_bounds": {
                "generators": self.degree_bound_gens,
                "relations": self.degree_bound_rels,
            },
            "grading_components": component_labels(self.context),
            "rank_maximal": self.rank_maximal,
        }


def _translate(
    ctx: PegContext,
    plan: _VertexPlan,
    name: str,
    kind: str,
    u: tuple[int, ...],
    y: tuple[int, ...],
    bands: Iterable[tuple[int, int]],
    gen_bound: int,
) -> SiGenerator:
    """The generator (u, y), whose nonzero band values bands gives as
    (component index, value) pairs."""
    jumps = _jumps(ctx, u, bands)
    lam = _partition_runs(ctx, u, jumps)
    mem = _membership(lam, plan)
    require(
        mem.ok, f"generator {name} fails the weight equations at {mem.witness}"
    )
    deg = sum(p * m for runs in lam.values() for p, m in runs)
    require(
        deg <= gen_bound,
        f"generator {name} has degree {deg} above the bound {gen_bound}",
    )
    return SiGenerator(
        name, kind, u, y, _expand(lam), deg, mem.sigma, _grade(ctx, jumps)
    )


def si_presentation(
    q: Quiver, c: Coloring, beta: dict[str, int], r: dict[str, int]
) -> SiPresentation:
    """Generators, relations, degrees and weights for one rank component.

    Builds the graph for (beta, r), presents the solution semigroup of the
    extracted matching system, adjoins one free variable per band and
    translates every generator back into partition language. Warns when r
    is not maximal; the result then describes a smaller stratum rather than
    an irreducible component.
    """
    ctx = peg_context(q, c, beta, r)
    maximal = _all_tight(q, c, ctx.graph.slack)
    if not maximal:
        warnings.warn(
            "rank sequence is not maximal for this dimension vector",
            stacklevel=2,
        )
    pres = presentation(ctx.extract.system)
    gen_bound, rel_bound = degree_bounds(q, r)
    nb = len(ctx.extract.band_index)
    band_vars = tuple(f"y{k + 1}" for k in range(nb))
    zero_y = (0,) * nb
    zero_u = (0,) * ctx.extract.system.num_vars
    plan = _vertex_plan(q, beta, ctx.graph.inc, r)

    records = []
    for g in pres.generators:
        records.append(
            _translate(ctx, plan, g.name, g.kind, g.vector, zero_y, (), gen_bound)
        )
    for k, (name, slot) in enumerate(zip(band_vars, ctx.band_slots)):
        y = zero_y[:k] + (1,) + zero_y[k + 1:]
        records.append(
            _translate(
                ctx, plan, name, "band_var", zero_u, y, ((slot, 1),), gen_bound
            )
        )

    by_name = {rec.name: rec.degree for rec in records}
    for rel in pres.relations:
        dl = sum(by_name[n] for n in rel.lhs)
        dr = sum(by_name[n] for n in rel.rhs)
        require(
            dl == dr,
            f"relation {rel.lhs} = {rel.rhs} has mismatched degrees {dl} and {dr}",
        )
        require(
            dl <= rel_bound,
            f"relation {rel.lhs} = {rel.rhs} has degree {dl} above the bound"
            f" {rel_bound}",
        )

    return SiPresentation(
        ctx, pres, band_vars, records, gen_bound, rel_bound, maximal
    )
