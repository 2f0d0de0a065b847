"""Seeded inputs, timed instances and output checks for the three workloads.

Each workload is a list of rounds. A round is a fixed mix of instances, so
any number of whole rounds has the same mix; the runner repeats rounds until
its time is up. An instance is one call into the package's public entry
points (one CLI command, or one present+verify) and a check of its output
that does not rely on the code being timed: committed goldens, closed forms,
the brute-force oracle, or small recomputations made here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable, Optional

DATA = Path(__file__).resolve().parent / "data"

# relation-search: how often each system runs in one round. Closing and
# Segre n=4 both take about a second on the seed code, so with four of each
# the median and the tail percentile of two or three rounds fall among them
# instead of on the jump between differently sized systems.
RELATION_MIX = (("segre5", 1), ("segre4", 4), ("closing", 4), ("segre3", 1))
SEGRE_SIZES = {"segre3": 3, "segre4": 4, "segre5": 5}

# closing.model: expected generator supports and relations (criterion 1)
CLOSING_SUPPORTS = {
    "X1": {"a1", "a5"},
    "X2": {"b1", "b5"},
    "Y1": {"a1", "a4", "b4", "b1"},
    "Y2": {"a5", "a2", "b2", "b5"},
    "Z1": {"a2", "b3", "a4"},
    "Z2": {"b2", "a3", "b4"},
    "B1": {"a2", "b2", "b4", "a4"},
    "B2": {"a3", "b3"},
}
CLOSING_RELATIONS = {
    frozenset((frozenset({"Z1", "Z2"}), frozenset({"B1", "B2"}))),
    frozenset((frozenset({"Y1", "Y2"}), frozenset({"X1", "X2", "B1"}))),
}

# random-verify: the distribution of criterion 3 and scripts/verify_random.py
RANDOM_MAX_M = 4
RANDOM_MAX_L = 8
RANDOM_ROUND = 32
RANDOM_POOL = 16384  # about twenty times what a run consumes on the seed code

# quiver-pipeline
SCALES = (10, 25, 50)
COMPONENTS_SCALE = 4
# bundled (model, command, output mode, golden file or None)
BUNDLED = (
    ("running", "presentation", "json", "running_presentation.json"),
    ("running", "presentation", "text", "running_presentation.txt"),
    ("running", "peg", "dot", "running_peg.dot"),
    ("running", "components", "json", "running_components.json"),
    ("running", "cover", "json", None),
    ("determinant", "presentation", "json", None),
    ("determinant", "peg", "dot", None),
    ("determinant", "components", "json", None),
    ("determinant", "cover", "json", None),
    ("path", "presentation", "json", None),
    ("path", "peg", "dot", None),
    ("path", "components", "json", "path_components.json"),
    ("path", "cover", "json", None),
    ("cover", "cover", "json", "cover_report.json"),
)
# roots of the graph, sum over (vertex, color) incidences of beta - 1
PEG_ROOTS = {"determinant": 2, "path": 0}


@dataclass
class Instance:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is right


@dataclass
class Workload:
    rounds: Callable[[int], list[Instance]]
    inputs: int  # distinct inputs generated and checked in set-up


class InputCheckError(RuntimeError):
    """A generated input does not have the shape the workload promises."""


# ---------------------------------------------------------------------------
# model text: generation and a small reader independent of cli.parse_model


def segre_text(n: int, rng: random.Random) -> tuple[str, list[str]]:
    """One equation with n loop variables per side, names and order seeded.

    Returns the model text and its variable order (the var lines).
    """
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{i}" for i in range(1, n + 1)]
    order = xs + ys
    rng.shuffle(order)
    lhs, rhs = rng.sample(xs, n), rng.sample(ys, n)
    if rng.random() < 0.5:
        lhs, rhs = rhs, lhs
    lines = [f"# Segre system, {n} loops per side"]
    lines += [f"var {v}" for v in order]
    lines.append(f"eq 1: {' '.join(lhs)} = {' '.join(rhs)}")
    return "\n".join(lines) + "\n", order


def read_quiver(text: str) -> dict:
    """Vertices, arrows (name, tail, head, color), beta and rank of a model.

    Without color lines, arrows chained by rel lines share a color, which is
    the coloring of a gentle quiver.
    """
    out = {"vertices": [], "arrows": [], "beta": {}, "rank": {}}
    color = {}
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "vertex":
            out["vertices"].append(toks[1])
        elif toks[0] == "arrow":
            color[toks[1]] = toks[5] if len(toks) == 6 else toks[1]
            out["arrows"].append(toks[1:4])
        elif toks[0] == "rel":
            later, earlier = color[toks[1]], color[toks[2]]
            color = {a: earlier if c == later else c for a, c in color.items()}
        elif toks[0] in ("beta", "rank"):
            out[toks[0]][toks[1]] = int(toks[2])
    out["arrows"] = [(a, t, h, color[a]) for a, t, h in out["arrows"]]
    return out


def scaled_text(base: str, k: int, with_rank: bool, rng: random.Random) -> str:
    """The model with beta (and rank) times k, declaration lines shuffled."""
    groups: dict[str, list[str]] = {}
    for raw in base.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] in ("beta", "rank"):
            if toks[0] == "rank" and not with_rank:
                continue
            toks[2] = str(int(toks[2]) * k)
        groups.setdefault(toks[0], []).append(" ".join(toks))
    lines = [f"# running example, dimensions times {k}"]
    for head in ("vertex", "arrow", "beta", "rank"):
        block = groups.get(head, [])
        rng.shuffle(block)
        lines += block
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# checks that recompute the answer here


def _relation_pairs(out: dict) -> tuple[dict, list]:
    vec = {g["name"]: tuple(g["vector"]) for g in out["generators"]}
    return vec, [(tuple(r["lhs"]), tuple(r["rhs"])) for r in out["relations"]]


def _vsum(vec: dict, names) -> tuple:
    total = [0] * len(next(iter(vec.values())))
    for n in names:
        for j, x in enumerate(vec[n]):
            total[j] += x
    return tuple(total)


def check_segre(text: str, order: list[str], n: int) -> Optional[str]:
    """The closed form of the 2x2-minor toric ideal.

    Generators are the n^2 vectors x_i + y_j. Each fiber x_i + x_k + y_j + y_l
    (i < k, j < l) has exactly two decompositions, so C(n,2)^2 balanced,
    non-trivial degree-two relations on distinct fibers are the minors.
    """
    out = json.loads(text)
    vec, rels = _relation_pairs(out)
    pos = {v: j for j, v in enumerate(order)}
    want = set()
    for i, j in product(range(1, n + 1), repeat=2):
        u = [0] * len(order)
        u[pos[f"x{i}"]] = u[pos[f"y{j}"]] = 1
        want.add(tuple(u))
    if len(vec) != n * n or set(vec.values()) != want:
        return f"Segre n={n}: generators are not the {n * n} vectors x_i + y_j"
    if len(rels) != math.comb(n, 2) ** 2:
        return f"Segre n={n}: {len(rels)} relations, closed form {math.comb(n, 2) ** 2}"
    fibers = set()
    for lhs, rhs in rels:
        if len(lhs) != 2 or len(rhs) != 2 or set(lhs) & set(rhs):
            return f"Segre n={n}: relation {lhs} = {rhs} is not a 2x2 minor"
        fiber = _vsum(vec, lhs)
        if fiber != _vsum(vec, rhs):
            return f"Segre n={n}: relation {lhs} = {rhs} is unbalanced"
        fibers.add(fiber)
    if len(fibers) != len(rels):
        return f"Segre n={n}: two relations share a fiber"
    return None


def check_closing(text: str, order: list[str]) -> Optional[str]:
    """The eight generators and two relations of acceptance criterion 1."""
    out = json.loads(text)
    vec, rels = _relation_pairs(out)
    label = {}
    for name, v in vec.items():
        support = {order[j] for j, x in enumerate(v) if x}
        hits = [k for k, s in CLOSING_SUPPORTS.items() if s == support]
        if set(v) - {0, 1} or not hits:
            return f"unexpected generator {name} {v}"
        label[name] = hits[0]
    if sorted(label.values()) != sorted(CLOSING_SUPPORTS):
        return f"generators {sorted(label.values())}"
    got = {
        frozenset((frozenset(label[n] for n in a), frozenset(label[n] for n in b)))
        for a, b in rels
    }
    if len(rels) != 2 or got != CLOSING_RELATIONS:
        return f"relations {sorted(map(sorted, got))}"
    return None


def degree_bounds(rank: dict) -> tuple[int, int]:
    """2 and 8 times the sum over arrows of C(r(a)+1, 2)."""
    total = sum(math.comb(r + 1, 2) for r in rank.values())
    return 2 * total, 8 * total


def check_si(text: str, model: dict, mods) -> Optional[str]:
    """Every generator passes the oracle's weight equations and degree bound."""
    out = json.loads(text)
    q = mods.quivers.Quiver(
        model["vertices"],
        [mods.quivers.Arrow(a, t, h) for a, t, h, _ in model["arrows"]],
    )
    c = mods.quivers.Coloring({a: col for a, _, _, col in model["arrows"]})
    rank = model["rank"]
    if not rank:
        rank = out["component"]
        if rank not in maximal_ranks(model):
            return f"derived rank {rank} is not maximal"
    gen_bound, rel_bound = degree_bounds(rank)
    if out["degree_bounds"] != {"generators": gen_bound, "relations": rel_bound}:
        return f"degree bounds {out['degree_bounds']}, expected {gen_bound}, {rel_bound}"
    if not out["generators"]:
        return "no generators"
    degree = {}
    for g in out["generators"]:
        lam = {a: tuple(p) for a, p in g["partitions"].items()}
        if any(len(lam[a]) != rank[a] for a in rank):
            return f"{g['name']}: partitions do not have r(a) parts"
        if not mods.oracle.verify_si_equations(lam, q, c, model["beta"]):
            return f"{g['name']}: fails the oracle's semi-invariance equations"
        deg = sum(sum(p) for p in lam.values())
        if deg != g["degree"] or deg > gen_bound:
            return f"{g['name']}: degree {g['degree']} (parts sum {deg}, bound {gen_bound})"
        degree[g["name"]] = deg
    for r in out["relations"]:
        dl = sum(degree[n] for n in r["lhs"])
        if dl != sum(degree[n] for n in r["rhs"]) or dl > rel_bound:
            return f"relation {r['lhs']} = {r['rhs']} has degree {dl}"
    return None


def maximal_ranks(model: dict) -> list[dict]:
    """All maximal rank sequences, by brute force along each color path."""
    beta = model["beta"]
    per_color = []
    for color in sorted({col for *_, col in model["arrows"]}):
        arrows = [a for a in model["arrows"] if a[3] == color]
        heads = {h for _, _, h, _ in arrows}
        path = [next(a for a in arrows if a[1] not in heads)]
        while len(path) < len(arrows):
            path.append(next(a for a in arrows if a[1] == path[-1][2]))
        caps = [min(beta[t], beta[h]) for _, t, h, _ in path]
        inner = [beta[h] for _, _, h, _ in path[:-1]]

        def ok(r):
            return all(x <= cap for x, cap in zip(r, caps)) and all(
                r[i] + r[i + 1] <= inner[i] for i in range(len(inner))
            )

        maximal = []
        for r in product(*(range(cap + 1) for cap in caps)):
            if ok(r) and not any(
                ok(r[:i] + (r[i] + 1,) + r[i + 1 :]) for i in range(len(r))
            ):
                maximal.append({a[0]: x for a, x in zip(path, r)})
        per_color.append(maximal)
    out = []
    for parts in product(*per_color):
        merged = {}
        for p in parts:
            merged.update(p)
        out.append(merged)
    return out


def check_components(text: str, expected: list[dict]) -> Optional[str]:
    got = json.loads(text)["maximal_ranks"]
    def key(r):
        return tuple(sorted(r.items()))

    if len(got) != len(expected) or set(map(key, got)) != set(map(key, expected)):
        return f"{len(got)} maximal rank sequences, expected {len(expected)}"
    return None


def check_golden(text: str, golden: str) -> Optional[str]:
    if text != golden:
        return "output differs from the committed golden"
    return None


def check_dot_roots(text: str, roots: int) -> Optional[str]:
    got = sum(1 for line in text.splitlines() if "[label=" in line)
    if not text.startswith("digraph peg {") or got != roots:
        return f"DOT output with {got} roots, expected {roots}"
    return None


def check_cover_of_gentle(text: str) -> Optional[str]:
    if json.loads(text)["kernel"]:
        return "the gentle cover of a gentle algebra dropped relations"
    return None


# ---------------------------------------------------------------------------
# the workloads


def _cli_instance(mods, label, command, text, mode, check) -> Instance:
    cfg = mods.cli.CliConfig(json=mode == "json", dot=mode == "dot")

    def run():
        return mods.cli.run_command(command, mods.cli.parse_model(text), cfg)

    return Instance(label, run, check)


def _parsed(mods, text: str, kind: str):
    model = mods.cli.parse_model(text)
    if model.kind != kind:
        raise InputCheckError(f"generated model parses as {model.kind}, not {kind}")
    return model


def relation_search(mods, seed: int) -> Workload:
    rng = random.Random(seed)
    texts = {"closing": (DATA / "closing.model").read_text(encoding="utf-8")}
    orders = {"closing": [f"{s}{i}" for s in "ab" for i in range(1, 6)]}
    for name, n in SEGRE_SIZES.items():
        texts[name], orders[name] = segre_text(n, rng)
    for name, text in texts.items():
        system = _parsed(mods, text, "system").system
        if list(system.var_names) != orders[name] or system.m != (
            4 if name == "closing" else 1
        ):
            raise InputCheckError(f"{name}: unexpected variables or equations")

    checks = {
        name: partial(check_segre, order=orders[name], n=n)
        for name, n in SEGRE_SIZES.items()
    }
    checks["closing"] = partial(check_closing, order=orders["closing"])
    mix = [
        _cli_instance(mods, name, "relations", texts[name], "json", checks[name])
        for name, count in RELATION_MIX
        for _ in range(count)
    ]
    return Workload(lambda r: mix, len(texts))


def _radical_inverse(i: int) -> float:
    """Van der Corput sequence: every prefix spreads evenly over [0, 1)."""
    x, f = 0.0, 0.5
    while i:
        if i & 1:
            x += f
        i >>= 1
        f /= 2
    return x


def _system_ok(system) -> bool:
    """The matching-system axioms, checked on the raw rows."""
    m, rows = system.m, system.rows
    if len(rows) != 2 * m or any(x not in (0, 1) for row in rows for x in row):
        return False
    for j in range(system.num_vars):
        col = [row[j] for row in rows]
        if sum(col) > 2 or any(col[k] and col[m + k] for k in range(m)):
            return False
    return True


def _size_key(system) -> tuple[int, int, int]:
    """Equations, variables, and the variable pairs the equations can balance."""
    m, rows = system.m, system.rows
    pairs = sum(sum(rows[k]) * sum(rows[m + k]) for k in range(m))
    return (m, system.num_vars, pairs)


def random_verify(mods, seed: int) -> Workload:
    """Seeded random systems, ordered so every round spans the size range.

    A few large systems take most of the time, so independent draws make a
    run's throughput depend on how many of them the seed happens to give.
    The pool is drawn from the stream, sorted by a size key, and read at
    van der Corput positions: any prefix of rounds then samples the pool's
    size distribution evenly, which is the stream's distribution.
    """
    rng = random.Random(seed)
    pool = []
    for _ in range(RANDOM_POOL):
        system = mods.oracle.random_matching_system(
            rng, max_m=RANDOM_MAX_M, max_l=RANDOM_MAX_L
        )
        if not _system_ok(system):
            raise InputCheckError("random system breaks the matching axioms")
        pool.append((_size_key(system), rng.random(), system))
    pool.sort(key=lambda t: t[:2])
    offset = rng.random()

    def check(report):
        if report["generators_match"] and report["relations_match"]:
            return None
        return "oracle disagrees: " + "; ".join(report["witnesses"][:3])

    def instance(i):
        system = pool[int(((_radical_inverse(i) + offset) % 1.0) * len(pool))][2]
        label = f"random m={system.m} l={system.num_vars}"

        def run():
            return mods.oracle.verify_presentation(
                system, mods.matching.presentation(system)
            )

        return Instance(label, run, check)

    def rounds(r):
        return [instance(r * RANDOM_ROUND + k) for k in range(RANDOM_ROUND)]

    return Workload(rounds, len(pool))


def quiver_pipeline(mods, seed: int) -> Workload:
    rng = random.Random(seed)
    mix = []
    texts = {}
    for name in ("running", "determinant", "path", "cover"):
        texts[name] = (DATA / f"{name}.model").read_text(encoding="utf-8")
        _parsed(mods, texts[name], "quiver")
    running = read_quiver(texts["running"])
    for name, command, mode, golden in BUNDLED:
        text = texts[name]
        if golden is not None:
            check = partial(check_golden, golden=(DATA / golden).read_text(encoding="utf-8"))
        elif command == "presentation":
            check = partial(check_si, model=read_quiver(text), mods=mods)
        elif command == "peg":
            check = partial(check_dot_roots, roots=PEG_ROOTS[name])
        elif command == "components":
            check = partial(check_components, expected=maximal_ranks(read_quiver(text)))
        else:
            check = check_cover_of_gentle
        mix.append(_cli_instance(mods, f"{name} {command}", command, text, mode, check))
    for k in SCALES:
        text = scaled_text(texts["running"], k, True, rng)
        model = read_quiver(text)
        if model["beta"] != {v: b * k for v, b in running["beta"].items()}:
            raise InputCheckError(f"scaled model k={k} has the wrong dimensions")
        _parsed(mods, text, "quiver")
        check = partial(check_si, model=model, mods=mods)
        mix.append(
            _cli_instance(mods, f"running x{k} presentation", "presentation", text, "json", check)
        )
    text = scaled_text(texts["running"], COMPONENTS_SCALE, False, rng)
    model = read_quiver(text)
    if model["rank"] or _parsed(mods, text, "quiver").rank is not None:
        raise InputCheckError("components model must not declare ranks")
    exp = maximal_ranks(model)
    mix.append(
        _cli_instance(
            mods,
            f"running x{COMPONENTS_SCALE} components",
            "components",
            text,
            "json",
            partial(check_components, expected=exp),
        )
    )
    return Workload(lambda r: mix, len(texts) + len(SCALES) + 1)


WORKLOADS = {
    "relation-search": relation_search,
    "random-verify": random_verify,
    "quiver-pipeline": quiver_pipeline,
}
