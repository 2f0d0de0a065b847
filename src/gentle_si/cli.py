"""Command line interface: parse model files, drive the pipeline, emit reports.

Two input formats, not mixable in one file. A quiver model lists vertices,
arrows with optional colors, length-two relations (rel b a means the path
b after a vanishes), dimensions and ranks:

    vertex 1
    arrow a1 1 2 color a
    rel a2 a1
    beta 1 2
    rank a1 2

An abstract matching system lists equations over named variables, with
optional var lines fixing the variable order:

    var x1
    eq 1: x1 x2 = x4 x5

Reports print to stdout as readable text, as JSON with --json, or as DOT
for the peg command with --dot. Exit codes: 0 ok, 1 bad input, 2 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .errors import InputError, InvariantError, ValidationReport, require
from .matching import (
    MatchingSystem,
    _from_sides,
    build_graph,
    generators as walk_generators,
    presentation,
    validate_system,
)
from .oracle import verify_presentation
from .peg import export_dot
from .quivers import (
    Arrow,
    Coloring,
    Quiver,
    RelationSet,
    color_classes,
    coloring_from_gentle,
    gentle_cover,
    is_gentle,
    is_string_algebra,
    monochromatic_ideal,
    validate_coloring,
    validate_relations,
)
from .ranks import maximal_rank_sequences
from .si import PegContext, Runs, degree_bounds, peg_context, si_presentation

_QUIVER_DIRECTIVES = {"vertex", "arrow", "rel", "beta", "rank"}
_SYSTEM_DIRECTIVES = {"eq", "var"}


@dataclass
class CliConfig:
    json: bool = False
    dot: bool = False


@dataclass
class ModelFile:
    """Parsed input: either a quiver with its data or an abstract system."""

    kind: str  # "quiver" or "system"
    q: Optional[Quiver] = None
    coloring: Optional[Coloring] = None
    relations: Optional[RelationSet] = None
    beta: dict[str, int] = field(default_factory=dict)
    rank: Optional[dict[str, int]] = None
    system: Optional[MatchingSystem] = None


# ---------------------------------------------------------------------------
# model parsing

# ASCII digits only: int() and \d also take "1_0", "+2" and other scripts' digits
_EQ_RE = re.compile(r"^eq\s+([0-9]+)\s*:\s*(.*)$")
_NONNEG_RE = re.compile(r"[0-9]+")


def _fail(lineno: int, msg: str) -> None:
    raise InputError(f"line {lineno}: {msg}")


def _nonneg(tok: str, lineno: int, what: str) -> int:
    if not _NONNEG_RE.fullmatch(tok):
        _fail(lineno, f"{what} must be a nonnegative integer, got {tok!r}")
    return int(tok)


def parse_model(text: str) -> ModelFile:
    vertices: list[str] = []
    arrows: list[Arrow] = []
    arrow_lines: dict[str, int] = {}
    colors: dict[str, str] = {}
    rel_pairs: list[tuple[str, str]] = []
    rel_lines: dict[tuple[str, str], int] = {}
    beta: dict[str, int] = {}
    beta_lines: dict[str, int] = {}
    rank: dict[str, int] = {}
    rank_lines: dict[str, int] = {}
    eqs: dict[int, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    var_decls: list[str] = []
    kinds_seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if head in _QUIVER_DIRECTIVES:
            kinds_seen.add("quiver")
        elif head in _SYSTEM_DIRECTIVES:
            kinds_seen.add("system")
        else:
            _fail(lineno, f"unknown directive {head!r}")
        if head == "vertex":
            if len(toks) != 2:
                _fail(lineno, "expected: vertex <id>")
            if toks[1] in vertices:
                _fail(lineno, f"duplicate vertex {toks[1]}")
            vertices.append(toks[1])
        elif head == "arrow":
            if len(toks) == 4:
                name, tail, head_v = toks[1:4]
                color = None
            elif len(toks) == 6 and toks[4] == "color":
                name, tail, head_v = toks[1:4]
                color = toks[5]
            else:
                _fail(lineno, "expected: arrow <id> <tail> <head> [color <id>]")
            if name in arrow_lines:
                _fail(lineno, f"duplicate arrow {name}")
            arrow_lines[name] = lineno
            arrows.append(Arrow(name, tail, head_v))
            if color is not None:
                colors[name] = color
        elif head == "rel":
            if len(toks) != 3:
                _fail(lineno, "expected: rel <later> <earlier>")
            pair = (toks[1], toks[2])
            if pair in rel_lines:
                _fail(lineno, f"duplicate relation {toks[1]} {toks[2]}")
            rel_lines[pair] = lineno
            rel_pairs.append(pair)
        elif head == "beta":
            if len(toks) != 3:
                _fail(lineno, "expected: beta <vertex> <n>")
            if toks[1] in beta:
                _fail(lineno, f"duplicate beta for vertex {toks[1]}")
            beta[toks[1]] = _nonneg(toks[2], lineno, "dimension")
            beta_lines[toks[1]] = lineno
        elif head == "rank":
            if len(toks) != 3:
                _fail(lineno, "expected: rank <arrow> <n>")
            if toks[1] in rank:
                _fail(lineno, f"duplicate rank for arrow {toks[1]}")
            rank[toks[1]] = _nonneg(toks[2], lineno, "rank")
            rank_lines[toks[1]] = lineno
        elif head == "var":
            if len(toks) != 2:
                _fail(lineno, "expected: var <name>")
            if toks[1] in var_decls:
                _fail(lineno, f"duplicate variable {toks[1]}")
            var_decls.append(toks[1])
        elif head == "eq":
            m = _EQ_RE.match(line)
            if not m:
                _fail(lineno, "expected: eq <n>: <lhs> = <rhs>")
            j = int(m.group(1))
            if j in eqs:
                _fail(lineno, f"duplicate equation {j}")
            rest = m.group(2).split()
            if rest.count("=") != 1:
                _fail(lineno, "equation needs exactly one =")
            cut = rest.index("=")
            lhs, rhs = tuple(rest[:cut]), tuple(rest[cut + 1 :])
            for side in (lhs, rhs):
                if len(set(side)) != len(side):
                    _fail(lineno, "variable repeated within one equation side")
            eqs[j] = (lhs, rhs)

    if kinds_seen == {"quiver", "system"}:
        raise InputError("model mixes quiver and system directives")
    if "system" in kinds_seen:
        return ModelFile(kind="system", system=_assemble_system(eqs, var_decls))
    if not vertices:
        raise InputError("no vertices")

    for a in arrows:
        for v in (a.tail, a.head):
            if v not in vertices:
                _fail(arrow_lines[a.name], f"unknown vertex {v}")
    if colors and len(colors) != len(arrow_lines):
        missing = sorted(set(arrow_lines) - set(colors))
        raise InputError(f"arrows without color: {', '.join(missing)}")
    for pair in rel_pairs:
        for nm in pair:
            if nm not in arrow_lines:
                _fail(rel_lines[pair], f"unknown arrow {nm}")
    for v in beta:
        if v not in vertices:
            _fail(beta_lines[v], f"unknown vertex {v}")
    for a in rank:
        if a not in arrow_lines:
            _fail(rank_lines[a], f"unknown arrow {a}")
    if rank and set(rank) != set(arrow_lines):
        missing = sorted(set(arrow_lines) - set(rank))
        raise InputError(f"rank missing for arrows: {', '.join(missing)}")

    q = Quiver(vertices, arrows)
    coloring = Coloring(colors) if colors else None
    if rel_pairs or coloring is None:
        relations: Optional[RelationSet] = RelationSet(rel_pairs)
    else:
        relations = None
    return ModelFile(
        kind="quiver",
        q=q,
        coloring=coloring,
        relations=relations,
        beta=beta,
        rank=rank if rank else None,
    )


def _assemble_system(
    eqs: dict[int, tuple[tuple[str, ...], tuple[str, ...]]],
    var_decls: list[str],
) -> MatchingSystem:
    m = len(eqs)
    if set(eqs) != set(range(1, m + 1)):
        raise InputError("equation indices must be 1..m without gaps")
    sides = [side for j in range(1, m + 1) for side in eqs[j]]
    order = dict.fromkeys([*var_decls, *(n for side in sides for n in side)])
    return _from_sides(sides, list(order))


# ---------------------------------------------------------------------------
# pipeline plumbing

def _first_violation(rep: ValidationReport) -> str:
    tag, desc = rep.violations[0]
    return f"[{tag}] {desc}"


def _model_quiver(model: ModelFile) -> Quiver:
    if model.kind != "quiver":
        raise InputError("this command needs a quiver model")
    return model.q


def _model_coloring(model: ModelFile) -> tuple[Quiver, Coloring, bool]:
    """The quiver, its checked coloring, and whether that was derived."""
    q = _model_quiver(model)
    if model.coloring is None:
        return q, coloring_from_gentle(q, model.relations), True
    rep = validate_coloring(q, model.coloring)
    if not rep.ok:
        raise InputError(f"invalid coloring: {_first_violation(rep)}")
    return q, model.coloring, False


def _pipeline_coloring(model: ModelFile) -> tuple[Quiver, Coloring]:
    """The checked coloring of a model whose colored quotient must be gentle."""
    q, c, derived = _model_coloring(model)
    if not derived:
        ideal = monochromatic_ideal(q, c)
        grep = is_gentle(q, ideal)
        if not grep.ok:
            raise InputError(
                "the colored quotient is not gentle:"
                f" {_first_violation(grep)}; try the cover command"
            )
        if model.relations is not None and model.relations != ideal:
            raise InputError(
                "declared relations do not match the coloring's ideal"
            )
    return q, c


def _model_component(
    model: ModelFile,
) -> tuple[Quiver, Coloring, dict[str, int], bool]:
    """The checked coloring and the rank component of a quiver model, and
    whether r was derived. The quiver-side entry that reads r checks it
    against the dimensions."""
    q, c = _pipeline_coloring(model)
    if model.rank is not None:
        return q, c, dict(model.rank), False
    seqs = maximal_rank_sequences(q, c, model.beta)
    require(bool(seqs), "no maximal rank sequences")
    return q, c, seqs[0], True


def _quiver_context(model: ModelFile) -> tuple[PegContext, bool]:
    """Graph context of the model's rank component, and whether r was derived."""
    q, c, r, derived = _model_component(model)
    return peg_context(q, c, model.beta, r), derived


def _model_system(model: ModelFile) -> tuple[MatchingSystem, dict]:
    """The system to present, with the rank fields a quiver model reports."""
    if model.kind == "system":
        rep = validate_system(model.system)
        if not rep.ok:
            raise InputError(f"not a matching system: {_first_violation(rep)}")
        return model.system, {}
    ctx, derived = _quiver_context(model)
    return ctx.extract.system, {"rank": ctx.r, "rank_derived": derived}


def _pairs(rels) -> list[list[str]]:
    return [[b, a] for b, a in sorted(rels)]


# ---------------------------------------------------------------------------
# commands

def _cmd_validate(model: ModelFile) -> dict:
    if model.kind == "system":
        rep = validate_system(model.system)
        return {
            "command": "validate",
            "ok": rep.ok,
            "reports": {"system": rep.as_dict()},
        }
    q = model.q
    reports = {}
    consistent = None
    if model.coloring is not None:
        crep = validate_coloring(q, model.coloring)
        reports["coloring"] = crep.as_dict()
        if crep.ok:
            ideal = monochromatic_ideal(q, model.coloring)
            reports["gentle"] = is_gentle(q, ideal).as_dict()
            if model.relations is not None:
                consistent = model.relations == ideal
    if model.relations is not None:
        rrep = validate_relations(q, model.relations)
        reports["relations"] = rrep.as_dict()
        if rrep.ok:
            reports["string_algebra"] = is_string_algebra(
                q, model.relations
            ).as_dict()
            if model.coloring is None:
                reports["gentle"] = is_gentle(q, model.relations).as_dict()
    ok = all(rep["ok"] for rep in reports.values())
    out = {"command": "validate", "ok": ok and consistent is not False, "reports": reports}
    if consistent is not None:
        out["relations_match_coloring"] = consistent
    return out


def _cmd_color(model: ModelFile) -> dict:
    q, c, derived = _model_coloring(model)
    return {
        "command": "color",
        "derived": derived,
        "coloring": {a: c.color(a) for a in q.arrow_names()},
        "classes": color_classes(q, c),
        "ideal": _pairs(monochromatic_ideal(q, c)),
    }


def _cmd_cover(model: ModelFile) -> dict:
    q = _model_quiver(model)
    if model.relations is not None:
        rels = model.relations
    else:
        rels = monochromatic_ideal(q, model.coloring)
    res = gentle_cover(q, rels)
    return {
        "command": "cover",
        "coloring": {a: res.coloring.color(a) for a in q.arrow_names()},
        "classes": color_classes(q, res.coloring),
        "kernel": _pairs(res.kernel),
        "kept": _pairs(monochromatic_ideal(q, res.coloring)),
        "flags": list(res.flags),
    }


def _cmd_components(model: ModelFile) -> dict:
    q, c = _pipeline_coloring(model)
    return {
        "command": "components",
        "dimensions": dict(model.beta),
        "maximal_ranks": maximal_rank_sequences(q, c, model.beta),
    }


def _cmd_peg(model: ModelFile) -> dict:
    ctx, derived = _quiver_context(model)
    graph = ctx.graph
    endpoint_of = ctx.extract.endpoint_of
    comps = []
    for cp in ctx.extract.components:
        if cp.kind == "string":
            ends = cp.ends
        elif cp.kind == "isolated":
            ends = cp.numbers
        else:
            ends = ()
        comps.append(
            {
                "kind": cp.kind,
                "roots": [list(rt) for rt in cp.roots],
                "endpoints": [
                    {
                        "root": list(endpoint_of[k].root),
                        "cls": endpoint_of[k].cls,
                        "phi": list(endpoint_of[k].phi),
                    }
                    for k in ends
                ],
            }
        )
    return {
        "command": "peg",
        "rank": ctx.r,
        "rank_derived": derived,
        "roots": [list(rt) for rt in graph.roots],
        "vertex_edges": [
            [list(u), list(w)] for u, w in graph.vertex_edges
        ],
        "colored_edges": [
            [list(u), list(w), a] for u, w, a in graph.colored_edges
        ],
        "components": comps,
    }


def _cmd_generators(model: ModelFile) -> dict:
    sys_, rank_fields = _model_system(model)
    graph = build_graph(sys_)
    gens = walk_generators(graph)
    return {
        "command": "generators",
        "variables": list(sys_.var_names),
        "free_variables": [sys_.var_names[j] for j in graph.free_vars],
        "forced_zero": [sys_.var_names[j] for j in graph.forced_zero],
        "generators": [g.as_dict() for g in gens],
        **rank_fields,
    }


def _cmd_relations(model: ModelFile) -> dict:
    sys_, rank_fields = _model_system(model)
    pres = presentation(sys_)
    return {
        "command": "relations",
        "generators": [g.as_dict() for g in pres.generators],
        "relations": [rel.as_dict() for rel in pres.relations],
        "relation_cap": pres.relation_cap,
        **rank_fields,
    }


def _cmd_presentation(model: ModelFile) -> dict:
    if model.kind == "system":
        sys_, _ = _model_system(model)
        pres = presentation(sys_)
        payload = {"command": "presentation", "variables": list(sys_.var_names)}
        payload.update(pres.as_dict())
        return payload
    q, c, r, derived = _model_component(model)
    pres = si_presentation(q, c, model.beta, r)
    payload = {"command": "presentation", "rank_derived": derived}
    payload.update(pres.as_dict())
    return payload


def _cmd_degrees(model: ModelFile) -> dict:
    ctx, derived = _quiver_context(model)
    gen_bound, rel_bound = degree_bounds(ctx.q, ctx.r)
    return {
        "command": "degrees",
        "rank": ctx.r,
        "rank_derived": derived,
        "degree_bounds": {"generators": gen_bound, "relations": rel_bound},
    }


def _cmd_verify(model: ModelFile) -> dict:
    sys_, rank_fields = _model_system(model)
    pres = presentation(sys_)
    return {"command": "verify", **verify_presentation(sys_, pres), **rank_fields}


_COMMANDS = {
    "validate": (_cmd_validate, "structural checks on the model"),
    "color": (_cmd_color, "show or derive the coloring"),
    "cover": (_cmd_cover, "peel a gentle cover off a string algebra"),
    "components": (_cmd_components, "maximal rank sequences for the dimension vector"),
    "peg": (_cmd_peg, "the root graph, as JSON or DOT"),
    "generators": (_cmd_generators, "semigroup generators of the extracted system"),
    "relations": (_cmd_relations, "presentation relations of the extracted system"),
    "presentation": (_cmd_presentation, "full translated presentation"),
    "degrees": (_cmd_degrees, "degree bounds for generators and relations"),
    "verify": (_cmd_verify, "cross-check the presentation against brute force"),
}


def run_command(command: str, model: ModelFile, cfg: CliConfig) -> str:
    if command not in _COMMANDS:
        raise InputError(f"unknown command {command!r}")
    if command == "peg" and cfg.dot:
        return export_dot(_quiver_context(model)[0].graph)
    handler, _ = _COMMANDS[command]
    payload = handler(model)
    if cfg.json:
        return _render_json(payload) + "\n"
    return _render_text(command, payload)


# ---------------------------------------------------------------------------
# JSON rendering

# the text of the small ints that fill dense int lists
_INT_TEXT = {n: str(n) for n in range(1024)}
_INT_ONLY = {int}


def _render_json(obj) -> str:
    """Exactly json.dumps(obj, indent=2, sort_keys=True), for report values,
    with each si.Runs written as its expanded list.

    The stdlib takes its pure-Python encoder for indented output. Here each
    list of plain ints is joined in one call, each run is written as one
    repeated string, and strings are escaped by json's C routine. Recursion
    runs through a module-level function, so no reference cycle is left for
    the garbage collector.
    """
    out: list[str] = []
    _json_chunks(obj, "\n", out)
    return "".join(out)


def _json_chunks(obj, nl: str, out: list[str]) -> None:
    """Append the text of obj, whose lines start with nl, to out."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif type(obj) is Runs:
        sep = "," + nl + "  "
        body = "".join([(sep + int.__repr__(v)) * m for v, m in obj.pairs])
        # body[1:] drops the first comma; no parts at all write []
        out.append("[" + body[1:] + nl + "]" if body else "[]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        for key in obj:
            if not isinstance(key, str):
                raise InvariantError(f"report key {key!r} is not a string")
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_chunks(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        if set(map(type, obj)) == _INT_ONLY:
            try:
                body = ("," + inner).join(map(_INT_TEXT.__getitem__, obj))
            except KeyError:
                body = ("," + inner).join(map(int.__repr__, obj))
            out.append("[" + inner + body + nl + "]")
            return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _json_chunks(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif type(obj) is int:
        out.append(int.__repr__(obj))
    else:
        out.append(json.dumps(obj))


# ---------------------------------------------------------------------------
# text rendering

def _term_sum(names: Sequence[str], vector: Sequence[int]) -> str:
    terms = []
    for name, k in zip(names, vector):
        if k == 1:
            terms.append(name)
        elif k > 1:
            terms.append(f"{k}*{name}")
    return " + ".join(terms) if terms else "0"


def _name_sum(names: Sequence[str]) -> str:
    return " + ".join(names) if names else "0"


def _generator_line(g: dict, variables: Sequence[str]) -> str:
    return f"{g['name']} ({g['kind']}): {_term_sum(variables, g['vector'])}"


def _relation_line(rel: dict) -> str:
    return f"{_name_sum(rel['lhs'])} = {_name_sum(rel['rhs'])}"


def _endpoint_text(ep: dict) -> str:
    phi = " ".join(ep["phi"])
    return f"{ep['cls']}({phi})" if phi else ep["cls"]


def _render_text(command: str, payload: dict) -> str:
    lines: list[str] = []
    if command == "validate":
        for name in sorted(payload["reports"]):
            rep = payload["reports"][name]
            lines.append(f"{name}: {'ok' if rep['ok'] else 'failed'}")
            for v in rep["violations"]:
                lines.append(f"  [{v['tag']}] {v['description']}")
        if "relations_match_coloring" in payload:
            match = "yes" if payload["relations_match_coloring"] else "no"
            lines.append(f"relations match coloring: {match}")
        lines.append("ok" if payload["ok"] else "not ok")
    elif command in ("color", "cover"):
        for s in sorted(payload["classes"]):
            lines.append(f"{s}: " + " ".join(payload["classes"][s]))
        key = "ideal" if command == "color" else "kept"
        for b, a in payload[key]:
            lines.append(f"rel {b} {a}")
        if command == "cover":
            for b, a in payload["kernel"]:
                lines.append(f"dropped {b} {a}")
            for flag in payload["flags"]:
                lines.append(f"flag: {flag}")
    elif command == "components":
        for rk in payload["maximal_ranks"]:
            lines.append(" ".join(f"{a}={rk[a]}" for a in sorted(rk)))
    elif command == "peg":
        lines.append(
            f"{len(payload['roots'])} roots,"
            f" {len(payload['vertex_edges'])} vertex edges,"
            f" {len(payload['colored_edges'])} colored edges"
        )
        for cp in payload["components"]:
            label = "|".join(str(t) for t in min(cp["roots"]))
            entry = f"{cp['kind']} [{len(cp['roots'])} roots] {label}"
            if cp["endpoints"]:
                entry += "  " + " ".join(
                    _endpoint_text(ep) for ep in cp["endpoints"]
                )
            lines.append(entry)
    elif command == "generators":
        for g in payload["generators"]:
            lines.append(_generator_line(g, payload["variables"]))
        if payload["free_variables"]:
            lines.append("free: " + " ".join(payload["free_variables"]))
        if payload["forced_zero"]:
            lines.append("forced zero: " + " ".join(payload["forced_zero"]))
        if not payload["generators"]:
            lines.append("no generators")
    elif command == "relations":
        for rel in payload["relations"]:
            lines.append(f"{_relation_line(rel)}  [{rel['provenance']}]")
        if not payload["relations"]:
            lines.append("no relations")
        lines.append(f"relation cap: {payload['relation_cap']}")
    elif command == "presentation":
        if "band_vars" in payload:
            lines.append("variables: " + " ".join(payload["variables"]))
            if payload["band_vars"]:
                lines.append("band variables: " + " ".join(payload["band_vars"]))
            for g in payload["generators"]:
                sigma = " ".join(
                    f"{x}:{s}" for x, s in sorted(g["sigma"].items())
                )
                lines.append(
                    f"{g['name']} ({g['kind']}) degree {g['degree']}"
                    f"  sigma {sigma}"
                )
            for rel in payload["relations"]:
                lines.append(_relation_line(rel))
            bounds = payload["degree_bounds"]
            lines.append(
                f"degree bounds: generators {bounds['generators']},"
                f" relations {bounds['relations']}"
            )
        else:
            for g in payload["generators"]:
                lines.append(_generator_line(g, payload["variables"]))
            for rel in payload["relations"]:
                lines.append(_relation_line(rel))
    elif command == "degrees":
        lines.append(
            "rank: " + " ".join(f"{a}={n}" for a, n in sorted(payload["rank"].items()))
        )
        bounds = payload["degree_bounds"]
        lines.append(f"generators in degree <= {bounds['generators']}")
        lines.append(f"relations in degree <= {bounds['relations']}")
    elif command == "verify":
        gm = "match" if payload["generators_match"] else "MISMATCH"
        rm = "match" if payload["relations_match"] else "MISMATCH"
        lines.append(f"generators: {gm}")
        lines.append(f"relations: {rm}")
        for w in payload["witnesses"]:
            lines.append(f"  {w}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gentle-si",
        description="Semi-invariant ring presentations for colored gentle quivers.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    for name, (_, help_line) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        sp.add_argument(
            "model", nargs="?", default="-", help="model file, - for stdin"
        )
        sp.add_argument("--json", action="store_true", help="emit JSON")
        if name == "peg":
            sp.add_argument("--dot", action="store_true", help="emit DOT")
    return parser


def _read_model_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _emit_error(json_mode: bool, kind: str, message: str) -> None:
    if json_mode:
        obj = {"error": {"kind": kind, "message": message}}
        sys.stdout.write(_render_json(obj) + "\n")
    else:
        sys.stderr.write(f"error: {message}\n")


def _show_warning(message, *_args, **_kwargs) -> None:
    sys.stderr.write(f"warning: {message}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    json_mode = "--json" in args_list
    with warnings.catch_warnings():
        # one line per warning, without the path and source line of its caller
        warnings.showwarning = _show_warning
        try:
            args = build_parser().parse_args(args_list)
            cfg = CliConfig(
                json=args.json,
                dot=getattr(args, "dot", False),
            )
            model = parse_model(_read_model_text(args.model))
            out = run_command(args.command, model, cfg)
        except InputError as exc:
            _emit_error(json_mode, "input", str(exc))
            return 1
        except InvariantError as exc:
            _emit_error(json_mode, "invariant", str(exc))
            return 2
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
