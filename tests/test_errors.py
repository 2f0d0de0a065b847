"""Rules that hold across the package source: errors, parameters, callers."""

import ast
import importlib
import inspect
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "gentle_si"
ROOT = SRC.parent.parent


def test_invariants_use_require_not_assert():
    """`assert` vanishes under python -O; invariants go through errors.require."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {found}"


def _unused_parameters(path):
    """name:line:param for each parameter its function never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            body = [node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
        else:
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "lambda")
        out += [
            f"{path.name}:{node.lineno}:{name}({p.arg})"
            for p in params
            if p.arg not in read
            and p.arg not in ("self", "cls")
            and not p.arg.startswith("_")
        ]
    return out


def test_every_parameter_is_read():
    """A parameter no body reads is dead; name it with a leading _ if kept on purpose."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [hit for path in files for hit in _unused_parameters(path)]
    assert not found, f"parameters never read: {found}"


# public names kept for the paper alone, each with its reason
UNCALLED_ON_PURPOSE = {
    "theta": "the paper's endpoint involution on strings; tests check it is one",
    "roundtrip_uy": "the paper's inverse of lambda_from_uy; tests check the roundtrip",
    "component_values": "the paper's grading by components; tests check grades by it",
    "lambda_from_uy": "the paper's map from (u, y) to partition maps; tests check it",
    "si_membership": "the paper's weight equations on partition maps; tests check it",
    "is_maximal_rank": "the paper's maximality test for a bare rank sequence;"
    " tests check it against enumeration",
}


def _references(tree: ast.AST):
    """(name, line) for each name, attribute and imported name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def _program_trees():
    """The parsed source of every program file: src/, scripts/ and bench/."""
    program = [
        p
        for part in ("src", "scripts", "bench")
        for p in sorted((ROOT / part).rglob("*.py"))
    ]
    assert program
    return {
        p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in program
    }


def _uncalled(trees, defs, references):
    """qualname -> where, for each public (path, node, qualname) in defs
    whose name no reference outside its own body names; references(tree)
    yields (name, line)."""
    uses: dict[str, list] = {}
    for p, tree in trees.items():
        for name, line in references(tree):
            uses.setdefault(name, []).append((p, line))
    uncalled = {}
    for path, node, qualname in defs:
        if node.name.startswith("_"):
            continue
        own = range(node.lineno, node.end_lineno + 1)
        if not any(p != path or i not in own for p, i in uses.get(node.name, ())):
            uncalled[qualname] = f"{path.name}:{node.lineno}:{qualname}"
    return uncalled


def _assert_exact(uncalled, allowed, what):
    dead = [w for name, w in uncalled.items() if name not in allowed]
    assert not dead, f"public {what} with no caller outside tests: {dead}"
    stale = sorted(set(allowed) - set(uncalled))
    assert not stale, f"allow-listed {what} that have a caller or are gone: {stale}"


def test_every_public_name_has_a_caller():
    """A public def or class no program file references is dead, or is allow-listed.

    A reference is a name, an attribute or an import in the parsed source;
    docstrings, comments and strings do not count, nor does a definition's
    own body. The allow-list stays exact: a listed name that gains a caller
    or is deleted must leave it.
    """
    trees = _program_trees()
    defs = [
        (path, node, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    uncalled = _uncalled(trees, defs, _references)
    _assert_exact(uncalled, UNCALLED_ON_PURPOSE, "names")


# public methods kept for the paper alone, as Class.method, each with its reason
UNCALLED_METHODS_ON_PURPOSE: dict[str, str] = {}


def _attributes(tree: ast.AST):
    """(attr, line) for each attribute reference in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_public_method_has_a_caller():
    """A public method, property included, of a package class that no program
    file reads as an attribute is dead, or is allow-listed.

    Only attribute references count, outside the method's own body; a
    method of that name on any class counts as read. The allow-list stays
    exact, as for top-level names.
    """
    trees = _program_trees()
    defs = [
        (path, node, f"{cls.name}.{node.name}")
        for path in sorted(SRC.glob("*.py"))
        for cls in trees[path].body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert defs
    uncalled = _uncalled(trees, defs, _attributes)
    _assert_exact(uncalled, UNCALLED_METHODS_ON_PURPOSE, "methods")


# The public top-level functions of the modules bench/tracer.py wraps. The
# tracer rebinds each of them, in every module that binds it, once per
# benchmark instance and outside the instance's span, so one more widens the
# traced run's accounting gap. New helpers stay private until the package
# records its own stages (ROADMAP item 14) and this list is lifted.
PUBLIC_FUNCTIONS = {
    "cli": ["build_parser", "main", "parse_model", "run_command"],
    "quivers": [
        "color_classes",
        "color_incidence",
        "coloring_from_gentle",
        "gentle_cover",
        "is_gentle",
        "is_string_algebra",
        "monochromatic_ideal",
        "validate_coloring",
        "validate_relations",
    ],
    "ranks": ["check_beta", "is_maximal_rank", "maximal_rank_sequences"],
    "peg": [
        "build_peg",
        "classify_endpoints",
        "components",
        "export_dot",
        "extract_matching_system",
        "theta",
    ],
    "si": [
        "component_labels",
        "component_values",
        "degree_bounds",
        "lambda_from_uy",
        "peg_context",
        "root_jumps",
        "roundtrip_uy",
        "si_membership",
        "si_presentation",
    ],
    "matching": [
        "build_graph",
        "forced_zero_vars",
        "generators",
        "is_member",
        "make_system",
        "presentation",
        "render_walk",
        "system_from_rows",
        "validate_system",
    ],
    "oracle": [
        "fibers",
        "hilbert_basis",
        "random_matching_system",
        "verify_presentation",
        "verify_si_equations",
    ],
}


def test_no_new_public_functions_in_the_traced_modules():
    """The traced modules define exactly the public functions listed, found
    as the tracer finds them: functions defined in the module whose name has
    no leading underscore."""
    found = {}
    for name in PUBLIC_FUNCTIONS:
        mod = importlib.import_module(f"gentle_si.{name}")
        found[name] = sorted(
            attr
            for attr, fn in vars(mod).items()
            if not attr.startswith("_")
            and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__
        )
    assert found == PUBLIC_FUNCTIONS


# the engine's modules, which neither the referee nor the test references import
ENGINE = {"peg", "si", "ranks", "cli"}
# the package modules they read only the data types and helpers of
REFEREE_IMPORTS = {
    "matching": {"MatchingSystem", "system_from_rows"},
    "quivers": {"Arrow", "Coloring", "Quiver", "color_incidence"},
}


def _imports(path):
    """(module, name, line) for each imported name in path's source.

    Package modules come out bare, whether imported relatively or through
    gentle_si; name is None when a whole module is imported.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.removeprefix("gentle_si."), None, node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.startswith("gentle_si"):
                module = module.removeprefix("gentle_si").lstrip(".")
            for alias in node.names:
                if module:
                    yield module, alias.name, node.lineno
                else:  # from gentle_si import peg, from . import peg
                    yield alias.name, None, node.lineno


def test_referee_stays_independent_of_the_engine():
    """oracle.py and tests/reference.py never import the code they check.

    Neither imports peg, si, ranks or cli, and from matching and quivers
    only the names in REFEREE_IMPORTS. No file under src/ imports from the
    tests.
    """
    found = []
    for path in (SRC / "oracle.py", TESTS / "reference.py"):
        for module, name, line in _imports(path):
            if module in ENGINE or (
                module in REFEREE_IMPORTS and name not in REFEREE_IMPORTS[module]
            ):
                found.append(f"{path.name}:{line}: {module} {name or ''}".rstrip())
    assert not found, f"the referee imports the engine: {found}"
    test_modules = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    into_tests = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for module, _, line in _imports(path)
        if module.split(".")[0] in test_modules
    ]
    assert not into_tests, f"package modules import from the tests: {into_tests}"
