"""Error-handling rules that hold across the package source."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gentle_si"


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
