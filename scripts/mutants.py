"""Run source mutants against the tests that should catch them.

Each row of MUTANTS names a file, an exact piece of its text that occurs
once, the text that replaces it, and either the tests that must fail on
the mutant or the reason why the mutant is equivalent. A run copies the
files in COPIED into a temporary directory, applies one mutant at a time
there, runs pytest on its tests and reports each mutant caught or
survived. A mutant whose tests do not finish within TIMEOUT seconds counts
as caught. Equivalent mutants are listed, not run. The named tests first
run once without a mutant, and must pass.

Usage: python scripts/mutants.py

The exit code is 1 when a mutant that is not argued equivalent survives,
when the table is out of step with the source (see table_errors), or when
the named tests fail without a mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "bench", "pyproject.toml", "README.md")
TIMEOUT = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...] = ()  # pytest node ids that must fail
    equivalent: str = ""  # why no test can fail, instead of tests


PEG = "src/gentle_si/peg.py"
SI = "src/gentle_si/si.py"
MATCHING = "src/gentle_si/matching.py"
CLI = "src/gentle_si/cli.py"

MUTANTS = (
    # the root graph on partner arrays
    Mutant(
        "peg: colored reflection off by one",
        PEG,
        "h = first[(a.head, s)] + beta[a.head] - 2",
        "h = first[(a.head, s)] + beta[a.head] - 1",
        ("tests/test_peg.py",),
    ),
    Mutant(
        "peg: band started at its larger neighbor",
        PEG,
        "_walk(graph, start, vpart[start] < cpart[start], seen)",
        "_walk(graph, start, vpart[start] > cpart[start], seen)",
        ("tests/test_peg.py::test_running_components",),
    ),
    Mutant(
        "peg: walked string not marked seen",
        PEG,
        "walk, stop = _walk(graph, e, vpart[e] >= 0, seen)",
        "walk, stop = _walk(graph, e, vpart[e] >= 0, bytearray(n))",
        ("tests/test_peg.py::test_running_components",),
    ),
    Mutant(
        "peg: double-pairing check dropped",
        PEG,
        "if len(set(part)) - (unpaired > 0) != n - unpaired:",
        "if False:",
        ("tests/test_peg.py::test_components_refuse_a_root_paired_twice",),
    ),
    Mutant(
        "peg: string re-entering itself accepted",
        PEG,
        "        if stop >= 0:\n",
        "        if False:\n",
        ("tests/test_peg.py::test_components_refuse_a_one_ended_string",),
    ),
    Mutant(
        "si: strings read off their second endpoint",
        SI,
        "extract.endpoint_of[cp.endpoints[0]].phi",
        "extract.endpoint_of[cp.endpoints[1]].phi",
        (
            "tests/test_peg.py"
            "::test_partner_arrays_match_the_general_graph_on_bundled_models",
        ),
    ),
    # translation to partition maps
    Mutant(
        "si: mirrored sums without their reversal",
        SI,
        "rest = reversed(other)",
        "rest = iter(other)",
        ("tests/test_si.py",),
    ),
    Mutant(
        "si: band values dropped",
        SI,
        "jumps = {idx: v for idx, v in bands if v}",
        "jumps = {}",
        ("tests/test_si.py",),
    ),
    Mutant(
        "si: first variable skipped",
        SI,
        "for uj, comps in zip(u, ctx.readers):",
        "for uj, comps in zip(u[1:], ctx.readers[1:]):",
        ("tests/test_si.py",),
    ),
    Mutant(
        "si: witness entries counted from 0",
        SI,
        "        entry = 1\n",
        "        entry = 0\n",
        ("tests/test_si.py",),
    ),
    # walk vectors as packed ints
    Mutant(
        "matching: plain comparison for the guarded one",
        MATCHING,
        "if ((rem | guard) - g) & guard == guard:",
        "if rem >= g:",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "matching: max for the best walk",
        MATCHING,
        "_, kind, vv, ee = min(picks)",
        "_, kind, vv, ee = max(picks)",
        ("tests/test_matching.py", "tests/test_cli.py"),
    ),
    Mutant(
        "matching: only the first shortest walk kept",
        MATCHING,
        "            cur[2].append(walk)\n",
        "            pass\n",
        ("tests/test_matching.py", "tests/test_cli.py"),
    ),
    Mutant(
        "matching: three-bit fields",
        MATCHING,
        "FIELD = 4\n",
        "FIELD = 3\n",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "matching: _pack without its check",
        MATCHING,
        "if not all(0 <= x < 1 << (FIELD - 1) for x in u):",
        "if False:",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "matching: solid step without its unit",
        MATCHING,
        "_extend(graph, verts, edges, fv, u + unit, visit)",
        "_extend(graph, verts, edges, fv, u, visit)",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "matching: string step without its unit",
        MATCHING,
        'offer("string", u + unit, verts + [w], edges + [lid])',
        'offer("string", u, verts + [w], edges + [lid])',
        ("tests/test_matching.py",),
    ),
    Mutant(
        "matching: _unpack mask of three bits",
        MATCHING,
        "mask = (1 << FIELD) - 1\n",
        "mask = (1 << (FIELD - 1)) - 1\n",
        equivalent="_pack keeps every field below 2**(FIELD - 1), and sums"
        " stay below it too, so no stored field reaches its guard bit",
    ),
    Mutant(
        "matching: membership by int() instead of type",
        MATCHING,
        "if not {int}.issuperset(map(type, u)):",
        "if any(int(x) != x for x in u):",
        ("tests/test_matching.py",),
    ),
    # generator counts packed once, and the step table
    Mutant(
        "matching: count width one bit short",
        MATCHING,
        "return (2 * walk_total).bit_length() + 1",
        "return (2 * walk_total).bit_length()",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "matching: count width from m instead of 2m",
        MATCHING,
        "_count_width(2 * sys_.m)",
        "_count_width(sys_.m)",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "matching: overflow test as >=",
        MATCHING,
        "1 << (self.width - 1) > 2 * len(found),",
        "1 << (self.width - 1) >= 2 * len(found),",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "matching: -r not looked up",
        MATCHING,
        "if r in seen or -r in seen:",
        "if r in seen:",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "matching: relations not marked seen",
        MATCHING,
        "            seen.add(r)\n",
        "            pass\n",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "matching: step table without each vertex's last entry",
        MATCHING,
        "steps=tuple(map(tuple, steps)),",
        "steps=tuple(tuple(s[:-1]) for s in steps),",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "matching: membership against zero on one side",
        MATCHING,
        "sum(map(entry, supports[k])) == sum(map(entry, supports[m + k]))",
        "sum(map(entry, supports[k])) == 0",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "matching: row counts up to 3",
        MATCHING,
        "            if fv[z] < 2:\n",
        "            if fv[z] <= 2:\n",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "matching: signed digits from > half",
        MATCHING,
        "        if d >= half:\n",
        "        if d > half:\n",
        equivalent="a digit reaches half only when a count reaches"
        " 2**(w - 1) > 2M, which the count width rules out",
    ),
    Mutant(
        "matching: pairs always taken on the right side",
        MATCHING,
        "    if len(left) < len(right):\n        left, right = right, left\n",
        "",
        equivalent="r is symmetric in left and right, so each call forms the"
        " same relations; only the work differs",
    ),
    Mutant(
        "cli: model numbers by \\d",
        CLI,
        '_NONNEG_RE = re.compile(r"[0-9]+")',
        '_NONNEG_RE = re.compile(r"\\d+")',
        ("tests/test_cli.py::test_parse_errors",),
    ),
)


def table_errors() -> list[str]:
    """What is wrong with the table: an old text that does not occur
    exactly once, a mutant that changes nothing, a row with both or neither
    of tests and a reason, or a test that does not exist."""
    errors = []
    texts: dict[str, str] = {}
    for m in MUTANTS:
        if m.path not in texts:
            texts[m.path] = (ROOT / m.path).read_text(encoding="utf-8")
        count = texts[m.path].count(m.old)
        if count != 1:
            errors.append(f"{m.name}: old text occurs {count} times in {m.path}")
        if m.old == m.new:
            errors.append(f"{m.name}: the new text is the old one")
        if bool(m.tests) == bool(m.equivalent):
            errors.append(f"{m.name}: give tests or a reason, not both or neither")
        for test in m.tests:
            path, _, func = test.partition("::")
            if not (ROOT / path).is_file():
                errors.append(f"{m.name}: no test file {path}")
            elif func and f"def {func}(" not in (ROOT / path).read_text("utf-8"):
                errors.append(f"{m.name}: no test {func} in {path}")
    return errors


def run_tests(work: Path, tests) -> str:
    """'passed', 'failed' or 'timed out' for pytest on tests in work."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(
            cmd + list(tests), cwd=work, env=env, timeout=TIMEOUT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if done.returncode == 0 else "failed"


def run_mutant(m: Mutant, work: Path) -> str:
    """'caught', 'survived' or 'timed out' for one mutant, applied in work
    and undone afterwards."""
    target = work / m.path
    original = target.read_text(encoding="utf-8")
    target.write_text(original.replace(m.old, m.new, 1), encoding="utf-8")
    try:
        verdict = run_tests(work, m.tests)
    finally:
        target.write_text(original, encoding="utf-8")
    return {"passed": "survived", "failed": "caught"}.get(verdict, verdict)


def run() -> int:
    errors = table_errors()
    for err in errors:
        print(f"table: {err}")
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(
                    src, work / name,
                    ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", "out"),
                )
            else:
                shutil.copy(src, work / name)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        if tests and run_tests(work, tests) != "passed":
            print("the named tests do not pass without a mutant")
            return 1
        for m in MUTANTS:
            if m.equivalent:
                print(f"equivalent  {m.name}: {m.equivalent}")
                continue
            start = time.perf_counter()
            verdict = run_mutant(m, work)
            survivors += verdict == "survived"
            print(f"{verdict:<11} {m.name} ({time.perf_counter() - start:.0f} s)")
    ran = sum(not m.equivalent for m in MUTANTS)
    print(f"{ran - survivors} of {ran} mutants caught, {len(MUTANTS) - ran} equivalent")
    return 1 if errors or survivors else 0


if __name__ == "__main__":
    sys.exit(run())
