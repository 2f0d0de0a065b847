"""Regenerate the byte-exact CLI outputs under tests/goldens/.

Run after any intentional output format change, then eyeball the diff:

    python scripts/update_goldens.py
    git diff tests/goldens

With --check it recomputes every golden and digest, writes nothing, names
each file that would change and exits 1 if any would:

    python scripts/update_goldens.py --check
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys

from gentle_si.cli import CliConfig, main, parse_model, run_command
from gentle_si.matching import make_system, presentation
from gentle_si.oracle import random_matching_system

GOLDENS = pathlib.Path(__file__).resolve().parent.parent / "tests" / "goldens"

CASES = [
    ("running_presentation.json", ["presentation", "running.model", "--json"]),
    ("running_presentation.txt", ["presentation", "running.model"]),
    ("running_peg.dot", ["peg", "running.model", "--dot"]),
    ("running_components.json", ["components", "running.model", "--json"]),
    ("path_components.json", ["components", "path.model", "--json"]),
    ("closing_generators.json", ["generators", "closing.model", "--json"]),
    ("closing_verify.json", ["verify", "closing.model", "--json"]),
    ("cover_report.json", ["cover", "cover.model", "--json"]),
    ("closing_relations.json", ["relations", "closing.model", "--json"]),
]

# sha256 over the sorted-key JSON lines of presentation().as_dict() for
# random_matching_system(random.Random(777)) draws 1..400 (m <= 4, l <= 8)
DIGEST_NAME = "random777_presentations.sha256"


def random_presentations_digest(seed: int = 777, count: int = 400) -> str:
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(count):
        d = presentation(random_matching_system(rng)).as_dict()
        h.update((json.dumps(d, sort_keys=True) + "\n").encode("utf-8"))
    return h.hexdigest()


# sha256 over the same lines for relation-rich systems: the first 300
# random_matching_system(random.Random(2718), occupancy=(2, 2, 2, 1)) draws
# with at least 5 variables, then chain(k, w) for (3, 2), (4, 2), (5, 2),
# (3, 3) and the Segre system of n = 2..8 (chain(1, n))
RICH_DIGEST_NAME = "relation_rich_presentations.sha256"


def chain_system(k: int, w: int):
    """Equation i reads u(i,1) + ... + u(i,w) = u(i+1,1) + ... + u(i+1,w)."""
    group = [[f"u{i}_{j}" for j in range(1, w + 1)] for i in range(1, k + 2)]
    return make_system([(group[i], group[i + 1]) for i in range(k)])


def relation_rich_presentations_digest() -> str:
    rng = random.Random(2718)
    systems = []
    while len(systems) < 300:
        sys_ = random_matching_system(rng, occupancy=(2, 2, 2, 1))
        if sys_.num_vars >= 5:
            systems.append(sys_)
    systems += [chain_system(k, w) for k, w in ((3, 2), (4, 2), (5, 2), (3, 3))]
    systems += [chain_system(1, n) for n in range(2, 9)]
    h = hashlib.sha256()
    for sys_ in systems:
        d = presentation(sys_).as_dict()
        h.update((json.dumps(d, sort_keys=True) + "\n").encode("utf-8"))
    return h.hexdigest()


# sha256 over the --json outputs of the running example scaled by k: presentation
# and peg with beta and r times k for k = 1..10, then components and
# derived-rank presentation with beta times k and no rank lines for k = 1..4
QUIVER_DIGEST_NAME = "running_scaled_outputs.sha256"


def scaled_running(k: int, ranks: bool) -> str:
    """running.model with every dimension and rank times k, or no rank lines."""
    lines = []
    text = (GOLDENS / "running.model").read_text(encoding="utf-8")
    for line in text.splitlines():
        tok = line.split()
        if tok and tok[0] in ("beta", "rank"):
            if tok[0] == "rank" and not ranks:
                continue
            line = f"{tok[0]} {tok[1]} {int(tok[2]) * k}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def quiver_outputs_digest() -> str:
    cases = [(cmd, k, True) for cmd in ("presentation", "peg") for k in range(1, 11)]
    cases += [
        (cmd, k, False) for cmd in ("components", "presentation") for k in range(1, 5)
    ]
    h = hashlib.sha256()
    for cmd, k, ranks in cases:
        model = parse_model(scaled_running(k, ranks))
        h.update(run_command(cmd, model, CliConfig(json=True)).encode("utf-8"))
    return h.hexdigest()


# sha256 over presentation --json and peg --json of the running example with
# beta and r times 25 and 50, the benchmark's heaviest quiver instances
LARGE_DIGEST_NAME = "running_large_outputs.sha256"


def large_outputs_digest() -> str:
    h = hashlib.sha256()
    for cmd in ("presentation", "peg"):
        for k in (25, 50):
            model = parse_model(scaled_running(k, True))
            h.update(run_command(cmd, model, CliConfig(json=True)).encode("utf-8"))
    return h.hexdigest()


def run(check: bool = False) -> int:
    texts = {}
    for out_name, argv in CASES:
        argv = [
            str(GOLDENS / a) if a.endswith(".model") else a for a in argv
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            print(f"{out_name}: exit {code}", file=sys.stderr)
            return code
        texts[out_name] = buf.getvalue()
    texts[DIGEST_NAME] = random_presentations_digest() + "\n"
    texts[RICH_DIGEST_NAME] = relation_rich_presentations_digest() + "\n"
    texts[QUIVER_DIGEST_NAME] = quiver_outputs_digest() + "\n"
    texts[LARGE_DIGEST_NAME] = large_outputs_digest() + "\n"
    if not check:
        for name, text in texts.items():
            (GOLDENS / name).write_text(text, encoding="utf-8")
            print(f"wrote {name} ({len(text)} bytes)")
        return 0
    changed = [
        name
        for name, text in texts.items()
        if not (GOLDENS / name).exists()
        or (GOLDENS / name).read_text(encoding="utf-8") != text
    ]
    for name in changed:
        print(f"would change {name}")
    print(f"{len(changed)} of {len(texts)} files would change")
    return 1 if changed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; name each file that would change, exit 1 if any",
    )
    raise SystemExit(run(check=parser.parse_args().check))
