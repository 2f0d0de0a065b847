"""Regenerate the byte-exact CLI outputs under tests/goldens/.

Run after any intentional output format change, then eyeball the diff:

    python scripts/update_goldens.py
    git diff tests/goldens
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys

from gentle_si.cli import main
from gentle_si.matching import presentation
from gentle_si.oracle import random_matching_system

GOLDENS = pathlib.Path(__file__).resolve().parent.parent / "tests" / "goldens"

CASES = [
    ("running_presentation.json", ["presentation", "running.model", "--json"]),
    ("running_presentation.txt", ["presentation", "running.model"]),
    ("running_peg.dot", ["peg", "running.model", "--dot"]),
    ("running_components.json", ["components", "running.model", "--json"]),
    ("path_components.json", ["components", "path.model", "--json"]),
    ("closing_generators.json", ["generators", "closing.model", "--json"]),
    ("closing_verify.json", ["verify", "closing.model", "--cap", "3", "--json"]),
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


def run() -> int:
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
        (GOLDENS / out_name).write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote {out_name} ({len(buf.getvalue())} bytes)")
    (GOLDENS / DIGEST_NAME).write_text(
        random_presentations_digest() + "\n", encoding="utf-8"
    )
    print(f"wrote {DIGEST_NAME}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
