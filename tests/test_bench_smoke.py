"""One round of each benchmark workload, through the benchmark's own checks.

The benchmark refuses a change whose instances fail their checks; this runs
the same inputs and checks in tier-1, so a broken check shows here first.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys
import types

import pytest

from gentle_si import cli, matching, oracle, peg, quivers, ranks, si

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SEED = 97


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads().WORKLOADS

# the module namespace bench/run.py hands to a workload
MODS = types.SimpleNamespace(
    cli=cli,
    quivers=quivers,
    ranks=ranks,
    peg=peg,
    si=si,
    matching=matching,
    oracle=oracle,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_round_passes_its_checks(name):
    workload = WORKLOADS[name](MODS, SEED)
    round_ = workload.rounds(0)
    assert round_
    for inst in round_:
        assert inst.check(inst.run()) is None, inst.label
