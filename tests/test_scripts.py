"""Smoke tests for the scripts under scripts/."""

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_random_agrees_with_oracle(capsys):
    verify_random = load_script("verify_random")
    assert verify_random.run(count=50, seed=777, max_m=4, max_l=8) == 0
    assert "50/50 systems agree with the oracle" in capsys.readouterr().out
