"""Smoke tests for the scripts under scripts/."""

import importlib.util
import pathlib
import shutil

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


def test_update_goldens_check_names_a_tampered_file(tmp_path, monkeypatch, capsys):
    """--check passes on a copy of the goldens, then names the one file
    tampered with and exits 1, and writes nothing either time."""
    update_goldens = load_script("update_goldens")
    for path in update_goldens.GOLDENS.iterdir():
        shutil.copy(path, tmp_path / path.name)
    monkeypatch.setattr(update_goldens, "GOLDENS", tmp_path)
    assert update_goldens.run(check=True) == 0
    assert "would change " not in capsys.readouterr().out
    tampered = tmp_path / "closing_relations.json"
    tampered.write_text(tampered.read_text(encoding="utf-8") + " ", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert update_goldens.run(check=True) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("would change")] == [
        "would change closing_relations.json"
    ]
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
