"""End-to-end CLI tests: model parsing, command output, exit codes, goldens."""

from __future__ import annotations

import gc
import hashlib
import importlib.resources
import io
import json
import math
import pathlib
import random
import re
import shlex
import signal
import time
import warnings
from dataclasses import replace

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixtures import closing_system, expand_runs, path_example
from reference import random_tight_component
from gentle_si import cli, matching, peg, quivers, ranks, si
from gentle_si.cli import CliConfig, main, parse_model, run_command
from gentle_si.errors import InputError, InvariantError
from gentle_si.ranks import is_maximal_rank
from gentle_si.si import Runs

GOLDENS = pathlib.Path(__file__).parent / "goldens"

GOLDEN_CASES = [
    ("running_presentation.json", ("presentation", "running.model", "--json")),
    ("running_presentation.txt", ("presentation", "running.model")),
    ("running_peg.dot", ("peg", "running.model", "--dot")),
    ("running_components.json", ("components", "running.model", "--json")),
    ("path_components.json", ("components", "path.model", "--json")),
    ("closing_generators.json", ("generators", "closing.model", "--json")),
    ("closing_verify.json", ("verify", "closing.model", "--json")),
    ("cover_report.json", ("cover", "cover.model", "--json")),
    ("closing_relations.json", ("relations", "closing.model", "--json")),
]


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def model_path(name: str) -> str:
    return str(GOLDENS / name)


def scaled_running(k: int, ranks: bool = True) -> str:
    """running.model with every dimension and rank times k, or no rank lines."""
    lines = []
    for line in (GOLDENS / "running.model").read_text(encoding="utf-8").splitlines():
        tok = line.split()
        if tok and tok[0] in ("beta", "rank"):
            if tok[0] == "rank" and not ranks:
                continue
            line = f"{tok[0]} {tok[1]} {int(tok[2]) * k}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing

def test_parse_quiver_model():
    model = parse_model((GOLDENS / "running.model").read_text())
    assert model.kind == "quiver"
    assert sorted(model.q.arrow_names()) == [
        "a1", "a2", "b1", "b2", "b3", "c1", "c2",
    ]
    assert model.coloring.color("b2") == "b"
    assert model.beta["2"] == 6
    assert model.rank == {a: 2 for a in model.q.arrow_names()}
    assert model.relations is None


def test_parse_relations_model_without_colors():
    model = parse_model((GOLDENS / "path.model").read_text())
    assert model.coloring is None
    assert ("a2", "a1") in model.relations
    assert model.rank is None


def test_parse_system_variable_order():
    model = parse_model("eq 1: z = w\neq 2: w q = z\n")
    assert model.kind == "system"
    assert model.system.var_names == ("z", "w", "q")


def test_parse_system_declared_order_wins():
    model = parse_model("var w\nvar q\neq 1: z = w\neq 2: w q = z\n")
    assert model.system.var_names == ("w", "q", "z")


def test_parse_comments_and_blanks():
    model = parse_model("# header\n\nvertex 1   # trailing\n")
    assert model.q.vertices == ("1",)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("vertex 1\nbogus x\n", "line 2: unknown directive"),
        ("vertex 1\nvertex 1\n", "line 2: duplicate vertex"),
        ("vertex 1\narrow a 1 1\narrow a 1 1\n", "line 3: duplicate arrow"),
        ("", "no vertices"),
        ("# only a comment\n", "no vertices"),
        ("vertex 1\neq 1: x = y\n", "mixes quiver and system"),
        ("eq 1: x y z\n", "exactly one ="),
        ("eq 1: x = y = z\n", "exactly one ="),
        ("eq 1: x x = y\n", "repeated within one equation side"),
        ("eq 2: x = y\n", "indices must be 1..m"),
        ("eq 1: x = y\neq 1: y = x\n", "line 2: duplicate equation"),
        ("vertex 1\nbeta 1 -2\n", "nonnegative integer"),
        ("vertex 1\nbeta 1 two\n", "nonnegative integer"),
        ("vertex 1\nbeta 1 1_0\n", "line 2: dimension must be a nonnegative"),
        ("vertex 1\nbeta 1 \u0663\n", "line 2: dimension must be a nonnegative"),
        ("vertex 1\nbeta 1 +2\n", "line 2: dimension must be a nonnegative"),
        ("vertex 1\narrow a 1 1\nrank a \u0663\n", "line 3: rank must be"),
        ("eq \u0661: x = y\n", "line 1: expected: eq"),
        ("vertex 1\nvertex 2\narrow a 1 3\n", "line 3: unknown vertex 3"),
        ("vertex 1\nvertex 2\narrow a 1 2\nrel a b\n", "line 4: unknown arrow b"),
        ("vertex 1\nbeta 9 1\n", "line 2: unknown vertex 9"),
        ("vertex 1\nvertex 2\narrow a 1 2\nrank z 1\n", "line 4: unknown arrow z"),
        (
            "vertex 1\nvertex 2\narrow a 1 2 color s\narrow b 1 2\n",
            "arrows without color: b",
        ),
        (
            "vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\nrank a 1\n",
            "rank missing for arrows: b",
        ),
        ("vertex 1\narrow a 1\n", "expected: arrow"),
        ("vertex 1\nvertex 1 2\n", "expected: vertex"),
    ],
)
def test_parse_errors(text, needle):
    with pytest.raises(InputError) as exc:
        parse_model(text)
    assert needle in str(exc.value)


# ---------------------------------------------------------------------------
# goldens

@pytest.mark.parametrize("out_name,argv", GOLDEN_CASES)
def test_golden_output(capsys, out_name, argv):
    argv = [model_path(a) if a.endswith(".model") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDENS / out_name).read_text(encoding="utf-8")


def scaled_outputs_digest() -> str:
    """sha256 of the JSON that presentation and peg print with beta and r
    times 1..10, then components and derived-rank presentation with beta
    times 1..4."""
    cases = [(cmd, k, True) for cmd in ("presentation", "peg") for k in range(1, 11)]
    cases += [
        (cmd, k, False) for cmd in ("components", "presentation") for k in range(1, 5)
    ]
    h = hashlib.sha256()
    for cmd, k, ranks in cases:
        model = parse_model(scaled_running(k, ranks))
        h.update(run_command(cmd, model, CliConfig(json=True)).encode("utf-8"))
    return h.hexdigest()


def test_scaled_running_outputs_match_golden_digest():
    """The quiver side prints exactly as recorded on the scaled running example."""
    digest = (GOLDENS / "running_scaled_outputs.sha256").read_text(encoding="utf-8")
    assert scaled_outputs_digest() == digest.split()[0]


def test_presentation_writes_no_runs_out_densely(capsys, monkeypatch):
    """From translation to output, no partition, y or grade is expanded:
    with Runs.expand raising, presentation still prints the goldens and the
    scaled digest, running x10 prints its text as before, and every bundled
    model prints what it printed before, as JSON and as text."""
    argvs = [
        ("presentation", model_path(path.name), *flag)
        for path in sorted(GOLDENS.glob("*.model"))
        for flag in ((), ("--json",))
    ]
    before = [run_cli(capsys, *argv) for argv in argvs]
    text_x10 = run_command("presentation", parse_model(scaled_running(10)), CliConfig())

    def dense(self):
        raise AssertionError("a Runs was expanded")

    monkeypatch.setattr(Runs, "expand", dense)
    with pytest.raises(AssertionError, match="a Runs was expanded"):
        Runs(((1, 2),)).expand()
    for out_name, argv in GOLDEN_CASES:
        if argv[0] == "presentation":
            argv = [model_path(a) if a.endswith(".model") else a for a in argv]
            code, out, _ = run_cli(capsys, *argv)
            assert (code, out) == (0, (GOLDENS / out_name).read_text(encoding="utf-8"))
    digest = (GOLDENS / "running_scaled_outputs.sha256").read_text(encoding="utf-8")
    assert scaled_outputs_digest() == digest.split()[0]
    model = parse_model(scaled_running(10))
    assert run_command("presentation", model, CliConfig()) == text_x10
    assert [run_cli(capsys, *argv) for argv in argvs] == before


def test_large_running_outputs_match_golden_digest():
    """presentation and peg print exactly as recorded at beta and r times 25
    and 50, the benchmark's heaviest quiver instances."""
    h = hashlib.sha256()
    for cmd in ("presentation", "peg"):
        for k in (25, 50):
            model = parse_model(scaled_running(k))
            h.update(run_command(cmd, model, CliConfig(json=True)).encode("utf-8"))
    digest = (GOLDENS / "running_large_outputs.sha256").read_text(encoding="utf-8")
    assert h.hexdigest() == digest.split()[0]


# ---------------------------------------------------------------------------
# report schema

def load_schema() -> dict:
    ref = importlib.resources.files("gentle_si").joinpath(
        "data/report_schema.json"
    )
    return json.loads(ref.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "out_name", [n for n, _ in GOLDEN_CASES if n.endswith(".json")]
)
def test_golden_matches_schema(out_name):
    payload = json.loads((GOLDENS / out_name).read_text(encoding="utf-8"))
    jsonschema.validate(payload, load_schema())


# one argument list per bundled report: the JSON runs are schema-checked,
# the text runs must print something
REPORT_ARGV = [
    ("validate", "running.model"),
    ("validate", "closing.model"),
    ("validate", "cover.model"),
    ("color", "running.model"),
    ("color", "path.model"),
    ("components", "running.model"),
    ("peg", "running.model"),
    ("peg", "determinant.model"),
    ("generators", "running.model"),
    ("generators", "closing.model"),
    ("relations", "running.model"),
    ("relations", "closing.model"),
    ("presentation", "closing.model"),
    ("presentation", "determinant.model"),
    ("presentation", "path.model"),
    ("degrees", "running.model"),
    ("degrees", "path.model"),
    ("verify", "running.model"),
    ("cover", "cover.model"),
    ("presentation", "running.model"),
    ("verify", "closing.model"),
]


@pytest.mark.parametrize("argv", REPORT_ARGV)
def test_every_json_report_matches_schema(capsys, argv):
    full = [model_path(a) if a.endswith(".model") else a for a in argv]
    code, out, err = run_cli(capsys, *full, "--json")
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema())


@pytest.mark.parametrize("argv", REPORT_ARGV)
def test_every_text_report_prints(capsys, argv):
    full = [model_path(a) if a.endswith(".model") else a for a in argv]
    code, out, err = run_cli(capsys, *full)
    assert code == 0, err
    assert out.strip()


def test_error_object_matches_schema(capsys):
    code, out, err = run_cli(capsys, "presentation", "/nonexistent", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["kind"] == "input"
    jsonschema.validate(payload, load_schema())


# ---------------------------------------------------------------------------
# JSON rendering: byte for byte what json.dumps(indent=2, sort_keys=True) gives

def stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


JSON_TEXT = st.text(
    st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€漢\U0001f600') | st.characters()
)
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | st.floats()
    | JSON_TEXT
    | st.lists(st.integers(min_value=-3, max_value=2000) | st.booleans(), max_size=6)
    | st.lists(
        st.tuples(st.integers(min_value=-3, max_value=2000), st.integers(0, 3)),
        max_size=4,
    ).map(lambda pairs: Runs(tuple(pairs)))
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(JSON_TEXT, kids, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
@example([1, True])
@example({"a": [{}, []], "b": ([], {"": {}}), "c": {"d": ()}})
@example({'"q"\n': [-1, 2**70, None, False], "\u00e9\x01": (0, 1023, 1024)})
@example({"empty": Runs(()), "one": Runs(((3, 4),)), "none": Runs(((5, 0),))})
@example([Runs(((1024, 2), (2**70, 1), (0, 3))), {"a": Runs(((-1, 1), (1, 2)))}])
def test_render_json_matches_stdlib(obj):
    """Each Runs renders as json.dumps renders its expanded tuple."""
    assert cli._render_json(obj) == stdlib_json(expand_runs(obj))


def test_render_json_rejects_non_string_keys():
    with pytest.raises(InvariantError, match="not a string"):
        cli._render_json({"a": {1: "b"}})


def test_every_command_payload_renders_as_stdlib():
    """Every command's --json payload on every bundled model, and running x3."""
    models = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(GOLDENS.glob("*.model"))
    }
    models["running x3"] = scaled_running(3)
    rendered = 0
    for name, text in models.items():
        for command, (handler, _) in cli._COMMANDS.items():
            try:
                payload = handler(parse_model(text))
            except InputError as exc:
                payload = {"error": {"kind": "input", "message": str(exc)}}
            expected = stdlib_json(expand_runs(payload))
            assert cli._render_json(payload) == expected, (name, command)
            rendered += 1
    assert rendered == 60


def test_presentation_payloads_render_as_stdlib_on_random_components():
    """The presentation payloads of 200 random tight components render as
    json.dumps renders them expanded: 170 present, 9 of them with bands
    and 145 with a vertex of dimension zero."""
    rendered = 0
    for seed in range(200):
        q, c, beta, r = random_tight_component(random.Random(seed))
        with warnings.catch_warnings():
            # a draw whose r is not maximal presents a smaller stratum
            warnings.simplefilter("ignore", UserWarning)
            try:
                payload = si.si_presentation(q, c, beta, r).as_dict()
            except InputError:  # a vertex carries three colors
                continue
        expected = stdlib_json(expand_runs(payload))
        assert cli._render_json(payload) == expected, seed
        rendered += 1
    assert rendered == 170


def test_render_json_writes_empty_and_single_runs():
    """A rank-zero arrow has an empty partition, and y is empty without
    bands: both write []. A partition of one run writes its part r(a)
    times."""
    q, c, _ = path_example()
    pres = si.si_presentation(q, c, {"1": 2, "2": 2, "3": 0}, {"a1": 2, "a2": 0})
    (g,) = pres.as_dict()["generators"]
    assert g["partitions"]["a2"] == Runs(()) and g["y"] == Runs(())
    assert g["partitions"]["a1"] == Runs(((1, 2),))
    text = cli._render_json(g)
    assert text == stdlib_json(expand_runs(g))
    assert '"a1": [\n      1,\n      1\n    ],\n    "a2": []' in text
    assert '"y": []' in text


def test_render_json_leaves_no_cyclic_garbage():
    """Each render frees all it built by reference counting alone."""
    payload = cli._COMMANDS["presentation"][0](parse_model(scaled_running(10)))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(10):
            cli._render_json(payload)
        found = gc.collect()
        saved = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert (found, saved) == (0, 0)


# ---------------------------------------------------------------------------
# closed form beyond the oracle's reach

@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_segre_relations_are_the_2x2_minors(capsys, tmp_path, n):
    """One equation x1 + ... + xn = y1 + ... + yn presents the Segre ring.

    Its generators are the n^2 vectors x_i + y_j and its relations the
    C(n,2)^2 minors x_i y_j * x_k y_l = x_i y_l * x_k y_j, one per fiber.
    """
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{i}" for i in range(1, n + 1)]
    path = tmp_path / f"segre{n}.model"
    path.write_text(f"eq 1: {' '.join(xs)} = {' '.join(ys)}\n")
    code, out, err = run_cli(capsys, "relations", path, "--json")
    assert code == 0
    payload = json.loads(out)

    want = set()
    for i in range(n):
        for j in range(n):
            u = [0] * (2 * n)
            u[i] = u[n + j] = 1
            want.add(tuple(u))
    vec = {g["name"]: tuple(g["vector"]) for g in payload["generators"]}
    assert len(vec) == n * n
    assert set(vec.values()) == want

    def side_sum(names):
        return tuple(map(sum, zip(*(vec[g] for g in names))))

    rels = payload["relations"]
    assert len(rels) == math.comb(n, 2) ** 2
    fibers = set()
    for rel in rels:
        assert len(rel["lhs"]) == len(rel["rhs"]) == 2
        assert not set(rel["lhs"]) & set(rel["rhs"])
        assert side_sum(rel["lhs"]) == side_sum(rel["rhs"])
        fibers.add(side_sum(rel["lhs"]))
    assert len(fibers) == len(rels)


def readme_commands():
    """Every gentle-si line of README's sh blocks, as argument lists."""
    text = (GOLDENS.parent.parent / "README.md").read_text(encoding="utf-8")
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gentle-si"]:
                out.append(words[1 : words.index(">")] if ">" in words else words[1:])
    return out


def test_readme_examples_run(capsys, monkeypatch):
    monkeypatch.chdir(GOLDENS.parent.parent)
    commands = readme_commands()
    assert len(commands) >= 4
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


# ---------------------------------------------------------------------------
# quiver side: scale, stage counts, declaration order

def _give_up(signum, frame):
    raise TimeoutError("components did not finish within 5 s")


def test_components_at_fifty_times_the_running_dimensions():
    """101 maximal rank sequences; the rank box alone has about 2e6 points."""
    model = parse_model(scaled_running(50, ranks=False))
    previous = signal.signal(signal.SIGALRM, _give_up)
    signal.alarm(5)
    try:
        start = time.perf_counter()
        out = run_command("components", model, CliConfig(json=True))
        elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 1.0
    seqs = json.loads(out)["maximal_ranks"]
    assert len(seqs) == 101
    for r in seqs:
        assert is_maximal_rank(model.q, model.coloring, model.beta, r)


def test_presentation_runs_each_graph_stage_once(monkeypatch):
    calls = {}
    stages = ("build_peg", "components", "classify_endpoints", "extract_matching_system")
    for name in stages:
        fn = getattr(peg, name)
        calls[name] = 0

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in (peg, si, cli):
            if vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counted)
    model = parse_model((GOLDENS / "running.model").read_text(encoding="utf-8"))
    out = run_command("presentation", model, CliConfig(json=True))
    assert out == (GOLDENS / "running_presentation.json").read_text(encoding="utf-8")
    assert calls == dict.fromkeys(calls, 1)


# runs of validate_coloring, of the coloring's path walk, of color_incidence
# and of check_beta for one command on running.model: the CLI checks the
# coloring once, and the rank component's entry checks it with beta and r
# once; presentation reads maximality off the slack that entry measured
CHECK_COUNTS = {
    "presentation": (2, 2, 1, 1),
    "peg": (2, 2, 1, 1),
    "generators": (2, 2, 1, 1),
    "relations": (2, 2, 1, 1),
    "verify": (2, 2, 1, 1),
}


def test_presentation_validates_the_coloring_independent_of_size(monkeypatch):
    """Model checks run a fixed number of times per command, not per
    generator or per root: running x1 and x10 give the same counts."""
    checks = (
        (quivers, "validate_coloring"),
        (quivers, "_color_paths"),
        (quivers, "color_incidence"),
        (ranks, "check_beta"),
    )
    runs = {}
    for home, name in checks:
        fn = getattr(home, name)
        runs[name] = 0

        def counted(*args, _name=name, _fn=fn, **kwargs):
            runs[_name] += 1
            return _fn(*args, **kwargs)

        for mod in (quivers, ranks, peg, si, cli):
            if vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counted)
    for command, want in CHECK_COUNTS.items():
        for k in (1, 10):
            runs.update(dict.fromkeys(runs, 0))
            run_command(command, parse_model(scaled_running(k)), CliConfig(json=True))
            assert tuple(runs.values()) == want, (command, k, runs)


@pytest.mark.parametrize(
    "name", ["running.model", "determinant.model", "path.model", "running x3"]
)
def test_declaration_order_does_not_change_output(name):
    """Shuffled declaration lines give byte-identical presentation and components."""
    if name == "running x3":
        text = scaled_running(3, ranks=False)
    else:
        text = (GOLDENS / name).read_text(encoding="utf-8")
    lines = text.splitlines()
    cfg = CliConfig(json=True)
    for command in ("presentation", "components"):
        want = run_command(command, parse_model(text), cfg)
        rng = random.Random(5)
        for _ in range(30):
            rng.shuffle(lines)
            got = run_command(command, parse_model("\n".join(lines) + "\n"), cfg)
            assert got == want


# ---------------------------------------------------------------------------
# exit codes and modes

def test_text_error_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "presentation", "/nonexistent")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_usage_error_is_input_error(capsys):
    code, out, err = run_cli(capsys, "peg", model_path("running.model"), "--bogus")
    assert code == 1
    assert "bogus" in err


def test_missing_command_is_input_error(capsys):
    code, out, err = run_cli(capsys)
    assert code == 1


@pytest.mark.parametrize(
    "line", ["beta 2 -1", "beta 2 1.5", "rank a -1", "rank a x"]
)
def test_bad_dimension_or_rank_exits_1(capsys, tmp_path, line):
    text = "vertex 1\nvertex 2\narrow a 1 2 color s\nbeta 1 2\nbeta 2 2\n"
    if line.startswith("beta"):
        text = text.replace("beta 2 2\n", line + "\n") + "rank a 1\n"
    else:
        text += line + "\n"
    path = tmp_path / "bad.model"
    path.write_text(text)
    code, out, err = run_cli(capsys, "presentation", path, "--json")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "input"


@pytest.mark.parametrize(
    "line",
    ["beta 2 1_0", "beta 2 \u0663", "beta 2 +2", "rank a \u0663", "eq \u0661: x = y"],
)
def test_numbers_outside_ascii_digits_exit_1(capsys, tmp_path, line):
    """int() read "1_0" as 10, "+2" as 2 and an Arabic-Indic three as 3, and
    \\d took an Arabic-Indic one as equation 1; each is an input error naming
    its line, in text and in JSON."""
    path = tmp_path / "bad.model"
    if line.startswith("eq"):
        path.write_text(line + "\n", encoding="utf-8")
        lineno = 1
    else:
        text = "vertex 1\nvertex 2\narrow a 1 2 color s\nbeta 1 2\n" + line + "\n"
        path.write_text(text, encoding="utf-8")
        lineno = 5
    code, out, err = run_cli(capsys, "validate", path)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: line {lineno}: ")
    code, out, err = run_cli(capsys, "validate", path, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["kind"] == "input"
    assert payload["error"]["message"].startswith(f"line {lineno}: ")
    jsonschema.validate(payload, load_schema())


def test_invariant_error_maps_to_exit_2(capsys, monkeypatch):
    def boom(sys_):
        raise InvariantError("forced failure")

    monkeypatch.setattr(cli, "presentation", boom)
    code, out, err = run_cli(capsys, "presentation", model_path("closing.model"))
    assert code == 2
    assert "forced failure" in err

    code, out, err = run_cli(
        capsys, "presentation", model_path("closing.model"), "--json"
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["kind"] == "invariant"
    jsonschema.validate(payload, load_schema())


def test_walk_vector_outside_the_semigroup_exits_2(capsys, monkeypatch):
    """A walk vector that fails membership can only come from an engine bug:
    presentation raises InvariantError and the generators command exits 2."""
    monkeypatch.setattr(matching, "is_member", lambda sys_, u: False)
    with pytest.raises(InvariantError, match="walk vector fails membership"):
        matching.presentation(closing_system())
    code, out, err = run_cli(capsys, "generators", model_path("closing.model"))
    assert (code, out) == (2, "")
    assert "walk vector fails membership" in err


def test_model_that_is_not_utf8_exits_1(capsys, tmp_path):
    """A model file holding a byte that is not UTF-8 is an input error in
    both modes, not a traceback."""
    path = tmp_path / "bad.model"
    path.write_bytes((GOLDENS / "closing.model").read_bytes() + b"\xff\n")
    code, out, err = run_cli(capsys, "validate", path)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: ")
    code, out, err = run_cli(capsys, "validate", path, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["kind"] == "input"
    assert payload["error"]["message"].startswith(f"cannot read {path}: ")
    jsonschema.validate(payload, load_schema())


def test_extractor_axiom_violation_exits_2(capsys, monkeypatch):
    """Equations that break the matching axioms can only come from an
    extractor bug, so they exit 2 with the violation, not 1."""
    classify = peg.classify_endpoints

    def with_a1(*args):
        return [
            replace(ep, phi=ep.phi + ("a1",)) if i % 2 and "a1" not in ep.phi else ep
            for i, ep in enumerate(classify(*args))
        ]

    monkeypatch.setattr(peg, "classify_endpoints", with_a1)
    code, out, err = run_cli(capsys, "presentation", model_path("running.model"))
    assert code == 2
    assert "not a matching system" in err


def test_reads_model_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO((GOLDENS / "closing.model").read_text())
    )
    code, out, err = run_cli(capsys, "generators", "--json")
    assert code == 0
    assert out == (GOLDENS / "closing_generators.json").read_text()


def test_validate_reports_bad_system_without_failing(capsys, monkeypatch):
    bad = "eq 1: x = y\neq 2: x y = z\neq 3: x z = w\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(bad))
    code, out, err = run_cli(capsys, "validate", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is False
    tags = {
        v["tag"] for v in payload["reports"]["system"]["violations"]
    }
    assert "column" in tags
    jsonschema.validate(payload, load_schema())


def test_pipeline_rejects_bad_system(capsys, monkeypatch):
    bad = "eq 1: x = y\neq 2: x y = z\neq 3: x z = w\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(bad))
    code, out, err = run_cli(capsys, "generators")
    assert code == 1
    assert "not a matching system" in err


def test_validate_flags_coloring_relation_mismatch(capsys, monkeypatch):
    text = (
        "vertex 1\nvertex 2\nvertex 3\n"
        "arrow a1 1 2 color s\narrow a2 2 3 color s\n"
        "rel a2 a1\n"
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "validate", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["relations_match_coloring"] is True
    assert payload["ok"] is True

    text2 = text.replace("rel a2 a1\n", "")
    text2 += "rel a1 a2\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text2))
    code, out, err = run_cli(capsys, "validate", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is False


# ---------------------------------------------------------------------------
# command behaviour

def test_rank_derivation_flagged(capsys):
    code, out, err = run_cli(
        capsys, "presentation", model_path("path.model"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rank_derived"] is True
    assert payload["component"] == {"a1": 0, "a2": 1}
    assert payload["rank_maximal"] is True


@pytest.mark.parametrize("json_flag", [False, True])
def test_non_maximal_rank_warns_in_one_line(capsys, tmp_path, json_flag):
    """The warning is one stderr line; stdout is the report run_command gives."""
    text = (GOLDENS / "running.model").read_text(encoding="utf-8")
    text = text.replace("rank b2 2\n", "rank b2 1\n")
    path = tmp_path / "nonmax.model"
    path.write_text(text)
    with pytest.warns(UserWarning, match="not maximal"):
        want = run_command("presentation", parse_model(text), CliConfig(json=json_flag))
    argv = ["presentation", path] + ["--json"] * json_flag
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == "warning: rank sequence is not maximal for this dimension vector\n"
    assert out == want
    if json_flag:
        assert json.loads(out)["rank_maximal"] is False


def test_explicit_rank_not_flagged(capsys):
    code, out, err = run_cli(
        capsys, "degrees", model_path("running.model"), "--json"
    )
    payload = json.loads(out)
    assert payload["rank_derived"] is False
    assert payload["degree_bounds"] == {"generators": 42, "relations": 168}


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("rank a1 2", "rank a1 5", "not a rank sequence, violations at"),
        ("a2 2 3 color a", "a2 2 3 color b", "color b has two arrows out of 2"),
    ],
)
def test_degrees_rejects_what_presentation_rejects(
    capsys, tmp_path, old, new, message
):
    """rank a1 5 overflows beta(1) = 2; a2 colored b gives b two arrows out of 2."""
    text = (GOLDENS / "running.model").read_text()
    assert old in text
    path = tmp_path / "bad.model"
    path.write_text(text.replace(old, new))
    results = [run_cli(capsys, cmd, path) for cmd in ("presentation", "degrees")]
    assert [(code, out) for code, out, _ in results] == [(1, ""), (1, "")]
    assert results[0][2] == results[1][2]
    assert message in results[1][2]


def test_verify_quiver_route_carries_rank(capsys):
    code, out, err = run_cli(
        capsys, "verify", model_path("running.model"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generators_match"] is True
    assert payload["relations_match"] is True
    assert payload["rank"] == {a: 2 for a in payload["rank"]}
    assert payload["rank_derived"] is False


def test_color_on_colored_model_echoes(capsys):
    code, out, err = run_cli(capsys, "color", model_path("running.model"), "--json")
    payload = json.loads(out)
    assert payload["derived"] is False
    assert payload["classes"]["b"] == ["b1", "b2", "b3"]
    assert ["a2", "a1"] in payload["ideal"]


def test_pipeline_commands_reject_system_models(capsys):
    code, out, err = run_cli(capsys, "peg", model_path("closing.model"))
    assert code == 1
    assert "needs a quiver model" in err


def test_mismatched_declared_relations_rejected(capsys, monkeypatch):
    text = (GOLDENS / "running.model").read_text() + "rel a1 b1\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "presentation")
    assert code == 1
    assert "do not match the coloring" in err


def test_run_command_rejects_unknown_name():
    model = parse_model((GOLDENS / "closing.model").read_text())
    with pytest.raises(InputError):
        run_command("nope", model, CliConfig())
