"""Command-line harness: outputs, file formats, exit codes, determinism."""

import contextlib
import io
import math
import os
import re

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from mmseq.cli import (COMPARE_HEADER, RUN_HEADER, RunRecord, format_solution,
                       main, parse_solution)
from mmseq.errors import ParseError
from mmseq.evaluator import Objective, evaluate_expected
from mmseq.exact import ENUMERATION_GUARD, root_bound
from mmseq.greedy import construct
from mmseq.instance import (Instance, Vehicle, generate, instance_digest,
                            load, preset_config, save)
from mmseq.scenario import sample

from conftest import worked_example


@pytest.fixture
def instance_file(tmp_path):
    def make(n=7, seed=100, size_class="small", name="inst.yaml"):
        path = tmp_path / name
        save(generate(preset_config(n, seed=seed, size_class=size_class)),
             str(path))
        return str(path)
    return make


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- records

def test_run_record_row_formats_blanks():
    rec = RunRecord(command="solve", instance="abc", seed=3, method="greedy",
                    params="", objective=1.5)
    assert rec.to_csv_row() == "solve,abc,3,greedy,,1.500000,,,,,0"


def test_solution_format_round_trip():
    worked = worked_example()
    text = format_solution(worked, (0, 2, 5, 1, 4, 3), 17)
    digest, seed, order = parse_solution(text)
    assert digest == instance_digest(worked)
    assert seed == 17
    assert order == (0, 2, 5, 1, 4, 3)
    # the no-sample marker round-trips to None
    assert parse_solution(format_solution(worked, (0, 1, 2, 3, 4, 5), None))[1] is None


def test_parse_solution_rejects_garbage():
    with pytest.raises(ParseError, match="not a recognized"):
        parse_solution("something else\ninstance x\n")
    with pytest.raises(ParseError, match="malformed"):
        parse_solution("mms-solution/1\ninstance abc\nsample-seed 1\n")
    with pytest.raises(ParseError, match="malformed"):
        parse_solution("mms-solution/1\ninstance abc\nsample-seed 1\n"
                       "sequence 0 one 2\n")


# --------------------------------------------------------------- generate

def test_generate_writes_loadable_files(tmp_path, capsys):
    out = tmp_path / "bench"
    rc, stdout, _ = run_cli(capsys, "generate", "--class", "small",
                            "--count", "2", "--seed", "5", "--out", str(out))
    assert rc == 0
    names = sorted(os.listdir(out))
    assert names == [f"small_{n:03d}_{i:02d}.yaml"
                     for n in (7, 8, 9, 10) for i in (0, 1)]
    assert stdout.strip().endswith("8 instance files")
    for name in names:
        inst = load(str(out / name))
        assert inst.n_vehicles in (7, 8, 9, 10)


def test_generate_count_zero(tmp_path, capsys):
    out = tmp_path / "empty"
    rc, stdout, _ = run_cli(capsys, "generate", "--class", "medium",
                            "--count", "0", "--out", str(out))
    assert rc == 0
    assert stdout.strip() == "0 instance files"
    assert os.listdir(out) == []


def test_generate_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "generate", "--class", "small", "--count", "1",
            "--seed", "9", "--out", str(a))
    run_cli(capsys, "generate", "--class", "small", "--count", "1",
            "--seed", "9", "--out", str(b))
    for name in sorted(os.listdir(a)):
        with open(a / name, "rb") as fa, open(b / name, "rb") as fb:
            assert fa.read() == fb.read()


# ------------------------------------------------------------------ solve

def test_solve_greedy_worked_example(tmp_path, capsys):
    worked = worked_example()
    inst_path = tmp_path / "worked.yaml"
    save(worked, str(inst_path))
    sol_path = tmp_path / "sol.txt"
    rc, stdout, _ = run_cli(capsys, "solve", "--instance", str(inst_path),
                            "--method", "greedy", "--out", str(sol_path))
    assert rc == 0
    lines = stdout.splitlines()
    assert lines[0] == RUN_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "solve"
    assert fields[3] == "greedy"
    assert fields[5] == "3.000000"
    digest, seed, order = parse_solution(sol_path.read_text())
    assert digest == instance_digest(worked)
    assert seed is None                  # no sampling requested
    assert order == (0, 2, 5, 1, 4, 3)   # A C F B E D


def test_solve_enum_and_lshaped_agree(instance_file, capsys):
    path = instance_file(n=7, seed=100)
    common = ["--instance", path, "--sample-size", "100",
              "--sample-seed", "3", "--deterministic"]
    rc1, out1, _ = run_cli(capsys, "solve", "--method", "enum", *common)
    rc2, out2, _ = run_cli(capsys, "solve", "--method", "lshaped", *common)
    assert rc1 == rc2 == 0
    enum_fields = out1.splitlines()[1].split(",")
    ls_fields = out2.splitlines()[1].split(",")
    assert enum_fields[5] == ls_fields[5]          # same objective
    assert enum_fields[8] == "0.000000"            # enum closes its gap
    assert ls_fields[8] == "0.000000"              # so does the solver
    assert enum_fields[9] == ls_fields[9] == ""    # blank wall times


def test_solve_ts_zero_iterations_is_the_greedy_start(instance_file, tmp_path,
                                                      capsys):
    path = instance_file(n=8, seed=101)
    sol_path = tmp_path / "ts.txt"
    rc, stdout, _ = run_cli(capsys, "solve", "--instance", path,
                            "--method", "ts", "--iters", "0",
                            "--sample-size", "30", "--sample-seed", "2",
                            "--out", str(sol_path))
    assert rc == 0
    inst = load(path)
    start, _ = construct(inst, 0)
    _, _, order = parse_solution(sol_path.read_text())
    assert order == start.order
    smp = sample(inst, 30, seed=2)
    want = evaluate_expected(inst, start, smp)
    assert stdout.splitlines()[1].split(",")[5] == f"{want:.6f}"


@pytest.mark.parametrize("method, extra", [("greedy", []),
                                           ("ts", ["--iters", "100"])])
def test_solve_heuristics_report_the_root_bound(instance_file, tmp_path, capsys,
                                                method, extra):
    path = instance_file(n=8, seed=103)
    sol = tmp_path / "sol.txt"
    common = ["--instance", path, "--sample-size", "100", "--sample-seed", "200",
              "--deterministic"]
    rc, stdout, _ = run_cli(capsys, "solve", "--method", method, *common, *extra,
                            "--out", str(sol))
    assert rc == 0
    fields = stdout.splitlines()[1].split(",")
    inst = load(path)
    smp = sample(inst, 100, seed=200)
    bound = Objective(inst, smp)
    lower = bound.tu(bound._weigh(root_bound(bound)[None])[0])
    value = evaluate_expected(inst, parse_solution(sol.read_text())[2], smp)
    assert fields[5:9] == [f"{value:.6f}", f"{lower:.6f}", "", f"{value - lower:.6f}"]
    rc, stdout, _ = run_cli(capsys, "solve", "--method", "enum", *common)
    assert rc == 0
    assert lower <= float(stdout.splitlines()[1].split(",")[5]) <= value


def test_solve_deterministic_reruns_match(instance_file, tmp_path, capsys):
    path = instance_file(n=7, seed=102)
    outs = []
    for name in ("s1.txt", "s2.txt"):
        sol = tmp_path / name
        rc, stdout, _ = run_cli(capsys, "solve", "--instance", path,
                                "--method", "ts", "--iters", "200",
                                "--sample-size", "40", "--deterministic",
                                "--out", str(sol))
        assert rc == 0
        outs.append((stdout, sol.read_text()))
    assert outs[0] == outs[1]


def test_solve_wall_time_present_without_deterministic(instance_file, capsys):
    path = instance_file(n=7, seed=103)
    rc, stdout, _ = run_cli(capsys, "solve", "--instance", path,
                            "--method", "greedy")
    assert rc == 0
    wall = stdout.splitlines()[1].split(",")[9]
    assert wall != ""
    assert float(wall) >= 0.0


def test_solve_missing_instance_exits_2(capsys):
    rc, _, err = run_cli(capsys, "solve", "--instance", "no_such.yaml",
                         "--method", "greedy")
    assert rc == 2
    assert "not found" in err


@pytest.mark.parametrize("section, index, key, value, where", [
    ("vehicles", 1, "id", "x0", "vehicles[1]: bad id"),
    ("stations", 2, "id", "x0", "stations[2]: bad id"),
    ("vehicles", 3, "processing_times", [90.0, "abc", 90.0, 90.0, 90.0],
     "vehicles[3]: bad processing_times[1]"),
    ("stations", 0, "length", "abc", "stations[0]: bad length"),
    ("vehicles", 0, "failure_prob", "abc", "vehicles[0]: bad failure_prob"),
    ("vehicles", 4, None, 17, "vehicles[4]: expected a mapping"),
    ("stations", 1, None, 17, "stations[1]: expected a mapping"),
    ("stations", None, None, 17, "stations must be a list"),
    ("vehicles", 2, "is_ev", "false", "vehicles[2]: bad is_ev"),
    ("vehicles", 3, "processing_times", [1e20, 90.0, 90.0, 90.0, 90.0],
     "vehicle 3: processing times must be at most"),
    ("stations", 0, "length", 1e17, "station 0: length must be at most"),
])
def test_solve_malformed_instance_exits_2(instance_file, capsys, section, index,
                                          key, value, where):
    path = instance_file(n=7, seed=103)
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if index is None:
        doc[section] = value
    elif key is None:
        doc[section][index] = value
    else:
        doc[section][index][key] = value
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh)
    rc, out, err = run_cli(capsys, "solve", "--instance", path, "--method", "greedy")
    assert rc == 2
    assert where in err
    assert "Traceback" not in out + err


# one mutated field of a valid file: strings, huge and negative numbers,
# nan/inf, lists, mappings and null
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.sampled_from(["abc", "1e400", "-5", "nan", "inf", "", "0x10"]),
    st.integers(min_value=-10**30, max_value=10**30),
    st.sampled_from([1e20, 1e17, -1e20, math.nan, math.inf, -math.inf, 0.0,
                     -1.0, 1e-5, 1e6, 1e6 + 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-5, 300), max_size=6),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _node_paths(node, path=()):
    """Key paths of every value below node, containers included."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, child in items:
        out.append(path + (key,))
        out += _node_paths(child, path + (key,))
    return out


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "inst.yaml"
    save(generate(preset_config(7, seed=100, size_class="small")), str(path))
    with open(path, encoding="utf-8") as fh:
        return str(path), yaml.safe_load(fh)


@pytest.mark.filterwarnings("ignore:.*unknown fields")
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_solve_survives_one_mutated_field(fuzz_base, data):
    path, base = fuzz_base
    doc = yaml.safe_load(yaml.safe_dump(base))      # a fresh copy
    *parents, last = data.draw(st.sampled_from(_node_paths(doc)))
    node = doc
    for key in parents:
        node = node[key]
    node[last] = data.draw(_JUNK)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh)
    assert main(["solve", "--instance", path, "--method", "greedy"]) in (0, 2)


@pytest.fixture(scope="module")
def instance_token_base(tmp_path_factory):
    folder = tmp_path_factory.mktemp("instance-token-fuzz")
    save(generate(preset_config(7, seed=100, size_class="small")),
         str(folder / "inst.yaml"))
    text = (folder / "inst.yaml").read_text(encoding="utf-8")
    # words and the separators between them, each one token
    return re.split(r'(\s+|[{}\[\]:,"-])', text), folder / "bad.yaml"


# unquoted junk for one token of an instance file, which yaml.dump would
# quote: scalars PyYAML builds into dates, tagged values, aliases, nulls
# and overflowing floats, and words of the format
_TOKEN_JUNK = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", " ", "\n", "-", "-1", "0", "1e400", "-1e400", "nan",
                     ".inf", "null", "~", "true", "[]", "{}", "*a", "&a",
                     "!!int x", "!!float x", "!!binary x", "2001-13-45",
                     "2001-01-01", "0x10", "0o17", "1_000", "id", "length",
                     "vehicles", "processing_times", "mms-instance/2"]),
    st.integers(min_value=-10**30, max_value=10**30).map(str),
)


@pytest.mark.filterwarnings("ignore:.*unknown fields")
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_solve_survives_one_mutated_token(instance_token_base, data):
    tokens, bad = instance_token_base
    tokens = list(tokens)
    tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(_TOKEN_JUNK)
    bad.write_text("".join(tokens), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["solve", "--instance", str(bad), "--method", "greedy"])
    assert rc in (0, 2)
    assert "Traceback" not in err.getvalue()


def test_solve_defaults_to_auto(instance_file, capsys):
    path = instance_file(n=7, seed=100)
    rc, stdout, _ = run_cli(capsys, "solve", "--instance", path,
                            "--sample-size", "50", "--deterministic")
    assert rc == 0
    fields = stdout.splitlines()[1].split(",")
    assert fields[3] == "enum"
    assert fields[8] == "0.000000"


def test_solve_auto_enumerates_ten_vehicles(instance_file, capsys):
    path = instance_file(n=10, seed=103)
    rc, stdout, _ = run_cli(capsys, "solve", "--instance", path,
                            "--sample-size", "100", "--sample-seed", "200",
                            "--deterministic")
    assert rc == 0
    fields = stdout.splitlines()[1].split(",")
    assert fields[3] == "enum"
    assert fields[5] == "65.310982"


def test_solve_auto_enumerates_twelve_vehicles(instance_file, capsys):
    path = instance_file(n=12, seed=8)
    rc, stdout, _ = run_cli(capsys, "solve", "--instance", path,
                            "--sample-size", "100", "--sample-seed", "200",
                            "--deterministic")
    assert rc == 0
    fields = stdout.splitlines()[1].split(",")
    assert fields[3] == "enum"
    assert fields[5] == "56.498868"
    assert fields[8] == "0.000000"


def test_solve_auto_searches_thirteen_vehicles(instance_file, capsys):
    path = instance_file(n=13, seed=8)
    rc, stdout, _ = run_cli(capsys, "solve", "--instance", path,
                            "--iters", "20", "--deterministic")
    assert rc == 0
    assert stdout.splitlines()[1].split(",")[3] == "ts"


def test_method_help_names_the_enumeration_guard(capsys):
    for command in ("solve", "assess", "compare"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"auto (default): enum up to {ENUMERATION_GUARD} vehicles, ts above" in text


def test_solve_enum_guard_exits_3(instance_file, capsys):
    path = instance_file(n=13, seed=104)
    rc, _, err = run_cli(capsys, "solve", "--instance", path,
                         "--method", "enum")
    assert rc == 3
    assert "refused" in err


def test_solve_lshaped_time_limit_exits_4(instance_file, capsys):
    path = instance_file(n=10, seed=105)
    rc, stdout, _ = run_cli(capsys, "solve", "--instance", path,
                            "--method", "lshaped", "--sample-size", "10",
                            "--time-limit", "1e-6")
    assert rc == 4
    lines = stdout.splitlines()
    assert lines[0] == RUN_HEADER
    fields = lines[1].split(",")
    assert float(fields[5]) >= float(fields[6])    # objective >= lower bound


# ------------------------------------------------------------------ assess

def test_assess_round_trip(instance_file, tmp_path, capsys):
    path = instance_file(n=6, seed=106)
    sol = tmp_path / "sol.txt"
    run_cli(capsys, "solve", "--instance", path, "--method", "enum",
            "--sample-size", "30", "--sample-seed", "4", "--out", str(sol))
    report_path = tmp_path / "report.csv"
    rc, stdout, _ = run_cli(capsys, "assess", "--instance", path,
                            "--solution", str(sol), "--method", "enum",
                            "--replications", "3", "--sample-size", "25",
                            "--out", str(report_path))
    assert rc == 0
    assert stdout.splitlines()[0] == "replication,sample_optimum,candidate_cost,gap"
    assert report_path.read_text() == stdout


def test_assess_enum_guard_exits_3(instance_file, tmp_path, capsys):
    path = instance_file(n=13, seed=104)
    sol = tmp_path / "sol.txt"
    sol.write_text(format_solution(load(path), range(13), None), encoding="utf-8")
    rc, stdout, err = run_cli(capsys, "assess", "--instance", path,
                              "--solution", str(sol), "--method", "enum",
                              "--replications", "2", "--sample-size", "5")
    assert rc == 3
    assert "refused" in err
    assert stdout == ""


def test_assess_digest_mismatch_exits_2(instance_file, tmp_path, capsys):
    path = instance_file(n=6, seed=107)
    other = instance_file(n=6, seed=108, name="other.yaml")
    sol = tmp_path / "sol.txt"
    run_cli(capsys, "solve", "--instance", path, "--method", "enum",
            "--out", str(sol))
    rc, _, err = run_cli(capsys, "assess", "--instance", other,
                         "--solution", str(sol), "--method", "enum",
                         "--replications", "2", "--sample-size", "10")
    assert rc == 2
    assert "does not match" in err


@pytest.mark.parametrize("key, value", [
    ("sample-seed", "abc"),
    ("sequence", "0 0 2 4 5 6 3"),
])
def test_assess_malformed_solution_exits_2(instance_file, tmp_path, capsys,
                                           key, value):
    path = instance_file(n=7, seed=106)
    sol = tmp_path / "sol.txt"
    run_cli(capsys, "solve", "--instance", path, "--method", "greedy",
            "--out", str(sol))
    lines = [f"{key} {value}" if ln.startswith(key + " ") else ln
             for ln in sol.read_text().splitlines()]
    sol.write_text("\n".join(lines) + "\n")
    rc, out, err = run_cli(capsys, "assess", "--instance", path,
                           "--solution", str(sol), "--method", "enum",
                           "--replications", "2", "--sample-size", "10")
    assert rc == 2
    assert f"bad {key} {value!r}" in err
    assert "Traceback" not in out + err


@pytest.fixture(scope="module")
def solution_base(tmp_path_factory):
    folder = tmp_path_factory.mktemp("solution-fuzz")
    path = str(folder / "inst.yaml")
    save(generate(preset_config(7, seed=106, size_class="small")), path)
    sol = folder / "sol.txt"
    assert main(["solve", "--instance", path, "--method", "greedy",
                 "--out", str(sol)]) == 0
    return path, sol.read_text(encoding="utf-8").splitlines(), folder / "bad.txt"


# junk for one line or one space-separated token of a solution file
_SOLUTION_JUNK = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", " ", "-", "-1", "7", "99", "1e400", "nan", "0x10",
                     "0 1 2", "mms-solution/2", "sequence", "instance"]),
    st.integers(min_value=-10**30, max_value=10**30).map(str),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_assess_survives_one_mutated_solution_token(solution_base, data):
    path, lines, bad = solution_base
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1))
    junk = data.draw(_SOLUTION_JUNK)
    if data.draw(st.booleans()):
        lines[i] = junk
    else:
        tokens = lines[i].split(" ")
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = junk
        lines[i] = " ".join(tokens)
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["assess", "--instance", path, "--solution", str(bad),
                 "--method", "enum", "--replications", "2",
                 "--sample-size", "10"]) in (0, 2)


def test_assess_missing_solution_exits_2(instance_file, capsys):
    path = instance_file(n=6, seed=109)
    rc, _, err = run_cli(capsys, "assess", "--instance", path,
                         "--solution", "missing.txt")
    assert rc == 2
    assert "not found" in err


# ----------------------------------------------------------------- compare

def no_failure_instance_file(tmp_path) -> str:
    vehicles = [Vehicle.of(i, i < 2, (p, q))
                for i, (p, q) in enumerate(
                    [(9, 4), (8, 3), (2, 9), (3, 8), (5, 7), (4, 9)])]
    inst = Instance.of(7, (20, 12), vehicles)
    path = tmp_path / "sure.yaml"
    save(inst, str(path))
    return str(path)


def test_compare_without_failures_reports_zero_improvement(tmp_path, capsys):
    path = no_failure_instance_file(tmp_path)
    rc, stdout, _ = run_cli(capsys, "compare", "--instance", path,
                            "--method", "enum", "--sample-size", "40",
                            "--eval-size", "80", "--deterministic")
    assert rc == 0
    lines = stdout.splitlines()
    assert lines[0] == COMPARE_HEADER
    fields = lines[1].split(",")
    assert fields[1] == "enum"
    assert fields[2] == "40"
    assert fields[3] == "80"
    assert fields[4] == fields[5]          # identical costs
    assert fields[6] == "0.000000"


def test_compare_reruns_match(instance_file, capsys):
    path = instance_file(n=6, seed=110)
    argv = ("compare", "--instance", path, "--method", "enum",
            "--sample-size", "30", "--eval-size", "60", "--deterministic")
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv, flag", [
    (("solve", "--method", "ts", "--time-limit", "-1"), "--time-limit"),
    (("solve", "--iters", "-5"), "--iters"),
    (("solve", "--sample-size", "-3"), "--sample-size"),
    (("assess", "--solution", "sol.txt", "--replications", "1"), "--replications"),
    (("assess", "--solution", "sol.txt", "--alpha", "2"), "--alpha"),
    (("assess", "--solution", "sol.txt", "--sample-size", "-4"), "--sample-size"),
    (("compare", "--sample-size", "5", "--eval-size", "0"), "--eval-size"),
    (("compare", "--sample-size", "5", "--eval-size", "-2"), "--eval-size"),
    (("solve", "--seed", "-1"), "--seed"),
    (("compare", "--sample-size", "5", "--eval-seed", "-7"), "--eval-seed"),
    (("compare", "--sample-size", "0"), "--sample-size"),
    (("compare", "--sample-size", "-3"), "--sample-size"),
    (("generate", "--class", "small", "--count", "-1"), "--count"),
])
def test_bad_flag_values_exit_2(instance_file, tmp_path, capsys, argv, flag):
    if argv[0] == "generate":
        place = ("--out", str(tmp_path))
    else:
        place = ("--instance", instance_file(n=7, seed=100))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *place, *argv[1:]])
    assert exc.value.code == 2
    assert f"argument {flag}: expected" in capsys.readouterr().err

