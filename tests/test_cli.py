import argparse
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgidem as qg
from qgidem import analysis, cli
from qgidem.analysis import quotient_quantum_group
from qgidem.cli import main, parse_input
from qgidem.core import InternalConsistencyError
from qgidem.serialize import qg_to_dict, save_json, state_to_dict
from qgidem.states import subgroup_state_fn

from helpers import algebra, group, match_state, solved


def test_console_scripts_resolve_to_callables():
    # [project.scripts] read by hand: tomllib is missing on Python 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    targets = re.findall(r'^\s*([\w.-]+)\s*=\s*"([^"]+)"', section, re.MULTILINE)
    assert targets
    for name, target in targets:
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_builtin(capsys):
    code, out, _ = run(capsys, "validate", "fn:Z2")
    assert code == 0
    assert "pass" in out


def test_validate_json_format(capsys):
    code, out, _ = run(capsys, "validate", "ga:Q8", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "validate"
    assert report["passed"] is True
    assert report["data"]["cancellation_ranks"] == [64, 64]


def test_unknown_input_is_error(capsys):
    code, _, err = run(capsys, "validate", "fn:E8")
    assert code == 2
    assert "unknown group" in err


def test_unrecognized_spec_form_is_usage_error(capsys):
    code, out, err = run(capsys, "validate", "xx:S3")
    assert code == 2 and out == ""
    assert err.startswith(
        "error: unrecognized input 'xx:S3'; expected a JSON path or "
        "[dual:]*(fn|ga):GROUP with GROUP in {"
    )


def test_oracle_on_a_json_input_is_usage_error(capsys, tmp_path):
    path = tmp_path / "fn_s3.json"
    save_json(path, qg_to_dict(algebra("fn", "S3")))
    code, out, err = run(capsys, "idempotents", str(path), "--oracle")
    assert code == 2 and out == ""
    assert err == "error: --oracle requires a builtin group input\n"


def test_quotient_state_past_the_last_is_usage_error(capsys):
    code, out, err = run(capsys, "quotient", "fn:S3", "--state", "6")
    assert code == 2 and out == ""
    assert err == (
        "error: --state must index one of the 6 states found "
        "(see the idempotents command)\n"
    )


def test_malformed_json_is_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "cannot read" in err


def test_invalid_quantum_group_file_lists_axioms(capsys, tmp_path):
    g = algebra("ga", "Z2")
    data = qg_to_dict(g)
    data["haar"] = [[1.0, 0.0], [1.0, 0.0]]  # counit: not invariant
    path = tmp_path / "bad.json"
    save_json(path, data)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "haar_left_invariant" in err


def test_repeated_tensor_entry_is_usage_error(capsys, tmp_path):
    data = qg_to_dict(algebra("fn", "Z2"))
    data["comult"].append([1, 1, 0, 2.0, 0.0])  # a second value for [1, 1, 0]
    path = tmp_path / "repeated.json"
    save_json(path, data)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "comult: repeated index [1, 1, 0]" in err


def near_json(tmp_path):
    """ga:S3 with its comultiplication moved by 1e-8, saved at tol 1e-9."""
    g = algebra("ga", "S3")
    rng = np.random.default_rng(0)
    near = dataclasses.replace(g, comult=g.comult + 1e-8 * rng.standard_normal(g.comult.shape))
    path = tmp_path / "near.json"
    save_json(path, qg_to_dict(near))
    return path


def test_tol_reaches_v_on_json_inputs(capsys, tmp_path):
    # the input passes validate at --tol 1e-5; V must be checked at that
    # tolerance too, not at the file's own tol of 1e-9, where its unitarity
    # defect (4e-7) fails.  classify checks V before it solves, and the
    # solver, at its fixed tolerances, then finds no state (exit 1)
    path = near_json(tmp_path)
    assert json.loads(path.read_text())["tol"] == 1e-9
    assert parse_input(str(path), 1e-5)[0].tol == 1e-5
    assert run(capsys, "validate", str(path), "--tol", "1e-5")[0] == 0
    code, _, err = run(capsys, "classify", str(path), "--tol", "1e-5")
    assert code == 1 and "no idempotent state found" in err, err
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2 and "input failed validation" in err


@pytest.mark.parametrize("command", ["idempotents", "classify", "lattice"])
def test_empty_idempotent_list_is_a_failure(capsys, tmp_path, command):
    # the counit is idempotent on every valid input; here its defect
    # (1e-7) fails the solver's state test, so nothing is found
    path = near_json(tmp_path)
    code, out, err = run(capsys, command, str(path), "--tol", "1e-5", "--format", "json")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert "no idempotent state found, not even the counit" in err and "1.0e-07" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf", "0", "-1e-9"])
def test_non_finite_or_non_positive_tol_is_usage_error(capsys, tmp_path, tol):
    g = algebra("ga", "Z2")
    data = qg_to_dict(g)
    data["haar"] = [[1.0, 0.0], [1.0, 0.0]]  # fails validation at any finite tol
    path = tmp_path / "bad.json"
    save_json(path, data)
    code, out, err = run(capsys, "validate", str(path), f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "expected a positive finite number" in err


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "validate", "fn:Z2", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "cannot write" in err
    assert not path.exists()


def test_load_round_trip_through_file(capsys, tmp_path):
    path = tmp_path / "qg.json"
    save_json(path, qg_to_dict(algebra("fn", "S3")))
    code, out, _ = run(capsys, "idempotents", str(path))
    assert code == 0
    assert "found 6 idempotent state(s)" in out


def test_idempotents_with_oracle(capsys):
    code, out, _ = run(capsys, "idempotents", "fn:Z4", "--oracle")
    assert code == 0
    assert "found 3 idempotent state(s)" in out
    assert "match" in out


def test_idempotents_oracle_through_dual(capsys):
    code, out, _ = run(capsys, "idempotents", "dual:fn:Z4", "--oracle")
    assert code == 0
    assert "found 3" in out and "match" in out


def test_classify_ga_s3(capsys):
    code, out, _ = run(capsys, "classify", "ga:S3", "--oracle")
    assert code == 0
    assert "3 of 6 are Haar idempotents" in out


def test_lattice_fn_s3(capsys):
    code, out, _ = run(capsys, "lattice", "fn:S3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["data"]["count"] == 6
    assert len(report["data"]["hasse_edges"]) == 8


def test_quotient_command(capsys):
    ct = group("S3")
    g = algebra("fn", "S3")
    a3 = [s for s in qg.all_subgroups(ct) if len(s) == 3][0]
    idx = match_state(list(solved("fn", "S3")), subgroup_state_fn(g, ct, a3).coeffs)
    code, out, _ = run(capsys, "quotient", "fn:S3", "--state", str(idx))
    assert code == 0
    assert "-> dim 3" in out
    assert "passed: True" in out


def test_quotient_reports_the_validation_of_the_quotient(capsys):
    ct = group("S3")
    g = algebra("fn", "S3")
    a3 = [s for s in qg.all_subgroups(ct) if len(s) == 3][0]
    found = list(solved("fn", "S3"))
    idx = match_state(found, subgroup_state_fn(g, ct, a3).coeffs)
    q = quotient_quantum_group(g, found[idx])
    report = qg.validate(q.quotient)
    assert q.report.residuals == report.residuals
    assert q.report.cancellation_ranks == report.cancellation_ranks
    code, out, _ = run(capsys, "quotient", "fn:S3", "--state", str(idx))
    assert code == 0
    assert f"quotient validates: {report.passed}" in out
    code, out, _ = run(
        capsys, "quotient", "fn:S3", "--state", str(idx), "--format", "json"
    )
    assert code == 0
    data = json.loads(out)["data"]
    assert data["quotient"] == json.loads(json.dumps(qg_to_dict(q.quotient)))
    assert data["passed"] is report.passed


def test_quotient_rejects_non_haar_state(capsys):
    ct = group("S3")
    g = algebra("ga", "S3")
    order2 = [s for s in qg.all_subgroups(ct) if len(s) == 2][0]
    from qgidem.states import subgroup_state_ga

    idx = match_state(list(solved("ga", "S3")), subgroup_state_ga(g, ct, order2).coeffs)
    code, _, err = run(capsys, "quotient", "ga:S3", "--state", str(idx))
    assert code == 2
    assert "not a Haar idempotent" in err


def test_walk_command(capsys, tmp_path):
    g = algebra("fn", "Z4")
    init = tmp_path / "init.json"
    from qgidem.states import State

    save_json(init, state_to_dict(State(g, np.array([0.4, 0.3, 0.2, 0.1]))))
    code, out, _ = run(capsys, "walk", "fn:Z4", "--steps", "256", "--init", str(init))
    assert code == 0
    assert "idempotency defect" in out
    assert "extrapolated limit point is an idempotent state" in out


@pytest.mark.parametrize("steps", range(1, 10))
def test_walk_checkpoints_stop_at_steps(capsys, steps):
    # the powers of two up to --steps, then --steps itself
    expected = sorted({2**k for k in range(4) if 2**k <= steps} | {steps})
    code, out, err = run(capsys, "walk", "fn:Z4", "--steps", str(steps))
    assert code in (0, 1) and err == ""
    ks = [int(line.split("k=")[1].split()[0]) for line in out.splitlines() if "k=" in line]
    assert ks == expected
    code_json, out_json, _ = run(
        capsys, "walk", "fn:Z4", "--steps", str(steps), "--format", "json"
    )
    report = json.loads(out_json)
    assert code_json == code and report["passed"] == (code == 0)
    assert report["data"]["steps"] == steps
    assert [d["k"] for d in report["data"]["diagnostics"]] == expected


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "validate", "fn:Z3", "--format", "json", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    report = json.loads(path.read_text())
    assert report["passed"] is True


def test_validate_ignores_the_environment(capsys, monkeypatch):
    # no command reads a seed from the environment
    monkeypatch.setenv("QGIDEM_SEED", "abc")
    code, out, err = run(capsys, "validate", "fn:Z2")
    assert code == 0 and err == ""
    assert "passed: True" in out


def test_validate_runs_validate_once(capsys, monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return qg.validate(g)

    monkeypatch.setattr(cli, "validate", counted)
    code, out, _ = run(capsys, "validate", "fn:S3")
    assert code == 0 and "passed: True" in out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("walk", "fn:Z4", "--steps", "0"),
        ("walk", "fn:Z4", "--steps", "-5"),
    ],
)
def test_non_positive_budget_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "expected a positive integer" in err


def test_negative_seed_is_usage_error(capsys):
    code, out, err = run(capsys, "idempotents", "fn:Z2", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "expected a non-negative integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "fn:Z2", "--starts", "5"),
        ("validate", "fn:Z2", "--seed", "1"),
        ("validate", "fn:Z2", "--oracle"),
        ("lattice", "fn:Z2", "--oracle"),
        ("quotient", "fn:Z2", "--state", "0", "--oracle"),
        ("walk", "fn:Z2", "--starts", "5"),
        ("walk", "fn:Z2", "--seed", "1"),
        ("walk", "fn:Z2", "--oracle"),
        ("quotient", "fn:Z2", "--state", "-1"),
        ("idempotents", "fn:Z2", "--starts", "5"),
    ],
)
def test_unread_option_or_negative_state_is_usage_error(capsys, monkeypatch, argv):
    # each command rejects the options it does not read, and quotient a
    # negative --state, on the command line: before the input is built
    monkeypatch.setattr(cli, "parse_input", None)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    flag = [a for a in argv if a.startswith("--")][-1]
    assert err.count("\n") == 1 and flag in err, err


# the option strings of each command, -h/--help aside: 27 in all
COMMAND_OPTIONS = {
    "validate": ["--tol", "--format", "--out"],
    "idempotents": ["--tol", "--seed", "--oracle", "--format", "--out"],
    "classify": ["--tol", "--seed", "--oracle", "--format", "--out"],
    "lattice": ["--tol", "--seed", "--format", "--out"],
    "quotient": ["--tol", "--seed", "--format", "--out", "--state"],
    "walk": ["--tol", "--format", "--out", "--steps", "--init"],
}


def test_each_command_registers_the_pinned_options_and_each_is_read():
    # a flag whose reader goes must leave this table, and the parser, too
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    source = Path(cli.__file__).read_text()
    options = {}
    for name, sub in commands.choices.items():
        actions = [a for a in sub._actions if a.option_strings and a.dest != "help"]
        options[name] = [opt for a in actions for opt in a.option_strings]
        for a in actions:
            assert f"args.{a.dest}" in source, (name, a.dest)
    assert options == COMMAND_OPTIONS
    assert sum(map(len, options.values())) == 27


@pytest.mark.parametrize(
    "argv",
    [
        ("walk", "fn:Z4", "--s", "3"),
        ("idempotents", "fn:Z4", "--s", "3"),
        ("walk", "fn:Z4", "--ste", "3"),
        ("idempotents", "fn:Z4", "--ora"),
    ],
)
def test_option_prefixes_are_usage_errors(capsys, monkeypatch, argv):
    # an option is taken by its full name only: with prefixes, walk read
    # --s as --steps while idempotents found it ambiguous
    monkeypatch.setattr(cli, "parse_input", None)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "unrecognized arguments" in err and argv[2] in err


def test_malformed_walk_init_is_usage_error(capsys, tmp_path):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"qg_hash": "0"}))
    code, _, err = run(capsys, "walk", "fn:Z4", "--init", str(init))
    assert code == 2
    assert err.count("\n") == 1 and "KeyError" in err and "coeffs" in err


def test_internal_inconsistency_exits_3(capsys, monkeypatch):
    def disagree(*args, **kwargs):
        raise InternalConsistencyError("Haar criteria disagree: test")

    monkeypatch.setattr(analysis, "classify", disagree)
    code, _, err = run(capsys, "classify", "fn:Z2")
    assert code == 3
    assert "Haar criteria disagree" in err
    assert len(err.strip().splitlines()) == 1


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-m", "qgidem", "validate", "fn:Z2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "passed: True" in result.stdout


@pytest.mark.parametrize("argv", [
    ["validate", "fn:Z2"],  # a report that fits in the stdout buffer
    ["idempotents", "fn:S4"],  # one that does not (about 15 kB)
])
def test_reader_closing_early_exits_1_without_a_traceback(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the report is written
    try:
        result = subprocess.run(
            [sys.executable, "-m", "qgidem", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) <= 1
