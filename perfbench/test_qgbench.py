"""Tests of the benchmark itself: CLI agreement, the basis-change helper,
the span arithmetic and the metric names BENCHMARK.json promises."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qgidem  # noqa: E402
from qgidem import cli  # noqa: E402

import qgbench  # noqa: E402
import run  # noqa: E402


def cli_json(capsys, *argv):
    code = cli.main([*argv, "--format", "json", "--oracle", "--seed", "0"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("spec", ["fn:S3", "ga:S3", "ga:D4"])
def test_driver_agrees_with_cli(spec, capsys, monkeypatch):
    # analyse every idempotent, as the classify command does
    monkeypatch.setattr(qgbench, "STATES_PER_INPUT", 10**6)
    kind, name = spec.split(":")
    inp = qgbench.builtin_input(kind, qgidem.builtin_group(name), spec)
    tracer, tally = qgbench.Tracer(True), qgbench.Tally()
    qgbench.Pipeline("structure_s4", [inp], 0, tracer, tally).run_pass()

    code_i, idem = cli_json(capsys, "idempotents", spec)
    code_c, clf = cli_json(capsys, "classify", spec)
    assert code_i == 0 and code_c == 0
    assert tracer.counts["states.solve_idempotents.found"] == idem["data"]["count"]
    assert tracer.counts["states.solve_idempotents.found"] == clf["data"]["count"]
    assert tracer.counts["analysis.classify.calls"] == clf["data"]["count"]
    assert tracer.counts["analysis.classify.haar"] == clf["data"]["haar_count"]
    driver_match = tally.oracle_matched == tally.oracle_total and tally.failed == 0
    assert driver_match == idem["data"]["oracle"]["match"] == clf["data"]["oracle"]["match"]
    assert tally.attempted > 0 and tally.failed == 0


@pytest.mark.parametrize("spec", ["fn:S3", "ga:D4"])
def test_basis_change_gives_valid_isomorphic_group(spec):
    kind, name = spec.split(":")
    base = qgbench.builtin_input(kind, qgidem.builtin_group(name), spec)
    rng = np.random.default_rng(7)
    t = qgbench.random_unitary(base.qg.dim, rng)
    assert np.abs(t @ t.conj().T - np.eye(base.qg.dim)).max() < 1e-12
    moved = qgbench.change_basis(base.qg, t)
    assert qgidem.intertwiner_defect(base.qg, moved, t) <= qgbench.INTERTWINER_TOL
    assert qgidem.validate(moved).passed
    # the oracle moves with the basis: its states stay idempotent states
    dense = qgbench.dense_input(base, np.random.default_rng(7))
    assert all(qgidem.is_idempotent(dense.qg, w) for w in dense.oracle)
    # and the tensors are dense, unlike the group-derived ones
    n = base.qg.dim
    assert np.count_nonzero(np.abs(dense.qg.comult) > 1e-12) > n**3 // 2 > n**2


def test_self_times_on_a_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, None, "t"],
        ["a", 1.0, 4.0, 0, "t"],
        ["b", 3.0, 6.0, 0, "t"],  # overlaps a: together they cover [1, 6]
        ["c", 8.0, 12.0, 0, "t"],  # runs past its parent: counts up to 10
        ["d", 2.0, 3.0, 1, "t"],
    ]
    assert qgbench.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])
    spans = [
        ["bench.pass", 0.0, 10.0, None, None],
        ["bench.task", 0.5, 9.5, 0, "x"],
        ["core.validate", 1.0, 3.0, 1, "x"],
        ["analysis.classify", 4.0, 9.0, 1, "x"],
    ]
    layers = qgbench.layer_seconds(spans)
    assert layers["core.validate"] == pytest.approx(2.0)
    assert layers["analysis.classify"] == pytest.approx(5.0)
    assert layers["bench.self"] == pytest.approx(3.0)
    assert sum(layers.values()) == pytest.approx(10.0)


def test_disabled_tracer_records_nothing():
    tracer = qgbench.Tracer(False)
    with tracer.span("core.validate"):
        tracer.count("core.validate.calls")
    assert tracer.spans == [] and not tracer.counts


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = qgbench.Tracer(True)
    with traced.span("bench.pass"):
        pass
    plain = [(1.0, {"x": 1.0}, qgbench.Tracer(False))]
    e2e = run.end_to_end(qgbench, plain, [0.5])
    layers = run.per_layer(qgbench, plain, [(1.1, {"x": 1.1}, traced)], [], qgbench.Tally())
    assert {k: u for k, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert {k: u for k, (_, u) in layers.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_zoo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
