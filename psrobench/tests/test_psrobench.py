"""The benchmark's own tests: each workload at smoke size, untraced and
traced, and the output checks firing on corrupted outputs.

Run from the repository root: python3 -m pytest psrobench/tests
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

import bench
import checks
import run
import workloads
from tracer import Tracer

import gamepop.engine
import gamepop.meta_solvers
from gamepop.config import parse_config
from gamepop.games import expected_value, make_game
from gamepop.meta_solvers import MetaGame
from gamepop.policies import TabularPolicy

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(name):
    details, result = bench.measure(name, seed=3, seconds=0, trace=False,
                                    smoke=True)
    assert details["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_trace_reports_every_layer_metric(name):
    details, result = bench.measure(name, seed=3, seconds=0, trace=True,
                                    smoke=True)
    assert result["correct"], details["problems"]
    assert details["unwrapped"] == []
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["trace.spans"]["value"] > 0
    assert os.path.exists(os.path.join(bench.ROOT, details["spans_file"]))


def test_tracer_restores_every_wrapped_name():
    before = (gamepop.engine.exploitability, gamepop.meta_solvers.solve,
              TabularPolicy.__dict__["action_probs"])
    with Tracer() as tracer:
        assert gamepop.engine.exploitability is not before[0]
        gamepop.meta_solvers.solve(np.eye(2), parse_config(
            workloads.solver_config({"kind": "nash"}, 0)).mss)
    after = (gamepop.engine.exploitability, gamepop.meta_solvers.solve,
             TabularPolicy.__dict__["action_probs"])
    assert after == before
    assert [span[0] for span in tracer.spans] == ["meta_solvers.solve"]


def test_speed_probe_samples_the_pinned_cpu_and_stops(tmp_path):
    cpus = os.sched_getaffinity(0)
    with bench.SpeedProbe(str(tmp_path)) as probe:
        assert os.sched_getaffinity(0) == {probe.cpu}
        start = time.monotonic()
        time.sleep(0.5)
    assert probe.process.poll() is not None
    assert os.sched_getaffinity(0) == cpus
    assert len(probe.samples) >= bench.MIN_SPEED_SAMPLES
    factor = probe.factor(start, 0.5)
    assert factor > 0
    assert probe.scale(start, 0.5) == pytest.approx(0.5 / factor)


@pytest.fixture(scope="module")
def exact_run(tmp_path_factory):
    config_dict = workloads.psro_config("exact_leduc", 0, smoke=True)
    run_dir = str(tmp_path_factory.mktemp("exact_run"))
    history = gamepop.engine.run_psro(parse_config(config_dict), 0, run_dir)
    return config_dict, run_dir, history


def test_checks_pass_on_real_outputs(exact_run):
    config_dict, run_dir, history = exact_run
    assert checks.check_psro_run(history, run_dir, config_dict) == []
    assert checks.check_profile_value(history, expected_value,
                                      make_game("leduc_poker")) == []


def _with_last_row(lines, column, value):
    fields = lines[-1].rstrip("\n").split(",")
    fields[column] = value
    return "".join(lines[:-1]) + ",".join(fields) + "\n"


def _corruptions(text):
    lines = text.splitlines(keepends=True)
    yield "dropped row", "".join(lines[:-1])
    yield "wrong version", "# other-version\n" + "".join(lines[1:])
    yield "wrong columns", lines[0] + lines[1].replace("pop_size_p2",
                                                       "pop") + "".join(
        lines[2:])
    yield "negative exploitability", _with_last_row(lines, 1, "-0.5")
    yield "missing exploitability", _with_last_row(lines, 1, "")
    yield "wrong population size", _with_last_row(lines, 4, "9")


def test_results_check_fires_on_corrupted_csv(exact_run, tmp_path):
    config_dict, run_dir, history = exact_run
    with open(os.path.join(run_dir, "results.csv")) as fh:
        text = fh.read()
    assert checks.check_results_csv(text, config_dict) == []
    for what, corrupted in _corruptions(text):
        assert corrupted != text, what
        assert checks.check_results_csv(corrupted, config_dict), what


def test_profile_value_check_fires_on_a_wrong_matrix(exact_run):
    _, _, history = exact_run
    shifted = dataclasses.replace(
        history, meta=MetaGame(history.meta.payoff + 1e-6))
    assert checks.check_profile_value(shifted, expected_value,
                                      make_game("leduc_poker"))


def test_nash_check_fires_on_an_uncertified_pair():
    pennies = np.array([[1.0, -1.0], [-1.0, 1.0]])
    half = np.array([0.5, 0.5])
    assert checks.check_nash(pennies, half, half) == []
    pure = np.array([1.0, 0.0])
    assert checks.check_nash(pennies, pure, pure)
    assert checks.check_nash(pennies, np.array([0.6, 0.6]), half)
    assert checks.nash_gap(pennies, pure, pure) == pytest.approx(2.0)


def test_run_refuses_a_directory_without_the_program(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "meta_solve", "--seed", "0",
                     "--seconds", "1"]) != 0
