"""Run one workload for a time budget, check its outputs and collect its
metrics. `run.py` pins the BLAS threads and puts ``src`` on the path before
importing this module.

A run repeats the workload, one repetition at a time, until starting
another would overrun the budget (at least one repetition). Every
repetition runs the workload seed, so the same work is timed each time.
With tracing on, each repetition runs twice, untraced and then traced, and
the two runs' output hashes must agree.

The run is pinned to one CPU, and `speed_probe.py` samples that CPU's speed
throughout. Each timed interval, the set-ups included, is reported both as
wall time and scaled to the probe's reference speed; the scaled times are
the gated metrics, because on a shared host the same work drifts by up to
a factor of two with other tenants' load.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np

import gamepop.config
import gamepop.engine
import gamepop.meta_solvers
from gamepop.games import expected_value, make_game

import checks
import speed_probe
import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".psrobench")
SETUP_PROBES = 9
# A timed interval holding fewer speed samples than this is scaled by the
# samples nearest to it.
MIN_SPEED_SAMPLES = 5


class Stopwatch:
    """Start time, wall time and process CPU time (user + system) since
    it started. Monotonic, so it lines up with the speed probe's clock."""

    def __init__(self):
        self.wall = time.monotonic()
        self.cpu = time.process_time()

    def read(self) -> tuple[float, float, float]:
        return (self.wall, time.monotonic() - self.wall,
                time.process_time() - self.cpu)


class SpeedProbe:
    """Pins this process to one CPU and runs `speed_probe.py` there for
    the life of the block; `scale` then gives a timed interval in seconds
    at the probe's reference speed."""

    def __init__(self, work_dir: str):
        self.path = os.path.join(work_dir, "speed.txt")
        self.samples = []
        self.process = None
        self.cpus = None
        self.cpu = None

    def __enter__(self):
        self.cpus = os.sched_getaffinity(0)
        self.cpu = min(self.cpus)
        os.sched_setaffinity(0, {self.cpu})
        try:
            self.process = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "speed_probe.py"),
                 self.path])
        except OSError:
            os.sched_setaffinity(0, self.cpus)
            raise
        deadline = time.monotonic() + 30
        while not self._read() and time.monotonic() < deadline:
            time.sleep(0.01)
        return self

    def __exit__(self, *exc):
        self.process.terminate()
        self.process.wait()
        os.sched_setaffinity(0, self.cpus)
        self.samples = self._read()

    def _read(self) -> list:
        if not os.path.exists(self.path):
            return []
        with open(self.path) as fh:
            return [tuple(map(float, line.split())) for line in fh
                    if line.endswith("\n")]

    def factor(self, start: float, seconds: float) -> float:
        """How much slower than the reference the CPU ran in an interval."""
        end = start + seconds
        inside = [c for t, c in self.samples if start <= t <= end]
        if len(inside) < MIN_SPEED_SAMPLES:
            middle = start + seconds / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            inside = [c for _, c in nearest[:MIN_SPEED_SAMPLES]]
        if not inside:
            raise RuntimeError("the speed probe wrote no samples")
        return statistics.mean(inside) / speed_probe.REFERENCE_CHUNK_S

    def scale(self, start: float, seconds: float) -> float:
        return seconds / self.factor(start, seconds)


@dataclass
class Rep:
    """One repetition: when it started, its wall and CPU time, operations,
    failed checks and outputs."""
    started: float
    seconds: float
    cpu_seconds: float
    ops: int
    problems: list
    hashes: dict
    exploitability: float | None = None
    meta_gap: float | None = None


def psro_rep(name: str, seed: int, smoke: bool, work_dir: str,
             tracer: Tracer | None) -> Rep:
    """One repetition: a PSRO run for each of the workload's run seeds, one
    after another, timed together; outputs are checked after the clock
    stops."""
    seeds = workloads.run_seeds(name, seed)
    config_dicts = [workloads.psro_config(name, s, smoke) for s in seeds]
    iterations = config_dicts[0]["iterations"]
    ops = iterations * len(seeds)
    rep_dir = tempfile.mkdtemp(dir=work_dir)
    run_dirs = [os.path.join(rep_dir, f"seed{s}") for s in seeds]
    try:
        clock = Stopwatch()
        try:
            with tracer or contextlib.nullcontext():
                configs = [gamepop.config.parse_config(c)
                           for c in config_dicts]
                clock = Stopwatch()
                histories = [gamepop.engine.run_psro(config, s, run_dir)
                             for config, s, run_dir
                             in zip(configs, seeds, run_dirs)]
                times = clock.read()
        except Exception:  # the run's failure is a result, not a crash
            traceback.print_exc()
            return Rep(*clock.read(), ops, [f"{name}: run raised"] * ops, {})
        problems = []
        hashes = {}
        for s, config_dict, run_dir, history in zip(seeds, config_dicts,
                                                    run_dirs, histories):
            problems += checks.check_psro_run(history, run_dir, config_dict)
            if config_dict["payoff"]["mode"] == "exact":
                game = config_dict["game"]
                problems += checks.check_profile_value(
                    history, expected_value, make_game(game["name"],
                                                       game["params"]))
            for key, filename in (("results_csv", "results.csv"),
                                  ("payoff_matrix",
                                   f"payoff_matrix_{iterations}.txt")):
                path = os.path.join(run_dir, filename)
                if os.path.exists(path):
                    hashes[f"{key}.seed{s}"] = checks.sha256_file(path)
        return Rep(*times, ops, problems, hashes,
                   exploitability=histories[0].records[-1].exploitability)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def _solver_kinds(seed: int, smoke: bool) -> dict:
    return {
        "nash": gamepop.config.parse_config(
            workloads.solver_config({"kind": "nash"}, seed)).mss,
        "prd": gamepop.config.parse_config(
            workloads.solver_config(workloads.prd_spec(smoke), seed)).mss,
    }


def _solve_all(plan: list, kinds: dict) -> list:
    outputs = []
    for _, solver, matrix in plan:
        try:
            outputs.append(gamepop.meta_solvers.solve(matrix, kinds[solver]))
        except Exception:  # one failed solve is counted, the rest still run
            traceback.print_exc()
            outputs.append(None)
    return outputs


def meta_rep(seed: int, smoke: bool, tracer: Tracer | None) -> Rep:
    plan = workloads.meta_matrices(seed, smoke)
    with tracer or contextlib.nullcontext():
        kinds = _solver_kinds(seed, smoke)
        clock = Stopwatch()
        outputs = _solve_all(plan, kinds)
        times = clock.read()

    problems = []
    gaps = []
    inputs = hashlib.sha256()
    results = hashlib.sha256()
    for (structure, solver, matrix), output in zip(plan, outputs):
        inputs.update(np.ascontiguousarray(matrix).tobytes())
        label = f"{solver} {structure} {len(matrix)}"
        if output is None:
            problems.append(f"{label}: solve raised")
            continue
        sigma_row, sigma_col = output
        results.update(np.asarray(sigma_row, dtype=float).tobytes())
        results.update(np.asarray(sigma_col, dtype=float).tobytes())
        if solver == "nash":
            found = checks.check_nash(matrix, sigma_row, sigma_col)
            gaps.append(checks.nash_gap(matrix, sigma_row, sigma_col))
        else:
            found = (checks.check_distribution(sigma_row, len(matrix),
                                               "prd sigma_row")
                     + checks.check_distribution(sigma_col, len(matrix),
                                                 "prd sigma_col"))
        problems += [f"{label}: {p}" for p in found]
    return Rep(*times, len(plan), problems,
               {"inputs": inputs.hexdigest(), "outputs": results.hexdigest()},
               meta_gap=max(gaps) if gaps else None)


def run_rep(name, seed, smoke, work_dir, tracer=None) -> Rep:
    """One repetition; with a tracer, only the timed calls are traced."""
    gc.collect()
    if name == "meta_solve":
        return meta_rep(seed, smoke, tracer)
    return psro_rep(name, seed, smoke, work_dir, tracer)


def setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    """Set-up times (imports, config parse, game build) as (launch time,
    seconds), each sample in a fresh interpreter so imports are not
    cached."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"),
               json.dumps(workloads.setup_config(name, seed))]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append((start, float(done.stdout.split()[-1])))
    return samples


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of the program's sources; identifies the code where the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                digest.update(os.path.relpath(path, src).encode())
                digest.update(checks.sha256_file(path).encode())
    return digest.hexdigest()


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def declared_units() -> dict:
    """Each metric's unit, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """Returns (details, result); `result` is the benchmark's output line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=OUT_DIR)
    tracer = Tracer() if trace else None
    setup, reps, traced = [], [], []
    try:
        with SpeedProbe(work_dir) as probe:
            if not trace:
                setup = setup_seconds(name, seed)
            start = time.monotonic()
            while True:
                reps.append(run_rep(name, seed, smoke, work_dir))
                if trace:
                    tracer.run_id = len(traced)
                    traced.append(run_rep(name, seed, smoke, work_dir,
                                          tracer))
                    if traced[-1].hashes != reps[-1].hashes:
                        traced[-1].problems.append(
                            f"repetition {len(reps) - 1}: traced outputs "
                            "differ from untraced")
                if reps[-1].hashes != reps[0].hashes:
                    reps[-1].problems.append(
                        f"repetition {len(reps) - 1}: outputs differ from "
                        "repetition 0 on the same seed")
                elapsed = time.monotonic() - start
                if elapsed * (len(reps) + 1) / len(reps) > seconds:
                    break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    every = reps + traced
    attempted = sum(r.ops for r in every)
    problems = [p for r in every for p in r.problems]
    failed = min(attempted, len(problems))
    run_s = statistics.median(probe.scale(r.started, r.seconds)
                              for r in reps)
    if trace:
        metrics = _layer_metrics(tracer, name, probe, run_s, traced)
        spans_file = os.path.join(OUT_DIR, "spans", f"{name}-seed{seed}.jsonl")
        os.makedirs(os.path.dirname(spans_file), exist_ok=True)
        tracer.write_spans(spans_file)
    else:
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(probe.scale(*s) for s in setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    gaps = [r.meta_gap for r in every if r.meta_gap is not None]
    details = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "reps": len(reps),
        "rep_seconds": [r.seconds for r in reps],
        "rep_cpu_seconds": [r.cpu_seconds for r in reps],
        "rep_slowdown": [probe.factor(r.started, r.seconds) for r in reps],
        "setup_seconds": [s for _, s in setup],
        "setup_slowdown": [probe.factor(*s) for s in setup],
        "speed_samples": len(probe.samples),
        "cpu_pinned": probe.cpu,
        "ops": attempted,
        "ops_failed": failed,
        "problems": problems[:20],
        "hashes": reps[0].hashes,
        "exploitability_final": reps[0].exploitability,
        "meta_gap_max": max(gaps) if gaps else None,
        "machine": machine_facts(),
    }
    if trace:
        details["traced_rep_seconds"] = [r.seconds for r in traced]
        details["spans_file"] = os.path.relpath(spans_file, ROOT)
        details["unwrapped"] = tracer.missing
    units = declared_units()
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {key: {"value": value, "unit": units[key]}
                          for key, value in metrics.items()}}
    return details, result


def _layer_metrics(tracer: Tracer, name: str, probe: SpeedProbe,
                   run_s: float, traced: list) -> dict:
    traced_s = statistics.median(probe.scale(r.started, r.seconds)
                                 for r in traced)
    metrics = tracer.layer_metrics(len(traced), workloads.payoff_mode(name))
    metrics["trace.run_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - run_s
    metrics["trace.spans"] = len(tracer.spans) / len(traced)
    return metrics

