"""Quick-mode tests of the benchmark itself (no timing thresholds).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_mode_checks_every_kind(workload, tmp_path):
    line = json.loads(run.quick_run(workload, 3, str(tmp_path)))
    kinds = len(wl.MIXES[workload])
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= kinds


def corrupt(value):
    """Every number and flag of a report, changed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.25
    if isinstance(value, list):
        return [corrupt(v) for v in value]
    if isinstance(value, dict):
        return {k: corrupt(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_report_counts_as_failure(workload, tmp_path):
    cycle = wl.build_cycle(workload, 4, str(tmp_path), run.reference_report)
    jobs = wl.first_of_each_kind(cycle)
    good = [run.Record(job, *run.run_argv(job.argv)) for job in jobs]
    assert run.check_records(good) == 0
    bad = [run.Record(r.job, r.seconds, 0, json.dumps(corrupt(json.loads(r.text)))) for r in good]
    bad.append(run.Record(jobs[0], 0.0, 0, "{not json"))
    bad.append(run.Record(jobs[0], 0.0, 3, good[0].text))
    run.check_records(bad)
    assert [r.job.kind for r in bad if r.error is None] == []


def test_counts_repeat_exactly(tmp_path):
    """Letters, segments, Haar draws and closure vectors are deterministic."""
    def counts(sub):
        cycle = wl.build_cycle("discrete-algebra", 5, str(tmp_path / sub), run.reference_report)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run.run_phase(cycle, 0.0, tracer, min_jobs=len(cycle))
        finally:
            tracer.uninstall()
        return run.counts_by_kind(tracer.arrays(), list(range(len(cycle))), tracer.kinds)

    first, second = counts("a"), counts("b")
    assert first == second
    assert first["holonomy/su2"]["letters"] > 0
    assert first["closure/torus5-member"]["closure_enumerated"] == 4 * 13 ** 5


def test_tracer_restores_the_package():
    import holonomy_lab.cli as cli
    import holonomy_lab.matrixgroups as mg
    before = (mg.mul, mg.haar_batch, cli.graph_from_dict, cli._build_parser)
    tracer = tracing.Tracer()
    tracer.install()
    assert mg.mul is not before[0]
    tracer.uninstall()
    assert (mg.mul, mg.haar_batch, cli.graph_from_dict, cli._build_parser) == before


def test_self_time_subtracts_covered_children():
    import numpy as np
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0.0, 1.0, 2.0, 1.5])
    end = np.array([10.0, 3.0, 4.0, 2.5])
    # children of 0 cover [1, 4]; child of 1 covers [1.5, 2.5]
    assert np.allclose(tracing.self_times(parent, start, end), [7.0, 1.0, 2.0, 1.0])


def test_speed_scaling_uses_nearby_probes():
    log = speed.SpeedLog()
    log.at = [0.0, 1.0, 2.0, 10.0, 11.0]
    log.took = [speed.REFERENCE_S] * 3 + [2 * speed.REFERENCE_S] * 2
    assert log.scale(0.4, 1.5) == pytest.approx(0.4)
    assert log.scale(0.4, 10.5) == pytest.approx(0.2)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "haar-mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
