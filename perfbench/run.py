"""Benchmark of the holonomy-lab command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload haar-mc --seed 1 --seconds 20 --trace 0

One client runs jobs in a closed loop: each job is one ``holonomy_lab.cli``
command line run in this process, and the next starts when the previous
returns.  Jobs cycle through the workload's mix (see ``workloads``) for
``--seconds``; every report is then checked against an independent
reference (see ``checks``).  Wall times are put on a common scale with a
machine-speed probe run between jobs (see ``speed``); raw times are saved
too.  The last line of stdout is one JSON object:

- ``--trace 0``: end-to-end metrics.  ``setup_s`` is the median of three
  fresh processes that each import the package, generate the inputs and
  warm up (one checked job of every kind): process start to the first
  timed job.
- ``--trace 1``: per-layer metrics.  Half the time runs untraced, half
  with spans around each module's public functions (see ``tracing``),
  then one job of every kind of every workload runs traced as a
  calibration pass, which supplies per-call costs of functions the
  workload never calls.  Counts (calls, letters, segments, samples,
  closure vectors) are totals over exactly one pass of the job cycle, so
  they repeat for a fixed seed.

``--quick`` runs one job of every kind with checks, plus the light
commands as fresh ``python -m holonomy_lab.cli`` processes whose stdout
must match the in-process report byte for byte.

The environment (source digest, Python, numpy, scipy, BLAS, cpu count,
thread variables) is printed on a ``perfbench-env`` line before the result
and stored with the result and the spans under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("haar-mc", "smooth-transport", "discrete-algebra")
SETUP_TRIALS = 3
SETUP_PROBES = 8          # speed probes before and after each set-up trial
STARTUP_TRIALS = 5
FAILED_LATENCY_MS = 1e9   # stands for a failed job, which misses every latency bound


def _bootstrap():
    """Import the package from this checkout's ``src``, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "holonomy_lab", "cli.py")):
        sys.stderr.write(f"perfbench: no holonomy_lab sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import holonomy_lab
    if not os.path.abspath(holonomy_lab.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported {holonomy_lab.__file__}, not the checkout\n")
        sys.exit(2)


_bootstrap()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from holonomy_lab import cli  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


# ---------------------------------------------------------------------------
# running jobs

def run_argv(argv):
    """Run one command line in this process; returns (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, out.getvalue()


def reference_report(argv):
    _, rc, text = run_argv(argv)
    if rc != 0:
        raise checks.CheckFailed(f"reference run exited {rc}")
    return text


class Record:
    __slots__ = ("job", "seconds", "rc", "text", "error", "end")

    def __init__(self, job, seconds, rc, text):
        self.job, self.seconds, self.rc, self.text, self.error = job, seconds, rc, text, None
        self.end = time.perf_counter()


def run_phase(cycle, seconds, tracer=None, min_jobs=0, log=None):
    """Closed loop over ``cycle`` for ``seconds`` (and at least ``min_jobs``).

    With a speed ``log`` the machine-speed probe runs between jobs, outside
    their timing.
    """
    records = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(records) < min_jobs:
        job = cycle[len(records) % len(cycle)]
        if tracer is not None:
            tracer.begin_job(job.kind)
        sec, rc, text = run_argv(job.argv)
        if tracer is not None:
            tracer.end_job(rc == 0)
        records.append(Record(job, sec, rc, text))
        if log is not None:
            log.maybe_probe()
    return records


def check_records(records):
    """Set ``error`` on each failed record; returns the number of failures.

    Reports are deterministic per job, so each distinct (job, report) pair
    is checked once.
    """
    seen = {}
    failed = 0
    for rec in records:
        if rec.rc != 0:
            rec.error = f"exit {rec.rc}"
        else:
            key = (id(rec.job), rec.text)
            if key not in seen:
                try:
                    rec.job.check(rec.text)
                    seen[key] = None
                except (checks.CheckFailed, KeyError, TypeError, ValueError, IndexError) as exc:
                    seen[key] = f"{type(exc).__name__}: {exc}"
            rec.error = seen[key]
        if rec.error is not None:
            failed += 1
            print(f"perfbench-fail {rec.job.kind}: {rec.error}", file=sys.stderr)
    return failed


def cold_check(jobs):
    """Light commands as fresh processes; stdout must equal the in-process report."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    records = []
    for job in jobs:
        if job.command not in wl.LIGHT_COMMANDS:
            continue
        _, rc, warm = run_argv(job.argv)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "holonomy_lab.cli", *job.argv],
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        rec = Record(job, time.perf_counter() - t0, proc.returncode, proc.stdout)
        if rc != 0 or proc.returncode != 0:
            rec.error = f"exit {rc} in process, {proc.returncode} in a fresh process"
        elif proc.stdout != warm:
            rec.error = "fresh-process stdout differs from the in-process report"
        records.append(rec)
        if rec.error:
            print(f"perfbench-fail cold {job.kind}: {rec.error}", file=sys.stderr)
    return records


# ---------------------------------------------------------------------------
# set-up

def setup(workload, seed, workdir):
    """Generate the inputs and warm up: one checked job of every kind."""
    cycle = wl.build_cycle(workload, seed, workdir, reference_report)
    warm = [Record(job, *run_argv(job.argv)) for job in wl.first_of_each_kind(cycle)]
    return cycle, check_records(warm)


def setup_trials(workload, seed):
    """Fresh processes that import, generate inputs and warm up.

    Each reports the speed probes it ran itself; the probes' own time is
    taken out and the rest scaled to the reference speed.  Returns raw
    seconds, scaled seconds and whether every trial succeeded.
    """
    raw, scaled = [], []
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(seed), "--setup-only"],
                              cwd=ROOT, capture_output=True, text=True, timeout=170)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return raw, scaled, False
        probes = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(wall - probes["total_s"])
        scaled.append(raw[-1] * speed.REFERENCE_S / probes["typical_s"])
    return raw, scaled, True


def startup_ms():
    """Median bare interpreter start and median ``import holonomy_lab.cli`` above it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    bare, full = [], []
    for _ in range(STARTUP_TRIALS):
        for code, into in (("pass", bare), ("import holonomy_lab.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=60)
            into.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(bare), statistics.median(full) - statistics.median(bare)


# ---------------------------------------------------------------------------
# environment

def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "holonomy_lab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    if proc.returncode != 0:
        return None  # a checkout without git history
    return proc.stdout.strip()


def environment(workload, seed):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256_16": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "HOLONOMY_LAB_THREADS": os.environ.get("HOLONOMY_LAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "load": "closed loop, 1 client",
    }


# ---------------------------------------------------------------------------
# metrics

def percentile_ms(latencies_ms, q):
    """Nearest-rank percentile; a failed job (None) ranks above every latency."""
    lat = sorted(FAILED_LATENCY_MS if x is None else x for x in latencies_ms)
    return lat[max(math.ceil(q * len(lat)) - 1, 0)]


def latencies(records, log=None):
    """Job latencies in ms, scaled to the reference speed when a speed log is given."""
    out = []
    for r in records:
        sec = r.seconds if log is None else log.scale(r.seconds, r.end - 0.5 * r.seconds)
        out.append(None if r.error else sec * 1e3)
    return out


def jobs_per_s(lat_ms):
    ok = [x for x in lat_ms if x is not None]
    return len(ok) / (sum(ok) / 1e3) if ok else 0.0


def end_to_end(records, log, setup_scaled):
    lat = latencies(records, log)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "job_p50_ms": {"value": percentile_ms(lat, 0.5), "unit": "ms"},
        "job_p90_ms": {"value": percentile_ms(lat, 0.9), "unit": "ms"},
        "jobs_per_s": {"value": jobs_per_s(lat), "unit": "1/s"},
        "verified_share": {"value": sum(x is not None for x in lat) / len(lat), "unit": "ratio"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
    }


def _base(name):
    return name.split("[")[0]


def per_layer(spans, pass_jobs, workload_jobs, calib_jobs, startup, jps_untraced, jps_traced):
    """Reduce traced spans to the per-layer metrics."""
    names = [str(n) for n in spans["names"]]
    base = np.array([_base(n) for n in names])
    tag = np.array([n.split("[")[1][:-1] if "[" in n else "" for n in names])
    name, parent, job = spans["name"], spans["parent"], spans["job"]
    start, end = spans["start"], spans["end"]
    dur = end - start
    self_t = tracing.self_times(parent, start, end)
    fn = base[name]
    ftag = tag[name]
    parent_fn = np.where(parent >= 0, fn[np.maximum(parent, 0)], "")
    in_pass = np.isin(job, pass_jobs)
    in_work = np.isin(job, workload_jobs)
    in_calib = np.isin(job, calib_jobs)
    units = spans["units"]

    def select(f, t=None, outermost=False):
        """Spans of f from the workload, or from the calibration pass if it never ran."""
        m = fn == f
        if t is not None:
            m &= ftag == t
        if outermost:
            m &= parent_fn != f
        return m & in_work if np.any(m & in_work) else m & in_calib

    def per_call(f, scale, t=None, outermost=False):
        m = select(f, t, outermost)
        return float(dur[m].sum() / max(m.sum(), 1) * scale)

    def per_unit(f, scale, t=None, outermost=False):
        m = select(f, t, outermost)
        return float(dur[m].sum() / max(units[m].sum(), 1.0) * scale)

    def in_one_pass(f, outermost=False):
        m = (fn == f) & in_pass
        return m & (parent_fn != f) if outermost else m

    metrics = {}

    def put(key, value, unit):
        metrics[key] = {"value": value, "unit": unit}

    put("cli.interpreter_ms", startup[0], "ms")
    put("cli.import_ms", startup[1], "ms")
    io_fns = np.isin(fn, ["cli.parse", "cli._load_json", "cli._emit"]) & in_work
    put("cli.parse_io_ms", float(self_t[io_fns].sum() / max(len(workload_jobs), 1) * 1e3), "ms")

    put("pathgroupoid.word_from_tokens.us_per_letter",
        per_unit("pathgroupoid.word_from_tokens", 1e6), "us")
    put("pathgroupoid.graph_from_dict.ms", per_call("pathgroupoid.graph_from_dict", 1e3), "ms")
    put("pathgroupoid.depends_on.ms", per_call("pathgroupoid.depends_on", 1e3), "ms")
    put("pathgroupoid.depends_on.calls", int(in_one_pass("pathgroupoid.depends_on").sum()), "count")

    for t in ("su2", "u3", "t2", "quotient"):
        put(f"matrixgroups.haar_batch.{t}.us_per_sample",
            per_unit("matrixgroups.haar_batch", 1e6, t, outermost=True), "us")
    put("matrixgroups.haar_batch.samples",
        int(units[in_one_pass("matrixgroups.haar_batch", outermost=True)].sum()), "count")
    put("matrixgroups.mul.us_per_call", per_call("matrixgroups.mul", 1e6), "us")
    put("matrixgroups.mul.calls", int(in_one_pass("matrixgroups.mul").sum()), "count")
    put("matrixgroups.canonicalize_batch.us_per_call",
        per_call("matrixgroups.canonicalize_batch", 1e6), "us")
    put("matrixgroups.log_map.us_per_call", per_call("matrixgroups.log_map", 1e6), "us")

    put("connections.holonomy_general.us_per_letter",
        per_unit("connections.holonomy_general", 1e6), "us")
    put("connections.holonomy_general.letters",
        int(units[in_one_pass("connections.holonomy_general")].sum()), "count")
    put("connections.transport.ms_per_segment", per_unit("connections.transport", 1e3), "ms")
    put("connections.transport.segments",
        int(units[in_one_pass("connections.transport")].sum()), "count")
    m = in_one_pass("connections.transport")
    if not m.any():
        m = select("connections.transport")
    put("connections.transport.self_s", float(self_t[m].sum()), "s")
    put("connections.interpolate_connection.ms",
        per_call("connections.interpolate_connection", 1e3), "ms")

    m = select("cylindrical.HaarMean.estimate")
    samples = max(units[m].sum(), 1.0)
    kids = (fn == "matrixgroups.haar_batch") & np.isin(parent, np.flatnonzero(m))
    put("cylindrical.HaarMean.us_per_sample", float(dur[m].sum() / samples * 1e6), "us")
    put("cylindrical.HaarMean.self_us_per_sample",
        float((dur[m].sum() - dur[kids].sum()) / samples * 1e6), "us")
    put("cylindrical.invariance_check.ms", per_call("cylindrical.invariance_check", 1e3), "ms")

    put("spectra.closure_membership.ms", per_call("spectra.closure_membership", 1e3), "ms")
    m = in_one_pass("spectra._abelian_check")
    checked, enumerated = float(spans["result"][m].sum()), float(units[m].sum())
    put("spectra.closure_membership.checked", int(checked), "count")
    put("spectra.closure_membership.enumerated", int(enumerated), "count")
    put("spectra.closure_membership.useful_ratio",
        checked / enumerated if enumerated else 0.0, "ratio")
    put("spectra.tree_decompose.ms", per_call("spectra.tree_decompose", 1e3), "ms")
    for t in ("su3", "quotient"):
        put(f"spectra.orbit_representative.{t}.ms",
            per_call("spectra.orbit_representative", 1e3, t, outermost=True), "ms")
    put("spectra.approximation_experiment.ms",
        per_call("spectra.approximation_experiment", 1e3), "ms")

    layer = np.array([f.split(".")[0] for f in fn]) if len(fn) else np.array([], dtype=str)
    failed = spans["ok"] == 0
    for lay in tracing.LAYERS:
        m = (layer == lay) & in_pass
        put(f"{lay}.calls", int(m.sum()), "count")
        put(f"{lay}.self_s", float(self_t[m].sum()), "s")
        put(f"{lay}.failures", int(((layer == lay) & in_work & failed).sum()), "count")

    roots = (fn == "job") & in_work
    put("trace.uncovered_share", float(self_t[roots].sum() / dur[roots].sum()), "ratio")
    put("trace.jobs_per_s_untraced", jps_untraced, "1/s")
    put("trace.jobs_per_s_traced", jps_traced, "1/s")
    put("trace.overhead", jps_untraced / jps_traced - 1.0, "ratio")
    return metrics


def counts_by_kind(spans, pass_jobs, kinds):
    """Work counts of each job kind over one pass of the cycle."""
    names = np.array([_base(str(n)) for n in spans["names"]])
    fn = names[spans["name"]] if len(spans["name"]) else np.array([], dtype=str)
    parent = spans["parent"]
    parent_fn = np.where(parent >= 0, fn[np.maximum(parent, 0)], "")
    out = {}
    for j in pass_jobs:
        row = out.setdefault(kinds[j], {"jobs": 0, "letters": 0, "segments": 0,
                                        "haar_draws": 0, "closure_enumerated": 0,
                                        "closure_checked": 0})
        m = spans["job"] == j
        row["jobs"] += 1
        row["letters"] += int(spans["units"][m & (fn == "connections.holonomy_general")].sum())
        row["segments"] += int(spans["units"][m & (fn == "connections.transport")].sum())
        haar = m & (fn == "matrixgroups.haar_batch") & (parent_fn != "matrixgroups.haar_batch")
        row["haar_draws"] += int(spans["units"][haar].sum())
        ab = m & (fn == "spectra._abelian_check")
        row["closure_enumerated"] += int(spans["units"][ab].sum())
        row["closure_checked"] += int(spans["result"][ab].sum())
    return out


# ---------------------------------------------------------------------------
# modes

def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def save(name, payload):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def latency_summary(records):
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.job.kind, []).append(r.seconds * 1e3)
    return {k: {"jobs": len(v), "median_ms": statistics.median(v)} for k, v in by_kind.items()}


def timed_run(workload, seed, seconds, workdir, env):
    setup_raw, setup_scaled, setup_ok = setup_trials(workload, seed)
    cycle, warm_failed = setup(workload, seed, workdir)
    log = speed.SpeedLog()
    records = run_phase(cycle, seconds, log=log)
    failed = check_records(records)
    metrics = end_to_end(records, log, setup_scaled)
    raw = latencies(records)
    save(f"result-{workload}-seed{seed}-trace0.json",
         {"env": env, "metrics": metrics, "jobs": len(records), "failed": failed,
          "warmup_failed": warm_failed,
          "raw": {"job_p50_ms": percentile_ms(raw, 0.5), "job_p90_ms": percentile_ms(raw, 0.9),
                  "jobs_per_s": jobs_per_s(raw), "setup_s": statistics.median(setup_raw)},
          "setup_s": {"raw": setup_raw, "scaled": setup_scaled},
          "probe_ms": {"median": statistics.median(log.took) * 1e3,
                       "min": min(log.took) * 1e3, "max": max(log.took) * 1e3,
                       "count": len(log.took)},
          "kinds": latency_summary(records),
          "timeline": {"jobs": [[r.end, r.seconds, r.job.kind] for r in records],
                       "probes": [list(p) for p in zip(log.at, log.took)]}})
    correct = setup_ok and warm_failed == 0 and failed == 0
    return result_line(correct, len(records), failed + warm_failed, metrics)


def traced_run(workload, seed, seconds, workdir, env):
    startup = startup_ms()
    cycle, warm_failed = setup(workload, seed, workdir)
    log = speed.SpeedLog()
    plain = run_phase(cycle, seconds / 2.0, log=log)
    calib_jobs = [job for k, other in enumerate(WORKLOADS)
                  for job in wl.first_of_each_kind(wl.build_cycle(
                      other, seed, os.path.join(workdir, f"calib{k}"), reference_report))]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_phase(cycle, seconds / 2.0, tracer, min_jobs=len(cycle), log=log)
        workload_jobs = list(range(len(tracer.kinds)))
        calib = run_phase(calib_jobs, 0.0, tracer, min_jobs=len(calib_jobs))
    finally:
        tracer.uninstall()
    cold = cold_check(wl.first_of_each_kind(cycle))
    failed = check_records(plain) + check_records(traced) + check_records(calib)
    failed += sum(r.error is not None for r in cold)
    spans = tracer.arrays()
    calib_ids = list(range(len(workload_jobs), len(tracer.kinds)))
    pass_jobs = workload_jobs[:len(cycle)]
    metrics = per_layer(spans, pass_jobs, workload_jobs, calib_ids, startup,
                        jobs_per_s(latencies(plain, log)), jobs_per_s(latencies(traced, log)))
    os.makedirs(OUT, exist_ok=True)
    np.savez(os.path.join(OUT, f"spans-{workload}-seed{seed}.npz"),
             kinds=np.array(tracer.kinds), **spans)
    save(f"result-{workload}-seed{seed}-trace1.json",
         {"env": env, "metrics": metrics, "failed": failed, "warmup_failed": warm_failed,
          "pass_jobs": len(pass_jobs),
          "counts_by_kind": counts_by_kind(spans, pass_jobs, tracer.kinds),
          "cold_jobs": {r.job.kind: r.seconds * 1e3 for r in cold}})
    attempted = len(plain) + len(traced) + len(calib) + len(cold)
    return result_line(failed == 0 and warm_failed == 0, attempted, failed + warm_failed,
                       metrics)


def quick_run(workload, seed, workdir):
    cycle = wl.build_cycle(workload, seed, workdir, reference_report)
    jobs = wl.first_of_each_kind(cycle)
    records = [Record(job, *run_argv(job.argv)) for job in jobs]
    cold = cold_check(jobs)
    failed = check_records(records) + sum(r.error is not None for r in cold)
    return result_line(failed == 0, len(records) + len(cold), failed, {})


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="one checked job of every kind")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        if args.setup_only:
            log = speed.SpeedLog()
            log.probe(SETUP_PROBES)
            failed = setup(args.workload, args.seed, workdir)[1]
            log.probe(SETUP_PROBES)
            print(json.dumps({"typical_s": speed.typical(log.took), "total_s": sum(log.took)}))
            return 1 if failed else 0
        if args.quick:
            line = quick_run(args.workload, args.seed, workdir)
        else:
            env = environment(args.workload, args.seed)
            print("perfbench-env " + json.dumps(env, sort_keys=True))
            run = traced_run if args.trace else timed_run
            line = run(args.workload, args.seed, args.seconds, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
