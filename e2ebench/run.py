"""The repository's end-to-end benchmark.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload closed_loop_learn --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: several fresh-interpreter
set-ups (their median is ``setup_s``), then one measuring process that
runs the workload for ``--seconds`` of timed work.  ``--trace 1`` runs
the workload's fixed prefix twice, untraced and traced, and reports the
per-layer metrics.  Every run checks the simulated outputs (accounting,
billed failure energy, and a digest that must repeat for a seed).

Every measured process is a fresh single-threaded interpreter, started
with ``REPRO_CONTRACTS`` and ``PYTEST_CURRENT_TEST`` removed from its
environment, so the production configuration is what gets timed.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A human-readable
report (metadata, each metric with its unit and within-run quartiles)
precedes it, and the full record is written to
``.e2ebench-out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".e2ebench-out")
WORKLOADS = ("closed_loop_learn", "open_loop_surge", "drift_chaos_guarded",
             "paper_protocol")
#: Fresh-interpreter set-ups per measuring run (the measuring process's
#: own set-up is one of them).
SETUP_SAMPLES = 5
#: Every process of one run must finish inside this budget.
RUN_BUDGET_S = 170.0

SIM_UNITS = {
    "sim_energy_per_delivered_mj": "mJ",
    "sim_qos_violation_pct": "%",
    "sim_latency_ms_p50": "ms",
    "sim_latency_ms_p99": "ms",
}


class BenchError(Exception):
    """A benchmark process crashed or overran; no result is printed."""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("e2ebench: no src/repro package next to the benchmark; "
              "run it from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    runner = Runner(args)
    try:
        if args.trace:
            metrics, attempted, errors = runner.traced()
        else:
            metrics, attempted, errors = runner.measured()
    except BenchError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 1
    runner.report(metrics, errors)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


class Runner:
    """One benchmark run: its worker processes, checks and report."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.meta = metadata(args.seed)
        self.raw = {}

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def spawn(self, mode, spans=""):
        """Run one worker; returns (set-up seconds, result or None)."""
        command = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--mode", mode,
                   "--seconds", str(self.args.seconds)]
        if spans:
            command += ["--spans", spans]
        started = time.perf_counter()
        process = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                   stdout=subprocess.PIPE, text=True)
        # The watchdog kills a process that would overrun the run budget.
        watchdog = threading.Timer(
            max(1.0, self.deadline - time.monotonic()), process.kill)
        watchdog.start()
        try:
            ready = process.stdout.readline()
            setup_s = time.perf_counter() - started
            rest = process.stdout.read()
            process.wait()
        finally:
            watchdog.cancel()
            process.stdout.close()
        if ready.strip() != "READY" or process.returncode != 0:
            raise BenchError(f"{mode} process failed or overran the run "
                             f"budget (exit {process.returncode})")
        lines = rest.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} process printed no result")
        return setup_s, json.loads(lines[-1])

    # ------------------------------------------------------------------
    # --trace 0
    # ------------------------------------------------------------------

    def measured(self):
        setups, raw_setups = [], []
        for index in range(SETUP_SAMPLES):
            mode = "measure" if index == SETUP_SAMPLES - 1 else "setup"
            setup_s, result = self.spawn(mode)
            raw_setups.append(setup_s)
            setups.append((setup_s - result["setup_sampling_s"])
                          * result["setup_factor"])
        errors = list(result["errors"]) + self.check_digest(result["digest"])
        requests = result["chunk_requests"]
        ref_s = [ns / 1e9 * factor for ns, factor in
                 zip(result["chunk_ns"], result["chunk_ref"])]
        ref_cpu_s = [ns / 1e9 * factor for ns, factor in
                     zip(result["chunk_cpu_ns"], result["chunk_ref"])]
        rates = [n / s for n, s in zip(requests, ref_s)]
        cpu_rates = [n / s for n, s in zip(requests, ref_cpu_s)]
        calls = result["calls"]
        if calls["count"]:
            p50 = calls["p50_ref_ns"] / 1e3
            per_request = None
        else:
            per_request = [s * 1e6 / n for n, s in zip(requests, ref_s)]
            p50 = statistics.median(per_request)
        metrics = {
            "setup_s": (statistics.median(setups), "s", setups),
            "requests_per_s": (statistics.median(rates), "1/s", rates),
            "requests_per_cpu_s": (statistics.median(cpu_rates), "1/s",
                                   cpu_rates),
            "request_us_p50": (p50, "us", per_request),
            "peak_rss_mb": (result["peak_rss_mb"], "MB", None),
        }
        for name, unit in SIM_UNITS.items():
            metrics[name] = (result["sim"][name], unit, None)
        raw_rates = [n / (ns / 1e9) for n, ns in
                     zip(requests, result["chunk_ns"])]
        self.raw = {
            "setup_s": statistics.median(raw_setups),
            "requests_per_s": statistics.median(raw_rates),
            "reference_factor": statistics.median(result["chunk_ref"]),
        }
        if calls["count"]:
            # One timed call per request: the tail is measurable here.
            self.raw["request_us_p50"] = calls["p50_ns"] / 1e3
            self.raw["request_us_p99"] = calls["p99_ns"] / 1e3
            self.raw["request_ref_us_p99"] = calls["p99_ref_ns"] / 1e3
        self.record = {"meta": self.meta, "setups_s": raw_setups,
                       "raw": self.raw, "result": result, "errors": errors}
        return metrics, sum(requests), errors

    # ------------------------------------------------------------------
    # --trace 1
    # ------------------------------------------------------------------

    def traced(self):
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        spans = os.path.join(
            OUT, "spans", f"{self.args.workload}-{self.args.seed}.csv")
        _, plain = self.spawn("prefix")
        _, traced = self.spawn("trace", spans=spans)
        errors = list(plain["errors"]) + list(traced["errors"])
        if traced["digest"] != plain["digest"]:
            errors.append("tracing changed the simulated outcomes: digest "
                          f"{traced['digest'][:12]} != {plain['digest'][:12]}")
        errors += self.check_digest(plain["digest"])
        metrics = layer_metrics(plain, traced)
        self.record = {"meta": self.meta, "plain": plain, "traced": traced,
                       "errors": errors}
        return metrics, traced["trace"]["requests"], errors

    # ------------------------------------------------------------------
    # Checks and output
    # ------------------------------------------------------------------

    def check_digest(self, digest):
        """The simulated outcomes of a seed must repeat on every run."""
        directory = os.path.join(OUT, "digests")
        os.makedirs(directory, exist_ok=True)
        # Keyed by the code that produced it: program and benchmark.
        path = os.path.join(directory, f"{self.args.workload}-"
                            f"{self.args.seed}-{self.meta['code_sha256']}.txt")
        if os.path.exists(path):
            with open(path) as handle:
                known = handle.read().strip()
            if known != digest:
                return [f"simulated outcomes differ from an earlier run of "
                        f"seed {self.args.seed}: {digest[:12]} != "
                        f"{known[:12]}"]
            return []
        with open(path, "w") as handle:
            handle.write(digest + "\n")
        return []

    def report(self, metrics, errors):
        args = self.args
        meta = self.meta
        print(f"e2ebench {args.workload} seed={args.seed} "
              f"trace={args.trace} seconds={args.seconds}")
        print("  " + " ".join(f"{key}={value}" for key, value in meta.items()))
        print(f"  {'metric':40s} {'value':>14s} {'unit':6s} "
              f"{'q1':>12s} {'q3':>12s} samples")
        for name, (value, unit, samples) in metrics.items():
            if samples:
                q1, _, q3 = quartiles(samples)
                spread = f"{q1:12.6g} {q3:12.6g} {len(samples)}"
            else:
                spread = f"{'':12s} {'':12s} 1"
            print(f"  {name:40s} {value:14.6g} {unit:6s} {spread}")
        if self.raw:
            print("  raw wall clock: " + " ".join(
                f"{key}={value:.6g}" for key, value in self.raw.items()))
        for error in errors:
            print(f"  CHECK FAILED: {error}")
        directory = os.path.join(OUT, "results")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{args.workload}-{args.seed}-"
                                       f"trace{args.trace}.json")
        self.record["metrics"] = {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _) in
                                  metrics.items()}
        with open(path, "w") as handle:
            json.dump(self.record, handle, indent=1)


def layer_metrics(plain, traced):
    """Name and normalise the traced run's raw quantities.

    Everything is per attempted request of the prefix unless the name
    says otherwise; see ``e2ebench/README.md`` for the table of which
    end-to-end metric each one should move.
    """
    trace = traced["trace"]
    requests = trace["requests"]
    components = trace["components"]
    counts = trace["counts"]
    ledgers = trace["ledgers"]
    layer = dict(traced["layer"])
    status = traced["status"]

    def calls(*names):
        return sum(components.get(n, (0, 0, 0))[0] for n in names)

    def self_ns(*names):
        return sum(components.get(n, (0, 0, 0))[1] for n in names)

    def top_ns(*names):
        return sum(components.get(n, (0, 0, 0))[2] for n in names)

    def per_req(value):
        return value / requests

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    env_components = [n for n in components if n.startswith("env.")]
    hits = ledgers.get("costcache_hits", 0)
    misses = ledgers.get("costcache_misses", 0)
    attempts = ledgers.get("fault_attempts", 0)
    failures = ledgers.get("fault_failures", 0)
    selects = calls("core.select")
    values = {
        "hardware.layer_latency_calls_per_req":
            (per_req(counts.get("hardware.layer_latency", 0)), "calls/req"),
        "models.layer_scans_per_req":
            (per_req(counts.get("models.layer_scan", 0)), "calls/req"),
        "env.execute_calls_per_req":
            (per_req(calls("env.execute")), "calls/req"),
        "env.execute_cached_calls_per_req":
            (per_req(calls("env.execute_cached")), "calls/req"),
        "env.execute_batch_rows_per_req":
            (per_req(trace["batch_rows"]), "rows/req"),
        "env.estimate_all_calls_per_req":
            (per_req(calls("env.estimate_all")), "calls/req"),
        "env.observe_calls_per_req":
            (per_req(counts.get("env.observe", 0)), "calls/req"),
        "env.self_us_per_req":
            (per_req(self_ns(*env_components)) / 1e3, "us/req"),
        "env.costcache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "env.costcache_misses": (misses, "count"),
        "core.state_encode_calls_per_req":
            (per_req(calls("core.encode")), "calls/req"),
        "core.state_encode_us_per_req":
            (per_req(top_ns("core.encode")) / 1e3, "us/req"),
        "core.select_us_per_req":
            (per_req(top_ns("core.select")) / 1e3, "us/req"),
        "core.select_batch_size_mean":
            (ratio(trace["selected"], selects), "states"),
        "core.qupdate_calls_per_req":
            (per_req(calls("core.qupdate")), "calls/req"),
        "core.qupdate_us_per_req":
            (per_req(top_ns("core.qupdate")) / 1e3, "us/req"),
        "core.step_self_us_per_req":
            (per_req(self_ns("core.step")) / 1e3, "us/req"),
        "core.service_self_us_per_req":
            (per_req(self_ns("core.service")) / 1e3, "us/req"),
        "core.trace_record_us_per_req":
            (per_req(top_ns("core.trace_record")) / 1e3, "us/req"),
        "core.batchtrain_self_s": (self_ns("core.batchtrain") / 1e9, "s"),
        "serving.self_us_per_req":
            (per_req(self_ns("serving.serve")) / 1e3, "us/req"),
        "serving.decisions_per_select":
            (ratio(calls("core.step"), trace["selected"])
             if calls("serving.serve") else 0.0, "ratio"),
        "serving.queue_wait_ms_p50":
            (layer.get("serving.queue_wait_ms_p50", 0.0), "ms"),
        "serving.queue_wait_ms_p99":
            (layer.get("serving.queue_wait_ms_p99", 0.0), "ms"),
        "serving.shed_pct": (layer.get("serving.shed_pct", 0.0), "%"),
    }
    for name in ("serving.queue_peak_depth", "serving.queue_rejected",
                 "serving.shed_expired", "serving.shed_infeasible",
                 "serving.brownout_escalations"):
        values[name] = (status.get(name, 0), "count")
    values.update({
        "sim.events_scheduled_per_req":
            (per_req(ledgers.get("events_scheduled", 0)), "events/req"),
        "sim.events_fired_per_req":
            (per_req(ledgers.get("events_fired", 0)), "events/req"),
        "sim.self_us_per_req":
            (per_req(self_ns("sim.advance", "sim.fire")) / 1e3, "us/req"),
        "guard.note_calls_per_req":
            (per_req(calls("guard.note")), "calls/req"),
        "guard.evaluate_calls": (calls("guard.evaluate"), "count"),
        "guard.self_us_per_req":
            (per_req(self_ns("guard.note", "guard.evaluate")) / 1e3,
             "us/req"),
        "guard.escalations": (status.get("guard.escalations", 0), "count"),
        "faults.attempts_per_req": (per_req(attempts), "calls/req"),
        "faults.failures_per_req": (per_req(failures), "calls/req"),
        "faults.retries_per_req":
            (layer.get("faults.retries_per_req", 0.0), "calls/req"),
        "faults.useful_attempt_ratio":
            (ratio(attempts - failures, attempts), "ratio"),
        "faults.failed_pct": (layer.get("faults.failed_pct", 0.0), "%"),
        "baselines.train_s": (top_ns("baselines.train") / 1e9, "s"),
        "baselines.select_us_per_req":
            (per_req(top_ns("baselines.select")) / 1e3, "us/req"),
        "evalharness.self_s":
            (self_ns("evalharness.driver", "evalharness.runner") / 1e9, "s"),
        "evalharness.autoscale_ppw_norm":
            (layer.get("evalharness.autoscale_ppw_norm", 0.0), "ratio"),
        "evalharness.autoscale_qos_violation_pct":
            (layer.get("evalharness.autoscale_qos_violation_pct", 0.0), "%"),
        "analysis.contracts_checks_per_req":
            (per_req(counts.get("analysis.contracts_enabled", 0)),
             "calls/req"),
        "setup.import_s": (plain["import_s"], "s"),
        "setup.warmup_s": (plain["warmup_s"], "s"),
        "bench.trace_overhead_pct":
            ((traced["prefix_ns"] - plain["prefix_ns"])
             / plain["prefix_ns"] * 100.0, "%"),
    })
    return {name: (value, unit, None) for name, (value, unit) in
            values.items()}


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def child_env():
    """The production configuration: no contract switch, no pytest
    marker, one thread per numeric library, fixed hash seed."""
    env = dict(os.environ)
    for name in ("REPRO_CONTRACTS", "PYTEST_CURRENT_TEST", "PYTHONPATH"):
        env.pop(name, None)
    env.update({"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
                "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    return env


def metadata(seed):
    """What every result records about the code and the host."""
    import numpy
    source = tree_sha256(os.path.join(ROOT, "src"))
    code = hashlib.sha256((source + tree_sha256(HERE)).encode()).hexdigest()
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": source[:16],
        "code_sha256": code[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def tree_sha256(top):
    """Digest of every ``.py`` file under ``top`` (paths and bytes)."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(top):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


if __name__ == "__main__":
    sys.exit(main())
