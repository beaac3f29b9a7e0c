"""One benchmark process: set a workload up, then (optionally) time it.

Run by ``run.py`` in a fresh interpreter per measurement, so every
measured run starts from the same process state.  Modes:

- ``setup``   — import and set up, print ``READY``, exit (times set-up);
- ``measure`` — set up, then run chunks until the prefix is done *and*
  ``--seconds`` of timed work have passed;
- ``prefix``  — set up, then run exactly the prefix, untraced;
- ``trace``   — as ``prefix``, with the layer tracer installed before
  any workload object is built; writes the spans next to the result.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Modules each workload imports before set-up (``setup.import_s``).
IMPORTS = {
    "closed_loop_learn": ("repro",),
    "open_loop_surge": ("repro",),
    "drift_chaos_guarded": ("repro",),
    "paper_protocol": ("repro", "repro.evalharness.evaluation"),
}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "prefix", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    speed = None
    if args.mode in ("setup", "measure"):
        speed = HostSpeed(workloads.WORKLOADS[args.workload].REFERENCE)
        speed.start()
    import importlib
    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    imported = time.perf_counter()

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    ready = time.perf_counter()
    setup = {"setup_factor": 1.0, "setup_sampling_s": 0.0}
    if speed is not None:
        setup = {"setup_factor": speed.chunk_factor(),
                 "setup_sampling_s": speed.spent_ns / 1e9}
    print("READY", flush=True)
    if args.mode == "setup":
        speed.stop()
        print(json.dumps(setup))
        return 0

    gc.collect()
    if tracer is not None:
        tracer.start()
    clock = speed.now_ns if speed is not None else time.perf_counter_ns
    timing = {"chunk_ns": [], "chunk_cpu_ns": [], "chunk_ref": [],
              "chunk_requests": []}
    call_ns, call_ref_ns = [], []
    timed_ns = 0
    peak_rss_mb = 0.0
    k = 0
    budget_ns = int(args.seconds * 1e9)
    while k < workload.prefix or (args.mode == "measure"
                                  and timed_ns < budget_ns):
        spent0 = speed.spent_ns if speed is not None else 0
        cpu0 = time.process_time_ns()
        wall0 = clock()
        requests, durations = workload.run_chunk(k, clock)
        wall1 = clock()
        cpu1 = time.process_time_ns()
        sampling_ns = (speed.spent_ns - spent0) if speed is not None else 0
        to_reference = speed.chunk_factor() if speed is not None else 1.0
        timing["chunk_ns"].append(wall1 - wall0)
        timing["chunk_cpu_ns"].append(cpu1 - cpu0 - sampling_ns)
        timing["chunk_ref"].append(to_reference)
        timing["chunk_requests"].append(requests)
        if durations is not None:
            call_ns.extend(durations)
            call_ref_ns.extend(ns * to_reference for ns in durations)
        timed_ns += wall1 - wall0
        workload.collect(k)
        k += 1
        if k == workload.prefix:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if speed is not None:
        speed.stop()
    if tracer is not None:
        tracer.stop()
    workload.close()
    if tracer is not None:
        tracer.uninstall()

    result = workload.result()
    result.update(timing)
    result.update({
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "errors": workload.errors,
        "chunks": k,
        "prefix_ns": sum(timing["chunk_ns"][:workload.prefix]),
        "calls": {
            "count": len(call_ns),
            "p50_ns": _percentile(call_ns, 50),
            "p99_ns": _percentile(call_ns, 99),
            "p50_ref_ns": _percentile(call_ref_ns, 50),
            "p99_ref_ns": _percentile(call_ref_ns, 99),
        },
        **setup,
        "import_s": imported - STARTED,
        "warmup_s": ready - imported,
        "peak_rss_mb": peak_rss_mb,
        "status": workload.layer_status(),
    })
    if tracer is not None:
        result["trace"] = _trace_summary(tracer,
                                          sum(timing["chunk_requests"]))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


class HostSpeed:
    """Samples the host's speed during the timed phase.

    Every ``INTERVAL_S`` a timer signal runs one fixed reference unit
    (``REFERENCE_UNITS``) between two bytecodes of the workload; the
    unit's duration is the host's speed at that moment.  A chunk's
    host-time is scaled by ``reference_s / median(samples in chunk)``,
    which reports it in reference-host time: on a shared two-core
    Xeon VM (2.1 GHz) the same code ran up to ~1.7x slower for tens of
    seconds at a time, and raw wall-clock figures moved with it.
    The time spent sampling is excluded from :meth:`now_ns`.
    """

    INTERVAL_S = 0.05
    MIN_SAMPLES = 5

    def __init__(self, unit):
        self.unit, self.reference_s = REFERENCE_UNITS[unit]
        self.samples = []
        self.spent_ns = 0
        self._chunk_start = 0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        started = time.perf_counter_ns()
        self.samples.append(self.unit())
        self.spent_ns += time.perf_counter_ns() - started

    def now_ns(self):
        """Wall-clock nanoseconds, less the time spent sampling."""
        return time.perf_counter_ns() - self.spent_ns

    def chunk_factor(self):
        """Reference-time factor for the chunk that just ended: the
        median of the samples taken during it, or of the latest
        ``MIN_SAMPLES`` when the chunk was shorter than that."""
        samples = self.samples[self._chunk_start:]
        if len(samples) < self.MIN_SAMPLES:
            while len(self.samples) < self.MIN_SAMPLES:
                self._sample(None, None)
            samples = self.samples[-self.MIN_SAMPLES:]
        self._chunk_start = len(self.samples)
        samples = sorted(samples)
        return self.reference_s / samples[len(samples) // 2]


_UNIT_RNG = np.random.default_rng(0)
_UNIT_ROWS = _UNIT_RNG.random((64, 60))
_UNIT_VECTOR = _UNIT_RNG.random(4096)


def interpreter_unit():
    """Dict, string and scalar NumPy work: the serving hot paths' mix."""
    started = time.perf_counter()
    counts = {}
    total = 0.0
    for i in range(400):
        key = i & 63
        counts[key] = counts.get(key, 0) + 1
        total += int(_UNIT_ROWS[key].argmax()) * 0.5
        total += float(_UNIT_RNG.standard_normal()) + len(str(i))
    return time.perf_counter() - started


def vector_unit():
    """Whole-array NumPy work: the training and sweep hot paths' mix."""
    started = time.perf_counter()
    total = 0.0
    for _ in range(40):
        values = np.exp(_UNIT_VECTOR * 0.5) + _UNIT_VECTOR
        total += float(values.sum()) + float(np.sort(values[:512])[3])
    return time.perf_counter() - started


def mixed_unit():
    """Both units back to back: work split between the two mixes."""
    return interpreter_unit() + vector_unit()


#: unit name -> (unit, its duration on a quiet reference host in s).
REFERENCE_UNITS = {
    "interpreter": (interpreter_unit, 0.0005),
    "vector": (vector_unit, 0.0007),
    "mixed": (mixed_unit, 0.0012),
}


def _percentile(values, q):
    if not values:
        return None
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _trace_summary(tracer, requests):
    """Raw traced quantities; ``run.py`` names and normalises them."""
    return {
        "requests": requests,
        "components": {name: list(value)
                       for name, value in tracer.components().items()},
        "counts": dict(tracer.counts),
        "batch_rows": tracer.batch_rows,
        "selected": tracer.selected,
        "ledgers": tracer.ledgers,
        "spans": len(tracer.spans),
    }


if __name__ == "__main__":
    sys.exit(main())
