"""The benchmark's four workloads, driven through the public APIs only.

Each workload is built from one ``--seed``: every input (request mix,
arrival stream, environment and engine seeds) derives from it, so the
same seed gives the same inputs and the same simulated outcomes.

A workload runs as a sequence of *chunks*.  The first ``prefix`` chunks
are a fixed amount of simulated work whose outcomes are checked and
digested; a measuring run keeps going with further chunks (of the same
seeded stream) until its time is up, so host-time metrics cover a fixed
wall-clock budget while every ``sim_*`` metric and the digest cover the
same prefix on every host.

The chunk contract:

- :meth:`Workload.setup` builds the objects and pays the warm-up;
- :meth:`Workload.run_chunk` is the timed call; it returns the number
  of simulated requests attempted and, where one ``handle`` is one
  request, the host nanoseconds of each call;
- :meth:`Workload.collect` (untimed) folds the chunk's outcomes into the
  prefix accumulators and checks the chunk's accounting.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

def _rng(seed, *stream):
    """A generator for one named sub-stream of the workload seed."""
    return np.random.default_rng([seed, *stream])


class Outcomes:
    """Prefix accumulators over trace rows: accounting, energy, QoS,
    end-to-end latency, and the digest of every row."""

    def __init__(self):
        self.offered = 0
        self.delivered = 0
        self.shed = 0
        self.failed = 0
        self.retries = 0
        self.violations = 0
        self.energy_mj = 0.0
        self.failed_energy_mj = 0.0
        self.latencies_ms = []
        self.queue_waits_ms = []
        self._digest = hashlib.sha256()

    def fold_records(self, records):
        update = self._digest.update
        for r in records:
            self.offered += 1
            status = r.status
            if status == "shed":
                self.shed += 1
            elif status == "failed":
                self.failed += 1
                self.failed_energy_mj += r.energy_mj
            else:
                self.delivered += 1
                self.latencies_ms.append(r.queue_delay_ms + r.latency_ms)
            self.violations += not r.meets_qos
            self.retries += r.retries
            self.energy_mj += r.energy_mj + r.failed_energy_mj
            self.failed_energy_mj += r.failed_energy_mj
            self.queue_waits_ms.append(r.queue_delay_ms)
            update((
                f"{r.at_ms!r}|{r.use_case}|{r.target_key}|{r.latency_ms!r}|"
                f"{r.energy_mj!r}|{r.estimated_energy_mj!r}|"
                f"{r.accuracy_pct!r}|{r.reward!r}|{r.explored}|{status}|"
                f"{r.retries}|{r.failed_energy_mj!r}|{r.queue_delay_ms!r}|"
                f"{r.tier}|{r.reason}\n"
            ).encode())

    def digest(self):
        return self._digest.hexdigest()

    def sim_metrics(self):
        latencies = np.asarray(self.latencies_ms)
        return {
            "sim_energy_per_delivered_mj": self.energy_mj / self.delivered,
            "sim_qos_violation_pct": self.violations / self.offered * 100.0,
            "sim_latency_ms_p50": float(np.percentile(latencies, 50)),
            "sim_latency_ms_p99": float(np.percentile(latencies, 99)),
        }

    def layer_outcomes(self):
        waits = np.asarray(self.queue_waits_ms)
        return {
            "serving.queue_wait_ms_p50": float(np.percentile(waits, 50)),
            "serving.queue_wait_ms_p99": float(np.percentile(waits, 99)),
            "serving.shed_pct": self.shed / self.offered * 100.0,
            "faults.failed_pct": self.failed / self.offered * 100.0,
            "faults.retries_per_req": self.retries / self.offered,
        }


class Workload:
    """Base class: the chunk loop's bookkeeping shared by all four."""

    name = ""
    #: Chunks of fixed simulated work that outcomes, checks and the
    #: digest cover.
    PREFIX = 1
    #: The host-speed reference unit matching this workload's work mix
    #: (see ``worker.HostSpeed``).
    REFERENCE = "interpreter"

    def __init__(self, seed):
        self.seed = seed
        self.prefix = self.PREFIX
        self.outcomes = Outcomes()
        self.errors = []

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)

    def layer_status(self):
        """Per-layer readings the public status APIs expose."""
        return {}

    def close(self):
        """Undo what set-up installed outside the workload's objects."""

    def result(self):
        """Simulated outcomes of the prefix, its digest, and checks."""
        return {
            "sim": self.outcomes.sim_metrics(),
            "layer": self.outcomes.layer_outcomes(),
            "digest": self.outcomes.digest(),
        }


# ----------------------------------------------------------------------
# closed_loop_learn
# ----------------------------------------------------------------------


class ClosedLoopLearn(Workload):
    """Algorithm 1 online: ``AutoScaleService.handle`` with learning on.

    Three zoo networks (a light CONV net, a heavy CONV net and the RC
    translation net) are interleaved at random; the device moves through
    the dynamic Table-IV scenarios D1-D4, one per chunk.
    """

    name = "closed_loop_learn"
    PREFIX = 16
    NETWORKS = ("mobilenet_v3", "resnet_50", "mobilebert")
    SCENARIOS = ("D1", "D2", "D3", "D4")
    CHUNK = 1000
    WARMUP = 400

    def setup(self):
        from repro.core.service import AutoScaleService
        from repro.env.environment import EdgeCloudEnvironment
        from repro.env.qos import use_case_for
        from repro.hardware.devices import mi8pro
        from repro.models.zoo import build_network

        self.env = EdgeCloudEnvironment(mi8pro(), scenario=self.SCENARIOS[0],
                                        seed=self.seed)
        self.service = AutoScaleService(self.env, seed=self.seed)
        self.names = [self.service.register(use_case_for(build_network(n)))
                      for n in self.NETWORKS]
        self.chunks = [self._requests(k) for k in range(self.prefix)]
        for name in self._requests(-1)[:self.WARMUP]:
            self.service.handle(name)
        self._fresh_trace()

    def _requests(self, k):
        picks = _rng(self.seed, 1, k + 1).integers(len(self.names),
                                                   size=self.CHUNK)
        return [self.names[i] for i in picks]

    def _fresh_trace(self):
        from repro.core.tracing import TraceRecorder
        self.service.trace = TraceRecorder(
            max_records=self.service.trace_limit)

    def run_chunk(self, k, clock):
        names = self.chunks[k] if k < self.prefix else self._requests(k)
        self.env.scenario = self.SCENARIOS[k % len(self.SCENARIOS)]
        handle = self.service.handle
        durations = []
        for name in names:
            started = clock()
            handle(name)
            durations.append(clock() - started)
        return len(names), durations

    def collect(self, k):
        records = self.service.trace.records
        self.check(len(records) == self.CHUNK,
                   f"chunk {k}: {len(records)} trace rows for "
                   f"{self.CHUNK} requests")
        if k < self.prefix:
            self.outcomes.fold_records(records)
        self._fresh_trace()

    def result(self):
        out = super().result()
        o = self.outcomes
        self.check(o.offered == o.delivered + o.shed + o.failed,
                   "offered != delivered + shed + failed")
        self.check(o.shed == 0 and o.failed == 0,
                   "closed loop without faults shed or failed a request")
        return out


# ----------------------------------------------------------------------
# Serving-pipeline workloads (open_loop_surge, drift_chaos_guarded)
# ----------------------------------------------------------------------


class _ServedWindows(Workload):
    """An open-loop arrival stream served window by window.

    One chunk is one window of ``WINDOW_MS`` virtual milliseconds of
    arrivals, replayed through one long-lived :class:`ServingPipeline`
    (its queue, shed and brownout counters accumulate across windows).
    """

    def _window(self, k):
        """The seeded arrivals of window ``k``, on the absolute clock."""
        raise NotImplementedError

    def _windows_for_prefix(self):
        self.windows = [self._window(k) for k in range(self.prefix)]

    def run_chunk(self, k, clock):
        arrivals = self.windows[k] if k < self.prefix else self._window(k)
        self._served = self.pipeline.serve(arrivals)
        self._offered = len(arrivals)
        return len(arrivals), None

    def collect(self, k):
        records = self.service.trace.records
        served = self._served
        self.check(len(served) == self._offered == len(records),
                   f"window {k}: {self._offered} arrivals, {len(served)} "
                   f"outcomes, {len(records)} trace rows")
        delivered = sum(1 for s in served if s.delivered)
        shed = sum(1 for s in served if s.shed)
        failed = sum(1 for s in served if s.failed)
        self.check(delivered + shed + failed == self._offered,
                   f"window {k}: offered != delivered + shed + failed")
        if k < self.prefix:
            self.outcomes.fold_records(records)
            if k == self.prefix - 1:
                self._prefix_status = self.pipeline.status()
        self._fresh_trace()

    def _fresh_trace(self):
        from repro.core.tracing import TraceRecorder
        self.service.trace = TraceRecorder(
            max_records=self.service.trace_limit)

    def result(self):
        out = super().result()
        o = self.outcomes
        status = self._prefix_status
        sheds = status["sheds"]
        self.check(o.offered == o.delivered + o.shed + o.failed,
                   "offered != delivered + shed + failed")
        self.check(sheds["offered"] == o.offered
                   and sheds["offered"] - sheds["served"]
                   == sum(sheds["sheds"].values()) == o.shed,
                   f"shed ledger {sheds} disagrees with the trace")
        billed = status.get("faults", {}).get("billed_energy_mj", 0.0)
        self.check(math.isclose(billed, o.failed_energy_mj,
                                rel_tol=1e-9, abs_tol=1e-9),
                   f"failed-attempt energy: fault ledger {billed!r} mJ, "
                   f"trace {o.failed_energy_mj!r} mJ")
        return out

    def layer_status(self):
        status = self._prefix_status
        sheds = status["sheds"]["sheds"]
        return {
            "serving.queue_peak_depth": status["queue_peak_depth"],
            "serving.queue_rejected": status["queue_rejected"],
            "serving.shed_expired": sheds.get("expired", 0),
            "serving.shed_infeasible": sheds.get("infeasible", 0),
            "serving.brownout_escalations": status["brownout_escalations"],
            "guard.escalations": status["guard"]["escalations"],
        }


class OpenLoopSurge(_ServedWindows):
    """A frozen, pre-trained engine under bursty overload.

    Two use cases share the admission queue; each sends a
    Markov-modulated (calm/burst) Poisson stream whose bursts run well
    above the service rate, so the bounded queue, the deadline-aware
    shedder and brownout all act.  The scenario is static and
    resilience is off, so every drain takes the vectorized path.
    """

    name = "open_loop_surge"
    PREFIX = 30
    REFERENCE = "mixed"
    WINDOW_MS = 60_000.0
    PRETRAIN = 300
    STREAMS = (
        # (network, qos_ms, accuracy_target, calm_per_s, burst_per_s)
        ("inception_v1", 200.0, 65.0, 8.0, 50.0),
        ("mobilenet_v3", 50.0, None, 8.0, 50.0),
    )

    def setup(self):
        from repro.core.service import AutoScaleService
        from repro.env.environment import EdgeCloudEnvironment
        from repro.env.qos import UseCase
        from repro.hardware.devices import mi8pro
        from repro.models.zoo import build_network
        from repro.serving.pipeline import ServingConfig, ServingPipeline

        self.env = EdgeCloudEnvironment(mi8pro(), scenario="S1",
                                        seed=self.seed, think_time_ms=0.0)
        self.service = AutoScaleService(self.env, seed=self.seed)
        self.use_cases = []
        for network, qos_ms, accuracy, _, _ in self.STREAMS:
            use_case = UseCase(name=f"surge-{network}",
                               network=build_network(network),
                               qos_ms=qos_ms, accuracy_target=accuracy)
            self.service.register(use_case)
            self.use_cases.append(use_case)
        for _ in range(self.PRETRAIN):
            for use_case in self.use_cases:
                self.service.handle(use_case.name)
        self.service.set_learning(False)
        self.env.rewind_clock()
        self._fresh_trace()
        self.pipeline = ServingPipeline(self.service, ServingConfig())
        self._windows_for_prefix()

    def _window(self, k):
        from repro.serving.arrivals import (
            Arrival,
            MarkovModulatedArrivals,
            merge_arrivals,
        )
        offset_ms = k * self.WINDOW_MS
        streams = []
        for i, (_, _, _, calm, burst) in enumerate(self.STREAMS):
            process = MarkovModulatedArrivals(
                self.use_cases[i].name, calm_per_s=calm, burst_per_s=burst,
                calm_dwell_ms=4_000.0, burst_dwell_ms=1_000.0,
            )
            arrivals = process.generate(self.WINDOW_MS,
                                        _rng(self.seed, 2, k, i))
            streams.append([Arrival(a.at_ms + offset_ms, a.name)
                            for a in arrivals])
        return merge_arrivals(*streams)


class DriftChaosGuarded(_ServedWindows):
    """Learning on, the policy guard armed, resilience on, under chaos.

    A heavy CONV net whose nominally best target is the cloud keeps much
    of the traffic remote, where a mild chaos fault plan drops packets,
    aborts and slows attempts and takes the cloud out periodically
    (heavier faults teach the engine to stay local and leave the fault
    layer idle).  Halfway through the prefix a CPU co-runner appears
    (S1 -> S2, delivered as a kernel ``TIMER`` event), which makes local
    execution slower still.
    """

    name = "drift_chaos_guarded"
    PREFIX = 16
    WINDOW_MS = 400_000.0
    WARMUP = 2000
    ARRIVALS_PER_S = 3.0
    NETWORK = "resnet_50"
    QOS_MS = 200.0
    ACCURACY = 70.0

    def setup(self):
        from repro.core.service import AutoScaleService
        from repro.env.environment import EdgeCloudEnvironment
        from repro.env.qos import UseCase
        from repro.faults import (
            FaultPlan,
            OutageWindow,
            ResiliencePolicy,
        )
        from repro.guard import GuardConfig, PolicyGuard
        from repro.hardware.devices import mi8pro
        from repro.models.zoo import build_network
        from repro.serving.pipeline import ServingConfig, ServingPipeline
        from repro.sim.events import EventKind

        self.env = EdgeCloudEnvironment(mi8pro(), scenario="S1",
                                        seed=self.seed, think_time_ms=0.0)
        self.use_case = UseCase(name=f"drift-{self.NETWORK}",
                                network=build_network(self.NETWORK),
                                qos_ms=self.QOS_MS,
                                accuracy_target=self.ACCURACY)
        self.service = AutoScaleService(
            self.env, seed=self.seed, resilience=ResiliencePolicy(),
            guard=PolicyGuard(GuardConfig()),
        )
        self.service.register(self.use_case)
        for _ in range(self.WARMUP):
            self.service.handle(self.use_case.name)
        self.env.rewind_clock()
        self._fresh_trace()
        self.env.faults = FaultPlan(
            loss_scale=1.0, abort_prob=0.01, straggler_prob=0.01,
            outages=(OutageWindow("cloud", start_ms=15_000.0,
                                  duration_ms=2_000.0,
                                  period_ms=100_000.0),),
        )
        env = self.env

        def drift(event):
            env.scenario = "S2"

        self.env.kernel.schedule(self.prefix // 2 * self.WINDOW_MS,
                                 EventKind.TIMER, payload="drift:S2",
                                 callback=drift)
        self.pipeline = ServingPipeline(self.service, ServingConfig())
        self._windows_for_prefix()

    def _window(self, k):
        from repro.serving.arrivals import Arrival, PoissonArrivals
        arrivals = PoissonArrivals(
            self.use_case.name, arrivals_per_s=self.ARRIVALS_PER_S,
        ).generate(self.WINDOW_MS, _rng(self.seed, 3, k))
        offset_ms = k * self.WINDOW_MS
        return [Arrival(a.at_ms + offset_ms, a.name) for a in arrivals]


# ----------------------------------------------------------------------
# paper_protocol
# ----------------------------------------------------------------------


class PaperProtocol(Workload):
    """Section V-C: leave-one-out AutoScale against every baseline.

    One chunk runs ``fig9_main_results`` over S1-S5 and ``fig11_dynamic``
    over D1-D4 at paper scale (train 100 / adapt 150 / eval 40).  Every
    chunk repeats the same seeded protocol, so every chunk must
    reproduce the first chunk's figure tables exactly.

    The drivers build their own environments, so the inferences they
    execute are counted by a thin wrapper around the environment's
    execute entry points (installed in every run, traced or not).
    """

    name = "paper_protocol"
    REFERENCE = "vector"
    STATIC = ("S1", "S2", "S3", "S4", "S5")
    DYNAMIC = ("D1", "D2", "D3", "D4")

    def setup(self):
        from repro.evalharness import evaluation
        from repro.evalharness.runner import RunConfig

        self.evaluation = evaluation
        self.config = RunConfig(train_runs=100, adapt_runs=150, eval_runs=40)
        self.counter = InferenceCounter()
        self.tables = None

    def close(self):
        self.counter.close()

    def run_chunk(self, k, clock):
        counter = self.counter
        counter.reset()
        fig9 = self.evaluation.fig9_main_results(
            scenarios=self.STATIC, config=self.config, seed=self.seed)
        fig11 = self.evaluation.fig11_dynamic(
            scenarios=self.DYNAMIC, config=self.config, seed=self.seed)
        self._last = (fig9, fig11)
        return counter.count, None

    def collect(self, k):
        fig9, fig11 = self._last
        tables = fig9["table"] + "\n" + fig11["table"]
        if k == 0:
            self.tables = tables
            self.ppw, self.violation_pct = self._autoscale_rows(fig9, fig11)
            self.inferences = self.counter.outcomes
            self._digest = hashlib.sha256(tables.encode()).hexdigest()
        else:
            self.check(tables == self.tables,
                       f"protocol repeat {k} changed the figure tables")
        schedulers = {row["scheduler"] for row in fig11["overall"]}
        self.check(len(schedulers) >= 6 and "autoscale" in schedulers,
                   f"fig11 rows cover only {sorted(schedulers)}")
        self.check(set(fig11["per_scenario"]) == set(self.DYNAMIC),
                   "fig11 is missing a dynamic scenario")

    @staticmethod
    def _autoscale_rows(fig9, fig11):
        rows = [row for summary in fig9["per_device"].values()
                for row in summary] + list(fig11["overall"])
        autoscale = [row for row in rows if row["scheduler"] == "autoscale"]
        ppw = float(np.mean([row["ppw_norm"] for row in autoscale]))
        violation = float(np.mean([row["qos_violation_pct"]
                                   for row in autoscale]))
        return ppw, violation

    def result(self):
        outcomes = self.inferences
        self.check(outcomes.offered == outcomes.delivered + outcomes.failed,
                   "offered != delivered + failed")
        return {
            "sim": outcomes.sim_metrics(),
            "layer": {
                "serving.queue_wait_ms_p50": 0.0,
                "serving.queue_wait_ms_p99": 0.0,
                "serving.shed_pct": 0.0,
                "faults.failed_pct":
                    outcomes.failed / outcomes.offered * 100.0,
                "faults.retries_per_req": 0.0,
                "evalharness.autoscale_ppw_norm": self.ppw,
                "evalharness.autoscale_qos_violation_pct":
                    self.violation_pct,
            },
            "digest": self._digest,
        }


class InferenceOutcomes:
    """Every inference one protocol pass executed, judged against the
    QoS target the protocol assigns its network (``use_case_for``)."""

    def __init__(self):
        self.offered = 0
        self.delivered = 0
        self.failed = 0
        self.violations = 0
        self.energy_mj = 0.0
        self.latencies_ms = []

    def note(self, result, qos_ms):
        self.offered += 1
        self.energy_mj += result.energy_mj
        if result.failed:
            self.failed += 1
            self.violations += 1
            return
        self.delivered += 1
        self.latencies_ms.append(result.latency_ms)
        self.violations += result.latency_ms > qos_ms

    def sim_metrics(self):
        latencies = np.asarray(self.latencies_ms)
        return {
            "sim_energy_per_delivered_mj": self.energy_mj / self.delivered,
            "sim_qos_violation_pct": self.violations / self.offered * 100.0,
            "sim_latency_ms_p50": float(np.percentile(latencies, 50)),
            "sim_latency_ms_p99": float(np.percentile(latencies, 99)),
        }


class InferenceCounter:
    """Counts the inferences the figure drivers execute.

    Wraps the public execution entry points at the class attribute every
    figure driver resolves: the environment's execute family (whose first
    argument is the network) and the batched trainer's campaigns (whose
    first argument is the use case, and whose engine's step history
    holds the results).  Only the outermost call counts, so an entry
    point that delegates to another is not counted twice.
    """

    ENTRY_POINTS = (
        ("repro.env.environment", "EdgeCloudEnvironment",
         ("execute", "execute_cached", "execute_batch", "execute_split",
          "execute_pipelined")),
        ("repro.core.batchtrain", "BatchTrainer", ("run", "adapt")),
    )

    def __init__(self):
        import importlib

        from repro.env.qos import use_case_for
        self._use_case_for = use_case_for
        self._qos_ms = {}
        self._originals = []
        self._depth = 0
        self.reset()
        for module, owner_name, methods in self.ENTRY_POINTS:
            owner = getattr(importlib.import_module(module), owner_name)
            for name in methods:
                original = vars(owner)[name]
                self._originals.append((owner, name, original))
                setattr(owner, name, self._wrap(original))

    def reset(self):
        self.outcomes = InferenceOutcomes()

    @property
    def count(self):
        return self.outcomes.offered

    def _qos_for(self, subject):
        qos_ms = getattr(subject, "qos_ms", None)
        if qos_ms is not None:
            return qos_ms
        if subject.name not in self._qos_ms:
            self._qos_ms[subject.name] = self._use_case_for(subject).qos_ms
        return self._qos_ms[subject.name]

    def _wrap(self, original):
        counter = self

        def counted(owner, subject, *args, **kwargs):
            engine = getattr(owner, "engine", None)
            before = engine.total_steps if engine is not None else 0
            counter._depth += 1
            try:
                out = original(owner, subject, *args, **kwargs)
            finally:
                counter._depth -= 1
            if counter._depth == 0:
                if engine is not None:
                    # run() returns the steps, adapt() a convergence
                    # index; the engine's history holds both.
                    taken = engine.total_steps - before
                    history = engine.history
                    results = [step.result for step in
                               history[max(0, len(history) - taken):]]
                else:
                    results = out if isinstance(out, list) else [out]
                qos_ms = counter._qos_for(subject)
                for result in results:
                    counter.outcomes.note(result, qos_ms)
            return out

        counted.__wrapped__ = original
        return counted

    def close(self):
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)


WORKLOADS = {
    cls.name: cls
    for cls in (ClosedLoopLearn, OpenLoopSurge, DriftChaosGuarded,
                PaperProtocol)
}
