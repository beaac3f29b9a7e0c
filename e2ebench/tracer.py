"""Layer-attributed tracing installed from outside the program.

:class:`Tracer` wraps public functions of each package layer at the
attribute their callers resolve (the class attribute for methods; the
defining module *and* every module that imported the function by name),
records spans in memory, and restores every original on
:meth:`Tracer.uninstall`.

- A **span** is ``(name, start_ns, end_ns, parent, request_id)``; the
  parent is the innermost span open when it started.  A layer's self
  time is its spans' durations minus the time their direct children
  cover.
- Hot leaves (a per-layer latency walk, a layer-list scan, an
  environment-variable read) get **counters** only: a span there would
  cost more than the leaf itself.
- A request id is minted when a request-level span (one served request:
  ``handle``, a resilient attempt loop, one Algorithm-1 step) opens
  outside any other request; spans outside every request carry ``-1``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: (module, owner or None, attribute, component, request-level) for every
#: span.  ``component`` is ``<layer>.<role>``; layer self time sums its
#: components.
SPANS = (
    ("repro.core.service", "AutoScaleService", "handle", "core.service", True),
    ("repro.core.service", "AutoScaleService", "_handle_resilient",
     "core.service", True),
    ("repro.core.engine", "AutoScale", "step", "core.step", True),
    ("repro.core.engine", "AutoScale", "step_with_action", "core.step", True),
    ("repro.core.engine", "AutoScale", "select_action", "core.select", False),
    ("repro.core.engine", "AutoScale", "select_action_batch", "core.select",
     False),
    ("repro.core.qlearning", "QTable", "update", "core.qupdate", False),
    ("repro.core.state", "StateSpace", "encode", "core.encode", False),
    ("repro.core.tracing", "TraceRecorder", "record_step",
     "core.trace_record", False),
    ("repro.core.tracing", "TraceRecorder", "record_result",
     "core.trace_record", False),
    ("repro.core.tracing", "TraceRecorder", "record_shed",
     "core.trace_record", False),
    ("repro.core.batchtrain", "BatchTrainer", "run", "core.batchtrain", False),
    ("repro.core.batchtrain", "BatchTrainer", "adapt", "core.batchtrain",
     False),
    ("repro.env.environment", "EdgeCloudEnvironment", "execute",
     "env.execute", False),
    ("repro.env.environment", "EdgeCloudEnvironment", "execute_cached",
     "env.execute_cached", False),
    ("repro.env.environment", "EdgeCloudEnvironment", "execute_batch",
     "env.execute_batch", False),
    ("repro.env.environment", "EdgeCloudEnvironment", "execute_split",
     "env.execute_split", False),
    ("repro.env.environment", "EdgeCloudEnvironment", "execute_pipelined",
     "env.execute_pipelined", False),
    ("repro.env.environment", "EdgeCloudEnvironment", "estimate",
     "env.estimate", False),
    ("repro.env.environment", "EdgeCloudEnvironment", "estimate_all",
     "env.estimate_all", False),
    ("repro.serving.pipeline", "ServingPipeline", "serve", "serving.serve",
     False),
    ("repro.sim.kernel", "EventKernel", "advance_by", "sim.advance", False),
    ("repro.sim.kernel", "EventKernel", "advance_to", "sim.advance", False),
    ("repro.sim.kernel", "EventKernel", "fire_due", "sim.fire", False),
    ("repro.guard.supervisor", "PolicyGuard", "note_result", "guard.note",
     False),
    ("repro.guard.supervisor", "PolicyGuard", "note_refusal", "guard.note",
     False),
    ("repro.guard.supervisor", "PolicyGuard", "note_qos", "guard.note", False),
    ("repro.guard.supervisor", "PolicyGuard", "note_q_delta", "guard.note",
     False),
    ("repro.guard.supervisor", "PolicyGuard", "evaluate", "guard.evaluate",
     False),
    ("repro.faults.failure", "FaultInjector", "apply", "faults.apply", False),
    ("repro.evalharness.evaluation", None, "fig9_main_results",
     "evalharness.driver", False),
    ("repro.evalharness.evaluation", None, "fig11_dynamic",
     "evalharness.driver", False),
    ("repro.evalharness.runner", None, "train_autoscale",
     "evalharness.runner", False),
    ("repro.evalharness.runner", None, "adapt_engine", "evalharness.runner",
     False),
    ("repro.evalharness.runner", None, "evaluate_autoscale",
     "evalharness.runner", False),
    ("repro.evalharness.runner", None, "evaluate_scheduler",
     "evalharness.runner", False),
    ("repro.evalharness.runner", None, "loo_train_and_evaluate",
     "evalharness.runner", False),
)

#: Baseline schedulers: every class in these modules that defines its own
#: ``train`` / ``select`` gets a span on it.
BASELINE_MODULES = ("repro.baselines.base", "repro.baselines.static",
                    "repro.baselines.oracle", "repro.baselines.mosaic",
                    "repro.baselines.neurosurgeon")

#: (module, owner or None, attribute, counter) hot leaves.
COUNTERS = (
    ("repro.hardware.processor", "Processor", "layer_latency_ms",
     "hardware.layer_latency"),
    ("repro.models.network", "NeuralNetwork", "count", "models.layer_scan"),
    ("repro.models.network", "NeuralNetwork", "total_macs",
     "models.layer_scan"),
    ("repro.models.network", "NeuralNetwork", "param_bytes",
     "models.layer_scan"),
    ("repro.env.environment", "EdgeCloudEnvironment", "observe",
     "env.observe"),
    ("repro.analysis.contracts", None, "contracts_enabled",
     "analysis.contracts_enabled"),
)


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.counts = defaultdict(int)
        self.batch_rows = 0
        self.selected = 0
        self.environments = []
        self.on = False
        self._stack = []
        self._in_request = 0
        self._request_id = -1
        self._patches = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self):
        """Wrap every listed function; modules are imported first so the
        by-name importers exist when they are patched."""
        for module, owner, attr, component, request in SPANS:
            self._patch(module, owner, attr,
                        lambda fn, c=component, r=request: self._span(fn, c, r))
        for module_name in BASELINE_MODULES:
            module = importlib.import_module(module_name)
            for owner in vars(module).values():
                if not (isinstance(owner, type)
                        and owner.__module__ == module_name):
                    continue
                for attr, component in (("train", "baselines.train"),
                                        ("select", "baselines.select")):
                    if attr in vars(owner):
                        self._patch(module_name, owner.__name__, attr,
                                    lambda fn, c=component:
                                    self._span(fn, c, False))
        for module, owner, attr, counter in COUNTERS:
            self._patch(module, owner, attr,
                        lambda fn, c=counter: self._counter(fn, c))
        self._patch("repro.env.environment", "EdgeCloudEnvironment",
                    "__init__", self._registering)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, module_name, owner_name, attr, make):
        module = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(module, owner_name)
            original = vars(owner)[attr]
            if isinstance(original, property):
                wrapped = property(make(original.fget))
            else:
                wrapped = make(original)
            self._set(owner, attr, original, wrapped)
            return
        original = getattr(module, attr)
        wrapped = make(original)
        # Every loaded module that bound the function by name resolves
        # it from its own globals.
        for name, other in list(sys.modules.items()):
            if other is None or not name.startswith("repro"):
                continue
            if vars(other).get(attr) is original:
                self._set(other, attr, original, wrapped)

    def _set(self, target, attr, original, wrapped):
        self._patches.append((target, attr, original))
        setattr(target, attr, wrapped)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _name_id(self, component, fn):
        key = (component, fn.__qualname__)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def _span(self, fn, component, request_level):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        name_id = self._name_id(component, fn)
        # Batch entry points: which positional argument holds the rows.
        rows_arg, rows_name = {
            "execute_batch": (2, "targets"),
            "select_action_batch": (1, "states"),
        }.get(fn.__name__, (None, None))
        single_select = fn.__name__ == "select_action"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if request_level:
                if not tracer._in_request:
                    tracer._request_id += 1
                tracer._in_request += 1
            if rows_arg is not None:
                rows = len(args[rows_arg] if len(args) > rows_arg
                           else kwargs[rows_name])
                if rows_name == "targets":
                    tracer.batch_rows += rows
                else:
                    tracer.selected += rows
            elif single_select:
                tracer.selected += 1
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                if request_level:
                    tracer._in_request -= 1
                spans[index] = (name_id, started, ended, parent,
                                tracer._request_id if tracer._in_request
                                or request_level else -1)

        return span

    def _counter(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _registering(self, init):
        environments = self.environments

        @functools.wraps(init)
        def registering(env, *args, **kwargs):
            init(env, *args, **kwargs)
            environments.append(env)

        return registering

    # ------------------------------------------------------------------
    # Recording window
    # ------------------------------------------------------------------

    def start(self):
        """Open the recording window: zero every counter and snapshot
        the cumulative ledgers of the environments built so far."""
        self.spans.clear()
        self.counts.clear()
        self.batch_rows = 0
        self.selected = 0
        self._request_id = -1
        self._baseline = {id(env): _ledgers(env)
                          for env in self.environments}
        self.on = True

    def stop(self):
        self.on = False
        totals = defaultdict(float)
        for env in self.environments:
            now = _ledgers(env)
            before = self._baseline.get(id(env), {})
            for key, value in now.items():
                totals[key] += value - before.get(key, 0)
        self.ledgers = dict(totals)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def components(self):
        """``component -> (calls, self_ns, top_ns)``.

        ``top_ns`` is the inclusive time of spans with no enclosing span
        of the same component (nested calls are not double counted)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name_id, started, ended, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += ended - started
        out = defaultdict(lambda: [0, 0, 0])
        component_of = [component for component, _ in self.names]
        for index, (name_id, started, ended, parent, _) in enumerate(spans):
            component = component_of[name_id]
            duration = ended - started
            entry = out[component]
            entry[0] += 1
            entry[1] += duration - child_ns[index]
            ancestor = parent
            while ancestor >= 0 and component_of[spans[ancestor][0]] \
                    != component:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry[2] += duration
        return {key: tuple(value) for key, value in out.items()}

    def write_spans(self, path):
        """Write the spans as CSV: name, start_ns, end_ns, parent, request."""
        with open(path, "w") as handle:
            handle.write("index,component,function,start_ns,end_ns,parent,"
                         "request_id\n")
            for index, (name_id, started, ended, parent, request) in \
                    enumerate(self.spans):
                component, function = self.names[name_id]
                handle.write(f"{index},{component},{function},{started},"
                             f"{ended},{parent},{request}\n")


def _ledgers(env):
    """Cumulative counters an environment's public surfaces expose."""
    cache = env.cost_engine.stats()
    faults = env.fault_stats
    return {
        "costcache_hits": cache.hits,
        "costcache_misses": cache.misses,
        "events_scheduled": env.kernel.scheduled,
        "events_fired": env.kernel.fired,
        "fault_attempts": faults.attempts,
        "fault_failures": faults.total_failures,
    }
