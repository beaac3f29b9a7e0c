"""CI gate: the vectorized decision plane holds a zero-allowlist bar.

The serving package and the core modules the SoA decision plane runs
through (engine, Q-table, environment) are linted here with the
allowlist and flow baseline *disabled*: a new finding in any of them
fails immediately instead of ratcheting into the grandfathered debt.
The two modules with committed debt are pinned to exactly that debt —
``qlearning.py``'s lone RL001 (``learning_rate`` is the paper's
dimensionless alpha) and ``engine.py``'s RL102 overhead timers (the
paper's Table-V instrumentation) — so any *additional* finding there
still fails.  The request kernel every inference runs through (the
observation and scenario samplers, the co-runner and signal models, the
cost engine with its finishing plans, and the batched trainer) holds the
same bar; ``batchtrain.py`` is pinned to its one overhead timer.
"""

from pathlib import Path

from repro.analysis import analyze_paths, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
SERVING = SRC / "serving"
ENGINE = SRC / "core" / "engine.py"
QLEARNING = SRC / "core" / "qlearning.py"
ENVIRONMENT = SRC / "env" / "environment.py"
BATCHTRAIN = SRC / "core" / "batchtrain.py"
REQUEST_KERNEL = [SRC / "env" / "observation.py",
                  SRC / "env" / "scenarios.py",
                  SRC / "env" / "costcache.py",
                  SRC / "interference" / "corunner.py",
                  SRC / "wireless" / "signal.py"]


class TestReprolintZeroAllowlist:
    def test_serving_and_core_hot_path_are_spotless(self):
        report = lint_paths([SERVING, ENGINE, ENVIRONMENT],
                            allowlist=False)
        assert not report.violations, "\n" + report.format()

    def test_request_kernel_is_spotless(self):
        report = lint_paths(REQUEST_KERNEL + [BATCHTRAIN], allowlist=False)
        assert not report.violations, "\n" + report.format()

    def test_qlearning_debt_is_exactly_the_paper_alpha(self):
        report = lint_paths([QLEARNING], allowlist=False)
        found = [(violation.rule, violation.name)
                 for violation in report.violations]
        assert found == [("RL001", "learning_rate")], \
            "\n" + report.format()


class TestFlowZeroBaseline:
    def test_serving_and_state_plane_carry_no_flow_debt(self):
        report = analyze_paths([SERVING, QLEARNING, ENVIRONMENT],
                               baseline=False)
        assert not report.violations, "\n" + report.format()

    def test_engine_debt_is_exactly_the_overhead_timers(self):
        report = analyze_paths([ENGINE], baseline=False)
        found = sorted((violation.rule, violation.name)
                       for violation in report.violations)
        assert found == [
            ("RL102", "AutoScale._complete_step:time.perf_counter"),
            ("RL102", "AutoScale.select_action:time.perf_counter"),
            ("RL102", "AutoScale.select_action_batch:time.perf_counter"),
        ], "\n" + report.format()

    def test_request_kernel_carries_no_flow_debt(self):
        report = analyze_paths(REQUEST_KERNEL, baseline=False)
        assert not report.violations, "\n" + report.format()

    def test_batchtrain_debt_is_exactly_the_overhead_timer(self):
        report = analyze_paths([BATCHTRAIN], baseline=False)
        found = [(violation.rule, violation.name)
                 for violation in report.violations]
        assert found == [
            ("RL102", "BatchTrainer._train:time.perf_counter"),
        ], "\n" + report.format()
