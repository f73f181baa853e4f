"""Tests for the benchmark's own arithmetic (no ``repro`` import).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import pytest

from benchstats import (
    OpLog,
    derive_seed,
    per_op_medians,
    self_times,
    sustainable_level,
    tail_percentile,
)


class TestTailPercentile:
    def test_ten_operations_lie_beyond_the_reported_value(self):
        samples = list(range(1, 101))  # 1..100, shuffled order irrelevant
        value, pct, n, beyond = tail_percentile(samples[::-1])
        assert (value, pct, n, beyond) == (90.0, 90.0, 100, 10)
        assert sum(1 for s in samples if s > value) == 10

    def test_percentile_rises_with_sample_count(self):
        value, pct, n, beyond = tail_percentile([float(i) for i in range(1230)])
        assert n == 1230 and beyond == 10
        assert value == 1219.0
        assert pct == pytest.approx(100.0 * 1220 / 1230)

    def test_eleven_samples_is_the_smallest_with_a_tail(self):
        value, pct, n, beyond = tail_percentile([float(i) for i in range(11)])
        assert (value, n, beyond) == (0.0, 11, 10)
        assert pct == pytest.approx(100.0 / 11)

    def test_too_few_samples_report_the_maximum(self):
        assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3, 0)
        assert tail_percentile([float(i) for i in range(10)]) == (
            9.0, 100.0, 10, 0
        )

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            tail_percentile([])


class TestSelfTimes:
    def test_self_time_is_duration_minus_children(self):
        # pass [0, 10] > op [1, 9] > placement [2, 5], volume [6, 8]
        names = ["pass", "op", "placement.rod", "core.volume"]
        busy, calls = self_times(
            names, [0.0, 1.0, 2.0, 6.0], [10.0, 9.0, 5.0, 8.0], [-1, 0, 1, 1]
        )
        assert busy[("pass", "pass")] == pytest.approx(2.0)
        assert busy[("pass", "op")] == pytest.approx(3.0)
        assert busy[("pass", "placement.rod")] == pytest.approx(3.0)
        assert busy[("pass", "core.volume")] == pytest.approx(2.0)
        assert sum(busy.values()) == pytest.approx(10.0)
        assert all(count == 1 for count in calls.values())

    def test_overlapping_children_are_covered_once(self):
        busy, _ = self_times(
            ["a", "b", "c"], [0.0, 1.0, 2.0], [10.0, 4.0, 6.0], [-1, 0, 0]
        )
        assert busy[("a", "a")] == pytest.approx(10.0 - 5.0)

    def test_child_outside_parent_is_clipped(self):
        busy, _ = self_times(["a", "b"], [0.0, 8.0], [10.0, 12.0], [-1, 0])
        assert busy[("a", "a")] == pytest.approx(8.0)

    def test_reentry_into_a_layer_is_one_call(self):
        # Placement.volume_ratio -> FeasibleSet.volume_ratio: one call.
        names = ["op", "core.volume", "core.volume", "core.volume"]
        busy, calls = self_times(
            names, [0.0, 1.0, 2.0, 5.0], [6.0, 5.5, 4.0, 5.2],
            [-1, 0, 1, 0],
        )
        assert calls[("op", "core.volume")] == 2
        assert busy[("op", "core.volume")] == pytest.approx(4.5 + 0.2)

    def test_roots_keep_setup_apart_from_passes(self):
        names = ["setup", "graphs", "pass", "graphs"]
        busy, calls = self_times(
            names, [0.0, 0.5, 2.0, 2.5], [1.0, 0.75, 4.0, 3.5], [-1, 0, -1, 2]
        )
        assert busy[("setup", "graphs")] == pytest.approx(0.25)
        assert busy[("pass", "graphs")] == pytest.approx(1.0)
        assert calls[("setup", "graphs")] == calls[("pass", "graphs")] == 1


class TestOpLog:
    def test_injected_failure_counts_against_attempted(self):
        log = OpLog()

        def boom():
            raise RuntimeError("injected")

        assert log.run(lambda: 1) == (0, 1)
        assert log.run(boom) == (1, None)
        log.run(lambda: 2)
        assert log.attempted == 3 and log.failed == 1
        assert log.fail_share == pytest.approx(1 / 3)
        assert "injected" in log.failures[1]

    def test_failed_check_and_raise_count_once_per_operation(self):
        log = OpLog()
        log.run(lambda: 1)
        log.mark_failed(0, "output check")
        log.mark_failed(0, "second reason")
        assert log.failed == 1 and log.failures[0] == "output check"

    def test_every_operation_is_timed(self):
        log = OpLog()
        log.run(lambda: None)
        log.run(lambda: 1 / 0)
        assert len(log.durations) == 2
        assert all(d >= 0.0 for d in log.durations)

    def test_no_operations_no_failures(self):
        assert OpLog().fail_share == 0.0


class TestPerOpMedians:
    def test_operations_are_matched_by_place_not_run_order(self):
        # Pass 0 ran ops 0, 1, 2 in order; pass 1 ran 2, 0, 1; pass 2 ran 1, 2, 0.
        durations = [1.0, 2.0, 3.0, 3.3, 1.1, 2.2, 2.1, 3.1, 0.9]
        passes = [[0, 1, 2], [4, 5, 3], [8, 6, 7]]
        assert per_op_medians(durations, passes) == [1.0, 2.1, 3.1]

    def test_one_slow_pass_moves_nothing(self):
        durations = [1.0, 2.0, 1.1, 2.1, 5.0, 9.0]
        assert per_op_medians(durations, [[0, 1], [2, 3], [4, 5]]) == [1.1, 2.1]

    def test_one_pass_is_its_own_times(self):
        assert per_op_medians([0.5, 0.25], [[0, 1]]) == [0.5, 0.25]

    def test_passes_must_run_the_same_operation_list(self):
        with pytest.raises(ValueError):
            per_op_medians([1.0, 2.0, 3.0], [[0, 1], [2]])
        with pytest.raises(ValueError):
            per_op_medians([], [])


class TestSustainableLevel:
    def test_highest_passing_level(self):
        ladder = [(0.2, True), (0.3, True), (0.4, True), (0.5, False)]
        assert sustainable_level(ladder) == 0.4

    def test_a_pass_above_a_failure_counts(self):
        # Chaos can fail a middle rung and pass a higher one.
        ladder = [(0.2, True), (0.3, False), (0.4, True), (0.5, False)]
        assert sustainable_level(ladder) == 0.4

    def test_no_passing_level_is_zero(self):
        assert sustainable_level([(0.2, False), (0.3, False)]) == 0.0


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(1, "graph", 0) == derive_seed(1, "graph", 0)
    seeds = {derive_seed(s, stream, k) for s in range(3)
             for stream in ("graph", "trace", "chaos") for k in range(4)}
    assert len(seeds) == 36
    assert all(0 <= seed < 2 ** 31 for seed in seeds)
