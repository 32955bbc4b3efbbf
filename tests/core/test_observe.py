"""The observability layer: event streams, JSONL export, run profiling."""

import io
import json
import warnings

import pytest

from repro.core import (
    BytesModel,
    JsonlTraceWriter,
    MemorySink,
    ProgressRunner,
    standard_toolkit,
)
from repro.core import observe
from repro.core.observe import EstimatorProfile, RunProfile
from repro.engine.operators import TableScan
from repro.engine.plan import Plan
from repro.storage import Table, schema_of


def scan_plan(n=60, name="obs"):
    table = Table("t", schema_of("t", "k:int"), [(v,) for v in range(n)])
    return Plan(TableScan(table), name)


class FakeClock:
    """Deterministic clock: advances a fixed step per reading."""

    def __init__(self, step=0.001):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestEventStream:
    def run_with_sink(self, sink, **kwargs):
        runner = ProgressRunner(
            scan_plan(), standard_toolkit(), target_samples=10,
            sinks=[sink], clock=FakeClock(), **kwargs
        )
        return runner.run()

    def test_memory_sink_receives_framed_stream(self):
        sink = MemorySink()
        self.run_with_sink(sink)
        kinds = [event.kind for event in sink.events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert all(kind == "sample" for kind in kinds[1:-1])
        assert [event.seq for event in sink.events] == list(range(len(kinds)))

    def test_sample_events_carry_estimates_bounds_and_pipelines(self):
        sink = MemorySink()
        report = self.run_with_sink(sink)
        samples = sink.samples()
        assert len(samples) == len(report.trace.samples)
        for event, sample in zip(samples, report.trace.samples):
            assert event.curr == sample.curr
            # Truth is deferred, so live events are unlabeled; the sealed
            # trace sample at the same instant is not.
            assert event.actual is None
            assert event.total is None
            assert sample.actual is not None
            assert event.estimates == sample.estimates
            assert event.lower_bound == sample.lower_bound
            assert event.upper_bound == sample.upper_bound
            assert event.pipelines  # single scan → one pipeline snapshot
            assert event.pipelines[0].drivers

    def test_gauges_progress_monotonically(self):
        sink = MemorySink()
        self.run_with_sink(sink)
        samples = sink.samples()
        assert all(event.ticks_per_second > 0 for event in samples)
        # ETA interval stays sound: lower end ≤ upper end.
        for event in samples:
            low, high = event.eta_interval_seconds
            assert low is not None and high is not None
            assert low <= high + 1e-12
        assert samples[-1].eta_interval_seconds[0] == 0.0

    def test_jsonl_writer_streams_parseable_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceWriter(str(path))
        self.run_with_sink(sink)
        lines = path.read_text().splitlines()
        assert len(lines) == sink.lines_written
        records = [json.loads(line) for line in lines]
        assert records[0]["kind"] == "run_start"
        assert records[-1]["kind"] == "run_end"
        assert records[-1]["actual"] == 1.0
        sample_records = [r for r in records if r["kind"] == "sample"]
        assert all("dne" in r["estimates"] for r in sample_records)
        assert all(r["pipelines"] for r in sample_records)

    def test_jsonl_writer_accepts_open_handles(self):
        buffer = io.StringIO()
        sink = JsonlTraceWriter(buffer)
        self.run_with_sink(sink)
        sink.close()  # must not close a handle it does not own
        lines = buffer.getvalue().splitlines()
        assert lines
        json.loads(lines[0])

    def test_weighted_model_events_use_weighted_units(self):
        sink = MemorySink()
        report = self.run_with_sink(sink, work_model=BytesModel())
        assert report.work_model == "bytes"
        final = sink.events[-1]
        assert final.curr == report.total
        assert final.actual == 1.0


class TestRunProfile:
    def test_runner_profiles_each_estimator(self):
        report = ProgressRunner(
            scan_plan(), standard_toolkit(), target_samples=10,
            clock=FakeClock(),
        ).run()
        profile = report.profile
        assert profile is not None
        assert profile.ticks == 60
        assert profile.samples == len(report.trace.samples)
        assert set(profile.estimators) == {"dne", "pmax", "safe"}
        for estimator_profile in profile.estimators.values():
            assert estimator_profile.calls == profile.samples
            assert estimator_profile.total_seconds > 0
            assert estimator_profile.max_seconds >= estimator_profile.avg_seconds
        assert profile.elapsed_seconds > 0
        assert profile.ticks_per_second > 0
        assert 0 < profile.sample_seconds
        assert 0 < profile.overhead_fraction <= 1.0

    def test_profile_serializes(self):
        report = ProgressRunner(
            scan_plan(), standard_toolkit(), target_samples=5,
            clock=FakeClock(),
        ).run()
        record = report.profile.to_dict()
        json.dumps(record)  # must be plain-JSON serializable
        assert record["samples"] == len(report.trace.samples)
        assert "dne" in record["estimators"]
        assert record["estimators"]["dne"]["calls"] == record["samples"]

    def test_estimator_profile_accumulates(self):
        profile = EstimatorProfile("x")
        profile.record(0.25)
        profile.record(0.75)
        assert profile.calls == 2
        assert profile.total_seconds == 1.0
        assert profile.avg_seconds == 0.5
        assert profile.max_seconds == 0.75

    def test_empty_run_profile_defaults(self):
        profile = RunProfile()
        assert profile.ticks_per_second is None
        assert profile.avg_sample_seconds == 0.0
        assert profile.overhead_fraction == 0.0


class TestWarnOnce:
    def test_warns_first_time_only(self):
        observe._warned_keys.discard("test-warn-once-key")
        with pytest.warns(RuntimeWarning, match="something"):
            observe.warn_once("test-warn-once-key", "something happened")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            observe.warn_once("test-warn-once-key", "something happened")

    def test_distinct_keys_warn_independently(self):
        observe._warned_keys.discard("test-warn-once-a")
        observe._warned_keys.discard("test-warn-once-b")
        with pytest.warns(RuntimeWarning):
            observe.warn_once("test-warn-once-a", "a")
        with pytest.warns(UserWarning):
            observe.warn_once("test-warn-once-b", "b", category=UserWarning)
