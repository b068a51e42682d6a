"""DiscoveryService end-to-end: caching, dedup, invalidation, telemetry."""

import threading

import pytest

from repro.core.tane import TaneConfig, discover
from repro.exceptions import ServiceError
from repro.model.relation import Relation
from repro.obs import QueueSink, Tracer
from repro.obs.metrics import MetricsRegistry
from repro.serve import DiscoveryService

from ..conftest import CallbackSink, level_opens


CSV = "A,B,C\n" + "\n".join(
    f"{i % 3},{i % 2},{i % 6}" for i in range(12)
)

CSV_CHANGED = CSV.replace("2,1,5", "2,1,4")


def make_service(**kwargs):
    kwargs.setdefault("workers", 2)
    return DiscoveryService(**kwargs)


class TestRegisterAndDiscover:
    def test_discover_returns_serialized_result(self):
        service = make_service()
        try:
            summary = service.register_dataset("d", csv_text=CSV)
            assert summary["replaced"] is False
            job = service.discover_and_wait("d", {"epsilon": 0.0}, timeout=60)
            assert job.status == "done"
            assert job.cache_hit is False
            result = job.result
            assert result["dataset"] == "d"
            # C = i % 6 determines both A = i % 3 and B = i % 2.
            rendered = {dep["display"] for dep in result["dependencies"]}
            assert "C -> A" in rendered and "C -> B" in rendered
            assert result["statistics"]["validity_tests"] > 0
        finally:
            service.close()

    def test_identical_request_is_a_cache_hit_without_execution(self):
        service = make_service()
        try:
            service.register_dataset("d", csv_text=CSV)
            first = service.discover_and_wait("d", {"epsilon": 0.0}, timeout=60)
            second = service.discover_and_wait("d", {"epsilon": 0.0}, timeout=60)
            assert second.cache_hit is True
            assert second.result == first.result
            counters = service.stats()["counters"]
            assert counters["service.discoveries_executed"] == 1
            assert counters["service.result_cache_hits"] == 1
        finally:
            service.close()

    def test_equivalent_configs_share_one_cache_entry(self):
        # Field order and defaulted fields must not fragment the key.
        service = make_service()
        try:
            service.register_dataset("d", csv_text=CSV)
            service.discover_and_wait("d", {"epsilon": 0.0, "measure": "g3"})
            job = service.discover_and_wait("d", {"measure": "g3", "epsilon": 0.0})
            assert job.cache_hit is True
            job = service.discover_and_wait("d", None)  # all defaults = same
            assert job.cache_hit is True
        finally:
            service.close()

    def test_different_config_is_a_separate_entry(self):
        service = make_service()
        try:
            service.register_dataset("d", csv_text=CSV)
            service.discover_and_wait("d", {"epsilon": 0.0})
            job = service.discover_and_wait("d", {"epsilon": 0.25})
            assert job.cache_hit is False
            assert service.stats()["counters"]["service.discoveries_executed"] == 2
        finally:
            service.close()

    def test_measure_is_request_addressable(self):
        service = make_service()
        try:
            service.register_dataset("d", csv_text=CSV)
            job = service.discover_and_wait(
                "d", {"epsilon": 0.3, "measure": "tau"}, timeout=60
            )
            assert job.status == "done"
            assert job.result["dependencies"]
        finally:
            service.close()

    def test_two_measures_never_share_a_cache_entry(self):
        # The regression this pins: a cache key missing the measure
        # would hand a pdep client g3 results.
        service = make_service()
        try:
            service.register_dataset("d", csv_text=CSV)
            service.discover_and_wait("d", {"epsilon": 0.3, "measure": "g3"})
            for measure in ("pdep", "tau", "mu_plus", "fi", "rfi"):
                job = service.discover_and_wait(
                    "d", {"epsilon": 0.3, "measure": measure}, timeout=60
                )
                assert job.cache_hit is False, measure
            counters = service.stats()["counters"]
            assert counters["service.discoveries_executed"] == 6
        finally:
            service.close()

    @pytest.mark.parametrize("field", ["rfi_samples", "rfi_seed"])
    def test_rfi_sampling_params_refused(self, field):
        # rfi's bias is exact now; a request still naming the old
        # Monte Carlo knobs gets a 400 that names the field.
        service = make_service()
        try:
            service.register_dataset("d", csv_text=CSV)
            with pytest.raises(ServiceError, match=field) as excinfo:
                service.submit_discovery(
                    "d", {"epsilon": 0.3, "measure": "rfi", field: 7}
                )
            assert excinfo.value.status == 400
            assert "unknown config field" in str(excinfo.value)
        finally:
            service.close()

    def test_unknown_dataset_and_bad_config_are_client_errors(self):
        service = make_service()
        try:
            with pytest.raises(ServiceError) as excinfo:
                service.submit_discovery("ghost")
            assert excinfo.value.status == 404
            service.register_dataset("d", csv_text=CSV)
            with pytest.raises(ServiceError, match="unknown config field"):
                service.submit_discovery("d", {"epsilonn": 0.1})
            with pytest.raises(ServiceError, match="epsilon"):
                service.submit_discovery("d", {"epsilon": 3.0})
        finally:
            service.close()


class TestSingleFlight:
    def test_concurrent_identical_requests_execute_discovery_once(self):
        service = make_service(workers=8)
        try:
            service.register_dataset("d", csv_text=CSV)
            barrier = threading.Barrier(8)
            jobs = []
            jobs_lock = threading.Lock()

            def request():
                barrier.wait(timeout=5.0)
                job = service.submit_discovery("d", {"epsilon": 0.0})
                with jobs_lock:
                    jobs.append(job)

            threads = [threading.Thread(target=request) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert len(jobs) == 8
            for job in jobs:
                assert job.wait(timeout=60.0)
                assert job.status == "done"
            payloads = [job.result for job in jobs]
            assert all(payload == payloads[0] for payload in payloads)
            counters = service.stats()["counters"]
            assert counters["service.discoveries_executed"] == 1, (
                "N concurrent identical requests must run exactly one discovery"
            )
            assert counters["service.result_cache_hits"] == 7
        finally:
            service.close()


class TestReRegistrationInvalidation:
    def test_changed_content_drops_result_entries(self):
        service = make_service()
        try:
            service.register_dataset("d", csv_text=CSV)
            first = service.discover_and_wait("d", {"epsilon": 0.0}, timeout=60)
            assert service.results.stats()["entries"] == 1

            summary = service.register_dataset("d", csv_text=CSV_CHANGED)
            assert summary["replaced"] is True
            assert summary["invalidated"] == {"result_entries": 1}
            assert service.results.stats()["entries"] == 0
            assert "partition_cache" not in service.stats()

            # The next identical request must re-run on the new bytes,
            # not serve the stale cached result.
            job = service.discover_and_wait("d", {"epsilon": 0.0}, timeout=60)
            assert job.cache_hit is False
            assert job.fingerprint != first.fingerprint
            assert service.stats()["counters"]["service.discoveries_executed"] == 2
        finally:
            service.close()

    def test_identical_reupload_invalidates_nothing(self):
        service = make_service()
        try:
            service.register_dataset("d", csv_text=CSV)
            service.discover_and_wait("d", {"epsilon": 0.0}, timeout=60)
            summary = service.register_dataset("d", csv_text=CSV)
            assert summary["replaced"] is False
            assert summary["invalidated"] == {"result_entries": 0}
            job = service.discover_and_wait("d", {"epsilon": 0.0}, timeout=60)
            assert job.cache_hit is True
        finally:
            service.close()


class TestRunScopedTelemetry:
    def test_two_overlapping_runs_keep_counters_identical_to_solo(self):
        """Regression for the run-scoped-registry design: overlapping
        discoveries with per-run registries produce exactly the solo
        counters — nothing clobbers gauges or counters mid-flight."""
        rel_a = Relation.from_rows(
            [[str(i % 4), str(i % 3), str(i % 12), str(i % 2)] for i in range(24)],
            ("A", "B", "C", "D"),
        )
        rel_b = Relation.from_rows(
            [[str(i % 5), str(i % 2), str(i % 10)] for i in range(30)],
            ("P", "Q", "R"),
        )
        baselines = {}
        for name, rel in (("a", rel_a), ("b", rel_b)):
            registry = MetricsRegistry()
            discover(rel, TaneConfig(metrics=registry))
            baselines[name] = registry.counter_value("tane.validity_tests")

        barrier = threading.Barrier(2)
        observed: dict[str, dict] = {}

        def run(name, rel):
            registry = MetricsRegistry()
            queue = QueueSink()

            def meet(span):
                if level_opens(span, 1):
                    barrier.wait(timeout=30.0)  # both runs inside discovery

            tracer = Tracer(sinks=[queue, CallbackSink(meet)], metrics=registry)
            discover(rel, TaneConfig(metrics=registry, tracer=tracer))
            observed[name] = {
                "validity_tests": registry.counter_value("tane.validity_tests"),
                "run_start_rows": [
                    record["attrs"]["rows"]
                    for record in queue.drain()
                    if record["name"] == "discover" and "end" not in record
                ],
            }

        threads = [
            threading.Thread(target=run, args=(name, rel))
            for name, rel in (("a", rel_a), ("b", rel_b))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert observed["a"]["validity_tests"] == baselines["a"]
        assert observed["b"]["validity_tests"] == baselines["b"]
        assert observed["a"]["run_start_rows"] == [24]
        assert observed["b"]["run_start_rows"] == [30]

    def test_jobs_carry_private_registries_and_metrics_aggregate(self):
        service = make_service()
        try:
            service.register_dataset("d", csv_text=CSV)
            job = service.discover_and_wait("d", {"epsilon": 0.0}, timeout=60)
            # The job's own registry holds the run's counters...
            assert job.metrics.counter_value("tane.validity_tests") > 0
            # ...and the aggregated service snapshot includes them
            # alongside the service counters.
            merged = service.metrics_snapshot()
            assert merged["counters"]["tane.validity_tests"] == (
                job.metrics.counter_value("tane.validity_tests")
            )
            assert merged["counters"]["service.requests"] == 1
        finally:
            service.close()

    def test_job_streams_progress_events(self):
        service = make_service()
        try:
            service.register_dataset("d", csv_text=CSV)
            job = service.discover_and_wait("d", {"epsilon": 0.0}, timeout=60)
            events, dropped = job.drain_events()
            bracket = [(event["name"], "end" in event) for event in events]
            assert bracket[0] == ("discover", False)
            assert bracket[-1] == ("discover", True)
            assert ("level", False) in bracket
            assert events[-1]["attrs"]["ok"] is True
            assert dropped == 0
            # A cache-hit job runs no discovery, so it streams nothing.
            hit_job = service.discover_and_wait("d", {"epsilon": 0.0}, timeout=60)
            hit_events, _ = hit_job.drain_events()
            assert hit_events == []
        finally:
            service.close()


class TestShutdown:
    def test_closed_service_refuses_submissions(self):
        service = make_service()
        service.register_dataset("d", csv_text=CSV)
        service.close()
        with pytest.raises(ServiceError) as excinfo:
            service.submit_discovery("d")
        assert excinfo.value.status == 503
