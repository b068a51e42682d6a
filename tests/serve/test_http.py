"""HTTP transport + client round trips, error mapping, restart."""

import urllib.request

import pytest

from repro.exceptions import ServiceError
from repro.serve import DiscoveryService, ServiceClient, ServiceServer

CSV = "A,B,C\n" + "\n".join(f"{i % 3},{i % 2},{i % 6}" for i in range(12))


@pytest.fixture()
def service():
    service = DiscoveryService(workers=2)
    yield service
    service.close()


@pytest.fixture()
def server(service):
    with ServiceServer(service) as server:
        yield server


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, timeout=30.0)


class TestRoundTrip:
    def test_register_discover_and_stream_events(self, client):
        assert client.healthy()
        summary = client.register_dataset("orders", CSV)
        assert summary["rows"] == 12 and summary["replaced"] is False
        assert [d["name"] for d in client.datasets()] == ["orders"]

        job = client.discover("orders", {"epsilon": 0.0})
        assert job["status"] == "done" and job["cache_hit"] is False
        rendered = {dep["display"] for dep in job["result"]["dependencies"]}
        assert "C -> A" in rendered

        again = client.discover("orders", {"epsilon": 0.0})
        assert again["cache_hit"] is True

        stream = client.job_events(job["id"])
        first, last = stream["events"][0], stream["events"][-1]
        assert first["name"] == last["name"] == "discover"
        assert "end" not in first and last["attrs"]["ok"] is True
        assert stream["dropped"] == 0

        stats = client.stats()
        assert stats["counters"]["service.discoveries_executed"] == 1
        assert stats["result_cache"]["hits"] >= 1

    def test_async_submission_and_polling(self, client):
        client.register_dataset("orders", CSV)
        submitted = client.discover("orders", {"epsilon": 0.0}, wait=False)
        assert submitted["status"] in ("pending", "running", "done")
        assert "result" not in submitted
        import time

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            snapshot = client.job(submitted["id"])
            if snapshot["status"] in ("done", "failed"):
                break
            time.sleep(0.02)
        assert snapshot["status"] == "done"
        assert snapshot["result"]["dataset"] == "orders"
        assert any(job["id"] == submitted["id"] for job in client.jobs())

    def test_metrics_endpoint_aggregates_job_registries(self, client):
        client.register_dataset("orders", CSV)
        client.discover("orders", {"epsilon": 0.0})
        text = client.metrics_text()
        assert "repro_tane_validity_tests_total" in text
        assert "repro_service_requests_total" in text


class TestErrorMapping:
    def test_unknown_dataset_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.discover("ghost")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/nope")
        assert excinfo.value.status == 404

    def test_malformed_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/discover",
            data=b"not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400

    def test_bad_config_carries_library_message(self, client):
        client.register_dataset("orders", CSV)
        with pytest.raises(ServiceError, match="epsilon") as excinfo:
            client.discover("orders", {"epsilon": 2.0})
        assert excinfo.value.status == 400


class TestServerRestart:
    def test_stop_then_start_serves_again_on_the_same_port(self, service):
        server = ServiceServer(service).start()
        client = ServiceClient(server.url, timeout=10.0)
        port = server.port
        client.register_dataset("orders", CSV)
        server.stop()
        assert not client.healthy()
        server.start()
        try:
            assert server.port == port
            # State survives the restart: same service behind the port.
            assert client.healthy()
            assert [d["name"] for d in client.datasets()] == ["orders"]
        finally:
            server.stop()
