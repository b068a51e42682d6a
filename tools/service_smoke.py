#!/usr/bin/env python3
"""End-to-end smoke of the discovery service through the real CLI.

Spawns ``python -m repro.cli serve --port 0`` as a subprocess, parses
the printed ``serving discovery API at <url>`` line for the bound
address, then exercises the HTTP API with the bundled example dataset:

* register ``examples/data/orders.csv``;
* discover twice — the second request must be a result-cache hit that
  executed no discovery;
* drain the first job's span records (must be bracketed by the
  ``discover`` open and close records, the close with ``ok``);
* scrape ``/metrics`` for the aggregated service + run counters;
* SIGINT the server and require a clean exit.

Run via ``make service-smoke`` (CI) or directly::

    python tools/service_smoke.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ORDERS = REPO / "examples" / "data" / "orders.csv"
URL_PREFIX = "serving discovery API at "


def fail(message: str) -> None:
    raise SystemExit(f"service-smoke FAILED: {message}")


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.serve.client import ServiceClient

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        url = None
        deadline = threading.Timer(30.0, proc.kill)
        deadline.start()
        try:
            for line in proc.stdout:
                if line.startswith(URL_PREFIX):
                    url = line[len(URL_PREFIX) :].strip()
                    break
        finally:
            deadline.cancel()
        if url is None:
            fail(f"server never announced its URL (exit {proc.poll()})")
        client = ServiceClient(url, timeout=60.0)
        if not client.healthy():
            fail("healthz did not answer")

        summary = client.register_dataset("orders", ORDERS.read_text())
        if summary["rows"] <= 0 or summary["replaced"]:
            fail(f"unexpected registration summary: {summary}")

        first = client.discover("orders", {"epsilon": 0.0})
        if first["status"] != "done" or first["cache_hit"]:
            fail(f"first discovery did not run fresh: {first['status']}")
        if not first["result"]["dependencies"]:
            fail("no dependencies found on orders.csv")

        second = client.discover("orders", {"epsilon": 0.0})
        if not second["cache_hit"]:
            fail("identical request was not a cache hit")
        stats = client.stats()
        if stats["counters"]["service.discoveries_executed"] != 1:
            fail(
                "expected exactly one discovery execution, saw "
                f"{stats['counters']['service.discoveries_executed']}"
            )

        stream = client.job_events(first["id"])
        records = stream["events"]
        kinds = [(r["name"], "end" in r) for r in records]
        if (
            not kinds
            or kinds[0] != ("discover", False)
            or kinds[-1] != ("discover", True)
            or records[-1]["attrs"].get("ok") is not True
        ):
            fail(f"record stream not bracketed: {kinds[:3]}...{kinds[-3:]}")

        metrics = client.metrics_text()
        for needle in ("repro_service_requests_total", "repro_tane_validity_tests_total"):
            if needle not in metrics:
                fail(f"aggregated /metrics missing {needle}")

        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            fail("server did not exit on SIGINT")
        if proc.returncode != 0:
            fail(f"server exited {proc.returncode} on SIGINT")
        print(
            f"service-smoke: OK ({summary['rows']} rows, "
            f"{len(first['result']['dependencies'])} dependencies, "
            f"{len(kinds)} records, clean shutdown)"
        )
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)


if __name__ == "__main__":
    sys.exit(main())
