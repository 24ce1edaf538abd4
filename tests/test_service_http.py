"""HTTP API tests for ``repro serve``, against an in-process server.

The server runs in a background thread on an ephemeral port and is
exercised with stdlib ``urllib`` clients -- the real wire protocol,
no mocking.  Control-plane behavior (admission, lifecycle conflicts,
error mapping) is tested with the scheduler stopped so experiments
stay QUEUED deterministically; one end-to-end test runs a real (tiny)
sweep to DONE.
"""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceApp, ServiceConfig

PAYLOAD = {
    "synthetic": {"count": 1, "nx": 4, "ny": 5, "nz": 3, "nets": 2},
    "rules": ["RULE1"],
    "time_limit": 10.0,
}


def payload(**overrides):
    merged = dict(PAYLOAD)
    merged.update(overrides)
    return merged


class Harness:
    """One in-process service instance behind a real TCP socket."""

    def __init__(self, data_dir, *, run_scheduler=False, **overrides):
        self.config = ServiceConfig(
            data_dir=str(data_dir), port=0, **overrides
        )
        self.app = ServiceApp(self.config)
        if run_scheduler:
            self.app.startup()
        else:
            # Control-plane tests: recover but never schedule, so
            # submissions stay QUEUED deterministically.
            self.app.recovery = self.app.store.recover()
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        if not self._ready.wait(10):
            raise RuntimeError("service did not start")

    def _serve(self):
        asyncio.set_event_loop(self._loop)
        self._server = self._loop.run_until_complete(
            asyncio.start_server(self.app._client, "127.0.0.1", 0)
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        self._loop.run_forever()

    def close(self):
        def _stop():
            self._server.close()
            self._loop.stop()

        self._loop.call_soon_threadsafe(_stop)
        self._thread.join(10)
        self.app.scheduler.drain(timeout=60)

    def request(self, method, path, body=None, headers=None, raw=None):
        """Returns (status, headers, body_bytes)."""
        data = raw
        if data is None and body is not None:
            data = json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}",
            data=data,
            method=method,
        )
        for name, value in (headers or {}).items():
            request.add_header(name, value)
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, dict(exc.headers), exc.read()

    def submit(self, body=PAYLOAD, headers=None):
        status, _, raw = self.request(
            "POST", "/v1/experiments", body=body, headers=headers
        )
        return status, json.loads(raw)

    def wait_terminal(self, exp_id, timeout=300.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, _, raw = self.request("GET", f"/v1/experiments/{exp_id}")
            state = json.loads(raw)["state"]
            if state in ("DONE", "FAILED", "CANCELLED"):
                return state
            time.sleep(0.2)
        raise TimeoutError(f"experiment {exp_id} did not terminate")


@pytest.fixture
def control(tmp_path):
    harnesses = []

    def make(**overrides):
        harness = Harness(tmp_path / f"svc{len(harnesses)}", **overrides)
        harnesses.append(harness)
        return harness

    yield make
    for harness in harnesses:
        harness.close()


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    harness = Harness(
        tmp_path_factory.mktemp("svc-live"), run_scheduler=True
    )
    yield harness
    harness.close()


class TestControlPlane:
    def test_healthz_and_stats(self, control):
        harness = control()
        status, _, raw = harness.request("GET", "/healthz")
        assert status == 200
        assert json.loads(raw) == {"draining": False, "status": "ok"}
        status, _, raw = harness.request("GET", "/v1/stats")
        assert status == 200
        stats = json.loads(raw)
        assert stats["store"]["pending_total"] == 0
        assert stats["admission"]["draining"] is False
        assert stats["solve_cache"] is not None

    def test_submit_dedupe_and_status(self, control):
        harness = control()
        status, doc = harness.submit()
        assert status == 201
        assert doc["state"] == "QUEUED"
        assert doc["deduplicated"] is False
        assert doc["n_pairs"] == 1
        again_status, again = harness.submit()
        assert again_status == 200
        assert again["deduplicated"] is True
        assert again["id"] == doc["id"]
        status, _, raw = harness.request(
            "GET", f"/v1/experiments/{doc['id']}"
        )
        assert status == 200
        assert json.loads(raw)["id"] == doc["id"]

    def test_tenant_header_isolates_experiments(self, control):
        harness = control()
        _, alice = harness.submit(headers={"X-Tenant": "alice"})
        _, bob = harness.submit(headers={"X-Tenant": "bob"})
        assert alice["id"] != bob["id"]
        assert alice["tenant"] == "alice"
        status, _, raw = harness.request(
            "GET", "/v1/experiments?tenant=alice"
        )
        assert status == 200
        listed = json.loads(raw)["experiments"]
        assert [e["id"] for e in listed] == [alice["id"]]

    def test_report_before_done_is_409(self, control):
        harness = control()
        _, doc = harness.submit()
        status, _, raw = harness.request(
            "GET", f"/v1/experiments/{doc['id']}/report"
        )
        assert status == 409
        assert "QUEUED" in json.loads(raw)["error"]["reason"]

    def test_results_of_unstarted_experiment_is_empty(self, control):
        harness = control()
        _, doc = harness.submit()
        status, headers, raw = harness.request(
            "GET", f"/v1/experiments/{doc['id']}/results"
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        assert raw == b""

    def test_cancel_queued_then_rerun(self, control):
        harness = control()
        _, doc = harness.submit()
        status, _, raw = harness.request(
            "POST", f"/v1/experiments/{doc['id']}/cancel"
        )
        assert status == 202
        assert json.loads(raw)["state"] == "CANCELLED"
        # Cancelling a cancelled experiment is a lifecycle conflict.
        status, _, _ = harness.request(
            "POST", f"/v1/experiments/{doc['id']}/cancel"
        )
        assert status == 409
        status, _, raw = harness.request(
            "POST", f"/v1/experiments/{doc['id']}/rerun"
        )
        assert status == 202
        assert json.loads(raw)["state"] == "QUEUED"

    def test_rerun_of_nonterminal_is_409(self, control):
        harness = control()
        _, doc = harness.submit()
        for action in ("rerun", "resume"):
            status, _, raw = harness.request(
                "POST", f"/v1/experiments/{doc['id']}/{action}"
            )
            assert status == 409
            assert "terminal" in json.loads(raw)["error"]["reason"]

    def test_queue_full_is_429_with_retry_after(self, control):
        harness = control(max_queue_depth=1)
        status, _ = harness.submit()
        assert status == 201
        status, headers, raw = harness.request(
            "POST", "/v1/experiments", body=payload(time_limit=11.0)
        )
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert "queue full" in json.loads(raw)["error"]["reason"]
        # A dedupe retry of the *accepted* experiment still succeeds:
        # idempotent resubmission must not be load-shed into a 429.
        status, doc = harness.submit()
        assert status == 200 and doc["deduplicated"] is True

    def test_oversized_body_is_413_without_reading(self, control):
        harness = control(max_body_bytes=1024)
        huge = json.dumps(payload(note="x" * 4096)).encode()
        status, _, raw = harness.request(
            "POST", "/v1/experiments", raw=huge
        )
        assert status == 413
        assert json.loads(raw)["error"]["status"] == 413
        _, _, stats_raw = harness.request("GET", "/v1/stats")
        assert json.loads(stats_raw)["admission"]["rejected_size"] == 1

    def test_error_mapping(self, control):
        harness = control()
        status, _, _ = harness.request(
            "GET", "/v1/experiments/ffffffffffffffff"
        )
        assert status == 404
        status, _, _ = harness.request("GET", "/nope")
        assert status == 404
        status, _, _ = harness.request(
            "POST", "/v1/experiments", raw=b"{not json"
        )
        assert status == 400
        status, _, raw = harness.request(
            "POST", "/v1/experiments", body={"synthetic": {"count": 0}}
        )
        assert status == 400
        assert "count" in json.loads(raw)["error"]["reason"]
        status, _, _ = harness.request("PUT", "/v1/experiments")
        assert status == 405

    def test_draining_rejects_submissions_503(self, control):
        harness = control()
        harness.app.admission.start_drain()
        status, headers, raw = harness.request(
            "POST", "/v1/experiments", body=PAYLOAD
        )
        assert status == 503
        assert "Retry-After" in headers
        assert "drain" in json.loads(raw)["error"]["reason"]
        status, _, raw = harness.request("GET", "/healthz")
        assert status == 200  # liveness stays up during drain
        assert json.loads(raw)["draining"] is True


class TestEndToEnd:
    def test_submit_runs_to_done_with_report_and_results(self, live):
        status, doc = live.submit()
        assert status == 201
        exp_id = doc["id"]
        assert live.wait_terminal(exp_id) == "DONE"

        status, _, raw = live.request("GET", f"/v1/experiments/{exp_id}")
        summary = json.loads(raw)
        assert summary["completed_pairs"] == summary["n_pairs"] == 1

        status, headers, report = live.request(
            "GET", f"/v1/experiments/{exp_id}/report"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = report.decode("utf-8")
        assert "Δcost study (N7-9T)" in text
        assert "RULE1" in text
        assert text.endswith("\n")

        status, _, ndjson = live.request(
            "GET", f"/v1/experiments/{exp_id}/results"
        )
        assert status == 200
        records = [
            json.loads(line) for line in ndjson.decode().splitlines()
        ]
        assert len(records) == 1
        assert records[0]["rule"] == "RULE1"
        # The service keeps the audit on: every served result carries
        # an independent certificate check.
        assert records[0]["audited"] is True

    def test_cross_tenant_replay_counts_cache_hits(self, live):
        # A time limit no other test submits: its cache keys are fresh.
        body = payload(time_limit=11.0)

        def cache_counters():
            _, _, raw = live.request("GET", "/v1/stats")
            cache = json.loads(raw)["solve_cache"]
            return cache["hits"], cache["misses"]

        hits0, misses0 = cache_counters()
        _, doc = live.submit(body, headers={"X-Tenant": "a"})
        assert live.wait_terminal(doc["id"]) == "DONE"
        hits1, misses1 = cache_counters()
        assert (hits1, misses1) == (hits0, misses0 + 1)
        # Tenant b posts the identical payload: a new experiment whose
        # one pair is answered from tenant a's cache entry.
        status, doc = live.submit(body, headers={"X-Tenant": "b"})
        assert status == 201
        assert live.wait_terminal(doc["id"]) == "DONE"
        hits2, misses2 = cache_counters()
        assert (hits2, misses2) == (hits1 + 1, misses1)
        assert hits2 > 0

    def test_resume_of_done_experiment_is_byte_stable(self, live):
        _, doc = live.submit(payload(time_limit=12.0))
        exp_id = doc["id"]
        assert live.wait_terminal(exp_id) == "DONE"
        _, _, first = live.request(
            "GET", f"/v1/experiments/{exp_id}/report"
        )
        status, _, raw = live.request(
            "POST", f"/v1/experiments/{exp_id}/resume"
        )
        assert status == 202
        assert json.loads(raw)["state"] == "QUEUED"
        assert live.wait_terminal(exp_id) == "DONE"
        _, _, second = live.request(
            "GET", f"/v1/experiments/{exp_id}/report"
        )
        # The resume replays a complete pair journal: zero new solves,
        # and the re-rendered report is byte-identical.
        assert second == first
