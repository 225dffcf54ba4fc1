"""Tests for the study-execution service (repro.service).

The service contracts under test: submissions deduplicate by study
fingerprint (concurrent identical submits attach to one execution), results
served over HTTP are byte-identical to a local run of the same spec, a
graceful shutdown loses no checkpointed work and a restarted manager resumes
to the identical final result, and every error path answers structured JSON
with the right status code.
"""

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import Study
from repro.core import ConfigurationError
from repro.experiments.spec import StudySpec, study_fingerprint
from repro.service import (
    JobJournalStore,
    JobManager,
    Router,
    ServiceMetrics,
    StudyService,
)


def tiny_spec_dict(name="svc-small"):
    """A study small enough to execute inside a test, as a client would POST it."""
    return {
        "name": name,
        "workload": {
            "setting": "small",
            "num_configurations": 1,
            "target_throughputs": [60],
            "base_seed": 2016,
        },
        "algorithms": [{"name": "ILP"}, {"name": "H1"}],
        "validation": {"horizons": [8], "rate_multipliers": [1.0]},
    }


def canonical_lines(record_dicts) -> list[str]:
    return [
        json.dumps(data, sort_keys=True, separators=(",", ":")) for data in record_dicts
    ]


def sweep_identity_lines(record_dicts) -> list[str]:
    """Sweep records minus the ``time`` field (solve wall-clock varies)."""
    return canonical_lines(
        [{k: v for k, v in data.items() if k != "time"} for data in record_dicts]
    )


@pytest.fixture(scope="module")
def reference():
    """The local, storeless run of the tiny study — the identity baseline."""
    return Study.from_spec(StudySpec.from_dict(tiny_spec_dict())).run()


@pytest.fixture()
def service(tmp_path):
    metrics = ServiceMetrics()
    manager = JobManager(tmp_path / "state", jobs=2, metrics=metrics)
    server = StudyService(
        ("127.0.0.1", 0), manager=manager, metrics=metrics, request_timeout=10.0
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        manager.shutdown()


def request(server, method, path, body=None):
    url = f"http://127.0.0.1:{server.port}{path}"
    req = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def raw_post(server, headers):
    """POST /v1/studies with verbatim headers and no body (http.client)."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        connection.putrequest("POST", "/v1/studies", skip_accept_encoding=True)
        for name, value in headers.items():
            connection.putheader(name, value)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def submit(server, spec_dict):
    return request(
        server, "POST", "/v1/studies", json.dumps(spec_dict).encode("utf-8")
    )


class TestEndpoints:
    def test_healthz(self, service):
        status, payload = request(service, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["jobs"] == {"queued": 0, "running": 0, "done": 0, "failed": 0}

    def test_submit_execute_and_serve_results(self, service, reference):
        status, payload = submit(service, tiny_spec_dict())
        assert status == 202 and payload["created"] is True
        job_id = payload["id"]
        assert job_id == study_fingerprint(StudySpec.from_dict(tiny_spec_dict()))[:16]
        assert service.manager.get(job_id).wait(timeout=120)

        status, payload = request(service, "GET", f"/v1/studies/{job_id}")
        assert status == 200 and payload["state"] == "done"
        assert payload["units_completed"] > 0

        status, results = request(service, "GET", f"/v1/studies/{job_id}/results")
        assert status == 200
        # the HTTP-served campaign is byte-identical to the local run; the
        # sweep matches on identity (solve wall-clock is not comparable)
        assert canonical_lines(results["campaign"]) == canonical_lines(
            [r.as_dict() for r in reference.campaign.records]
        )
        assert sweep_identity_lines(results["sweep"]) == sweep_identity_lines(
            [r.as_dict() for r in reference.sweep.records]
        )

        status, series = request(service, "GET", f"/v1/studies/{job_id}/series")
        assert status == 200
        assert series["throughputs"] == [60.0]
        assert set(series["series"]) == {"ILP", "H1"}
        for values in series["series"].values():
            assert all(value is None or isinstance(value, float) for value in values)

        status, listing = request(service, "GET", "/v1/studies")
        assert status == 200 and [job["id"] for job in listing["studies"]] == [job_id]

    def test_concurrent_duplicate_submissions_execute_once(self, service):
        body = json.dumps(tiny_spec_dict("svc-dedup")).encode("utf-8")
        results = []

        def post():
            results.append(request(service, "POST", "/v1/studies", body))

        threads = [threading.Thread(target=post) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(status for status, _ in results) in ([200, 200, 200, 202],)
        assert len({payload["id"] for _, payload in results}) == 1
        assert sum(payload["created"] for _, payload in results) == 1
        assert service.metrics.counter("jobs_submitted") == 1
        assert service.metrics.counter("jobs_attached") == 3
        job_id = results[0][1]["id"]
        assert service.manager.get(job_id).wait(timeout=120)
        assert service.metrics.counter("jobs_done") == 1

    def test_metrics_endpoint_reports_requests_and_jobs(self, service):
        request(service, "GET", "/healthz")
        status, payload = request(service, "GET", "/metrics")
        assert status == 200
        assert payload["uptime_seconds"] >= 0.0
        assert payload["requests"]["/healthz"]["count"] == 1
        assert payload["jobs"] == {"queued": 0, "running": 0, "done": 0, "failed": 0}

    def test_error_paths_answer_structured_json(self, service):
        assert request(service, "GET", "/v1/studies/feedfacedeadbeef")[0] == 404
        assert request(service, "GET", "/nope")[0] == 404
        assert request(service, "POST", "/healthz", b"{}")[0] == 405
        status, payload = request(service, "POST", "/v1/studies", b"")
        assert (status, payload["error"]) == (400, "bad-request")
        assert request(service, "POST", "/v1/studies", b"not json")[0] == 400
        assert request(service, "POST", "/v1/studies", b'["a", "list"]')[0] == 400
        status, payload = request(
            service, "POST", "/v1/studies", b'{"name": "x", "bogus_field": 1}'
        )
        assert status == 400 and "invalid study spec" in payload["message"]

    @pytest.mark.parametrize("length", ["abc", "-5", "1e3", " "])
    def test_malformed_content_length_is_a_bad_request(self, service, length):
        status, payload = raw_post(service, {"Content-Length": length})
        assert (status, payload["error"]) == (400, "bad-request")
        assert "Content-Length" in payload["message"]
        # the server is still healthy after closing that connection
        assert request(service, "GET", "/healthz")[0] == 200

    def test_oversized_body_is_refused_unread(self, service):
        from repro.service.server import MAX_BODY_BYTES

        status, payload = raw_post(service, {"Content-Length": str(MAX_BODY_BYTES + 1)})
        assert (status, payload["error"]) == (413, "payload-too-large")
        assert request(service, "GET", "/healthz")[0] == 200

    def test_trailing_slash_and_query_string_are_tolerated(self, service):
        assert request(service, "GET", "/healthz/")[0] == 200
        assert request(service, "GET", "/healthz?verbose=1")[0] == 200

    def test_results_before_done_is_a_conflict(self, tmp_path):
        # router-level: a job that has not finished cannot serve results
        metrics = ServiceMetrics()
        manager = JobManager(tmp_path / "state", jobs=1, metrics=metrics)
        try:
            manager._stopping.set()  # keep the pool from running the job
            job, created = manager.submit(StudySpec.from_dict(tiny_spec_dict()))
            assert created
            router = Router(manager, metrics)
            from repro.service.errors import Conflict

            with pytest.raises(Conflict, match="queued"):
                router.dispatch("GET", f"/v1/studies/{job.id}/results")
        finally:
            manager.shutdown()

    def test_failed_job_reports_conflict_with_error(self, tmp_path, monkeypatch):
        import repro.api

        metrics = ServiceMetrics()
        manager = JobManager(tmp_path / "state", jobs=1, metrics=metrics)
        try:
            # a spec that parses but whose execution blows up mid-pipeline
            def explode(spec):
                raise RuntimeError("solver exploded")

            monkeypatch.setattr(repro.api.Study, "from_spec", staticmethod(explode))
            job, _ = manager.submit(StudySpec.from_dict(tiny_spec_dict("svc-fail")))
            assert job.wait(timeout=120)
            assert job.state == "failed" and job.error
            router = Router(manager, metrics)
            from repro.service.errors import Conflict

            with pytest.raises(Conflict, match="failed"):
                router.dispatch("GET", f"/v1/studies/{job.id}/results")
            assert metrics.counter("jobs_failed") == 1
        finally:
            manager.shutdown()


    def test_resubmitting_a_failed_study_starts_a_new_attempt(self, tmp_path, monkeypatch):
        import repro.api

        metrics = ServiceMetrics()
        root = tmp_path / "state"
        manager = JobManager(root, jobs=1, metrics=metrics)
        try:
            real_from_spec = repro.api.Study.from_spec

            def explode(spec):
                raise RuntimeError("transient failure")

            monkeypatch.setattr(repro.api.Study, "from_spec", staticmethod(explode))
            spec = StudySpec.from_dict(tiny_spec_dict("svc-retry"))
            job, created = manager.submit(spec)
            assert created and job.wait(timeout=120) and job.state == "failed"

            monkeypatch.setattr(repro.api.Study, "from_spec", real_from_spec)
            retry, created = manager.submit(spec)
            assert created and retry is job
            assert retry.wait(timeout=120) and retry.state == "done"
            assert retry.error is None
            assert metrics.counter("jobs_submitted") == 2
            assert metrics.counter("jobs_attached") == 0
            # last-state-wins replay sees the successful retry
            entries = JobJournalStore(root / "jobs.jsonl").load()
            assert [(e["id"], e["state"]) for e in entries] == [(job.id, "done")]
        finally:
            manager.shutdown()


class TestRestartAndRecovery:
    def test_journal_records_and_recovers_finished_jobs(self, tmp_path, reference):
        root = tmp_path / "state"
        first = JobManager(root, jobs=1)
        job, _ = first.submit(StudySpec.from_dict(tiny_spec_dict()))
        assert job.wait(timeout=120) and job.state == "done"
        first.shutdown()

        second = JobManager(root, jobs=1)
        try:
            assert second.recover() == 1
            recovered = second.get(job.id)
            assert recovered.wait(timeout=120) and recovered.state == "done"
            assert canonical_lines(
                [r.as_dict() for r in recovered.result.campaign.records]
            ) == canonical_lines([r.as_dict() for r in reference.campaign.records])
        finally:
            second.shutdown()

    def test_shutdown_mid_run_then_restart_resumes_identically(self, tmp_path, reference):
        root = tmp_path / "state"
        first = JobManager(root, jobs=1)
        job, _ = first.submit(StudySpec.from_dict(tiny_spec_dict()))
        # drain immediately: the job aborts at its next checkpointed unit
        # boundary (or was never started); either way nothing durable is lost
        first.shutdown()
        assert job.state in ("queued", "done")

        second = JobManager(root, jobs=1)
        try:
            assert second.recover() == 1
            resumed = second.get(job.id)
            assert resumed.wait(timeout=120) and resumed.state == "done"
            assert canonical_lines(
                [r.as_dict() for r in resumed.result.campaign.records]
            ) == canonical_lines([r.as_dict() for r in reference.campaign.records])
        finally:
            second.shutdown()

    def test_recovery_refuses_journal_entry_without_spec(self, tmp_path):
        root = tmp_path / "state"
        root.mkdir()
        journal = JobJournalStore(root / "jobs.jsonl")
        journal.record("cafecafecafecafe", "submitted", fingerprint="cafe" * 16)
        manager = JobManager(root, jobs=1)
        try:
            with pytest.raises(ConfigurationError, match="without its spec"):
                manager.recover()
        finally:
            manager.shutdown()

    def test_foreign_journal_file_refused(self, tmp_path):
        root = tmp_path / "state"
        root.mkdir()
        (root / "jobs.jsonl").write_text('{"kind": "header", "store": "memo"}\n')
        manager = JobManager(root, jobs=1)
        try:
            with pytest.raises(ConfigurationError, match="not a service job journal"):
                manager.recover()
        finally:
            manager.shutdown()

    def test_journal_last_state_wins(self, tmp_path):
        journal = JobJournalStore(tmp_path / "jobs.jsonl")
        journal.record("a" * 16, "submitted", fingerprint="a" * 64, spec={"name": "x"})
        journal.record("a" * 16, "done", fingerprint="a" * 64)
        entries = journal.load()
        assert len(entries) == 1
        assert entries[0]["state"] == "done"
        assert entries[0]["spec"] == {"name": "x"}


class TestManagerConfig:
    def test_invalid_job_count_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="jobs"):
            JobManager(tmp_path / "state", jobs=0)

    def test_dedup_ignores_execution_and_name_details(self, tmp_path):
        manager = JobManager(tmp_path / "state", jobs=1)
        try:
            manager._stopping.set()  # dedup only; nothing needs to run
            first = tiny_spec_dict("one-name")
            second = tiny_spec_dict("another-name")
            second["execution"] = {"workers": 4}
            job_a, created_a = manager.submit(StudySpec.from_dict(first))
            job_b, created_b = manager.submit(StudySpec.from_dict(second))
            assert created_a and not created_b
            assert job_a is job_b
        finally:
            manager.shutdown()
