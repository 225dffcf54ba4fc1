"""Job management: deduplicated, bounded, restart-safe study executions.

A *job* is one study execution keyed by the spec's
:func:`~repro.experiments.spec.study_fingerprint` — the hash of the
scientific content only — so two clients submitting the same study (however
they spelled its name or execution details) attach to a single execution and
share its results.  The :class:`JobManager` runs jobs on a bounded thread
pool; each job drives the ordinary :class:`repro.api.Study` pipeline with a
service-owned :class:`~repro.experiments.spec.ExecutionSpec`: its own
checkpoint store directory under the service's store root, ``resume=True``,
the shared memo cache, and optionally a process pool, a chunk policy and a
sharded validation store.

Restart safety rests on two pieces of the existing machinery plus one new
file:

* every completed work unit is an fsynced checkpoint line, and the stores
  resume by skipping completed units — so re-running a job is incremental
  and byte-identical, and a *finished* job re-run is instant;
* the :class:`JobJournalStore` (``<store-root>/jobs.jsonl``) appends one
  line per job state transition, carrying the full spec on submission; on
  startup :meth:`JobManager.recover` re-submits every journaled spec, which
  resumes interrupted studies and reloads finished ones.

Graceful shutdown piggybacks on the drivers' ordering guarantee: the
checkpoint append happens *before* the progress callback, so raising a
shutdown exception from the callback aborts a job only after its in-flight
unit is durable — a restarted server loses no completed work.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Mapping

from ..core.exceptions import ConfigurationError
from ..experiments.spec import ExecutionSpec, StudySpec, study_fingerprint
from ..io import append_jsonl, read_jsonl
from .errors import NotFound

__all__ = ["JOB_STATES", "Job", "JobJournalStore", "JobManager"]

JOB_STATES = ("queued", "running", "done", "failed")

_JOURNAL_VERSION = 1


class _ShutdownRequested(Exception):
    """Raised inside a job's progress callback when the service is draining."""


class Job:
    """One deduplicated study execution and its observable state.

    ``id`` is a prefix of the study fingerprint, so it is deterministic:
    resubmitting a spec — to the same server or a restarted one — always
    names the same job.  ``state`` walks ``queued -> running -> done`` (or
    ``failed``); ``units_completed`` counts checkpoint lines on demand, so
    progress reflects what is durably on disk, not what is merely in flight.
    """

    def __init__(self, job_id: str, spec: StudySpec, fingerprint: str, store_dir: Path) -> None:
        self.id = job_id
        self.spec = spec
        self.fingerprint = fingerprint
        self.store_dir = Path(store_dir)
        self.state = "queued"
        self.error: "str | None" = None
        self.result = None  # StudyResult once done
        self.finished = threading.Event()

    def wait(self, timeout: "float | None" = None) -> bool:
        """Block until the job reaches ``done``/``failed`` (True if it did)."""
        return self.finished.wait(timeout)

    def units_completed(self) -> int:
        """Completed work units, counted from the job's checkpoint lines.

        Scans every JSONL checkpoint under the job's store directory
        (single stores and ``shard-*.jsonl`` alike) for ``"kind": "unit"``
        lines — the durable progress a restarted server would resume from.
        """
        count = 0
        for path in sorted(self.store_dir.rglob("*.jsonl")):
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                continue
            count += sum(1 for line in text.splitlines() if '"kind":"unit"' in line)
        return count

    def describe(self) -> dict:
        """The job's status payload (``GET /v1/studies/{id}``)."""
        data: dict = {
            "id": self.id,
            "name": self.spec.name,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "units_completed": self.units_completed(),
        }
        if self.error is not None:
            data["error"] = self.error
        if self.result is not None:
            stats: dict[str, int] = {"hits": 0, "misses": 0}
            for stage in (self.result.sweep, self.result.campaign):
                stage_stats = getattr(stage, "memo_stats", None)
                if stage_stats is not None:
                    stats["hits"] += stage_stats.hits
                    stats["misses"] += stage_stats.misses
            data["memo_stats"] = stats
        return data


class JobJournalStore:
    """Append-only JSONL journal of job submissions and state transitions.

    The service's recovery log, in the repository's usual store shape: a
    ``{"kind": "header", "store": "service-jobs", ...}`` line followed by one
    fsynced ``{"kind": "job", "id": ..., "state": ..., ...}`` line per
    transition (the ``submitted`` line carries the full spec dict).  On load
    the last state per job wins, and a torn final line — a server killed
    mid-append — is dropped, exactly like the checkpoint stores.  Entries
    carry no wall-clock: the journal must replay identically whenever it is
    read.
    """

    store_marker = "service-jobs"

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)

    def record(
        self,
        job_id: str,
        state: str,
        *,
        fingerprint: str,
        spec: "Mapping | None" = None,
    ) -> None:
        """Append one state transition (durable: flushed and fsynced)."""
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            append_jsonl(
                self.path,
                {"kind": "header", "store": self.store_marker, "version": _JOURNAL_VERSION},
            )
        entry: dict = {"kind": "job", "id": job_id, "state": state, "fingerprint": fingerprint}
        if spec is not None:
            entry["spec"] = dict(spec)
        append_jsonl(self.path, entry)

    def load(self) -> list[dict]:
        """Journaled jobs in submission order, each reduced to its last state."""
        if not self.path.exists():
            return []
        rows = read_jsonl(self.path, ignore_truncated=True)
        if not rows:
            return []
        header = rows[0]
        if (
            not isinstance(header, Mapping)
            or header.get("kind") != "header"
            or header.get("store") != self.store_marker
        ):
            raise ConfigurationError(
                f"{self.path} is not a service job journal (bad or missing header); "
                f"pick another store root or delete the file"
            )
        jobs: dict[str, dict] = {}
        for number, row in enumerate(rows[1:], start=2):
            if not isinstance(row, Mapping) or row.get("kind") != "job":
                raise ConfigurationError(
                    f"{self.path} line {number} is not a job entry; "
                    f"refusing to recover from a corrupt journal"
                )
            entry = jobs.setdefault(
                str(row["id"]),
                {"id": str(row["id"]), "fingerprint": str(row["fingerprint"]), "spec": None},
            )
            entry["state"] = str(row["state"])
            if "spec" in row:
                entry["spec"] = row["spec"]
        return list(jobs.values())


class JobManager:
    """Deduplicated study execution on a bounded worker pool.

    ``jobs`` bounds how many studies execute concurrently (each may itself
    fan out over ``workers`` processes).  ``submit`` is the dedup point:
    under one lock, an already-known fingerprint attaches to the existing
    job — unless it failed, which starts a new attempt — and a new one is
    journaled and queued.  All jobs share one memo cache (safe:
    :class:`ResultMemoStore` appends under an advisory file lock), so a study
    submitted twice — even across restarts or store roots — is answered from
    cache without recompute.
    """

    def __init__(
        self,
        store_root: "str | Path",
        *,
        jobs: int = 2,
        workers: "int | None" = None,
        chunk_policy: "str | None" = None,
        validation_shards: "int | None" = None,
        memo_path: "str | Path | None" = None,
        metrics=None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.store_root = Path(store_root)
        self.store_root.mkdir(parents=True, exist_ok=True)
        self.workers = workers
        self.chunk_policy = chunk_policy
        self.validation_shards = validation_shards
        self.memo_path = (
            Path(memo_path) if memo_path is not None else self.store_root / "result-memo.jsonl"
        )
        self.metrics = metrics
        self.journal = JobJournalStore(self.store_root / "jobs.jsonl")
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._pool = ThreadPoolExecutor(max_workers=jobs, thread_name_prefix="repro-job")

    # -- submission ------------------------------------------------------ #
    def submit(self, spec: StudySpec, *, journal: bool = True) -> "tuple[Job, bool]":
        """Queue a study (or attach to its existing job); -> (job, created).

        Deduplication is by study fingerprint: concurrent identical
        submissions race for one lock and all but the first attach to the
        winner's job, so the study executes exactly once.  A resubmitted
        study whose job has *failed* starts a new, journaled attempt under
        the same job id (back to ``queued``, error cleared) instead.
        """
        fingerprint = study_fingerprint(spec)
        job_id = fingerprint[:16]
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                job = Job(job_id, spec, fingerprint, self.store_root / "studies" / job_id)
                self._jobs[job_id] = job
                self._order.append(job_id)
            elif job.state == "failed" and job.finished.is_set():
                # finished is set last, after the failure is journaled, so
                # the retry's "submitted" line always follows the "failed" one
                job.state, job.error = "queued", None
                job.finished.clear()
            else:
                if self.metrics is not None:
                    self.metrics.increment("jobs_attached")
                return job, False
        if journal:
            self.journal.record(job_id, "submitted", fingerprint=fingerprint, spec=spec.as_dict())
        if self.metrics is not None:
            self.metrics.increment("jobs_submitted")
        self._pool.submit(self._execute, job)
        return job, True

    def recover(self) -> int:
        """Re-submit every journaled study; -> how many were recovered.

        Interrupted studies resume from their checkpoints; finished ones
        re-run instantly (every unit is already checkpointed) so their
        results are servable again.  Previously *failed* jobs are retried —
        a restart is the operator's retry button.
        """
        entries = self.journal.load()
        recovered = 0
        for entry in entries:
            if entry.get("spec") is None:
                raise ConfigurationError(
                    f"{self.journal.path} holds job {entry['id']} without its spec; "
                    f"refusing to recover from a corrupt journal"
                )
            self.submit(StudySpec.from_dict(entry["spec"]), journal=False)
            recovered += 1
        return recovered

    # -- queries --------------------------------------------------------- #
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise NotFound(f"no study job {job_id!r}")
        return job

    def list_jobs(self) -> list[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def state_counts(self) -> dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self.list_jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    # -- execution ------------------------------------------------------- #
    def _executable_spec(self, job: Job) -> StudySpec:
        """The job's spec rebound to service-owned execution.

        The submitted spec's execution block is *policy the server owns* —
        placement, parallelism, caching — so it is replaced wholesale (the
        dedup fingerprint never covered it anyway).  Only
        ``capture_allocations`` carries over: it changes record content, so
        it follows the submission.
        """
        execution = ExecutionSpec(
            workers=self.workers,
            chunk_policy=self.chunk_policy,
            store_dir=str(job.store_dir),
            validation_shards=self.validation_shards,
            resume=True,
            capture_allocations=job.spec.capture_allocations,
            memo=True,
            memo_path=str(self.memo_path),
        )
        return replace(job.spec, execution=execution)

    def _progress(self, job: Job):
        def callback(_message: str) -> None:
            # the drivers append the checkpoint line *before* calling this,
            # so aborting here never loses a completed unit
            if self._stopping.is_set():
                raise _ShutdownRequested
        return callback

    def _execute(self, job: Job) -> None:
        from ..api import Study

        if self._stopping.is_set():
            return  # stays queued; the journal re-submits it on restart
        with self._lock:
            job.state = "running"
        try:
            result = Study.from_spec(self._executable_spec(job)).run(
                progress=self._progress(job)
            )
        except _ShutdownRequested:
            with self._lock:
                job.state = "queued"  # checkpointed up to the aborted unit
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # one job's failure must not take the service down
            with self._lock:
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
            self.journal.record(job.id, "failed", fingerprint=job.fingerprint)
            if self.metrics is not None:
                self.metrics.increment("jobs_failed")
            job.finished.set()
        else:
            with self._lock:
                job.result = result
                job.state = "done"
            self.journal.record(job.id, "done", fingerprint=job.fingerprint)
            if self.metrics is not None:
                self.metrics.increment("jobs_done")
                for stage in (result.sweep, result.campaign):
                    stats = getattr(stage, "memo_stats", None)
                    if stats is not None:
                        self.metrics.increment("memo_hits", stats.hits)
                        self.metrics.increment("memo_misses", stats.misses)
            job.finished.set()

    # -- lifecycle ------------------------------------------------------- #
    def shutdown(self) -> None:
        """Drain gracefully: abort running jobs at their next unit boundary.

        Sets the stop flag (running jobs raise out of their progress
        callback *after* the current unit's checkpoint line is fsynced),
        cancels jobs still queued, and waits for the pool to empty.  The
        journal still lists the interrupted jobs as ``submitted``, so
        :meth:`recover` picks them up on the next start.
        """
        self._stopping.set()
        self._pool.shutdown(wait=True, cancel_futures=True)
