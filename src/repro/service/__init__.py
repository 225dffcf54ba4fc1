"""``repro-cloud serve``: the study-execution HTTP service.

The offline pipeline — ``StudySpec`` in, records out — becomes a long-running
service: a stdlib-only threaded HTTP server accepts study specs
(``POST /v1/studies``), deduplicates them by
:func:`~repro.experiments.spec.study_fingerprint` (concurrent identical
submissions attach to one execution), runs them through the existing
backends/stores via a bounded :class:`~repro.service.jobs.JobManager`, and
serves status, records and series back over ``GET``.  Checkpoints, not
processes, are the source of truth: every job checkpoints into its own store
directory under the service's ``--store-root``, so a killed server resumes
every in-flight study on restart, and warm repeats are answered from the
shared :class:`~repro.experiments.memo.ResultMemoStore` without recompute.

Determinism discipline: the service layer may measure wall-clock (request
latencies, uptime — via :mod:`repro.utils.timing` only) but nothing
wall-clock-derived ever reaches a record or a checkpoint store; the records
a study run over HTTP produces are byte-identical to the same spec run by
``repro-cloud run`` (asserted by ``benchmarks/bench_service.py`` in CI).
"""

from .errors import (
    BadRequest,
    Conflict,
    MethodNotAllowed,
    NotFound,
    PayloadTooLarge,
    ServiceError,
)
from .jobs import Job, JobJournalStore, JobManager
from .metrics import ServiceMetrics
from .routes import Router
from .server import StudyService, serve

__all__ = [
    "BadRequest",
    "Conflict",
    "Job",
    "JobJournalStore",
    "JobManager",
    "MethodNotAllowed",
    "NotFound",
    "PayloadTooLarge",
    "Router",
    "ServiceError",
    "ServiceMetrics",
    "StudyService",
    "serve",
]
