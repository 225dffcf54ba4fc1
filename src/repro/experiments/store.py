"""Persistence for sweeps: append-only JSONL checkpointing and result files.

File format (one JSON object per line):

* line 1 — a header ``{"kind": "header", "version": 1, "fingerprint": ...,
  "plan": {...}}`` where ``fingerprint`` is the SHA-256 of the canonical plan
  serialisation.  Resuming against a file whose fingerprint does not match
  the current plan is refused — a checkpoint is only valid for the exact
  sweep that produced it.
* subsequent lines — either ``{"kind": "unit", "unit": {...},
  "records": [...]}`` (one completed work unit, written by the checkpointing
  runner) or ``{"kind": "record", ...}`` (one record, written by
  :func:`save_sweep_result`).

Each appended line is flushed and fsynced, so a sweep killed mid-run loses at
most the line being written; :func:`repro.io.read_jsonl` drops a truncated
final line when loading a checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Mapping

from ..core.exceptions import ConfigurationError
from ..io import append_jsonl, read_jsonl
from .backends import WorkUnit
from .config import ExperimentPlan, plan_from_dict, plan_to_dict
from .runner import RunRecord, SweepResult

__all__ = [
    "plan_fingerprint",
    "JsonlCheckpointStore",
    "ShardedStore",
    "SweepStore",
    "save_sweep_result",
    "load_sweep_result",
    "shard_paths",
]

_STORE_VERSION = 1


def plan_fingerprint(plan: ExperimentPlan) -> str:
    """SHA-256 of the canonical plan serialisation (hex digest)."""
    canonical = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class JsonlCheckpointStore:
    """Shared machinery of the append-only JSONL checkpoint stores.

    One fingerprinted header line followed by one fsynced line per completed
    work unit.  Sub-classes (:class:`SweepStore` here, ``ValidationStore`` in
    :mod:`repro.experiments.validation`) say what a plan, a unit and a record
    are through the ``_fingerprint`` / ``_plan_to_dict`` / ``_plan_from_dict``
    / ``_unit_from_dict`` / ``_record_from_dict`` hooks; the base class owns
    everything they share — the initialize/resume flow, checkpoint parsing,
    sharding verification, refusal to overwrite populated or foreign files,
    and pruning of a torn tail line before a resumed run appends past it.

    ``data_description`` labels the file kind in error messages;
    ``store_marker`` is written to (and required of) the header's ``"store"``
    field — the original sweep format predates the field and leaves it unset.
    """

    data_description = "sweep"
    store_marker: str | None = None
    run_noun = "sweep"        # "start a fresh <run_noun>" in resume errors
    sharding_option = "chunk_size"  # the option that shapes this store's units
    plan_noun = "plan"        # "written by a different <plan_noun>"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    # -- subclass hooks -------------------------------------------------- #
    @staticmethod
    def _fingerprint(plan) -> str:
        raise NotImplementedError

    @staticmethod
    def _plan_to_dict(plan) -> dict:
        raise NotImplementedError

    @staticmethod
    def _plan_from_dict(data):
        raise NotImplementedError

    @staticmethod
    def _unit_from_dict(data):
        raise NotImplementedError

    @staticmethod
    def _record_from_dict(data):
        raise NotImplementedError

    def _refuse_row(self, row: Mapping, number: int) -> None:
        """Hook: reject store-specific row kinds that make a file unresumable."""

    # ------------------------------------------------------------------ #
    def initialize(self, plan, *, resume: bool = False, units: list | None = None) -> dict:
        """Prepare the file for a run of ``plan``; return completed units.

        Without ``resume`` the file is created with a fresh header and ``{}``
        is returned; a file that already holds data is refused (it must be
        resumed or deleted explicitly, never silently overwritten).  With
        ``resume`` the file must exist (a missing path is an error, not a
        fresh start — it is usually a typo), its fingerprint must match
        ``plan`` and, when the current work-unit list ``units`` is given,
        each checkpointed unit must match its counterpart (same sharding —
        a different :attr:`sharding_option` changes what a unit index means);
        completed units are returned keyed by unit index so the driver can
        skip them.
        """
        if resume:
            if not self.path.exists():
                raise ConfigurationError(
                    f"{self.path} does not exist; nothing to resume "
                    f"(check the path, or drop resume to start a fresh {self.run_noun})"
                )
            _, completed, stored_units = self._load_checkpoint(plan)
            if units is not None:
                self._check_sharding(stored_units, units)
            self._repair_truncated_tail()
            return completed
        self._begin_fresh_file(self._header(plan))
        return {}

    def peek_units(self) -> dict[int, dict]:
        """The stored unit dicts, keyed by index (``{}`` when no file exists).

        A read-only look at how an existing checkpoint was sharded, used by
        the adaptive-chunking driver to reproduce the original sharding on
        resume instead of re-probing (a fresh probe could pick a different
        span, which :meth:`initialize` would then rightly refuse).  No
        fingerprint check happens here — :meth:`initialize` still performs
        the full validation before anything is appended.
        """
        if not self.path.exists():
            return {}
        _, _, stored_units = self._load_checkpoint(None)
        return stored_units

    def append(self, unit, records: list) -> None:
        """Checkpoint one completed work unit (durable append)."""
        append_jsonl(
            self.path,
            {
                "kind": "unit",
                "unit": unit.as_dict(),
                "records": [record.as_dict() for record in records],
            },
        )

    # ------------------------------------------------------------------ #
    def _header(self, plan) -> dict:
        header: dict = {"kind": "header", "version": _STORE_VERSION}
        if self.store_marker is not None:
            header["store"] = self.store_marker
        header["fingerprint"] = self._fingerprint(plan)
        header["plan"] = self._plan_to_dict(plan)
        return header

    def _check_sharding(self, stored_units: dict[int, dict], units: list) -> None:
        for index, stored in stored_units.items():
            current = units[index].as_dict() if 0 <= index < len(units) else None
            if current != stored:
                raise ConfigurationError(
                    f"{self.path} was checkpointed with a different work-unit sharding "
                    f"(unit {index}: stored {stored}, current {current}); resume with "
                    f"the same {self.sharding_option} the original run used, or start a "
                    f"fresh store (a finished checkpoint still loads as it is)"
                )

    def _load_checkpoint(self, plan) -> tuple:
        """Parse the checkpoint: (stored plan, records per unit, unit dicts)."""
        rows = read_jsonl(self.path, ignore_truncated=True)
        if not rows:
            raise ConfigurationError(
                f"{self.path} is empty, not a {self.data_description} checkpoint"
            )
        header = self._check_header_row(rows[0])
        stored_plan = self._plan_from_dict(header["plan"])
        if plan is not None and header["fingerprint"] != self._fingerprint(plan):
            raise ConfigurationError(
                f"{self.path} was written by a different {self.plan_noun} "
                f"(fingerprint {header['fingerprint'][:12]}... != "
                f"{self._fingerprint(plan)[:12]}...); refusing to resume"
            )
        completed: dict[int, list] = {}
        stored_units: dict[int, dict] = {}
        for number, row in enumerate(rows[1:], start=2):
            if not isinstance(row, Mapping):
                raise ConfigurationError(
                    f"{self.path} line {number} is not a JSON object, "
                    f"not a {self.data_description} checkpoint"
                )
            self._refuse_row(row, number)
            if row.get("kind") != "unit":
                continue
            unit = self._unit_from_dict(row["unit"])
            completed[unit.index] = [self._record_from_dict(entry) for entry in row["records"]]
            stored_units[unit.index] = unit.as_dict()
        return stored_plan, completed, stored_units

    # ------------------------------------------------------------------ #
    def _check_header_row(self, row: Mapping) -> Mapping:
        if not isinstance(row, Mapping) or row.get("kind") != "header":
            raise ConfigurationError(
                f"{self.path} does not start with a {self.data_description} header line"
            )
        if row.get("version") != _STORE_VERSION:
            raise ConfigurationError(
                f"{self.path} has store version {row.get('version')!r}, expected {_STORE_VERSION}"
            )
        if row.get("store") != self.store_marker:
            raise ConfigurationError(
                f"{self.path} is a {row.get('store') or 'sweep'} checkpoint, not a "
                f"{self.data_description} checkpoint; refusing to touch it"
            )
        return row

    def _begin_fresh_file(self, header: Mapping) -> None:
        """Refuse unsafe overwrites, then (re)create the file with ``header``."""
        if self.path.exists():
            refusal = self._overwrite_refusal()
            if refusal is not None:
                raise ConfigurationError(refusal)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("")
        append_jsonl(self.path, header)

    def _overwrite_refusal(self) -> str | None:
        """Why the existing file must not be overwritten (``None`` if it may).

        Only an empty file or a bare header (an aborted run that never
        completed a unit) may be recreated.  Everything else is refused,
        conservatively: a populated checkpoint or result file, an unreadable
        file (a corrupt interior line in an otherwise recoverable
        checkpoint), and any file that is not a checkpoint at all (a mistyped
        ``--out`` pointing at unrelated data).
        """
        try:
            rows = read_jsonl(self.path, ignore_truncated=True)
        except ConfigurationError:
            return (
                f"{self.path} exists but cannot be parsed; refusing to overwrite it "
                f"(delete the file to start over)"
            )
        if not rows:
            if self.path.stat().st_size > 0:
                # non-empty but nothing parsed: a lone malformed line is
                # forgiven by read_jsonl, yet the file is not ours to wipe
                return (
                    f"{self.path} exists and is not a {self.data_description} checkpoint; "
                    f"refusing to overwrite it (pick another path or delete the file)"
                )
            return None
        first = rows[0]
        if not (isinstance(first, dict) and first.get("kind") == "header"):
            return (
                f"{self.path} exists and is not a {self.data_description} checkpoint; "
                f"refusing to overwrite it (pick another path or delete the file)"
            )
        if first.get("store") != self.store_marker:
            # even a header-only file of the *other* checkpoint kind is not
            # ours to wipe — the cross-store discipline holds for overwrites
            # exactly as it does for resumes
            return (
                f"{self.path} is a {first.get('store') or 'sweep'} checkpoint, not a "
                f"{self.data_description} checkpoint; refusing to overwrite it "
                f"(pick another path or delete the file)"
            )
        if any(isinstance(row, dict) and row.get("kind") in ("unit", "record") for row in rows[1:]):
            return (
                f"{self.path} already holds {self.data_description} data; resume the "
                f"checkpoint with resume=True (--resume on the command line), or delete "
                f"the file to start over"
            )
        return None

    def _repair_truncated_tail(self) -> None:
        """Prune trailing garbage left behind by a kill mid-append.

        ``read_jsonl`` forgives a malformed *final* line, but once the
        resumed run appends new units that line becomes an interior one and
        the file is permanently unreadable — so before anything is appended
        the tail is truncated back to the last line that parses as JSON
        (restoring a missing final newline on the way).
        """
        data = self.path.read_bytes()
        if not data:
            return
        end = len(data)
        needs_newline = False
        while end > 0:
            content_end = end - 1 if data[end - 1] == 0x0A else end
            boundary = data.rfind(b"\n", 0, content_end)
            segment = data[boundary + 1 : content_end]
            if segment.strip():
                try:
                    json.loads(segment.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    pass
                else:
                    needs_newline = content_end == end  # valid line missing its \n
                    break
            end = boundary + 1  # drop the blank/garbage segment, look further back
        if end == len(data) and not needs_newline:
            return
        with self.path.open("r+b") as handle:
            handle.truncate(end)
            if needs_newline:
                handle.seek(0, 2)
                handle.write(b"\n")


class SweepStore(JsonlCheckpointStore):
    """Append-only JSONL checkpoint store for one sweep file."""

    _fingerprint = staticmethod(plan_fingerprint)
    _plan_to_dict = staticmethod(plan_to_dict)
    _plan_from_dict = staticmethod(plan_from_dict)
    _unit_from_dict = staticmethod(WorkUnit.from_dict)
    _record_from_dict = staticmethod(RunRecord.from_dict)

    def _refuse_row(self, row: Mapping, number: int) -> None:
        if row.get("kind") == "record":
            # a save_sweep_result file: its records are not keyed by work
            # unit, so resuming against it would re-run the whole sweep
            # and append duplicates of every record
            raise ConfigurationError(
                f"{self.path} is a saved sweep result, not a resumable checkpoint "
                f"(checkpoints are written by run_plan(store=...)); load it with "
                f"SweepResult.load instead"
            )


_SHARD_PATTERN = "shard-*.jsonl"


def shard_paths(root: Path) -> list[Path]:
    """The shard checkpoint files under ``root``, in canonical (sorted) order."""
    return sorted(Path(root).glob(_SHARD_PATTERN))


class ShardedStore:
    """A directory of per-shard checkpoint stores behind the single-store API.

    Campaigns that fan out across processes or nodes cannot share one
    append-only file (interleaved writers would tear lines); instead each
    writer appends to its own :class:`JsonlCheckpointStore` under a common
    directory — ``<root>/shard-0000.jsonl``, ``shard-0001.jsonl``, ... —
    and the shards are merged on load.  Every shard carries the full
    fingerprinted header, so each file is independently resumable and a
    foreign shard dropped into the directory is refused exactly like a
    foreign single-store checkpoint.

    The class duck-types the store interface the drivers use
    (:meth:`initialize` / :meth:`peek_units` / :meth:`append`, plus a
    ``path`` attribute for messages), so :func:`run_validation` and
    :func:`~repro.experiments.runner.run_plan` take a ``ShardedStore``
    anywhere they take a single store.  Units are routed to shards by
    ``unit.index % shards``; merging is keyed by unit index with
    first-shard-wins on duplicates, and the driver reassembles records in
    canonical unit order — so a sharded run is byte-identical to a
    single-store run of the same plan.

    ``store_type`` is the single-store class to instantiate per shard
    (:class:`SweepStore`, ``ValidationStore``); it is a constructor argument
    rather than an import so this module never depends on the stores defined
    elsewhere.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        store_type: type[JsonlCheckpointStore],
        shards: int | None = None,
    ) -> None:
        self.path = Path(root)
        self.store_type = store_type
        if shards is not None:
            shards = int(shards)
            if shards < 1:
                raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.shards = shards

    # ------------------------------------------------------------------ #
    def _shard_path(self, shard: int) -> Path:
        return self.path / f"shard-{shard:04d}.jsonl"

    def _existing_shards(self) -> list[JsonlCheckpointStore]:
        return [self.store_type(path) for path in shard_paths(self.path)]

    def shard_for(self, index: int) -> JsonlCheckpointStore:
        """The shard store a unit index routes to (``index % shards``)."""
        if self.shards is None:
            raise ConfigurationError(
                f"{self.path}: shard count not yet resolved; initialize() the "
                f"store before appending to it"
            )
        return self.store_type(self._shard_path(index % self.shards))

    # -- the store interface the drivers use ---------------------------- #
    def initialize(self, plan, *, resume: bool = False, units: list | None = None) -> dict:
        """Prepare every shard for a run of ``plan``; return merged completed units.

        Fresh: the directory is created and each of the ``shards`` files gets
        a fingerprinted header (populated shard files are refused by the
        underlying store, exactly like a populated single-store path).
        Resume: every existing ``shard-*.jsonl`` is resumed through the
        underlying store — fingerprint check, sharding check and torn-tail
        repair per shard — their completed units merged first-shard-wins,
        and any shard files the current shard count calls for but the
        directory lacks are created fresh, so a run resumed with a wider
        shard count just starts routing to the new files.
        """
        if resume:
            existing = self._existing_shards()
            if not existing:
                raise ConfigurationError(
                    f"{self.path} holds no shard checkpoints ({_SHARD_PATTERN}); "
                    f"nothing to resume (check the path, or drop resume to start fresh)"
                )
            if self.shards is None:
                self.shards = len(existing)
            completed: dict[int, list] = {}
            for shard in existing:
                for index, records in shard.initialize(
                    plan, resume=True, units=units
                ).items():
                    completed.setdefault(index, records)
            for number in range(self.shards):
                if not self._shard_path(number).exists():
                    self.store_type(self._shard_path(number)).initialize(plan)
            return completed
        if self.shards is None:
            raise ConfigurationError(
                f"{self.path}: a fresh sharded checkpoint needs an explicit "
                f"shard count (pass shards=N)"
            )
        stale = [path for path in shard_paths(self.path) if path not in
                 {self._shard_path(number) for number in range(self.shards)}]
        if stale:
            raise ConfigurationError(
                f"{self.path} already holds shard files beyond the requested "
                f"{self.shards} shard(s) ({stale[0].name}, ...); resume the "
                f"checkpoint, or delete the directory to start over"
            )
        self.path.mkdir(parents=True, exist_ok=True)
        for number in range(self.shards):
            self.store_type(self._shard_path(number)).initialize(plan)
        return {}

    def peek_units(self) -> dict[int, dict]:
        """Stored unit dicts merged across shards (first-shard-wins), ``{}`` if none."""
        merged: dict[int, dict] = {}
        for shard in self._existing_shards():
            for index, data in shard.peek_units().items():
                merged.setdefault(index, data)
        return merged

    def append(self, unit, records: list) -> None:
        """Checkpoint one completed unit into its shard (durable append)."""
        self.shard_for(unit.index).append(unit, records)


def _ends_with_newline(path: Path) -> bool:
    with path.open("rb") as handle:
        handle.seek(0, os.SEEK_END)
        if handle.tell() == 0:
            return False
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) == b"\n"


def save_sweep_result(result: SweepResult, path: str | Path) -> Path:
    """Write a complete :class:`SweepResult` (header + one line per record).

    The write is atomic (temp file + rename), so an interrupted save never
    leaves a partial result file behind — the target either keeps its old
    content or holds the complete new one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(
            json.dumps(
                SweepStore(path)._header(result.plan), sort_keys=True, separators=(",", ":")
            )
            + "\n"
        )
        for record in result.records:
            row = {"kind": "record", **record.as_dict()}
            handle.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def load_sweep_result(path: str | Path, *, allow_partial: bool = False) -> SweepResult:
    """Read a sweep file written by :func:`save_sweep_result` or a checkpoint.

    Checkpoint files ("unit" lines) are merged in canonical unit order, so a
    resumed-and-completed checkpoint loads record-for-record identical to the
    uninterrupted sweep's :func:`save_sweep_result` output.

    A file holding fewer records than its header's plan calls for (an
    interrupted, never-resumed checkpoint) is refused unless
    ``allow_partial`` — figure aggregations over silently incomplete sweeps
    produce misleading curves.
    """
    path = Path(path)
    rows = read_jsonl(path, ignore_truncated=True)
    if not rows:
        raise ConfigurationError(f"{path} is empty, not a sweep file")
    header = SweepStore(path)._check_header_row(rows[0])
    plan = plan_from_dict(header["plan"])
    result = SweepResult(plan=plan)
    units: dict[int, list[RunRecord]] = {}
    saw_record = False
    for number, row in enumerate(rows[1:], start=2):
        if not isinstance(row, Mapping):
            raise ConfigurationError(f"{path} line {number} is not a JSON object")
        kind = row.get("kind")
        if kind == "record":
            saw_record = True
            result.records.append(RunRecord.from_dict(row))
        elif kind == "unit":
            unit = WorkUnit.from_dict(row["unit"])
            units[unit.index] = [RunRecord.from_dict(entry) for entry in row["records"]]
    if saw_record and not _ends_with_newline(path):
        # a torn tail is tolerable in an append-only checkpoint (the lost unit
        # just re-runs on resume) but in a save_sweep_result file it means the
        # save never completed — don't silently aggregate over missing records
        raise ConfigurationError(
            f"{path} ends mid-line; the save that wrote it did not complete"
        )
    for index in sorted(units):
        result.extend(units[index])
    expected = plan.num_records
    if len(result.records) != expected and not allow_partial:
        raise ConfigurationError(
            f"{path} holds {len(result.records)} of the {expected} records its plan "
            f"calls for (incomplete sweep); resume it, or pass allow_partial=True to "
            f"load it anyway"
        )
    return result
