"""The fan-out driver's ordering invariant, for both stages that use it.

``drive_units`` appends a unit's checkpoint line *before* it reports the unit
to ``progress`` — for computed and memo-served units alike.  A progress
callback that raises (the service's graceful drain does exactly that) must
therefore leave every unit it was told about durable, and resuming must
reproduce the uninterrupted serial result.
"""

import json
from dataclasses import replace

import pytest

from repro.experiments.config import default_plan
from repro.experiments.runner import run_plan
from repro.experiments.store import SweepStore
from repro.experiments.validation import ValidationStore, plan_from_sweep, run_validation

UNITS_BEFORE_ABORT = 2


class _Abort(Exception):
    pass


def _sweep_plan():
    plan = default_plan(
        "small", num_configurations=3, target_throughputs=(50, 100), iterations=100
    )
    return replace(plan, algorithms=tuple(a for a in plan.algorithms if a.name in ("ILP", "H1")))


def _sweep_stage():
    plan = _sweep_plan()

    def run(**kwargs):
        if "store" in kwargs:
            kwargs["store"] = SweepStore(kwargs["store"])
        # wall-clock solve times differ between runs; identity() is the rest
        return [record.identity() for record in run_plan(plan, **kwargs).records]

    return run


def _validation_stage():
    sweep = run_plan(_sweep_plan(), capture_allocations=True)
    plan = plan_from_sweep(sweep, horizons=(8.0,), rate_multipliers=(1.0, 1.05))

    def run(**kwargs):
        if "store" in kwargs:
            kwargs["store"] = ValidationStore(kwargs["store"])
        return [
            json.dumps(record.as_dict(), sort_keys=True)
            for record in run_validation(plan, **kwargs).records
        ]

    return run


@pytest.fixture(scope="module", params=["sweep", "validation"])
def stage(request):
    return {"sweep": _sweep_stage, "validation": _validation_stage}[request.param]()


@pytest.mark.parametrize("source", ["computed", "memo-served"])
def test_abort_in_progress_keeps_reported_units_durable(tmp_path, stage, source):
    reference = stage()
    memo = None
    if source == "memo-served":
        memo = tmp_path / "memo.jsonl"
        stage(memo=memo)  # warm every cell

    messages = []

    def tripwire(message):
        messages.append(message)
        if len(messages) == UNITS_BEFORE_ABORT:
            raise _Abort

    path = tmp_path / "checkpoint.jsonl"
    with pytest.raises(_Abort):
        stage(store=path, progress=tripwire, memo=memo)
    verb = "served from memo" if memo is not None else "done"
    assert all(verb in message for message in messages)

    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert sum(row["kind"] == "unit" for row in rows) == UNITS_BEFORE_ABORT
    assert stage(store=path, resume=True) == reference
