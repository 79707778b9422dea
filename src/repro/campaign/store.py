"""The campaign record schema and its comparison helpers.

Every finished task becomes one record (``schema: 2``) — see
``docs/CAMPAIGNS.md`` for the field-by-field reference::

    {
      "schema": 2,
      "task_id": "rca4/polarity/compiled",
      "circuit": "rca4", "fault_class": "polarity", "engine": "compiled",
      "attempt": 1,                    # attempt that produced the record
      "status": "ok",                  # or "error"/"timeout"/"poisoned"
      "runtime_s": 0.31,
      "circuit_stats": {"gates": 8, "inputs": 9, "outputs": 5, ...},
      "metrics": {...},                # fault-class specific, see tasks.py
      "error": "...",                  # only on status != "ok"
      "transient": false,              # error classification (errors only)
      "failures": [...]                # retry provenance trail
    }

``engine`` and the last task-id segment are the constant
:data:`ENGINE_LABEL`.  Schema-1 records (pre-supervisor) and records
from before the PODEM engine switch was removed (which may carry
``engine_used`` and ``failures`` entries of kind ``engine``) load and
resume unchanged — the resume key (``task_id`` + ``status``) is common
to all of them.  The records
live in the sqlite store of :mod:`repro.campaign.backends`.

``runtime_s``, ``attempt`` and ``failures`` are the nondeterministic
fields (they depend on wall-clock and on which injected/real faults a
run happened to survive); the storage provenance stamps ``backend``
and ``store_schema`` likewise differ between a store and its JSONL
export or import.  :func:`strip_volatile` removes them all so stores
from different runs and worker counts compare equal.
"""

from __future__ import annotations

from typing import Iterable, Sequence

SCHEMA_VERSION = 2

#: The ``engine`` field of every record and the last segment of every
#: task id (``c17/iddq/compiled``).  One PODEM backs every cell, so the
#: value never varies; it stays in the format because existing stores,
#: job-service clients and pinned benchmark cells key on it.
ENGINE_LABEL = "compiled"

#: Fields that legitimately differ between runs that computed the same
#: results: wall-clock, the retry/fault-injection history, and the
#: storage provenance the store stamps on each record.
VOLATILE_FIELDS: tuple[str, ...] = (
    "runtime_s", "attempt", "failures", "backend", "store_schema",
)


def strip_volatile(records: Iterable[dict]) -> list[dict]:
    """Drop nondeterministic fields (:data:`VOLATILE_FIELDS` —
    ``runtime_s``, the retry provenance ``attempt``/``failures``, and
    the storage provenance ``backend``/``store_schema``) so stores
    from different runs compare equal; sorted by task id for set-like
    comparison regardless of completion order."""
    stripped = []
    for record in records:
        record = dict(record)
        for field in VOLATILE_FIELDS:
            record.pop(field, None)
        stripped.append(record)
    return sorted(stripped, key=lambda r: r["task_id"])


def stores_equal(a: Sequence[dict], b: Sequence[dict]) -> bool:
    """Record-set equality up to volatile fields and completion order."""
    return strip_volatile(a) == strip_volatile(b)
