"""Campaign orchestration: sharded, resumable test campaigns.

The layer above the per-circuit engines: a benchmark registry
(:mod:`~repro.campaign.registry`), deterministic fault-class tasks
(:mod:`~repro.campaign.tasks`), a fault-tolerant grid runner with a
crash-safe, multi-runner sqlite checkpoint store with atomic task
claims (:mod:`~repro.campaign.runner` / :mod:`~repro.campaign.store` /
:mod:`~repro.campaign.backends`) — over a supervised worker-process layer
with watchdog kills, crash respawn, retry/backoff and poison-task
quarantine (:mod:`~repro.campaign.supervisor`, chaos-tested via
:mod:`~repro.campaign.chaos`), report rendering from stored records
(:mod:`~repro.campaign.tables`), and the ``python -m repro`` CLI
(:mod:`~repro.campaign.cli`).

Programmatic quickstart::

    from repro.campaign import expand_grid, run_campaign, render_report

    grid = expand_grid(["c17", "rca4"], ["stuck_at", "polarity"])
    result = run_campaign(grid, store="campaign.sqlite", workers=4)
    print(render_report(result.records))
"""

from repro.campaign.backends import (
    SqliteBackend,
    migrate_jsonl_to_sqlite,
    open_store,
)
from repro.campaign.registry import CircuitSpec, Registry, get_registry
from repro.campaign.runner import (
    FALLBACK_CHAINS,
    CampaignResult,
    RetryPolicy,
    TaskSpec,
    TransientTaskError,
    execute_task,
    expand_grid,
    run_campaign,
    run_task_with_retries,
)
from repro.campaign.store import stores_equal, strip_volatile
from repro.campaign.tables import (
    coverage_table,
    escape_table,
    render_report,
    run_table,
)
from repro.campaign.tasks import (
    DEFAULT_FAULT_CLASSES,
    TASK_RUNNERS,
    run_fault_class,
)

__all__ = [
    "CampaignResult",
    "CircuitSpec",
    "DEFAULT_FAULT_CLASSES",
    "FALLBACK_CHAINS",
    "Registry",
    "RetryPolicy",
    "SqliteBackend",
    "TASK_RUNNERS",
    "TaskSpec",
    "TransientTaskError",
    "coverage_table",
    "escape_table",
    "execute_task",
    "expand_grid",
    "get_registry",
    "migrate_jsonl_to_sqlite",
    "open_store",
    "render_report",
    "run_campaign",
    "run_fault_class",
    "run_table",
    "run_task_with_retries",
    "stores_equal",
    "strip_volatile",
]
