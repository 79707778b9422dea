"""The campaign result store.

Campaign results live in one kind of store: the WAL-mode sqlite
database of :mod:`repro.campaign.backends.sqlite`, with atomic task
claims, per-row checksums and quarantine.  :func:`open_store` is the
entry point everything above the storage layer uses.  JSONL survives
only at the edges: ``repro campaign export`` prints a store as JSONL,
and :func:`migrate_jsonl_to_sqlite` imports one.
"""

from __future__ import annotations

from pathlib import Path

from repro.campaign.backends.sqlite import (
    SqliteBackend,
    StoreReader,
    migrate_jsonl_to_sqlite,
    require_sqlite,
    scan_records,
)

__all__ = [
    "SqliteBackend",
    "StoreReader",
    "migrate_jsonl_to_sqlite",
    "open_store",
    "require_sqlite",
    "scan_records",
]


def open_store(
    path: str | Path,
    backend: str = "sqlite",
    *,
    fsync: bool = False,
    chaos=None,
    read_only: bool = False,
) -> SqliteBackend:
    """Build and open the store at ``path``.

    The returned store is already recovered — opening runs journal
    recovery and stale-claim re-queue, and reads no result row — unless
    ``read_only``, which opens it untouched.  ``backend`` must be
    ``"sqlite"``, the only store there is; a path holding anything but
    a sqlite database raises :class:`ValueError`.
    """
    if backend != SqliteBackend.name:
        raise ValueError(
            f"unknown store backend {backend!r}: campaign stores are "
            "sqlite; import a JSONL store with 'repro campaign "
            "migrate-store'"
        )
    return SqliteBackend(
        path, fsync=fsync, chaos=chaos, read_only=read_only
    ).open()
