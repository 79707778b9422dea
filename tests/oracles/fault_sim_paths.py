"""Run the batched fault-sim drivers on one chosen path.

The drivers of :mod:`repro.atpg.fault_sim` pick the multi-word or the
single-word path from the size of the problem
(``fault_sim._use_multiword``).  The differential tests hold the two
paths bit-identical by forcing each in turn.
"""

import contextlib
from unittest import mock

from repro.atpg import fault_sim

PATHS = ("multiword", "single_word")


@contextlib.contextmanager
def forced_path(path: str):
    """Within the block every driver takes ``path``."""
    if path not in PATHS:
        raise ValueError(f"unknown fault-sim path {path!r}")
    with mock.patch.object(
        fault_sim, "_use_multiword",
        lambda *args, **kwargs: path == "multiword",
    ):
        yield


def on_path(path: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the drivers forced onto ``path``."""
    with forced_path(path):
        return fn(*args, **kwargs)
