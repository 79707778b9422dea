"""IDDQ test selection for polarity faults.

Section V-B: pull-up polarity faults are observable only through supply
current.  This module selects a compact set of vectors such that every
polarity fault is driven into (at least) one of its conflict-activating
local input combinations — a classic set-cover problem solved greedily.
"""

from __future__ import annotations

import dataclasses

from repro.atpg import fault_sim
from repro.atpg.polarity_atpg import generate_polarity_test
from repro.faults.logic import PolarityFault
from repro.logic.network import Network


@dataclasses.dataclass
class IddqSelection:
    """A compact IDDQ vector set.

    Attributes:
        vectors: Selected PI vectors (fully specified).
        covered: Fault name -> index of the covering vector.
        uncovered: Faults no generated vector could activate.
    """

    vectors: list[dict[str, int]]
    covered: dict[str, int]
    uncovered: list[str]

    @property
    def coverage(self) -> float:
        total = len(self.covered) + len(self.uncovered)
        return len(self.covered) / total if total else 1.0


def _fill(network: Network, vector: dict[str, int]) -> dict[str, int]:
    full = dict(vector)
    for net in network.primary_inputs:
        full.setdefault(net, 0)
    return full


def select_iddq_vectors(
    network: Network,
    faults: list[PolarityFault] | None = None,
    max_backtracks: int = 300,
) -> IddqSelection:
    """Generate candidate vectors per fault, then greedily compact.

    Candidate generation goes through the justification-only ATPG.
    The candidate x
    fault cover matrix then comes from two batched sweeps of every
    candidate over the coverable faults, one IDDQ and one voltage
    :func:`~repro.atpg.fault_sim.polarity_detection_words` call; a
    candidate covers a fault when either word has its bit.  Each
    candidate's row is an int bitset (bit ``i`` = coverable fault
    ``i``), and the greedy pass keeps the subset of vectors that still
    covers every coverable fault, largest marginal gain first (ties go
    to the lowest candidate index).
    """
    if faults is None:
        from repro.faults import get_universe

        faults = get_universe("polarity").collapse(network)

    candidates: list[dict[str, int]] = []
    uncovered_names: list[str] = []
    for fault in faults:
        test, _ = generate_polarity_test(
            network, fault, allow_iddq=True,
            max_backtracks=max_backtracks,
        )
        if test is None:
            uncovered_names.append(fault.name)
            continue
        candidates.append(_fill(network, test.vector))

    uncoverable = set(uncovered_names)
    coverable = [f for f in faults if f.name not in uncoverable]
    # Per-fault words over the candidates (bit k = candidate k) ...
    fault_words = [0] * len(coverable)
    if candidates and coverable:
        fault_words = [
            by_iddq | by_voltage
            for by_iddq, by_voltage in zip(
                fault_sim.polarity_detection_words(
                    network, coverable, candidates, iddq=True
                ),
                fault_sim.polarity_detection_words(
                    network, coverable, candidates
                ),
            )
        ]
    # ... transposed into per-candidate rows (bit i = coverable fault i).
    matrix = [0] * len(candidates)
    for i, word in enumerate(fault_words):
        while word:
            low = word & -word
            matrix[low.bit_length() - 1] |= 1 << i
            word ^= low

    remaining = (1 << len(coverable)) - 1
    chosen: list[int] = []
    while remaining:
        best, best_gain = None, 0
        for k, row in enumerate(matrix):
            gain = (row & remaining).bit_count()
            if gain > best_gain:
                best, best_gain = k, gain
        if best is None:
            uncovered_names.extend(
                f.name for i, f in enumerate(coverable) if remaining >> i & 1
            )
            break
        chosen.append(best)
        remaining &= ~matrix[best]

    covered: dict[str, int] = {}
    for fault, word in zip(coverable, fault_words):
        for order, k in enumerate(chosen):
            if word >> k & 1:
                covered[fault.name] = order
                break
    return IddqSelection(
        vectors=[candidates[k] for k in chosen],
        covered=covered,
        uncovered=sorted(set(uncovered_names)),
    )
