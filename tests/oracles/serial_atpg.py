"""Serial polarity campaigns: the oracles for the batched ATPG paths.

Both functions walk (vector, fault) pairs one at a time through the
dict-based ternary simulator (:func:`repro.atpg.detects_polarity`), the
way the library did before the batched engines replaced them:

* :func:`serial_polarity_simulation` is the campaign oracle for
  :func:`repro.atpg.parallel_polarity_simulation`;
* :func:`select_iddq_vectors` builds the IDDQ cover matrix with two
  ``detects_polarity`` calls per (candidate, fault) pair and runs the
  greedy set cover over name sets.  The library's selection, which
  builds the matrix from detection words and covers over int bitsets,
  must reproduce it exactly.
"""

from __future__ import annotations

from repro.atpg import (
    FaultSimResult,
    IddqSelection,
    detects_polarity,
    generate_polarity_test,
)
from repro.faults import get_universe


def serial_polarity_simulation(
    network, faults, vectors, iddq=False, unroll=None, initial_state=None
) -> FaultSimResult:
    """Serial polarity campaign: first detecting vector per fault."""
    detected: dict[str, int] = {}
    undetected = {f.name for f in faults}
    for k, vector in enumerate(vectors):
        for fault in faults:
            if fault.name not in undetected:
                continue
            if detects_polarity(
                network, fault, vector, iddq=iddq,
                unroll=unroll, initial_state=initial_state,
            ):
                detected[fault.name] = k
                undetected.discard(fault.name)
    return FaultSimResult(
        detected=detected, undetected=sorted(undetected)
    )


def select_iddq_vectors(
    network, faults=None, max_backtracks=300, engine="compiled"
) -> IddqSelection:
    """Reference IDDQ selection over a serially built cover matrix."""
    if faults is None:
        faults = get_universe("polarity").collapse(network)

    candidates: list[dict[str, int]] = []
    uncovered_names: list[str] = []
    for fault in faults:
        test = generate_polarity_test(
            network, fault, allow_iddq=True,
            max_backtracks=max_backtracks, engine=engine,
        )
        if test is None:
            uncovered_names.append(fault.name)
            continue
        vector = dict(test.vector)
        for net in network.primary_inputs:
            vector.setdefault(net, 0)
        candidates.append(vector)

    coverable = [f for f in faults if f.name not in set(uncovered_names)]
    matrix: list[set[str]] = []
    for vector in candidates:
        matrix.append({
            f.name
            for f in coverable
            if detects_polarity(network, f, vector, iddq=True)
            or detects_polarity(network, f, vector, iddq=False)
        })

    remaining = {f.name for f in coverable}
    chosen: list[int] = []
    while remaining:
        best, best_gain = None, 0
        for k, covered in enumerate(matrix):
            gain = len(covered & remaining)
            if gain > best_gain:
                best, best_gain = k, gain
        if best is None:
            uncovered_names.extend(sorted(remaining))
            break
        chosen.append(best)
        remaining -= matrix[best]

    covered: dict[str, int] = {}
    for order, k in enumerate(chosen):
        for name in matrix[k]:
            covered.setdefault(name, order)
    return IddqSelection(
        vectors=[candidates[k] for k in chosen],
        covered=covered,
        uncovered=sorted(set(uncovered_names)),
    )
