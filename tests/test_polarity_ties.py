"""Polarity ATPG skips contention ties and loses nothing by it.

A polarity fault's local table holds definite wrong values and X
contention ties (a tie where the good output is definite).  Voltage
ATPG used to hand PODEM both as targets to propagate; it now takes the
definite wrong values only
(:meth:`~repro.faults.PolarityFault.output_detecting_vectors`).  A tie
leaves the faulty gate at most as defined as the good one, and ternary
evaluation is monotone in definedness, so no input assignment can
propagate a definite difference from it.  On the paper-grid circuits
and the random-circuit fuzz set this checks that

* no tie-entry PODEM search ever succeeds, and
* ATPG with the old tie-inclusive targets gives the same tests
  (vectors, modes, local vectors) and the same faults without a test.
"""

import pytest

from repro.atpg import justify_and_propagate, run_polarity_atpg
from repro.campaign.tables import SECTION5_SUITE
from repro.circuits import build_benchmark
from repro.circuits.random_circuits import random_network
from repro.faults import PolarityFault, polarity_faults
from repro.gates.library import ALL_CELLS
from repro.logic.values import X

FUZZ_SEEDS = [1, 2, 3, 5, 8, 13]
NAMES = [*SECTION5_SUITE, *(f"fuzz{seed}" for seed in FUZZ_SEEDS)]


def build(name):
    if not name.startswith("fuzz"):
        return build_benchmark(name)
    seed = int(name[len("fuzz"):])
    return random_network(
        seed, n_gates=20 + 7 * seed, n_inputs=4 + seed % 5, dp_fraction=0.3
    )


def tie_inclusive_vectors(fault):
    """The old voltage targets: every local vector whose faulty-table
    entry differs from the cell function, X ties included."""
    function = ALL_CELLS[fault.gtype].function
    return [
        vector for vector, value in fault.faulty_table().items()
        if value != function(vector)
    ]


def summary(result):
    return (
        [
            (t.fault.name, t.vector, t.mode, t.local_vector)
            for t in result.tests
        ],
        sorted(f.name for f in result.untestable + result.aborted),
    )


@pytest.mark.parametrize("name", NAMES)
def test_no_tie_ever_propagates(name):
    network = build(name)
    n_ties = 0
    for fault in polarity_faults(network):
        table = fault.faulty_table()
        wrong = fault.output_detecting_vectors()
        ties = [v for v in tie_inclusive_vectors(fault) if v not in wrong]
        assert all(table[v] == X for v in ties)
        assert tuple(ties) == fault.image().tied
        inputs = network.gates[fault.gate].inputs
        for local in ties:
            result = justify_and_propagate(
                network, list(zip(inputs, local)), gate_fault=fault,
                propagate=True,
            )
            assert not result.success, (fault.name, local)
        n_ties += len(ties)
    assert n_ties or name in ("c17", "tmr_voter")


@pytest.mark.parametrize("name", NAMES)
def test_tie_inclusive_atpg_gives_the_same_tests(name, monkeypatch):
    network = build(name)
    result = run_polarity_atpg(network)
    assert not result.aborted
    ours = summary(result)
    monkeypatch.setattr(
        PolarityFault, "output_detecting_vectors", tie_inclusive_vectors
    )
    assert summary(run_polarity_atpg(network)) == ours
