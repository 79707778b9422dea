"""Differential oracles for the paper-grid ATPG paths.

* IDDQ selection: the cover matrix built from batched detection words
  and covered over int bitsets must equal the serial reference
  (``tests/oracles/serial_atpg.py``) — vectors, covered and uncovered.
* Stuck-open ATPG: every pattern pair (and every fault dropped on one)
  must be confirmed by the serial two-pattern oracle
  ``detects_stuck_open`` (``tests/oracles/serial_sim.py``).
* The per-cell broken-channel memo behind ``StuckOpenFault`` must equal
  a fresh switch-level evaluation for every transistor of every cell.
"""

import itertools

import pytest
from oracles import serial_atpg
from oracles.serial_sim import detects_stuck_open

from repro.atpg import (
    StuckOpenFault,
    run_sof_atpg,
    select_iddq_vectors,
)
from repro.campaign import get_registry
from repro.faults import get_universe
from repro.gates.library import ALL_CELLS
from repro.logic.switch_level import DeviceState, evaluate
from repro.logic.values import Z

#: The default ``paper-tables`` grid plus a larger DP-heavy adder.
CIRCUITS = ("c17", "rca4", "parity8", "tmr_voter", "eq4", "alu_slice", "rca8")


@pytest.fixture(scope="module", params=CIRCUITS)
def network(request):
    return get_registry().load(request.param)


def test_iddq_selection_matches_serial_oracle(network):
    fast = select_iddq_vectors(network)
    reference = serial_atpg.select_iddq_vectors(network)
    assert fast.vectors == reference.vectors
    assert fast.covered == reference.covered
    assert fast.uncovered == reference.uncovered


@pytest.mark.parametrize("drop_detected", [False, True])
def test_sof_pairs_confirmed_by_serial_oracle(network, drop_detected):
    result = run_sof_atpg(network, drop_detected=drop_detected)
    for test in result.tests:
        assert detects_stuck_open(
            network, test.fault, test.init_vector, test.test_vector
        ), test.fault.name
    faults = {
        f.name: f for f in get_universe("stuck_open").collapse(network)
    }
    for name, k in result.dropped.items():
        test = result.tests[k]
        assert detects_stuck_open(
            network, faults[name], test.init_vector, test.test_vector
        ), name


@pytest.mark.parametrize("gtype", sorted(ALL_CELLS))
def test_broken_channel_memo_matches_switch_level(gtype):
    cell = ALL_CELLS[gtype]
    for transistor in cell.transistors:
        fault = StuckOpenFault("g", gtype, transistor.name)
        table = {
            vector: evaluate(
                cell, vector, {transistor.name: DeviceState.STUCK_OPEN}
            ).output
            for vector in itertools.product((0, 1), repeat=cell.n_inputs)
        }
        floating = [v for v, out in table.items() if out == Z]
        assert fault.broken_table() == table
        assert fault.floating_vectors() == floating
        assert fault.is_masked() == (not floating)
