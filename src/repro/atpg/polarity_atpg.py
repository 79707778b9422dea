"""ATPG for the paper's stuck-at n-type / p-type polarity faults.

For each polarity fault the generator derives the local activation
vectors from the switch-level cell analysis and then uses the generic
PODEM machinery to lift them to primary inputs:

* **Voltage tests** require the faulty gate's local inputs to equal a
  vector with a definite wrong output *and* the resulting D/D' to
  propagate to a primary output.  Contention ties (X) are not tried:
  a faulty gate at most as defined as the good one can never make an
  output differ definitely.
* **IDDQ tests** only require justification of a conflict-activating
  local vector — the elevated supply current is globally observable
  (Section V-B: ">10^6 x" leakage through the shorted networks).
"""

from __future__ import annotations

import dataclasses

from repro.atpg.podem import justify_and_propagate
from repro.faults.logic import PolarityFault
from repro.logic.network import Network


@dataclasses.dataclass
class PolarityTest:
    """A generated test for one polarity fault.

    Attributes:
        fault: The target fault.
        vector: PI assignment (missing inputs are don't-care).
        mode: 'voltage' or 'iddq'.
        local_vector: The faulty gate's local input combination the test
            establishes.
    """

    fault: PolarityFault
    vector: dict[str, int]
    mode: str
    local_vector: tuple[int, ...]


@dataclasses.dataclass
class PolarityAtpgResult:
    """Outcome of a polarity ATPG run.

    Attributes:
        tests: One test per testable fault.
        untestable: Faults every search proved untestable.
        aborted: Faults without a test where some search ran out of its
            backtrack budget.
    """

    tests: list[PolarityTest]
    untestable: list[PolarityFault]
    aborted: list[PolarityFault]

    @property
    def coverage(self) -> float:
        total = len(self.tests) + len(self.untestable) + len(self.aborted)
        return len(self.tests) / total if total else 1.0


def generate_polarity_test(
    network: Network,
    fault: PolarityFault,
    allow_iddq: bool = True,
    max_backtracks: int = 500,
) -> tuple[PolarityTest | None, bool]:
    """Generate a test for one polarity fault (voltage first, then IDDQ).

    Returns ``(test, aborted)``.  Without a test, ``aborted`` tells a
    fault some search gave up on at the backtrack budget (possibly
    testable) from one every search proved untestable.
    """
    inputs = network.gates[fault.gate].inputs
    # Voltage tests justify a corrupting local vector and propagate the
    # difference; IDDQ tests only justify a conflict-activating one.
    attempts = [("voltage", v) for v in fault.output_detecting_vectors()]
    if allow_iddq:
        attempts += [("iddq", v) for v in fault.iddq_vectors()]
    aborted = False
    for mode, local in attempts:
        voltage = mode == "voltage"
        result = justify_and_propagate(
            network,
            list(zip(inputs, local)),
            gate_fault=fault if voltage else None,
            propagate=voltage,
            max_backtracks=max_backtracks,
        )
        if result.success:
            return PolarityTest(fault, result.vector, mode, local), False
        aborted |= result.aborted
    return None, aborted


def run_polarity_atpg(
    network: Network,
    faults: list[PolarityFault] | None = None,
    allow_iddq: bool = True,
    max_backtracks: int = 500,
) -> PolarityAtpgResult:
    """Generate tests for all (or the given) polarity faults."""
    from repro.faults import get_universe

    if faults is None:
        faults = get_universe("polarity").collapse(network)
    tests: list[PolarityTest] = []
    untestable: list[PolarityFault] = []
    aborted: list[PolarityFault] = []
    for fault in faults:
        test, gave_up = generate_polarity_test(
            network, fault, allow_iddq=allow_iddq,
            max_backtracks=max_backtracks,
        )
        if test is not None:
            tests.append(test)
        else:
            (aborted if gave_up else untestable).append(fault)
    return PolarityAtpgResult(tests, untestable, aborted)
