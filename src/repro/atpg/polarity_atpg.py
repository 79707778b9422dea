"""ATPG for the paper's stuck-at n-type / p-type polarity faults.

For each polarity fault the generator derives the local activation
vectors from the switch-level cell analysis and then uses the generic
PODEM machinery to lift them to primary inputs:

* **Voltage tests** require the faulty gate's local inputs to equal an
  output-corrupting vector *and* the resulting D/D' to propagate to a
  primary output.
* **IDDQ tests** only require justification of a conflict-activating
  local vector — the elevated supply current is globally observable
  (Section V-B: ">10^6 x" leakage through the shorted networks).
"""

from __future__ import annotations

import dataclasses

from repro.atpg.podem import PodemResult, justify_and_propagate
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
) -> PolarityTest | None:
    """Generate a test for one polarity fault (voltage first, then IDDQ)."""
    gate = network.gates[fault.gate]

    # Voltage-mode attempts: justify a corrupting local vector and
    # propagate the difference.
    for local in fault.output_detecting_vectors():
        condition = list(zip(gate.inputs, local))
        result: PodemResult = justify_and_propagate(
            network,
            condition,
            gate_fault=fault,
            propagate=True,
            max_backtracks=max_backtracks,
        )
        if result.success:
            return PolarityTest(
                fault=fault,
                vector=result.vector,
                mode="voltage",
                local_vector=local,
            )
    if not allow_iddq:
        return None
    # IDDQ attempts: justification only.
    for local in fault.iddq_vectors():
        condition = list(zip(gate.inputs, local))
        result = justify_and_propagate(
            network,
            condition,
            propagate=False,
            max_backtracks=max_backtracks,
        )
        if result.success:
            return PolarityTest(
                fault=fault,
                vector=result.vector,
                mode="iddq",
                local_vector=local,
            )
    return None


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
    for fault in faults:
        test = generate_polarity_test(
            network, fault, allow_iddq=allow_iddq,
            max_backtracks=max_backtracks,
        )
        if test is not None:
            tests.append(test)
        else:
            untestable.append(fault)
    return PolarityAtpgResult(tests=tests, untestable=untestable, aborted=[])
