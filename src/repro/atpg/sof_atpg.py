"""Two-pattern stuck-open ATPG (and the DP channel-break alternative).

For an SP-gate stuck-open fault, a two-pattern test must:

1. (init) set the faulty gate's local inputs so its output takes the
   value the break will wrongly retain, and
2. (test) switch the local inputs to a combination under which the
   broken transistor was the *only* conducting path — the output floats,
   keeps the init value, and the wrong value must propagate to a primary
   output.

On DP gates every single break is masked by the redundant pair, so
:func:`run_sof_atpg` reports them as requiring the paper's channel-break
procedure (Section V-C) instead of returning a pattern pair.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.atpg import fault_sim
from repro.atpg.podem import justify_and_propagate
from repro.faults.logic import StuckOpenFault
from repro.gates.library import ALL_CELLS
from repro.logic.network import Network


@dataclasses.dataclass
class StuckOpenTest:
    """A two-pattern test for a stuck-open fault."""

    fault: StuckOpenFault
    init_vector: dict[str, int]
    test_vector: dict[str, int]
    local_init: tuple[int, ...]
    local_test: tuple[int, ...]


@dataclasses.dataclass
class SofAtpgResult:
    tests: list[StuckOpenTest]
    masked: list[StuckOpenFault]
    """DP-masked faults: need the channel-break procedure."""
    untestable: list[StuckOpenFault]
    dropped: dict[str, int] = dataclasses.field(default_factory=dict)
    """Fault name -> index into ``tests`` of the pattern pair that
    detected it during fault dropping (no dedicated test generated)."""

    @property
    def coverage(self) -> float:
        covered = len(self.tests) + len(self.dropped)
        total = covered + len(self.masked) + len(self.untestable)
        return covered / total if total else 1.0


def _fill_dont_cares(network: Network, vector: dict[str, int]) -> dict[str, int]:
    filled = dict(vector)
    for net in network.primary_inputs:
        filled.setdefault(net, 0)
    return filled


def generate_stuck_open_test(
    network: Network,
    fault: StuckOpenFault,
    max_backtracks: int = 500,
) -> StuckOpenTest | None:
    """Generate and *verify* a two-pattern test for one SOF."""
    cell = ALL_CELLS[fault.gtype]
    gate = network.gates[fault.gate]
    floating = fault.floating_vectors()
    if not floating:
        return None
    for local_test in floating:
        expected = cell.function(local_test)
        # The test pattern must propagate the retained (wrong) value:
        # treat the gate as producing the complement under local_test.
        table = {
            v: cell.function(v) for v in
            itertools.product((0, 1), repeat=cell.n_inputs)
        }
        table[local_test] = 1 - expected
        condition = list(zip(gate.inputs, local_test))
        # Reuse the generic PODEM machinery with an explicit faulty
        # table: under local_test the broken gate emits the retained
        # (complemented) value.
        result = justify_and_propagate(
            network,
            condition,
            gate_fault=_TableFault(fault.gate),
            gate_fault_table=table,
            propagate=True,
            max_backtracks=max_backtracks,
        )
        if not result.success:
            continue
        test_vector = result.vector
        # Init pattern: justify a local vector whose fault-free output is
        # the complement of the expected test output.
        for local_init in itertools.product((0, 1), repeat=cell.n_inputs):
            if cell.function(local_init) != 1 - expected:
                continue
            init_condition = list(zip(gate.inputs, local_init))
            init_result = justify_and_propagate(
                network,
                init_condition,
                propagate=False,
                max_backtracks=max_backtracks,
            )
            if not init_result.success:
                continue
            init_vector = _fill_dont_cares(network, init_result.vector)
            full_test = _fill_dont_cares(network, test_vector)
            # Independent verification through the two-pattern fault
            # simulator (ATPG output is never trusted unverified).
            if fault_sim.stuck_open_detection_words(
                network, [fault], [(init_vector, full_test)]
            )[0]:
                return StuckOpenTest(
                    fault=fault,
                    init_vector=init_vector,
                    test_vector=full_test,
                    local_init=local_init,
                    local_test=local_test,
                )
    return None


class _TableFault:
    """Minimal gate-fault shim for :func:`justify_and_propagate`."""

    def __init__(self, gate: str) -> None:
        self.gate = gate


def run_sof_atpg(
    network: Network,
    faults: list[StuckOpenFault] | None = None,
    max_backtracks: int = 500,
    drop_detected: bool = False,
) -> SofAtpgResult:
    """Two-pattern ATPG over all (or the given) stuck-open faults.

    DP-masked faults (read from the per-cell broken-channel memo) go
    straight to ``masked``.  Every generated pair is verified by the
    batched two-pattern fault simulator before it is kept.  With
    ``drop_detected``, every generated pattern pair is also batch
    fault-simulated against the still-untargeted faults (the problem
    size picks the fault simulator's engine); collaterally detected
    faults are dropped instead of getting a dedicated test — far fewer
    PODEM searches on large circuits.
    """
    from repro.faults import get_universe

    if faults is None:
        faults = get_universe("stuck_open").collapse(network)
    tests: list[StuckOpenTest] = []
    masked: list[StuckOpenFault] = []
    untestable: list[StuckOpenFault] = []
    dropped: dict[str, int] = {}
    for k, fault in enumerate(faults):
        if fault.name in dropped:
            continue
        if fault.is_masked():
            masked.append(fault)
            continue
        test = generate_stuck_open_test(
            network, fault, max_backtracks=max_backtracks
        )
        if test is None:
            untestable.append(fault)
            continue
        tests.append(test)
        if not drop_detected:
            continue
        candidates = [
            f for f in faults[k + 1:]
            if f.name not in dropped and not f.is_masked()
        ]
        words = fault_sim.stuck_open_detection_words(
            network, candidates,
            [(test.init_vector, test.test_vector)],
        )
        for candidate, word in zip(candidates, words):
            if word:
                dropped[candidate.name] = len(tests) - 1
    return SofAtpgResult(
        tests=tests, masked=masked, untestable=untestable, dropped=dropped
    )
