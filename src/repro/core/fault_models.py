"""Fault models for controllable-polarity circuits.

This module defines the paper's fault-model vocabulary as injectable
descriptors.  Classic models (stuck-at, stuck-open, stuck-on, bridge,
delay) are included alongside the paper's **new CP-specific models**:

* :class:`StuckAtNType` / :class:`StuckAtPType` — Section V-B: a bridge
  between a device's polarity terminal and a supply rail freezes the
  device in n- or p-configuration regardless of its polarity input.
* :class:`FloatingPolarityGate` — Section V-A: an open on a polarity
  terminal leaves it at an undetermined voltage ``Vcut``.
* :class:`GOSFault` / :class:`ChannelBreakFault` — circuit-level wrappers
  of the device-level defects of Section IV.

Every descriptor knows how to inject itself into a SPICE testbench
(:meth:`CircuitFault.apply`) and, where meaningful, how to express
itself as a switch-level :class:`~repro.logic.switch_level.DeviceState`
for logic-domain analysis — the two evaluation domains the paper uses.
The descriptors themselves stay light: the device layer is imported
by the ``apply`` methods that inject a defective compact model, so the
fault universes can wrap these classes without loading the solver.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING

from repro.logic.switch_level import DeviceState

if TYPE_CHECKING:
    from repro.device.defects import DeviceDefect
    from repro.gates.builder import Testbench


def _swap_device_model(
    bench: Testbench, transistor: str, defect: DeviceDefect
) -> None:
    """Give ``transistor`` the memoised compact model of ``defect``."""
    from repro.device.cache import cached_device
    from repro.device.params import DEFAULT_PARAMS

    bench.circuit.replace_device_model(
        bench.device_name(transistor), cached_device(DEFAULT_PARAMS, defect)
    )


class CircuitFault(abc.ABC):
    """A fault descriptor injectable into a cell testbench."""

    @abc.abstractmethod
    def apply(self, bench: Testbench) -> None:
        """Inject the fault into ``bench`` (mutates the circuit)."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable one-liner for reports."""

    def device_state(self) -> tuple[str, DeviceState] | None:
        """Switch-level image as ``(transistor, state)``, if one exists."""
        return None


@dataclasses.dataclass(frozen=True)
class StuckAtNType(CircuitFault):
    """Polarity terminal bridged to VDD: the device is frozen n-type.

    The paper's model: ``V(stuck-at-n-type) = [PGD: '1', PGS: '1']``.
    """

    transistor: str

    def apply(self, bench: Testbench) -> None:
        device = bench.circuit.devices[bench.device_name(self.transistor)]
        device.pgs = "vdd"
        device.pgd = "vdd"

    def describe(self) -> str:
        return f"stuck-at n-type on {self.transistor} (PG bridged to VDD)"

    def device_state(self) -> tuple[str, DeviceState]:
        return (self.transistor, DeviceState.STUCK_AT_N)


@dataclasses.dataclass(frozen=True)
class StuckAtPType(CircuitFault):
    """Polarity terminal bridged to GND: the device is frozen p-type."""

    transistor: str

    def apply(self, bench: Testbench) -> None:
        device = bench.circuit.devices[bench.device_name(self.transistor)]
        device.pgs = "0"
        device.pgd = "0"

    def describe(self) -> str:
        return f"stuck-at p-type on {self.transistor} (PG bridged to GND)"

    def device_state(self) -> tuple[str, DeviceState]:
        return (self.transistor, DeviceState.STUCK_AT_P)


@dataclasses.dataclass(frozen=True)
class FloatingPolarityGate(CircuitFault):
    """Open defect on a polarity terminal; the node floats at ``vcut``.

    Args:
        transistor: Target transistor name.
        terminal: 'pgs', 'pgd', or 'both' (an open before the PGS/PGD
            strap split, the natural DP-gate failure).
        vcut: Voltage assumed on the floating node (the paper sweeps it).
    """

    transistor: str
    terminal: str
    vcut: float

    def __post_init__(self) -> None:
        if self.terminal not in ("pgs", "pgd", "both"):
            raise ValueError(
                f"terminal must be pgs/pgd/both, got {self.terminal!r}"
            )

    def apply(self, bench: Testbench) -> None:
        device_name = bench.device_name(self.transistor)
        terminals = (
            ("pgs", "pgd") if self.terminal == "both" else (self.terminal,)
        )
        for k, terminal in enumerate(terminals):
            float_node = bench.circuit.disconnect_terminal(
                device_name, terminal
            )
            bench.circuit.add_vsource(
                f"vcut_{device_name}_{terminal}_{k}",
                float_node,
                "0",
                self.vcut,
            )

    def describe(self) -> str:
        return (
            f"floating {self.terminal} on {self.transistor} "
            f"(Vcut={self.vcut:.2f} V)"
        )

    def device_state(self) -> tuple[str, DeviceState]:
        return (self.transistor, DeviceState.FLOATING_PG)


@dataclasses.dataclass(frozen=True)
class GOSFault(CircuitFault):
    """Gate-oxide short on one gate of one transistor (Section IV-B)."""

    transistor: str
    location: str
    severity: float = 1.0

    def apply(self, bench: Testbench) -> None:
        from repro.device.defects import GateOxideShort

        _swap_device_model(
            bench, self.transistor,
            GateOxideShort(self.location, self.severity),
        )

    def describe(self) -> str:
        return f"GOS at {self.location.upper()} of {self.transistor}"


@dataclasses.dataclass(frozen=True)
class ChannelBreakFault(CircuitFault):
    """Nanowire channel break on one transistor (Section V-C)."""

    transistor: str
    fraction: float = 1.0

    def apply(self, bench: Testbench) -> None:
        from repro.device.defects import ChannelBreak

        _swap_device_model(bench, self.transistor, ChannelBreak(self.fraction))

    def describe(self) -> str:
        kind = "full" if self.fraction >= 1.0 else f"{self.fraction:.0%}"
        return f"{kind} channel break on {self.transistor}"

    def device_state(self) -> tuple[str, DeviceState] | None:
        if self.fraction >= 1.0:
            return (self.transistor, DeviceState.STUCK_OPEN)
        return None


@dataclasses.dataclass(frozen=True)
class StuckOnFault(CircuitFault):
    """Transistor permanently conducting (e.g. CG-to-channel GOS short).

    Modelled electrically as a low-ohmic drain-source bridge.
    """

    transistor: str
    resistance: float = 5e4

    def apply(self, bench: Testbench) -> None:
        device = bench.circuit.devices[bench.device_name(self.transistor)]
        bench.circuit.add_bridge(
            device.d, device.s, resistance=self.resistance,
            name=f"_stuckon_{self.transistor}",
        )

    def describe(self) -> str:
        return f"stuck-on {self.transistor}"

    def device_state(self) -> tuple[str, DeviceState]:
        return (self.transistor, DeviceState.STUCK_ON)


@dataclasses.dataclass(frozen=True)
class TerminalBridgeFault(CircuitFault):
    """Resistive bridge between two gate terminals of one transistor
    (polysilicon deposition defect, Table I step 4)."""

    transistor: str
    terminal_a: str
    terminal_b: str
    resistance: float = 1e3

    def apply(self, bench: Testbench) -> None:
        device = bench.circuit.devices[bench.device_name(self.transistor)]
        net_a = getattr(device, self.terminal_a)
        net_b = getattr(device, self.terminal_b)
        bench.circuit.add_bridge(
            net_a, net_b, resistance=self.resistance,
            name=f"_tbridge_{self.transistor}_"
                 f"{self.terminal_a}_{self.terminal_b}",
        )

    def describe(self) -> str:
        return (
            f"bridge {self.terminal_a.upper()}-{self.terminal_b.upper()} "
            f"on {self.transistor}"
        )


@dataclasses.dataclass(frozen=True)
class InterconnectBridgeFault(CircuitFault):
    """Resistive bridge between two signal nets (metal-layer defect)."""

    net_a: str
    net_b: str
    resistance: float = 1e3

    def apply(self, bench: Testbench) -> None:
        bench.circuit.add_bridge(
            self.net_a, self.net_b, resistance=self.resistance
        )

    def describe(self) -> str:
        return f"interconnect bridge {self.net_a}-{self.net_b}"


@dataclasses.dataclass(frozen=True)
class DriveDriftFault(CircuitFault):
    """Process-variation drive weakening (the delay-fault mechanism)."""

    transistor: str
    i_on_factor: float = 0.5

    def apply(self, bench: Testbench) -> None:
        from repro.device.defects import ParameterDrift

        _swap_device_model(
            bench, self.transistor,
            ParameterDrift(i_on_factor=self.i_on_factor),
        )

    def describe(self) -> str:
        return (
            f"drive drift x{self.i_on_factor:.2f} on {self.transistor}"
        )
