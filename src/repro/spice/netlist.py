"""Circuit netlist representation for the MNA simulator.

A :class:`Circuit` is a named collection of elements over named nodes.
Supported elements: resistors, capacitors, (time-dependent) voltage
sources, current sources and five-terminal TIG-SiNWFET instances.

Fault-injection helpers mirror the paper's defect set at circuit level:

* :meth:`Circuit.replace_device_model` — swap in a defective compact model
  (GOS, channel break, parameter drift) for one transistor;
* :meth:`Circuit.disconnect_terminal` — open defect: rewires one device
  terminal to a fresh floating node (drive it with a source to sweep the
  paper's ``Vcut``);
* :meth:`Circuit.add_bridge` — resistive bridge between two nets (the
  polarity-terminal-to-rail bridge of Section V-B, inter-connect bridges
  of Table I step 5).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.spice.waveforms import DC, Waveform

if TYPE_CHECKING:  # pragma: no cover
    from repro.device.tig_model import TIGSiNWFET

GROUND_NAMES = frozenset({"0", "gnd", "GND", "vss", "VSS"})

DEVICE_TERMINALS = ("d", "cg", "pgs", "pgd", "s")


@dataclasses.dataclass
class Resistor:
    name: str
    a: str
    b: str
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ValueError(
                f"resistor {self.name}: resistance must be positive"
            )


@dataclasses.dataclass
class Capacitor:
    name: str
    a: str
    b: str
    capacitance: float

    def __post_init__(self) -> None:
        if self.capacitance <= 0:
            raise ValueError(
                f"capacitor {self.name}: capacitance must be positive"
            )


@dataclasses.dataclass
class VoltageSource:
    name: str
    pos: str
    neg: str
    waveform: Waveform


@dataclasses.dataclass
class CurrentSource:
    name: str
    pos: str
    neg: str
    waveform: Waveform


@dataclasses.dataclass
class DeviceInstance:
    """A TIG-SiNWFET instance: model + terminal-to-node mapping."""

    name: str
    model: TIGSiNWFET  # the MNA stamp reads its per-row kernel parameters
    d: str
    cg: str
    pgs: str
    pgd: str
    s: str

    def terminal_nodes(self) -> dict[str, str]:
        return {t: getattr(self, t) for t in DEVICE_TERMINALS}


class Circuit:
    """A flat transistor-level circuit."""

    def __init__(self, title: str = "") -> None:
        self.title = title
        self.resistors: dict[str, Resistor] = {}
        self.capacitors: dict[str, Capacitor] = {}
        self.vsources: dict[str, VoltageSource] = {}
        self.isources: dict[str, CurrentSource] = {}
        self.devices: dict[str, DeviceInstance] = {}
        self._float_counter = 0

    # ------------------------------------------------------------------
    # Element constructors
    # ------------------------------------------------------------------
    def _check_new(self, name: str) -> None:
        for table in (
            self.resistors,
            self.capacitors,
            self.vsources,
            self.isources,
            self.devices,
        ):
            if name in table:
                raise ValueError(f"duplicate element name {name!r}")

    def add_resistor(self, name: str, a: str, b: str, resistance: float) -> Resistor:
        self._check_new(name)
        element = Resistor(name, a, b, resistance)
        self.resistors[name] = element
        return element

    def add_capacitor(
        self, name: str, a: str, b: str, capacitance: float
    ) -> Capacitor:
        self._check_new(name)
        element = Capacitor(name, a, b, capacitance)
        self.capacitors[name] = element
        return element

    def add_vsource(
        self, name: str, pos: str, neg: str, waveform: Waveform | float
    ) -> VoltageSource:
        self._check_new(name)
        if isinstance(waveform, (int, float)):
            waveform = DC(float(waveform))
        element = VoltageSource(name, pos, neg, waveform)
        self.vsources[name] = element
        return element

    def add_isource(
        self, name: str, pos: str, neg: str, waveform: Waveform | float
    ) -> CurrentSource:
        self._check_new(name)
        if isinstance(waveform, (int, float)):
            waveform = DC(float(waveform))
        element = CurrentSource(name, pos, neg, waveform)
        self.isources[name] = element
        return element

    def add_device(
        self,
        name: str,
        model: object,
        d: str,
        cg: str,
        pgs: str,
        pgd: str,
        s: str,
    ) -> DeviceInstance:
        self._check_new(name)
        element = DeviceInstance(name, model, d, cg, pgs, pgd, s)
        self.devices[name] = element
        return element

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def nodes(self) -> list[str]:
        """All non-ground node names, sorted for deterministic ordering."""
        found: set[str] = set()
        for r in self.resistors.values():
            found.update((r.a, r.b))
        for c in self.capacitors.values():
            found.update((c.a, c.b))
        for v in self.vsources.values():
            found.update((v.pos, v.neg))
        for i in self.isources.values():
            found.update((i.pos, i.neg))
        for dev in self.devices.values():
            found.update(dev.terminal_nodes().values())
        return sorted(found - GROUND_NAMES)

    @staticmethod
    def is_ground(node: str) -> bool:
        return node in GROUND_NAMES

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def replace_device_model(self, name: str, model: object) -> None:
        """Swap the compact model of one device (defect injection)."""
        if name not in self.devices:
            raise KeyError(f"no device named {name!r}")
        self.devices[name].model = model

    def disconnect_terminal(self, device_name: str, terminal: str) -> str:
        """Open defect: float one device terminal.

        The terminal is rewired to a fresh node, which is returned so the
        caller can attach a source (to sweep the floating-node voltage
        ``Vcut``) or a leakage resistor.
        """
        if device_name not in self.devices:
            raise KeyError(f"no device named {device_name!r}")
        if terminal not in DEVICE_TERMINALS:
            raise ValueError(
                f"terminal must be one of {DEVICE_TERMINALS}, got {terminal!r}"
            )
        self._float_counter += 1
        float_node = f"_float_{device_name}_{terminal}_{self._float_counter}"
        setattr(self.devices[device_name], terminal, float_node)
        return float_node

    def add_bridge(
        self, a: str, b: str, resistance: float = 1e3, name: str | None = None
    ) -> Resistor:
        """Bridge defect: a (low-ohmic) resistive short between two nets."""
        if name is None:
            name = f"_bridge_{a}_{b}"
        return self.add_resistor(name, a, b, resistance)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"Circuit({self.title!r}: {len(self.devices)} devices, "
            f"{len(self.resistors)} R, {len(self.capacitors)} C, "
            f"{len(self.vsources)} V)"
        )
