"""Build SPICE circuits from cell templates (testbench construction).

The paper characterises gates driven by ideal sources into a fan-out-of-4
(FO4) inverter load; :func:`build_cell_circuit` reproduces that setup:

* one voltage source per primary input (complement inputs derived with
  :class:`~repro.spice.waveforms.Complement`),
* the device under test, instantiated as ``<cell>.<transistor>``,
* optional FO4 load inverters hanging off ``out``,
* device parasitic capacitances from the Table II parameter set.
"""

from __future__ import annotations

import dataclasses

from repro.device.cache import cached_device
from repro.device.params import DEFAULT_PARAMS, DeviceParameters
from repro.gates.cell import Cell
from repro.gates.library import INV
from repro.spice.netlist import Circuit
from repro.spice.waveforms import DC, Complement, Waveform


@dataclasses.dataclass
class Testbench:
    """A built cell testbench.

    Attributes:
        circuit: The SPICE circuit.
        cell: The cell under test.
        dut_prefix: Device-name prefix of the cell under test; transistor
            ``t1`` of the DUT is ``f"{dut_prefix}t1"``.
        vdd: Supply voltage.
    """

    circuit: Circuit
    cell: Cell
    dut_prefix: str
    vdd: float

    def device_name(self, transistor_name: str) -> str:
        return f"{self.dut_prefix}{transistor_name}"

    def set_input(self, name: str, waveform: Waveform | float) -> None:
        """Re-drive one primary input (complement source tracks it)."""
        if isinstance(waveform, (int, float)):
            waveform = DC(float(waveform))
        self.circuit.vsources[f"vin_{name}"].waveform = waveform
        comp_name = f"vin_{name}_n"
        if comp_name in self.circuit.vsources:
            self.circuit.vsources[comp_name].waveform = Complement(
                waveform, self.vdd
            )

    def set_vector(self, vector: tuple[int, ...]) -> None:
        """Apply a static logic vector to the primary inputs."""
        if len(vector) != self.cell.n_inputs:
            raise ValueError(
                f"{self.cell.name} expects {self.cell.n_inputs} bits"
            )
        for name, bit in zip(self.cell.inputs, vector):
            self.set_input(name, bit * self.vdd)

    def vector_bias(self, vector: tuple[int, ...]) -> dict[str, float]:
        """Source levels of a static logic vector, as a bias point.

        The returned mapping (input sources plus their tracking
        complements) feeds :func:`repro.spice.batched.solve_dc_sweep`
        without mutating any waveform — the batched equivalent of
        :meth:`set_vector`.
        """
        if len(vector) != self.cell.n_inputs:
            raise ValueError(
                f"{self.cell.name} expects {self.cell.n_inputs} bits"
            )
        point: dict[str, float] = {}
        for name, bit in zip(self.cell.inputs, vector):
            level = bit * self.vdd
            point[f"vin_{name}"] = level
            if f"vin_{name}_n" in self.circuit.vsources:
                point[f"vin_{name}_n"] = self.vdd - level
        return point


def _instantiate_cell(
    circuit: Circuit,
    cell: Cell,
    prefix: str,
    model: object,
    net_map: dict[str, str],
    params: DeviceParameters,
) -> None:
    """Add a cell's transistors (plus parasitics) to ``circuit``.

    ``net_map`` maps cell-template nets to circuit nets; unmapped internal
    nets are prefixed to stay private to the instance.
    """

    def resolve(net: str) -> str:
        if net in net_map:
            return net_map[net]
        if net in ("vdd", "gnd"):
            return {"vdd": "vdd", "gnd": "0"}[net]
        return f"{prefix}{net}"

    for t in cell.transistors:
        circuit.add_device(
            f"{prefix}{t.name}",
            model,
            d=resolve(t.d),
            cg=resolve(t.cg),
            pgs=resolve(t.pgs),
            pgd=resolve(t.pgd),
            s=resolve(t.s),
        )
        # Gate-input capacitance (CG plus both PGs when signal-driven)
        # and junction capacitance on drain/source.
        for gate_net in (t.cg, t.pgs, t.pgd):
            node = resolve(gate_net)
            if node not in ("vdd", "0"):
                circuit.add_capacitor(
                    f"{prefix}{t.name}_cg_{gate_net}"
                    f"_{len(circuit.capacitors)}",
                    node,
                    "0",
                    params.c_gate,
                )
        for junction_net in (t.d, t.s):
            node = resolve(junction_net)
            if node not in ("vdd", "0"):
                circuit.add_capacitor(
                    f"{prefix}{t.name}_cj_{junction_net}"
                    f"_{len(circuit.capacitors)}",
                    node,
                    "0",
                    params.c_junction,
                )


def build_cell_circuit(
    cell: Cell,
    input_waveforms: dict[str, Waveform | float] | None = None,
    fanout: int = 4,
    model: object | None = None,
    params: DeviceParameters = DEFAULT_PARAMS,
    extra_load_capacitance: float = 0.0,
) -> Testbench:
    """Build the standard characterisation testbench for ``cell``.

    Args:
        cell: Cell under test.
        input_waveforms: Optional drive per input name; defaults to 0 V.
        fanout: Number of INV loads on the output (0 disables).
        model: Compact model shared by all fault-free devices; defaults
            to the process-memoised fault-free
            :class:`~repro.device.tig_model.TIGSiNWFET` for ``params``.
        params: Device parameters (used for parasitics and VDD).
        extra_load_capacitance: Additional lumped load on ``out``.
    """
    if model is None:
        model = cached_device(params)
    vdd = params.vdd
    circuit = Circuit(f"{cell.name}_tb")
    circuit.add_vsource("vdd", "vdd", "0", vdd)

    waveforms = dict(input_waveforms or {})
    complements = cell.complement_nets()
    for name in cell.inputs:
        waveform = waveforms.get(name, 0.0)
        if isinstance(waveform, (int, float)):
            waveform = DC(float(waveform))
        circuit.add_vsource(f"vin_{name}", name, "0", waveform)
        if f"{name}_n" in complements:
            circuit.add_vsource(
                f"vin_{name}_n", f"{name}_n", "0", Complement(waveform, vdd)
            )

    dut_prefix = f"{cell.name.lower()}."
    net_map = {"out": "out"}
    net_map.update({name: name for name in cell.inputs})
    net_map.update({name: name for name in complements})
    _instantiate_cell(circuit, cell, dut_prefix, model, net_map, params)

    for k in range(fanout):
        load_prefix = f"load{k}."
        _instantiate_cell(
            circuit,
            INV,
            load_prefix,
            model,
            {"a": "out", "out": f"load{k}_out"},
            params,
        )
        circuit.add_capacitor(
            f"cl_load{k}", f"load{k}_out", "0", params.c_junction
        )
    if extra_load_capacitance > 0.0:
        circuit.add_capacitor("cl_extra", "out", "0", extra_load_capacitance)
    if fanout == 0 and extra_load_capacitance == 0.0:
        # Keep the output node capacitive so transients are well-posed.
        circuit.add_capacitor("cl_min", "out", "0", params.c_junction)
    return Testbench(
        circuit=circuit, cell=cell, dut_prefix=dut_prefix, vdd=vdd
    )
