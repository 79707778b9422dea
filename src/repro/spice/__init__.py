"""Circuit-simulation substrate (the paper's HSPICE stand-in).

Modified nodal analysis with Newton-Raphson DC (gmin continuation) and
backward-Euler transient integration, one batched engine for B bias
points at once (:mod:`repro.spice.batched`; the one-point
:func:`solve_dc` and :func:`run_transient` are its ``B = 1`` case);
vectorised TIG-SiNWFET evaluation; delay/leakage (IDDQ) measurement
helpers.
"""

from repro.spice.batched import (
    DCSweepResult,
    run_transient_sweep,
    solve_dc_sweep,
)
from repro.spice.dc import solve_dc
from repro.spice.measure import (
    final_supply_currents,
    logic_level,
    output_swing,
    propagation_delay,
    propagation_delays,
    settles_to,
    threshold_crossings,
)
from repro.spice.mna import ConvergenceError, MNASystem, NewtonOptions
from repro.spice.netlist import (
    Capacitor,
    Circuit,
    CurrentSource,
    DeviceInstance,
    Resistor,
    VoltageSource,
)
from repro.spice.results import OperatingPoint, TransientResult
from repro.spice.transient import run_transient
from repro.spice.waveforms import DC, PWL, Pulse, Step, Waveform, bit_sequence

__all__ = [
    "Capacitor",
    "Circuit",
    "ConvergenceError",
    "CurrentSource",
    "DC",
    "DCSweepResult",
    "DeviceInstance",
    "MNASystem",
    "NewtonOptions",
    "OperatingPoint",
    "PWL",
    "Pulse",
    "Resistor",
    "Step",
    "TransientResult",
    "VoltageSource",
    "Waveform",
    "bit_sequence",
    "final_supply_currents",
    "logic_level",
    "output_swing",
    "propagation_delay",
    "propagation_delays",
    "run_transient",
    "run_transient_sweep",
    "settles_to",
    "solve_dc",
    "solve_dc_sweep",
    "threshold_crossings",
]
