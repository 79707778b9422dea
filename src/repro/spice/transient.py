"""Transient analysis of one circuit (backward-Euler with Newton at each
step).

Backward Euler is unconditionally stable and mildly dissipative — the
right trade-off for delay/leakage characterisation where ringing artifacts
would corrupt 50 %-crossing measurements.  Capacitors become conductance
companions ``C/dt`` with a history current; the step size is fixed and
chosen by the caller relative to the input edge rate.

:func:`run_transient` is the one-point case of
:func:`repro.spice.batched.run_transient_sweep`.
"""

from __future__ import annotations

from repro.spice.batched import run_transient_sweep
from repro.spice.mna import MNASystem, NewtonOptions
from repro.spice.netlist import Circuit
from repro.spice.results import TransientResult

__all__ = ["TransientResult", "run_transient"]


def run_transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    options: NewtonOptions | None = None,
    system: MNASystem | None = None,
) -> TransientResult:
    """Integrate the circuit from its DC operating point to ``t_stop``.

    Args:
        circuit: The circuit to simulate.
        t_stop: End time [s].
        dt: Fixed time step [s].
        options: Newton options.
        system: Pre-built :class:`MNASystem` to amortise assembly across
            repeated transients on a fixed topology.
    """
    return run_transient_sweep(
        circuit, [{}], t_stop, dt, options=options, system=system
    )[0]
