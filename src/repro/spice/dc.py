"""DC operating-point analysis of one bias point.

:func:`solve_dc` is the one-point case of
:func:`repro.spice.batched.solve_dc_sweep`: the same Newton loop and
gmin ladder, on a stack of one.
"""

from __future__ import annotations

import numpy as np

from repro.spice.batched import solve_dc_sweep
from repro.spice.mna import MNASystem, NewtonOptions
from repro.spice.netlist import Circuit
from repro.spice.results import OperatingPoint

__all__ = ["OperatingPoint", "solve_dc"]


def solve_dc(
    circuit: Circuit,
    t: float = 0.0,
    x0: np.ndarray | None = None,
    options: NewtonOptions | None = None,
    system: MNASystem | None = None,
) -> OperatingPoint:
    """Compute the DC operating point of ``circuit``.

    Waveform sources are evaluated at time ``t``.  A pre-built
    :class:`MNASystem` can be supplied to amortise assembly across many
    solves (e.g. input-vector sweeps on a fixed topology).  Raises
    :class:`~repro.spice.mna.ConvergenceError` when the point does not
    converge.
    """
    return solve_dc_sweep(
        circuit, [{}], t=t, x0=x0, options=options, system=system
    ).point(0)
