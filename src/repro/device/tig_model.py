"""Analytic compact model of the TIG-SiNWFET.

This module replaces the paper's Sentaurus TCAD + Verilog-A table model with
a physics-flavoured analytic model (see DESIGN.md for the substitution
argument).  The device is a gate-all-around silicon nanowire with NiSi
Schottky source/drain contacts and three independent gates:

* ``PGS`` — polarity gate over the source-side Schottky junction,
* ``CG`` — control gate over the channel body,
* ``PGD`` — polarity gate over the drain-side Schottky junction.

Conduction requires all three gates to agree: all high for the electron
(n-type) branch, all low for the hole (p-type) branch; mixed biases block
the channel — the device is off when ``CG xor (PGS and PGD)`` in logic
terms.  Each branch is modelled as three gated barrier segments in series,
with the carrier-injection side evaluated at full strength and the exit
side softened (``drain_weight``) to encode the quasi-ballistic transport
under the drain gate described in Section IV-B of the paper.

The model is bidirectional (source/drain roles follow the terminal
voltages), smooth in all terminal voltages, and vectorised over numpy
arrays.  It has one kernel, :meth:`ModelRows.terminal_currents`, over
rows that each carry their own model's segment parameters: a single
:class:`TIGSiNWFET` evaluates one run of rows, and the SPICE device
stamp stacks every device of a circuit into one call.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from repro.device import physics
from repro.device.defects import DeviceDefect
from repro.device.params import DEFAULT_PARAMS, DeviceParameters

TERMINALS = ("d", "cg", "pgs", "pgd", "s")
"""Canonical terminal ordering used by terminal-current dictionaries."""

_COLUMN = {name: k for k, name in enumerate(TERMINALS)}

#: The twelve gated segments of one evaluation, ordered (direction,
#: branch, position): forward flow (source is the low terminal) then
#: reverse; electron then hole branch; injection polarity gate, control
#: gate, exit polarity gate.  Each entry is ``(gate, branch, reference
#: terminal)``: electrons are injected at the low terminal, holes at the
#: high one, and each segment's gate voltage is taken relative to its
#: branch's injection terminal.
_SEGMENTS = (
    ("pgs", "n", "s"), ("cg", "n", "s"), ("pgd", "n", "s"),
    ("pgd", "p", "d"), ("cg", "p", "d"), ("pgs", "p", "d"),
    ("pgd", "n", "d"), ("cg", "n", "d"), ("pgs", "n", "d"),
    ("pgs", "p", "s"), ("cg", "p", "s"), ("pgd", "p", "s"),
)


def _difference_matrix(pairs: list[tuple[str, str]]) -> np.ndarray:
    """``(5, len(pairs))`` matrix ``m`` such that ``(volts @ m)[..., k]``
    is ``v[plus] - v[minus]`` of pair ``k = (plus, minus)``.

    Its entries are +1, -1 and 0: the products are exact and adding the
    zeros is exact, so the matmul is the plain difference to the last
    bit.
    """
    m = np.zeros((len(TERMINALS), len(pairs)))
    for k, (plus, minus) in enumerate(pairs):
        m[_COLUMN[plus], k] = 1.0
        m[_COLUMN[minus], k] = -1.0
    return m


#: Each segment's activation argument is the first terminal's voltage
#: minus the second's — gate minus reference for electron segments,
#: reference minus gate for hole segments (the mirrored activation).
_SEGMENT_DIFF = _difference_matrix([
    (gate, ref) if branch == "n" else (ref, gate)
    for gate, branch, ref in _SEGMENTS
])
#: The drain-source voltage of the forward and the reverse direction.
_VDS_DIFF = _difference_matrix([("d", "s"), ("s", "d")])


@dataclasses.dataclass(frozen=True)
class OperatingPoint:
    """Terminal voltages of a TIG-SiNWFET instance [V]."""

    v_cg: float
    v_pgs: float
    v_pgd: float
    v_d: float
    v_s: float


class TIGSiNWFET:
    """Compact model of a three-independent-gate SiNWFET.

    Args:
        params: Structural/electrical parameters (defaults to Table II).
        defect: Optional device-level defect (see
            :mod:`repro.device.defects`); ``None`` models a fault-free
            device.

    The main entry points are :meth:`drain_current` for plain I-V
    evaluation and :meth:`terminal_currents` for circuit simulation (which
    also reports gate currents when a gate-oxide short is present).
    """

    def __init__(
        self,
        params: DeviceParameters = DEFAULT_PARAMS,
        defect: DeviceDefect | None = None,
    ) -> None:
        self.params = params
        self.defect = defect
        # Normalisation so that the fault-free on-current at
        # (VCG = VPGS = VPGD = VDS = VDD) equals params.i_on.
        unit = physics.saturation_factor(
            params.vdd, params.v_dsat, params.v_early
        )
        on_activation = physics.series_activation(1.0, 1.0, 1.0)
        self._i0 = params.i_on / (float(unit) * float(on_activation))
        # Per-segment threshold, slope and activation factor; the
        # defect's shifts and factors are read once, here.
        vth, ss, factor = [], [], []
        for gate, branch, _ref in _SEGMENTS:
            is_cg = gate == "cg"
            shift = 0.0 if defect is None else defect.vth_shift(gate, branch)
            vth.append((params.vth_cg if is_cg else params.vth_pg) + shift)
            ss.append(params.ss_cg if is_cg else params.ss_pg)
            factor.append(
                1.0 if defect is None else defect.segment_factor(gate, branch)
            )
        self._vth = np.array(vth)
        self._ss = np.array(ss)
        self._factor = np.array(factor)
        self._rows = ModelRows([(self, 1)])

    # ------------------------------------------------------------------
    # Current evaluation
    # ------------------------------------------------------------------
    def drain_current(
        self,
        v_cg: np.ndarray | float,
        v_pgs: np.ndarray | float,
        v_pgd: np.ndarray | float,
        v_d: np.ndarray | float,
        v_s: np.ndarray | float,
    ) -> np.ndarray | float:
        """Conventional current into the drain terminal [A].

        Positive when current flows drain -> source inside the channel
        (normal n-type operation with ``v_d > v_s``).  Vectorised: any
        argument may be a numpy array (they broadcast together).
        """
        volts = np.stack(
            np.broadcast_arrays(
                *(np.asarray(v, dtype=float)
                  for v in (v_d, v_cg, v_pgs, v_pgd, v_s))
            ),
            axis=-1,
        )
        current = self._rows.terminal_currents(volts[..., None, :])[..., 0, 0]
        if current.shape == ():
            return float(current)
        return current.copy()

    def terminal_currents(
        self,
        v_cg: float,
        v_pgs: float,
        v_pgd: float,
        v_d: float,
        v_s: float,
    ) -> dict[str, float]:
        """Currents *into* each terminal [A], for circuit simulation.

        For a fault-free device the gate currents are zero and
        ``i_d == -i_s``.  A gate-oxide short adds a shunt current from the
        defective gate into the channel, split between drain and source
        according to the defect position.
        """
        i_d = float(
            np.asarray(
                self.drain_current(v_cg, v_pgs, v_pgd, v_d, v_s)
            )
        )
        currents = {"d": i_d, "s": -i_d, "cg": 0.0, "pgs": 0.0, "pgd": 0.0}
        if self.defect is not None:
            self.defect.add_shunt_currents(
                self, currents, v_cg, v_pgs, v_pgd, v_d, v_s
            )
        return currents

    def terminal_current_matrix(self, volts: np.ndarray) -> np.ndarray:
        """Vectorised terminal currents for circuit simulation.

        Args:
            volts: Array of shape ``(..., 5)`` holding terminal voltages in
                the order ``(d, cg, pgs, pgd, s)``.

        Returns:
            Array of the same shape with the current flowing *into* each
            terminal.  Gate columns are zero unless the defect defines a
            gate-to-channel shunt.
        """
        volts = np.asarray(volts, dtype=float)
        if volts.shape[-1] != 5:
            raise ValueError("last axis must hold (d, cg, pgs, pgd, s)")
        return self._rows.terminal_currents(volts[..., None, :])[..., 0, :]

    # ------------------------------------------------------------------
    # Convenience predicates
    # ------------------------------------------------------------------
    def conducts(
        self, cg: int, pgs: int, pgd: int
    ) -> bool:
        """Logic-level conduction predicate of a fault-free CP device.

        Implements the paper's condition: conduction iff
        ``CG == PGS == PGD`` (all 1: n-type, all 0: p-type); equivalently
        the device is off iff ``CG xor (PGS and PGD)``.
        """
        for value in (cg, pgs, pgd):
            if value not in (0, 1):
                raise ValueError(
                    f"logic-level inputs must be 0 or 1, got {value}"
                )
        return cg == pgs == pgd

    def polarity(self, pgs: int, pgd: int) -> str:
        """Return the configured polarity for logic-level PG values.

        ``'n'`` when both polarity gates are high, ``'p'`` when both are
        low, ``'off'`` for mixed biases (the device cannot conduct).
        """
        if pgs == 1 and pgd == 1:
            return "n"
        if pgs == 0 and pgd == 0:
            return "p"
        return "off"


class _DefectRows(NamedTuple):
    """A defective model's run of rows, and its gate-to-channel shunt
    ``(gate column, resistance, alpha)`` or ``None``."""

    model: TIGSiNWFET
    rows: slice
    shunt: tuple[int, float, float] | None


class ModelRows:
    """Per-row parameters of the compact-model kernel, and the kernel.

    The kernel evaluates a stack of terminal-voltage rows ``(..., rows,
    5)``.  Every row has the segment thresholds, slopes and activation
    factors of its own model — arrays of shape ``(rows, 12)`` — while the
    :class:`DeviceParameters` scalars are shared by all rows.  The rows
    are built from consecutive runs ``(model, n_rows)``: one model is
    the one-run case (:meth:`TIGSiNWFET.terminal_current_matrix`), and
    the devices of a circuit are the many-run case
    (:class:`repro.spice.mna.MNASystem` builds one per parameter set).
    A defective model's hooks act on its own run of rows only.
    """

    def __init__(self, runs: "list[tuple[TIGSiNWFET, int]]") -> None:
        self.params = runs[0][0].params
        if any(model.params != self.params for model, _n in runs):
            raise ValueError("all rows must share one DeviceParameters")
        counts = [n for _model, n in runs]
        self.n_rows = sum(counts)
        self._i0 = runs[0][0]._i0
        self._vth, self._ss, self._factor = (
            np.repeat(np.array([getattr(model, name) for model, _n in runs]),
                      counts, axis=0)
            for name in ("_vth", "_ss", "_factor")
        )
        self._defects: list[_DefectRows] = []
        lo = 0
        for model, n in runs:
            defect = model.defect
            if defect is not None:
                spec = defect.shunt_spec()
                self._defects.append(_DefectRows(
                    model=model,
                    rows=slice(lo, lo + n),
                    shunt=None if spec is None
                    else (_COLUMN[spec[0]], spec[1], spec[2]),
                ))
            lo += n

    def terminal_currents(self, volts: np.ndarray) -> np.ndarray:
        """Currents *into* each terminal for voltages ``(..., rows, 5)``
        in :data:`TERMINALS` order.

        The one compact-model kernel: all twelve gated segments (see
        :data:`_SEGMENTS`) of all rows are evaluated as one stacked
        ``(..., rows, 12)`` pass — one matmul for the gate-minus-reference
        voltages (:data:`_SEGMENT_DIFF`), one in-place logistic, one
        exit-segment power, one series combination per group of three.
        The source column is the negative of the drain column.  Each
        defect's channel-current and drain-current hooks, and its
        gate-to-channel shunt (which adds to the gate and source
        columns), act on its model's rows only.
        """
        p = self.params
        arg = volts @ _SEGMENT_DIFF  # (..., rows, 12)
        arg -= self._vth
        arg /= self._ss
        arg *= physics.LN10
        act = physics.expit(arg, out=arg)  # physics.logistic10, in place
        # (..., rows, direction * branch, position): the carrier-exit
        # segment of each group of three is softened by drain_weight.
        groups = act.reshape(act.shape[:-1] + (4, 3))
        exit_act = groups[..., 2]
        np.maximum(exit_act, physics.ACTIVATION_FLOOR, out=exit_act)
        np.power(exit_act, p.drain_weight, out=exit_act)
        act *= self._factor
        np.maximum(act, physics.ACTIVATION_FLOOR, out=act)
        inverse = np.divide(1.0, act, out=act).reshape(groups.shape)
        series = inverse[..., 0] + inverse[..., 1]
        series += inverse[..., 2]
        np.divide(3, series, out=series)  # (..., rows, direction * branch)

        vds = volts @ _VDS_DIFF  # (..., rows, direction)
        vds_eff = physics.smooth_positive(vds)
        sat = physics.saturation_factor(vds_eff, p.v_dsat, p.v_early)
        current = series[..., 1::2] * p.p_branch_factor
        current += series[..., 0::2]
        current *= self._i0
        current *= sat  # (..., rows, direction)
        for d in self._defects:
            current[..., d.rows, :] = d.model.defect.scale_channel_current(
                d.model, current[..., d.rows, :]
            )
        out = np.zeros(volts.shape)
        i_d = out[..., 0]
        np.subtract(current[..., 0], current[..., 1], out=i_d)
        i_d += p.i_floor * np.tanh(vds[..., 0] / 0.05)
        for d in self._defects:
            v = volts[..., d.rows, :]
            i_d[..., d.rows] += d.model.defect.extra_drain_current(
                d.model, v[..., 1], v[..., 2], v[..., 3], v[..., 0],
                v[..., 4],
            )
        np.negative(i_d, out=out[..., 4])
        # The drain column already holds the shunt's drain-side share
        # (alpha * i_shunt, from extra_drain_current); route the
        # remainder through the source column and pull the total from
        # the gate so that the terminal currents sum to zero.
        for d in self._defects:
            if d.shunt is None:
                continue
            gate_col, resistance, alpha = d.shunt
            v = volts[..., d.rows, :]
            v_channel = alpha * v[..., 0] + (1.0 - alpha) * v[..., 4]
            i_shunt = (v[..., gate_col] - v_channel) / resistance
            out[..., d.rows, gate_col] -= i_shunt
            out[..., d.rows, 4] += i_shunt
        return out
