"""Modified nodal analysis (MNA) assembly and the device stamp.

Unknown vector layout: node voltages (all non-ground nodes in sorted
order) followed by one branch current per voltage source.  Nonlinear
device currents and their Jacobians are evaluated with vectorised
finite differences over one stack of rows for the whole circuit: one
base row per device plus one perturbed row per *non-ground* terminal
(a grounded terminal's Jacobian column is never stamped, so it is never
perturbed).  Every row carries its own model's segment parameters
(:class:`repro.device.tig_model.ModelRows`), so the stack is evaluated
in one compact-model kernel pass per distinct ``DeviceParameters`` —
in practice one — with each device defect's hooks applied to its own
rows.  The currents and the Jacobian are then scattered with one
``np.bincount`` each.  The Newton loops that use this stamp live in
:mod:`repro.spice.batched`.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from repro.device.tig_model import ModelRows, TIGSiNWFET
from repro.spice.netlist import Circuit, DEVICE_TERMINALS


class ConvergenceError(RuntimeError):
    """Raised when Newton iteration fails to converge."""


@dataclasses.dataclass
class NewtonOptions:
    """Newton-iteration tuning knobs.

    The gmin continuation ends at 1e-12 S (not zero), the conventional
    SPICE floor: it adds at most ~1 pA per volt of bias — far below every
    leakage observable here — and keeps hard fault-contention cases
    solvable.
    """

    max_iterations: int = 300
    v_tolerance: float = 1e-7
    residual_tolerance: float = 1e-10
    v_limit_step: float = 0.15
    gmin_steps: tuple[float, ...] = (1e-3, 1e-5, 1e-7, 1e-9, 1e-12)


_FD_STEP = 1e-5
"""Finite-difference voltage perturbation for device Jacobians [V]."""


class DeviceGroup(NamedTuple):
    """Devices sharing one compact-model instance.

    ``index_matrix[dev, term]`` is the unknown index of each terminal
    (-1 for ground), terminals in :data:`DEVICE_TERMINALS` order.
    """

    model: TIGSiNWFET
    names: list[str]
    index_matrix: np.ndarray


class MNASystem:
    """Assembled MNA representation of a :class:`Circuit`."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.node_names = circuit.nodes()
        self.node_index = {n: k for k, n in enumerate(self.node_names)}
        self.vsource_names = sorted(circuit.vsources)
        self.n_nodes = len(self.node_names)
        self.size = self.n_nodes + len(self.vsource_names)
        self._build_linear()
        self._build_device_groups()

    # ------------------------------------------------------------------
    def _index(self, node: str) -> int:
        """Index of a node in the unknown vector, -1 for ground."""
        if Circuit.is_ground(node):
            return -1
        return self.node_index[node]

    def _build_linear(self) -> None:
        """Stamp resistors and voltage-source incidence (time-invariant).

        The stamp is assembled exactly once, as a sparse triplet list
        (kept for inspection / sparse factorisation) plus the dense
        matrix every Newton iteration reads.  Derived per-``gmin`` base
        matrices and the device-free direct factorisation are cached
        lazily — see :meth:`base_matrix` and :meth:`linear_solve`.
        """
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []

        def stamp(r: int, c: int, v: float) -> None:
            rows.append(r)
            cols.append(c)
            vals.append(v)

        for r in self.circuit.resistors.values():
            conductance = 1.0 / r.resistance
            a, b = self._index(r.a), self._index(r.b)
            if a >= 0:
                stamp(a, a, conductance)
            if b >= 0:
                stamp(b, b, conductance)
            if a >= 0 and b >= 0:
                stamp(a, b, -conductance)
                stamp(b, a, -conductance)
        for k, name in enumerate(self.vsource_names):
            src = self.circuit.vsources[name]
            row = self.n_nodes + k
            p, n = self._index(src.pos), self._index(src.neg)
            if p >= 0:
                stamp(row, p, 1.0)
                stamp(p, row, 1.0)
            if n >= 0:
                stamp(row, n, -1.0)
                stamp(n, row, -1.0)
        self.linear_triplets = (
            np.asarray(rows, dtype=int),
            np.asarray(cols, dtype=int),
            np.asarray(vals, dtype=float),
        )
        g = np.zeros((self.size, self.size))
        np.add.at(g, (self.linear_triplets[0], self.linear_triplets[1]),
                  self.linear_triplets[2])
        self.g_linear = g
        self._gmin_bases: dict[float, np.ndarray] = {0.0: g}
        self._linear_factor = None

    # ------------------------------------------------------------------
    @property
    def is_linear(self) -> bool:
        """True when the circuit has no nonlinear devices."""
        return not self.circuit.devices

    def base_matrix(
        self, gmin: float = 0.0, g_extra: np.ndarray | None = None
    ) -> np.ndarray:
        """Linear-part system matrix ``g_linear (+ g_extra) (+ gmin)``.

        The pure ``gmin`` variants are cached (the gmin ladder revisits
        the same handful of values on every solve, and sweeps reuse them
        across every bias point); callers must treat the returned array
        as read-only.  With ``g_extra`` a fresh sum is returned.
        """
        if g_extra is None:
            cached = self._gmin_bases.get(gmin)
            if cached is None:
                cached = self.g_linear.copy()
                idx = np.arange(self.n_nodes)
                cached[idx, idx] += gmin
                self._gmin_bases[gmin] = cached
            return cached
        g = self.g_linear + g_extra
        if gmin > 0.0:
            idx = np.arange(self.n_nodes)
            g[idx, idx] += gmin
        return g

    def linear_solve(self, b: np.ndarray, gmin: float) -> np.ndarray:
        """Direct solve of the device-free system (prefactorised).

        Only valid when :attr:`is_linear`; the LU factorisation of the
        (sparse) stamp at the given ``gmin`` floor is computed once per
        system and reused for every right-hand side — DC sweeps on
        linear circuits skip Newton iteration entirely.  A singular
        stamp (e.g. two voltage sources in parallel) raises
        :class:`ConvergenceError`.
        """
        if not self.is_linear:
            raise ValueError("linear_solve requires a device-free circuit")
        if self._linear_factor is None or self._linear_factor[0] != gmin:
            from scipy.sparse import csc_matrix
            from scipy.sparse.linalg import splu

            try:
                lu = splu(csc_matrix(self.base_matrix(gmin)))
            except RuntimeError as exc:  # "Factor is exactly singular"
                raise ConvergenceError(
                    f"singular linear system in circuit "
                    f"{self.circuit.title!r}"
                ) from exc
            self._linear_factor = (gmin, lu.solve)
        b = np.asarray(b, dtype=float)
        if b.ndim == 1:
            return self._linear_factor[1](b)
        # Batched right-hand sides: factor once, solve columns together.
        return self._linear_factor[1](b.T).T

    def _build_device_groups(self) -> None:
        """Group devices by compact-model identity and plan the stamp.

        The plan is built once here.  Each group contributes ``n`` base
        rows (one per device) plus one perturbed row per non-ground
        ``(device, terminal)`` pair, so a grounded terminal — whose
        Jacobian column is never stamped — is never perturbed.  The rows
        of all groups form one stack, ``_gather`` (indices into the
        solution padded with a zero ground column), perturbed by one add
        of ``_fd_offset`` (``_FD_STEP`` at each perturbed row's terminal,
        zero elsewhere); groups sharing a ``DeviceParameters`` are
        adjacent, and each such run of rows is one kernel pass
        (``_passes``).  In the flattened ``(rows * 5)``
        kernel output, ``_i_src`` picks the base current of each
        non-ground terminal and ``_j_pert`` / ``_j_base`` the perturbed
        and base current of each Jacobian entry.  Their scatter targets
        (``row * size + col`` for the Jacobian) are joined in group
        order, so :meth:`device_contributions` scatters with one
        ``np.bincount`` apiece and each entry sums its contributions
        group by group and device by device, in one fixed order for
        every batch size.
        """
        groups: dict[int, list[str]] = {}
        for name, dev in self.circuit.devices.items():
            groups.setdefault(id(dev.model), []).append(name)
        self.device_groups: list[DeviceGroup] = []
        for names in groups.values():
            names.sort()
            index_matrix = np.empty((len(names), 5), dtype=int)
            for i, dev_name in enumerate(names):
                dev = self.circuit.devices[dev_name]
                for j, term in enumerate(DEVICE_TERMINALS):
                    index_matrix[i, j] = self._index(getattr(dev, term))
            self.device_groups.append(DeviceGroup(
                model=self.circuit.devices[names[0]].model,
                names=names,
                index_matrix=index_matrix,
            ))
        by_params: dict[object, list[int]] = {}
        for g, group in enumerate(self.device_groups):
            by_params.setdefault(group.model.params, []).append(g)
        row_order = [g for run in by_params.values() for g in run]
        valid = [group.index_matrix >= 0 for group in self.device_groups]
        n_rows = [v.shape[0] + np.count_nonzero(v) for v in valid]
        row_offset, lo = {}, 0
        for g in row_order:
            row_offset[g] = lo
            lo += n_rows[g]
        gather: dict[int, np.ndarray] = {}
        pert_rows, pert_cols, i_src, j_pert, j_base = [], [], [], [], []
        i_targets, j_targets = [], []
        for g, group in enumerate(self.device_groups):
            index_matrix, ok = group.index_matrix, valid[g]
            n, lo = ok.shape[0], row_offset[g]
            # Perturbed rows: every non-ground (device, terminal), in
            # device-major order.  Ground gathers the zero pad column.
            pert_dev, pert_term = np.nonzero(ok)
            padded = np.where(ok, index_matrix, self.size)
            gather[g] = np.concatenate([padded, padded[pert_dev]])
            pert_rows.append(lo + n + np.arange(pert_dev.size))
            pert_cols.append(pert_term)
            # Jacobian entries: d(I into terminal t)/d(V of the perturbed
            # terminal) for every non-ground t of the perturbed device,
            # in (device, perturbed terminal, t) order.
            k, t = np.nonzero(ok[pert_dev])
            dev_k = pert_dev[k]
            i_src.append(lo * 5 + np.flatnonzero(ok))
            j_pert.append((lo + n + k) * 5 + t)
            j_base.append((lo + dev_k) * 5 + t)
            i_targets.append(index_matrix[ok])
            j_targets.append(
                index_matrix[dev_k, t] * self.size
                + index_matrix[dev_k, pert_term[k]]
            )
        self._passes = []
        for run in by_params.values():
            rows = ModelRows([
                (self.device_groups[g].model, n_rows[g]) for g in run
            ])
            lo = row_offset[run[0]]
            self._passes.append((rows, slice(lo, lo + rows.n_rows)))

        def joined(parts: list[np.ndarray]) -> np.ndarray:
            return np.concatenate(parts) if parts else np.empty(0, int)

        self._gather = joined([gather[g] for g in row_order])
        self._fd_offset = np.zeros((self._gather.shape[0], 5))
        self._fd_offset[joined(pert_rows), joined(pert_cols)] = _FD_STEP
        self._i_src = joined(i_src)
        self._j_pert = joined(j_pert)
        self._j_base = joined(j_base)
        self._i_targets = joined(i_targets)
        self._j_targets = joined(j_targets)
        self._batch_targets = (0, np.empty(0, int), np.empty(0, int))

    def _scatter_targets(self, n_batch: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat current/Jacobian targets of a ``(n_batch, size)`` stack.

        Those of a smaller stack are a prefix of those of a larger one,
        so only the largest stack's are kept, and every smaller size
        the Newton loops revisit as their active sets shrink is a view.
        """
        kept, i_all, j_all = self._batch_targets
        if n_batch > kept:
            batch = np.arange(n_batch)[:, None]
            i_all = (batch * self.size + self._i_targets).ravel()
            j_all = (batch * self.size**2 + self._j_targets).ravel()
            self._batch_targets = (n_batch, i_all, j_all)
        return (
            i_all[: n_batch * self._i_targets.size],
            j_all[: n_batch * self._j_targets.size],
        )

    # ------------------------------------------------------------------
    def source_rhs(self, t: float) -> np.ndarray:
        """Right-hand side from independent sources at time ``t``."""
        b = np.zeros(self.size)
        for k, name in enumerate(self.vsource_names):
            b[self.n_nodes + k] = self.circuit.vsources[name].waveform(t)
        for src in self.circuit.isources.values():
            value = src.waveform(t)
            p, n = self._index(src.pos), self._index(src.neg)
            if p >= 0:
                b[p] -= value
            if n >= 0:
                b[n] += value
        return b

    def device_contributions(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nonlinear current vector and Jacobian at solution estimate ``x``.

        Returns ``(i_dev, j_dev)`` where ``i_dev`` has the device currents
        summed into node rows, and ``j_dev`` the corresponding
        conductance Jacobian.  ``x`` is one solution of shape ``(size,)``
        or a stack ``(B, size)`` of independent points (the batched
        Newton loops of :mod:`repro.spice.batched`); the results then
        gain the same leading axis.  A point's stamp does not depend on
        the rest of the stack: one point alone is the ``B = 1`` case.
        """
        if not self._passes:
            return np.zeros(x.shape), np.zeros(x.shape + (self.size,))
        stack = x.reshape(-1, self.size)
        n_batch = stack.shape[0]
        padded = np.zeros((n_batch, self.size + 1))  # last column: ground
        padded[:, : self.size] = stack
        volts = padded.take(self._gather, axis=1)
        volts += self._fd_offset
        if len(self._passes) == 1:
            currents = self._passes[0][0].terminal_currents(volts)
        else:
            currents = np.concatenate([
                rows.terminal_currents(volts[:, span])
                for rows, span in self._passes
            ], axis=1)
        currents = currents.reshape(n_batch, -1)
        w_i = currents.take(self._i_src, axis=1)
        w_j = currents.take(self._j_pert, axis=1)
        w_j -= currents.take(self._j_base, axis=1)
        w_j /= _FD_STEP
        i_targets, j_targets = self._scatter_targets(n_batch)
        i_dev = np.bincount(
            i_targets, weights=w_i.ravel(), minlength=n_batch * self.size
        )
        j_dev = np.bincount(
            j_targets, weights=w_j.ravel(),
            minlength=n_batch * self.size**2,
        )
        shape = x.shape[:-1]
        return (
            i_dev.reshape(shape + (self.size,)),
            j_dev.reshape(shape + (self.size, self.size)),
        )
