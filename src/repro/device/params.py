"""Physical constants and TIG-SiNWFET device parameters.

The structural parameters reproduce Table II of the paper; the electrical
calibration constants are chosen so that the compact model in
:mod:`repro.device.tig_model` hits the paper's published anchor values
(Ion ~ 4.5 uA at VDD = 1.2 V, VTh ~ 0.4 V, and the GOS-induced shifts of
Fig. 3).
"""

from __future__ import annotations

import dataclasses
import math

# ---------------------------------------------------------------------------
# Physical constants (SI units).
# ---------------------------------------------------------------------------

Q_ELEMENTARY = 1.602176634e-19
"""Elementary charge [C]."""

K_BOLTZMANN = 1.380649e-23
"""Boltzmann constant [J/K]."""

EPSILON_0 = 8.8541878128e-12
"""Vacuum permittivity [F/m]."""

EPSILON_SI = 11.7 * EPSILON_0
"""Silicon permittivity [F/m]."""

EPSILON_HFO2 = 22.0 * EPSILON_0
"""HfO2 (high-k gate dielectric) permittivity [F/m]."""

N_INTRINSIC_SI = 1.0e16
"""Intrinsic carrier density of silicon at 300 K [m^-3] (1e10 cm^-3)."""

T_ROOM = 300.0
"""Nominal simulation temperature [K]."""


def thermal_voltage(temperature: float = T_ROOM) -> float:
    """Return kT/q [V] at the given temperature."""
    return K_BOLTZMANN * temperature / Q_ELEMENTARY


V_THERMAL = thermal_voltage()
"""Thermal voltage at 300 K, about 25.85 mV."""


@dataclasses.dataclass(frozen=True)
class DeviceParameters:
    """Structural and electrical parameters of a TIG-SiNWFET.

    The default values reproduce Table II of the paper.  Lengths are in
    metres, energies in eV, doping in m^-3, voltages in volts.

    Attributes:
        l_cg: Control-gate length (LCG).
        l_pgs: Source-side polarity-gate length (LPGS).
        l_pgd: Drain-side polarity-gate length (LPGD).
        l_spacer: Spacer length between gates (LCP).
        t_ox: Gate-oxide (HfO2) thickness (TOX).
        r_nw: Nanowire radius (RNW).
        n_channel: Channel doping concentration.
        phi_barrier: Schottky-barrier height at the NiSi source/drain [eV].
        vdd: Nominal supply voltage.
        i_on: Calibrated on-current at VCG=VPGS=VPGD=VDS=vdd [A].
        i_floor: Residual off-state leakage floor [A].
        vth_cg: Threshold voltage of the control-gate barrier (n-branch).
        vth_pg: Threshold voltage of the polarity-gate Schottky barriers
            (n-branch); the p-branch uses ``vdd - vth``.
        ss_cg: Subthreshold slope of the control gate [V/decade].
        ss_pg: Effective slope of the polarity-gate barrier-thinning
            characteristic [V/decade].  Schottky-barrier tunnelling has a
            softer slope than thermionic emission, which is what limits the
            leakage swing in Fig. 5 to about six decades across a full
            0 -> VDD sweep.
        drain_weight: Relative influence of the drain-side segment on the
            series on-conductance.  Values below one encode the
            quasi-ballistic transport under PGD (Section IV-B): carriers
            already injected at the source are only weakly re-controlled at
            the drain, so PGD's barrier is effectively more transparent.
        p_branch_factor: Hole-branch drive relative to the electron
            branch.  Schottky hole injection through the NiSi contacts is
            weaker than electron injection; this asymmetry is what makes
            a wrong-polarity (p-mode) pull-up lose the fight against an
            n-mode pull-down — the physical root of the paper's Table III
            and Fig. 5c/5f asymmetries.
        v_early: Channel-length-modulation (Early) voltage [V].
        v_dsat: Drain-saturation scaling voltage [V].
        temperature: Simulation temperature [K].
    """

    l_cg: float = 22e-9
    l_pgs: float = 22e-9
    l_pgd: float = 22e-9
    l_spacer: float = 18e-9
    t_ox: float = 5.1e-9
    r_nw: float = 7.5e-9
    n_channel: float = 1e21  # 1e15 cm^-3
    phi_barrier: float = 0.41
    vdd: float = 1.2

    i_on: float = 4.5e-6
    i_floor: float = 2.0e-13
    vth_cg: float = 0.42
    vth_pg: float = 0.72
    ss_cg: float = 0.062
    ss_pg: float = 0.110
    drain_weight: float = 0.50
    p_branch_factor: float = 0.60
    v_early: float = 9.0
    v_dsat: float = 0.35
    temperature: float = T_ROOM

    # Parasitics for circuit simulation (Section III-D: the paper's
    # Verilog-A look-up table also carries terminal capacitances and access
    # resistances).
    c_gate: float = 0.12e-15
    """Capacitance of each gate terminal to the channel [F]."""

    c_junction: float = 0.06e-15
    """Source/drain junction capacitance [F]."""

    r_access: float = 2.0e3
    """Source/drain access resistance (NiSi contact + extension) [Ohm]."""

    def __post_init__(self) -> None:
        if self.vdd <= 0:
            raise ValueError(f"vdd must be positive, got {self.vdd}")
        if self.i_on <= self.i_floor:
            raise ValueError("i_on must exceed the leakage floor")
        for name in ("l_cg", "l_pgs", "l_pgd", "l_spacer", "t_ox", "r_nw"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.drain_weight <= 1:
            raise ValueError("drain_weight must be in (0, 1]")
        if not 0 < self.p_branch_factor <= 1:
            raise ValueError("p_branch_factor must be in (0, 1]")

    @property
    def channel_length(self) -> float:
        """Total gated channel length: three gates plus two spacers."""
        return (
            self.l_pgs + self.l_cg + self.l_pgd + 2 * self.l_spacer
        )

    @property
    def nanowire_area(self) -> float:
        """Cross-sectional area of the nanowire channel [m^2]."""
        return math.pi * self.r_nw**2

    @property
    def oxide_capacitance_per_area(self) -> float:
        """Gate-oxide capacitance per unit area (cylindrical shell) [F/m^2].

        Uses the coaxial-capacitor expression for a gate-all-around
        geometry, referenced to the nanowire surface.
        """
        ratio = (self.r_nw + self.t_ox) / self.r_nw
        return EPSILON_HFO2 / (self.r_nw * math.log(ratio))

    @property
    def natural_length(self) -> float:
        """Electrostatic natural (scaling) length of the GAA channel [m].

        lambda = sqrt(eps_si * t_si * t_ox / (2 * eps_ox)) adapted for a
        cylindrical body; used by the TCAD-lite Poisson solver for the
        gate-to-channel coupling strength.
        """
        t_si = 2 * self.r_nw
        return math.sqrt(
            EPSILON_SI * t_si * self.t_ox / (2 * EPSILON_HFO2)
        )

    def v_t(self) -> float:
        """Thermal voltage at the device temperature [V]."""
        return thermal_voltage(self.temperature)


DEFAULT_PARAMS = DeviceParameters()
"""Module-level default parameter set (Table II values)."""


def table_ii_rows(params: DeviceParameters = DEFAULT_PARAMS) -> list[tuple[str, str]]:
    """Return the rows of the paper's Table II for the given parameters.

    Each row is a ``(parameter description, formatted value)`` pair, in the
    paper's order, formatted with the paper's units.
    """
    nm = 1e9
    return [
        ("Length of Control Gate (LCG)", f"{params.l_cg * nm:.0f} nm"),
        (
            "Length of Polarity Gates (LPGS, LPGD)",
            f"{params.l_pgs * nm:.0f} nm",
        ),
        ("Length of Spacer (LCP)", f"{params.l_spacer * nm:.0f} nm"),
        (
            "Channel Doping Concentration",
            f"{params.n_channel * 1e-6:.0e} cm^-3",
        ),
        ("Schottky Barrier Height", f"{params.phi_barrier:.2f} eV"),
        ("Oxide Thickness (TOx)", f"{params.t_ox * nm:.1f} nm"),
        ("Radius of NanoWire (RNW)", f"{params.r_nw * nm:.1f} nm"),
    ]
