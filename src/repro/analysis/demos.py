"""Narrated walkthrough demos behind ``examples/*.py``.

Each demo is a self-contained story printed to stdout, runnable two
equivalent ways::

    python -m repro demo quickstart
    python examples/quickstart.py        # thin wrapper over the CLI

The example scripts are wrappers over :mod:`repro.campaign.cli` so the
two entry points cannot drift; the prose lives here, next to the code
it narrates.  See ``docs/TUTORIAL.md`` for the long-form version that
strings these together into one device-to-campaign walkthrough.
"""

from __future__ import annotations

import numpy as np


def demo_quickstart() -> None:
    """Build a CP XOR gate, inject the paper's new fault, detect it.

    Walks the core loop of the library:

    1. instantiate the TIG-SiNWFET compact model and a DP XOR2
       testbench,
    2. inject a *stuck-at n-type* polarity fault (a bridge between t1's
       polarity terminal and VDD — the fault class this paper
       introduced),
    3. show that the output still reads correctly (a voltage tester
       misses it) while IDDQ explodes by ~5 orders of magnitude (an
       IDDQ tester catches it) — Table III, row one.
    """
    from repro.core import StuckAtNType
    from repro.gates import XOR2, build_cell_circuit
    from repro.spice import solve_dc
    from repro.spice.measure import logic_level

    vdd = 1.2

    # Fault-free reference: apply A=B=0 and measure output + IDDQ.
    good = build_cell_circuit(XOR2, fanout=4)
    good.set_vector((0, 0))
    op = solve_dc(good.circuit)
    good_level = logic_level(op.voltage("out"), vdd)
    good_iddq = op.supply_current("vdd")
    print(f"fault-free  : out = {op.voltage('out'):.3f} V "
          f"(logic {good_level}), IDDQ = {good_iddq * 1e12:.1f} pA")

    # Inject: polarity terminal of pull-up t1 bridged to VDD.
    faulty = build_cell_circuit(XOR2, fanout=4)
    StuckAtNType("t1").apply(faulty)
    faulty.set_vector((0, 0))
    op = solve_dc(faulty.circuit)
    level = logic_level(op.voltage("out"), vdd)
    iddq = op.supply_current("vdd")
    print(f"stuck-at-n t1: out = {op.voltage('out'):.3f} V "
          f"(logic {level}), IDDQ = {iddq * 1e9:.2f} nA")

    ratio = iddq / good_iddq
    print(f"\nIDDQ ratio: x{ratio:.2e}")
    print("A voltage test cannot rely on the output here; the supply")
    print("current gives the fault away — exactly Table III of the paper.")
    assert ratio > 1e4


def demo_device_characterization() -> None:
    """Device playground: I-V curves and GOS signatures (Fig. 3).

    Sweeps the calibrated TIG-SiNWFET compact model through its
    operating regions, demonstrates the controllable-polarity
    conduction condition, and reproduces the GOS fingerprints of
    Fig. 3 (ID(SAT) reduction, threshold shift, negative drain
    current).
    """
    from repro.device import (
        CurveMetrics,
        GateOxideShort,
        TIGSiNWFET,
        compare_to_fault_free,
        sweep_id_vcg,
    )

    vdd = 1.2
    device = TIGSiNWFET()

    print("Conduction condition (ID at VDS = VDD):")
    print("  CG PGS PGD    ID         state")
    for cg in (0, 1):
        for pgs in (0, 1):
            for pgd in (0, 1):
                current = device.drain_current(
                    cg * vdd, pgs * vdd, pgd * vdd, vdd, 0.0
                )
                state = "ON " if device.conducts(cg, pgs, pgd) else "off"
                mode = device.polarity(pgs, pgd)
                print(
                    f"   {cg}   {pgs}   {pgd}   {current:9.2e} A  "
                    f"{state} ({mode}-config)"
                )

    curve = sweep_id_vcg(device, "n")
    metrics = CurveMetrics.from_curve(curve)
    print(f"\nfault-free n-type: Ion={metrics.id_sat * 1e6:.2f} uA, "
          f"VTh={metrics.vth:.3f} V, SS={metrics.ss * 1e3:.0f} mV/dec, "
          f"on/off={metrics.on_off:.1e}")

    # Log-scale ASCII sketch of the transfer curve.
    print("\nfault-free (log10 |ID|):")
    log_i = np.log10(np.abs(np.asarray(curve.i_d)) + 1e-16)
    lo, hi = log_i.min(), log_i.max()
    for k in range(0, len(curve.v_cg), 10):
        bar = "#" * int(1 + 50 * (log_i[k] - lo) / max(hi - lo, 1e-9))
        print(f"  VCG={curve.v_cg[k]:4.2f}  {bar}")

    print("\nGate-oxide shorts (Fig. 3):")
    for location in ("pgs", "cg", "pgd"):
        defective = TIGSiNWFET(defect=GateOxideShort(location))
        numbers = compare_to_fault_free(defective, device)
        print(
            f"  GOS@{location.upper():3s}: "
            f"ID(SAT) x{numbers['id_sat_ratio']:.2f}, "
            f"dVTh {numbers['delta_vth'] * 1e3:+5.0f} mV, "
            f"min ID {numbers['i_min'] * 1e9:+7.2f} nA"
        )
    print("\nPaper anchors: PGS strongest drop (+170 mV shift), CG milder")
    print("with negative ID at low VCG, PGD slight increase / no shift.")


def demo_iddq_screening() -> None:
    """IDDQ screening of polarity-bridge defects on a parity tree.

    Section V-B: pull-up polarity faults never corrupt the output —
    only the supply current betrays them.  Builds an 8-bit XOR parity
    tree, selects a minimal IDDQ vector set with the greedy cover
    (the campaign's ``iddq`` fault class), and cross-checks one
    screened fault in the analog domain.
    """
    from repro.atpg import select_iddq_vectors
    from repro.circuits import parity_tree
    from repro.core import StuckAtNType, StuckAtPType
    from repro.faults import get_universe
    from repro.gates import build_cell_circuit, get_cell
    from repro.logic import simulate
    from repro.spice import solve_dc

    network = parity_tree(8)
    print(f"Circuit: {network}")

    faults = get_universe("polarity").enumerate(network)
    print(f"polarity faults: {len(faults)} "
          f"(stuck-at n/p per transistor over {len(network.gates)} DP gates)")

    selection = select_iddq_vectors(network)
    print(f"\ngreedy IDDQ cover: {len(selection.vectors)} vectors, "
          f"coverage {selection.coverage:.1%}")
    for k, vector in enumerate(selection.vectors):
        bits = "".join(
            str(vector[n]) for n in network.primary_inputs
        )
        covered = sum(1 for v in selection.covered.values() if v == k)
        print(f"  vector {k}: d7..d0 = {bits[::-1]}  "
              f"(first-covers {covered} faults)")

    # Analog cross-check: drive one covered fault's gate to its conflict
    # combination and measure the cell-level supply current.
    fault = faults[0]
    vector = selection.vectors[selection.covered[fault.name]]
    values = simulate(network, vector)
    gate = network.gates[fault.gate]
    local = tuple(values[n] for n in gate.inputs)
    print(f"\ncross-check {fault.name}: local inputs at {fault.gate} = "
          f"{local}")

    cell = get_cell(fault.gtype)
    good = build_cell_circuit(cell, fanout=4)
    good.set_vector(local)
    iddq_good = solve_dc(good.circuit).supply_current("vdd")
    bad = build_cell_circuit(cell, fanout=4)
    factory = StuckAtNType if fault.kind == "n" else StuckAtPType
    factory(fault.transistor).apply(bad)
    bad.set_vector(local)
    iddq_bad = solve_dc(bad.circuit).supply_current("vdd")
    print(f"  cell IDDQ: fault-free {iddq_good * 1e12:.1f} pA -> "
          f"faulty {iddq_bad * 1e9:.2f} nA "
          f"(x{iddq_bad / iddq_good:.1e})")


def demo_channel_break() -> None:
    """The paper's new test algorithm: detecting masked channel breaks.

    Section V-C: in dynamic-polarity gates the redundant
    pass-transistor pairs mask every single channel break — the gate
    keeps computing the right function, classic stuck-open two-pattern
    tests cannot exist, and delay/leakage shifts are too small to
    screen reliably.  The paper's procedure turns the *other*
    contribution (stuck-at n/p polarity configuration) into a test
    stimulus: deliberately invert the suspect device's polarity and
    watch whether it answers.
    """
    from repro.core import (
        channel_break_procedure,
        run_channel_break_procedure,
        two_pattern_sof_tests,
    )
    from repro.gates import NAND2, XOR2
    from repro.logic.switch_level import DeviceState, fault_image

    # 1. SP gates are fine with classic two-pattern tests.
    print("SP NAND2 stuck-open tests (classic two-pattern):")
    for test in two_pattern_sof_tests(NAND2):
        print(f"  {test.describe()}")

    # 2. DP gates: no transistor is ever essential -> no SOF test exists.
    print(f"\nDP XOR2 usable two-pattern tests: "
          f"{len(two_pattern_sof_tests(XOR2))} (all breaks masked)")
    broken = fault_image(XOR2, "t1", DeviceState.STUCK_OPEN)
    for vector, output in zip(broken.vectors, broken.faulty):
        print(f"  A,B={vector}: output with broken t1 = {output} "
              f"(function {XOR2.function(vector)}) -> masked")

    # 3. The paper's procedure, derived automatically per transistor.
    print("\nDerived channel-break procedure for XOR2/t3:")
    procedure = channel_break_procedure(XOR2, "t3")
    for step in procedure.steps:
        print(f"  inject {step.injected_state.value}, apply "
              f"A,B={step.vector}:")
        print(f"    intact device -> {step.expected_if_intact}")
        print(f"    broken device -> {step.expected_if_broken}")

    # 4. Execute it against both ground truths.
    print("\nExecuting the procedure on every transistor:")
    for transistor in ("t1", "t2", "t3", "t4"):
        detected = run_channel_break_procedure(
            XOR2, transistor, broken=True
        )
        false_alarm = run_channel_break_procedure(
            XOR2, transistor, broken=False
        )
        print(f"  {transistor}: broken device detected = {detected}, "
              f"false alarm on intact device = {false_alarm}")


def demo_atpg_flow() -> None:
    """Full ATPG flow on a CP benchmark (4-bit ripple-carry adder).

    The paper's thesis at circuit scale — the same four measurements
    the campaign grid runs as the ``stuck_at`` / ``polarity`` /
    ``iddq`` / ``stuck_open`` fault classes, told as one story:

    1. classic PODEM generates a compact 100 %-coverage stuck-at set;
    2. fault-simulating the *polarity* faults against that classic set
       shows most go undetected;
    3. the polarity-aware ATPG (voltage + IDDQ modes) covers them all;
    4. every DP-gate channel break is masked and flagged for the
       paper's polarity-inversion procedure.
    """
    from repro.atpg import (
        parallel_polarity_simulation,
        parallel_stuck_at_simulation,
        run_polarity_atpg,
        select_iddq_vectors,
    )
    from repro.campaign.tasks import classic_stuck_at_testset
    from repro.circuits import ripple_carry_adder
    from repro.faults import get_universe

    network = ripple_carry_adder(4)
    print(f"Circuit: {network}")
    print(f"  stats: {network.stats()}")

    # 1. Classic stuck-at ATPG (fault list from the universe registry).
    sa_faults = get_universe("stuck_at").collapse(network)
    test_set = classic_stuck_at_testset(network)
    sa_cov = parallel_stuck_at_simulation(network, sa_faults, test_set)
    print(f"\n[1] classic stuck-at ATPG: {len(sa_faults)} faults, "
          f"{len(test_set)} compacted vectors, "
          f"coverage {sa_cov.coverage:.1%}")

    # 2. How much of the CP fault universe does that set cover?
    pol_faults = get_universe("polarity").enumerate(network)
    pol_by_sa = parallel_polarity_simulation(network, pol_faults, test_set)
    print(f"\n[2] polarity faults (stuck-at n/p): {len(pol_faults)} total")
    print(f"    detected by the classic stuck-at set: "
          f"{pol_by_sa.coverage:.1%}  <-- the paper's gap")

    # 3. Polarity-aware ATPG closes it.
    pol_atpg = run_polarity_atpg(network)
    modes: dict[str, int] = {}
    for test in pol_atpg.tests:
        modes[test.mode] = modes.get(test.mode, 0) + 1
    print(f"\n[3] polarity ATPG coverage: {pol_atpg.coverage:.1%} "
          f"({modes.get('voltage', 0)} voltage tests, "
          f"{modes.get('iddq', 0)} IDDQ tests)")
    iddq = select_iddq_vectors(network)
    print(f"    compact IDDQ screen: {len(iddq.vectors)} vectors cover "
          f"{iddq.coverage:.1%} of polarity faults")

    # 4. Stuck-open census.
    sop = get_universe("stuck_open").enumerate(network)
    masked = [f for f in sop if f.is_masked()]
    print(f"\n[4] channel breaks: {len(sop)} sites, {len(masked)} masked "
          f"by DP redundancy -> require the Section V-C procedure")
    print("\nThe campaign version of this flow, over many circuits with")
    print("checkpointing and workers:  python -m repro paper-tables")


def demo_batched_sweeps() -> None:
    """The batched analog engine: one Newton loop, many bias points.

    Walks the three moves that make SPICE-level measurement
    campaign-scale (see ``docs/PERFORMANCE.md``):

    1. a full XOR2 DC truth table as *one* ``solve_dc_sweep`` call —
       every input vector is a row of a ``(B, n, n)`` Jacobian stack —
       checked against one ``solve_dc`` call per vector (the same
       engine on a stack of one),
    2. a miniature Fig. 5 ``Vcut`` sweep whose delay transients
       integrate in lockstep (``run_transient_sweep``),
    3. the process-level compact-model memo: injecting the same defect
       twice builds the device once.
    """
    import time

    from repro.analysis.sweeps import pull_up_vcut_axis, vcut_sweep
    from repro.device import clear_model_caches, model_cache_stats
    from repro.gates import XOR2, build_cell_circuit, get_cell
    from repro.spice import solve_dc, solve_dc_sweep

    # 1. Truth table: one call per vector vs one batched call.
    bench = build_cell_circuit(XOR2, fanout=4)
    vdd = bench.vdd
    vectors = [(0, 0), (0, 1), (1, 0), (1, 1)]
    t0 = time.perf_counter()
    scalar = []
    for vector in vectors:
        bench.set_vector(vector)
        scalar.append(solve_dc(bench.circuit))
    t_scalar = time.perf_counter() - t0
    t0 = time.perf_counter()
    sweep = solve_dc_sweep(
        bench.circuit, [bench.vector_bias(v) for v in vectors]
    )
    t_batched = time.perf_counter() - t0
    print("XOR2 truth table, one call per vector vs one batched call:")
    worst = 0.0
    for k, vector in enumerate(vectors):
        v_seq = scalar[k].voltage("out")
        v_bat = float(sweep.voltages("out")[k])
        worst = max(worst, abs(v_seq - v_bat))
        print(f"  A,B={vector}: out = {v_bat:6.3f} V   "
              f"(one point per call {v_seq:6.3f} V)")
    print(f"  worst |dV| = {worst:.1e} V, "
          f"{t_scalar * 1e3:.0f} ms -> {t_batched * 1e3:.0f} ms "
          f"(x{t_scalar / max(t_batched, 1e-9):.1f})")

    # 2. Mini Fig. 5: the Vcut delay transients run in lockstep.
    cell = get_cell("INV")
    axis = pull_up_vcut_axis(vdd, points=4)
    t0 = time.perf_counter()
    result = vcut_sweep(cell, "t1", "pgs", axis)
    t_sweep = time.perf_counter() - t0
    print(f"\nINV t1/pgs Vcut sweep ({len(axis)} points, batched, "
          f"{t_sweep * 1e3:.0f} ms):")
    for p in result.points:
        delay = (
            f"{p.delay * 1e12:6.1f} ps" if p.delay < 1 else "   stuck"
        )
        print(f"  Vcut={p.vcut:4.2f} V: delay {delay}, "
              f"IDDQ {p.leakage * 1e12:8.1f} pA, "
              f"functional={p.functional}")

    # 3. The model memo: same (params, defect) -> same instance.
    from repro.core.fault_models import GOSFault

    clear_model_caches()
    bench_a = build_cell_circuit(XOR2, fanout=4)
    bench_b = build_cell_circuit(XOR2, fanout=4)
    GOSFault("t1", "pgs").apply(bench_a)
    GOSFault("t1", "pgs").apply(bench_b)
    stats = model_cache_stats()
    shared = (
        bench_a.circuit.devices["xor2.t1"].model
        is bench_b.circuit.devices["xor2.t1"].model
    )
    print(f"\nmodel memo: device hits={stats['device_hits']}, "
          f"misses={stats['device_misses']}; "
          f"two GOS injections share one instance: {shared}")
    assert shared


#: name -> demo; keys match ``repro demo`` choices and examples/*.py.
DEMOS = {
    "quickstart": demo_quickstart,
    "device-characterization": demo_device_characterization,
    "iddq-screening": demo_iddq_screening,
    "channel-break": demo_channel_break,
    "atpg-flow": demo_atpg_flow,
    "batched-sweeps": demo_batched_sweeps,
}
