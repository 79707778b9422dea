"""Compiled bit-parallel fault simulation vs. the serial ternary path.

Times a full stuck-at campaign (every collapsed fault, every vector,
fault dropping on first detection) on generated benchmarks through

* the serial oracle loop (``detects_stuck_at`` of
  ``tests/oracles/serial_sim.py`` per fault per vector — exactly the
  dict-based path the compiled engine replaced), and
* :func:`repro.atpg.fault_sim.parallel_stuck_at_simulation` on the
  compiled dual-rail engine,

asserting identical detection results and a >= 10x speedup on the
8-bit ripple-carry adder, plus timing records for the polarity and
stuck-open batched campaigns.
"""

import sys
import time
from pathlib import Path

# The serial check is a test oracle: import it the way the tests do.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles.serial_sim import detects_stuck_at  # noqa: E402

from repro.analysis import save_report
from repro.analysis.report import ascii_table
from repro.atpg.fault_sim import (
    FaultSimResult,
    parallel_polarity_simulation,
    parallel_stuck_at_simulation,
    parallel_stuck_open_simulation,
)
from repro.faults import (
    polarity_faults,
    stuck_at_faults,
    stuck_open_faults,
)
from repro.circuits import build_benchmark

import numpy as np


def _random_vectors(network, n, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(n, len(network.primary_inputs)))
    return [
        dict(zip(network.primary_inputs, map(int, row))) for row in bits
    ]


def _serial_stuck_at_campaign(network, faults, vectors) -> FaultSimResult:
    """The pre-compiled-engine loop: serial sim, drop on first detect."""
    detected, undetected = {}, {f.name for f in faults}
    for k, vector in enumerate(vectors):
        if not undetected:
            break
        for fault in faults:
            if fault.name in undetected and detects_stuck_at(
                network, fault, vector
            ):
                detected[fault.name] = k
                undetected.discard(fault.name)
    return FaultSimResult(detected=detected, undetected=sorted(undetected))


def _best_of(fn, repeats=3):
    """Minimum wall time over ``repeats`` runs (load-noise immunity)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_parallel_fault_sim_speedup(once):
    n_vectors = 192
    rows = []
    speedup_rca8 = None
    for name in ("c17", "rca8", "rca16", "alu4"):
        network = build_benchmark(name)
        faults = stuck_at_faults(network)
        vectors = _random_vectors(network, n_vectors, seed=17)

        t_serial, serial = _best_of(
            lambda: _serial_stuck_at_campaign(network, faults, vectors)
        )
        t_batched, batched = _best_of(
            lambda: parallel_stuck_at_simulation(network, faults, vectors)
        )

        assert batched.detected == serial.detected, name
        assert batched.undetected == serial.undetected, name
        speedup = t_serial / t_batched
        if name == "rca8":
            speedup_rca8 = speedup
        rows.append(
            (name, len(faults), n_vectors, f"{t_serial * 1e3:.1f}",
             f"{t_batched * 1e3:.1f}", f"x{speedup:.0f}",
             f"{batched.coverage * 100:.0f}%")
        )

    def run_batched_again():
        network = build_benchmark("rca8")
        return parallel_stuck_at_simulation(
            network,
            stuck_at_faults(network),
            _random_vectors(network, n_vectors, seed=17),
        )

    once(run_batched_again)

    report = "\n".join([
        "Full stuck-at campaigns: serial ternary loop vs compiled "
        "bit-parallel engine",
        ascii_table(
            ("circuit", "faults", "vectors", "serial ms", "batched ms",
             "speedup", "coverage"),
            rows,
        ),
        "",
        "Identical detection maps on every circuit; the compiled engine",
        "packs the whole vector set bit-per-vector into dual-rail words",
        "and evaluates each gate once per batch.",
    ])
    print("\n" + report)
    save_report("parallel_fault_sim_speedup", report)
    assert speedup_rca8 is not None and speedup_rca8 >= 10.0, (
        f"rca8 speedup x{speedup_rca8:.1f} below the 10x bar"
    )


def test_batched_cp_campaign_throughput(once):
    """Timing record for the CP-specific batched campaigns (polarity
    voltage + IDDQ, two-pattern stuck-open) on mixed SP/DP circuits."""
    network = build_benchmark("rca16")
    vectors = _random_vectors(network, 256, seed=23)
    pol = polarity_faults(network)

    t0 = time.perf_counter()
    voltage = parallel_polarity_simulation(network, pol, vectors)
    iddq = parallel_polarity_simulation(network, pol, vectors, iddq=True)
    t_pol = time.perf_counter() - t0

    # Stuck-opens need SP gates to be two-pattern testable (DP opens are
    # masked by the redundant pair), so time those on the mixed ALU.
    alu = build_benchmark("alu4")
    alu_vectors = _random_vectors(alu, 256, seed=29)
    pairs = list(zip(alu_vectors[::2], alu_vectors[1::2]))
    sop = stuck_open_faults(alu)
    t0 = time.perf_counter()
    sopen = parallel_stuck_open_simulation(alu, sop, pairs)
    t_sop = time.perf_counter() - t0

    report = "\n".join([
        "Batched CP campaigns (256 vectors / 128 pairs):",
        f"  rca16 polarity : {len(pol):4d} faults  voltage cov "
        f"{voltage.coverage * 100:5.1f}%  iddq cov "
        f"{iddq.coverage * 100:5.1f}%  in {t_pol * 1e3:.1f} ms",
        f"  alu4 stuck-open: {len(sop):4d} faults  two-pattern cov "
        f"{sopen.coverage * 100:5.1f}%  in {t_sop * 1e3:.1f} ms",
    ])
    print("\n" + report)
    save_report("batched_cp_campaigns", report)

    once(lambda: parallel_polarity_simulation(network, pol, vectors))
    # IDDQ observables catch most polarity faults with random vectors.
    assert iddq.coverage > 0.9
    # Random two-pattern pairs expose a solid share of SP opens.
    assert sopen.coverage > 0.3
