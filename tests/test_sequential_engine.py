"""Differential harness for sequential circuits via time-frame expansion.

Sequential support has two halves, and both are tested here against
independent references:

* **Unrolling is semantics-preserving** — the unrolled combinational
  network's good simulation must agree frame for frame with the
  cycle-accurate reference :func:`repro.logic.sequential.simulate_sequence`
  (explicit state feedback, no unrolling), for any frame count and any
  initial state.
* **Fault lowering is engine-invariant** — one logical fault on the
  sequential netlist lowers to every-frame replica injections, and the
  multi-word, single-word compiled, and legacy dict engines (the
  serial checks of ``tests/oracles/serial_sim.py``) must
  produce *bit-identical* detection matrices over per-cycle input
  sequences.  Nothing is allowed to be "close".

Circuits come from the sequential fuzzer
(:func:`repro.circuits.random_circuits.random_sequential_network`), the
real ISCAS-89 s27 netlist, and the seeded sequential corpus
(sqx344 / sqx1488), whose recipe provenance is asserted here too.
"""

import pathlib

import numpy as np
import pytest
from oracles.fault_sim_paths import PATHS, on_path
from oracles.serial_sim import (
    detects_polarity,
    detects_stuck_at,
    detects_stuck_open,
)

from repro.atpg.fault_sim import (
    parallel_polarity_simulation,
    parallel_stuck_at_simulation,
    parallel_stuck_open_simulation,
    polarity_detection_words,
    stuck_at_detection_words,
    stuck_open_detection_words,
)
from repro.circuits.random_circuits import (
    SEQ_CORPUS_RECIPES,
    build_corpus_network,
    random_sequence_vectors,
    random_sequential_network,
)
from repro.faults import get_universe
from repro.logic import (
    SequentialNetworkError,
    simulate_sequence,
    unroll_network,
)
from repro.logic.bench_format import parse_bench
from repro.logic.compiled import compile_network
from repro.logic.sequential import stuck_at_unrolled_injection
from repro.logic.simulator import simulate, simulate_outputs

NETLIST_DIR = (
    pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "netlists"
)

FUZZ_SEEDS = list(range(1, 21))  # >= 20 seeds (acceptance bar)
FRAME_COUNTS = (2, 3, 5)


def faults_of(network, universe):
    return get_universe(universe).collapse(network)


def fuzz_network(seed):
    """Small seeded sequential circuit; shape varies with the seed."""
    return random_sequential_network(
        seed,
        n_gates=14 + 5 * (seed % 7),
        n_inputs=3 + seed % 4,
        n_flops=1 + seed % 4,
        dp_fraction=0.3,
    )


def fuzz_state(network, seed):
    """A seeded binary initial state for every flop (reset pattern)."""
    return {
        q: (seed >> k) & 1 for k, q in enumerate(network.flops)
    }


def s27():
    path = NETLIST_DIR / "s27.bench"
    return parse_bench(path.read_text(), name="s27")


# ---------------------------------------------------------------------------
# Unrolling vs. the cycle-accurate reference
# ---------------------------------------------------------------------------

class TestUnrollSemantics:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS[:8])
    @pytest.mark.parametrize("frames", FRAME_COUNTS)
    def test_unrolled_good_sim_matches_cycle_accurate(self, seed, frames):
        network = fuzz_network(seed)
        uv = unroll_network(network, frames)
        state = fuzz_state(network, seed)
        for cycles in random_sequence_vectors(
            network, 10, frames, seed=seed * 13, x_fraction=0.1
        ):
            reference = simulate_sequence(network, cycles, state)
            values = simulate(uv.network, uv.flatten_vector(cycles, state))
            unrolled = [
                tuple(
                    values[uv.net_name(f, po)]
                    for po in network.primary_outputs
                )
                for f in range(frames)
            ]
            assert unrolled == reference

    def test_unknown_initial_state_is_x(self):
        # No initial_state: frame-0 flop outputs are unassigned pseudo
        # PIs, i.e. X — exactly simulate_sequence's default.
        network = fuzz_network(3)
        uv = unroll_network(network, 2)
        cycles = random_sequence_vectors(network, 1, 2, seed=9)[0]
        reference = simulate_sequence(network, cycles)
        values = simulate(uv.network, uv.flatten_vector(cycles))
        assert [
            tuple(
                values[uv.net_name(f, po)]
                for po in network.primary_outputs
            )
            for f in range(2)
        ] == reference

    def test_state_inputs_come_first_in_pi_order(self):
        network = s27()
        uv = unroll_network(network, 3)
        pis = uv.network.primary_inputs
        assert pis[: len(network.flops)] == uv.state_inputs
        assert pis[len(network.flops):][: len(network.primary_inputs)] == [
            uv.net_name(0, pi) for pi in network.primary_inputs
        ]

    def test_unroll_is_memoized(self):
        network = s27()
        assert unroll_network(network, 4) is unroll_network(s27(), 4)

    def test_too_many_cycles_raises(self):
        uv = unroll_network(s27(), 2)
        with pytest.raises(ValueError, match="2 frames"):
            uv.flatten_vector([{}, {}, {}])

    def test_initial_state_on_non_flop_raises(self):
        uv = unroll_network(s27(), 2)
        with pytest.raises(ValueError, match="non-flop"):
            uv.flatten_vector([{}], initial_state={"G0": 1})

    def test_engines_refuse_sequential_without_unroll(self):
        network = s27()
        faults = faults_of(network, "stuck_at")
        with pytest.raises(SequentialNetworkError, match="unroll"):
            stuck_at_detection_words(network, faults, [{}])
        with pytest.raises(SequentialNetworkError, match="unroll"):
            compile_network(network)
        with pytest.raises(SequentialNetworkError):
            simulate_outputs(network, {})
        with pytest.raises(SequentialNetworkError, match="unroll"):
            detects_stuck_at(network, faults[0], {})


# ---------------------------------------------------------------------------
# Differential fuzz: 20 seeds x {2, 3, 5} frames, three engines
# ---------------------------------------------------------------------------

class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    @pytest.mark.parametrize("frames", FRAME_COUNTS)
    def test_stuck_at_matrices_identical(self, seed, frames):
        network = fuzz_network(seed)
        faults = faults_of(network, "stuck_at")
        state = fuzz_state(network, seed)
        sequences = random_sequence_vectors(
            network, 60 + seed, frames, seed=seed * 17, x_fraction=0.1
        )
        multi = on_path(
            "multiword", stuck_at_detection_words, network, faults, sequences,
            unroll=frames, initial_state=state,
        )
        single = on_path(
            "single_word", stuck_at_detection_words, network, faults,
            sequences, unroll=frames, initial_state=state,
        )
        assert multi == single
        # Legacy dict oracle, spot-checked per (fault, sequence) bit.
        rng = np.random.default_rng(seed * 1000 + frames)
        for fi in rng.choice(len(faults), size=3, replace=False):
            for vi in rng.choice(len(sequences), size=3, replace=False):
                expected = detects_stuck_at(
                    network, faults[fi], sequences[vi],
                    unroll=frames, initial_state=state,
                )
                assert bool((multi[fi] >> int(vi)) & 1) == expected

    @pytest.mark.parametrize("seed", FUZZ_SEEDS[:8])
    @pytest.mark.parametrize("frames", FRAME_COUNTS)
    @pytest.mark.parametrize("iddq", [False, True])
    def test_polarity_matrices_identical(self, seed, frames, iddq):
        network = fuzz_network(seed)
        faults = faults_of(network, "polarity")
        assert faults, "fuzz recipe must include DP gates"
        state = fuzz_state(network, seed)
        sequences = random_sequence_vectors(
            network, 50 + seed, frames, seed=seed * 31, x_fraction=0.1
        )
        multi = on_path(
            "multiword", polarity_detection_words, network, faults, sequences,
            iddq=iddq, unroll=frames, initial_state=state,
        )
        single = on_path(
            "single_word", polarity_detection_words, network, faults,
            sequences, iddq=iddq, unroll=frames, initial_state=state,
        )
        assert multi == single
        rng = np.random.default_rng(seed * 100 + frames)
        for fi in rng.choice(len(faults), size=2, replace=False):
            for vi in rng.choice(len(sequences), size=3, replace=False):
                expected = detects_polarity(
                    network, faults[fi], sequences[vi], iddq=iddq,
                    unroll=frames, initial_state=state,
                )
                assert bool((multi[fi] >> int(vi)) & 1) == expected

    @pytest.mark.parametrize("seed", FUZZ_SEEDS[:5])
    @pytest.mark.parametrize("frames", (2, 3))
    def test_stuck_open_matrices_identical(self, seed, frames):
        network = fuzz_network(seed)
        faults = faults_of(network, "stuck_open")
        state = fuzz_state(network, seed)
        sequences = random_sequence_vectors(
            network, 50, frames, seed=seed * 7
        )
        pairs = list(zip(sequences[:-1], sequences[1:]))
        multi = on_path(
            "multiword", stuck_open_detection_words, network, faults, pairs,
            unroll=frames, initial_state=state,
        )
        single = on_path(
            "single_word", stuck_open_detection_words, network, faults, pairs,
            unroll=frames, initial_state=state,
        )
        assert multi == single
        rng = np.random.default_rng(seed + 200)
        for fi in rng.choice(len(faults), size=2, replace=False):
            for pi in rng.choice(len(pairs), size=3, replace=False):
                init, test = pairs[pi]
                expected = detects_stuck_open(
                    network, faults[fi], init, test,
                    unroll=frames, initial_state=state,
                )
                assert bool((multi[fi] >> int(pi)) & 1) == expected

    @pytest.mark.parametrize("seed", FUZZ_SEEDS[:4])
    def test_parallel_campaigns_identical(self, seed):
        network = fuzz_network(seed)
        sa = faults_of(network, "stuck_at")
        po = faults_of(network, "polarity")
        so = faults_of(network, "stuck_open")
        state = fuzz_state(network, seed)
        sequences = random_sequence_vectors(network, 140, 3, seed=seed)
        pairs = list(zip(sequences[:80:2], sequences[1:80:2]))
        assert on_path(
            "multiword", parallel_stuck_at_simulation, network, sa, sequences,
            unroll=3, initial_state=state,
        ) == on_path(
            "single_word", parallel_stuck_at_simulation, network, sa,
            sequences, unroll=3, initial_state=state,
        )
        for iddq in (False, True):
            assert on_path(
                "multiword", parallel_polarity_simulation, network, po,
                sequences, iddq=iddq, unroll=3, initial_state=state,
            ) == on_path(
                "single_word", parallel_polarity_simulation, network, po,
                sequences, iddq=iddq, unroll=3, initial_state=state,
            )
        assert on_path(
            "multiword", parallel_stuck_open_simulation, network, so, pairs,
            unroll=3, initial_state=state,
        ) == on_path(
            "single_word", parallel_stuck_open_simulation, network, so, pairs,
            unroll=3, initial_state=state,
        )

    def test_deeper_unroll_never_loses_detections(self):
        # A fault detected within k frames stays detected at k+1: the
        # extra frame only adds observed outputs.  (Sequences stay the
        # same; the deeper unroll leaves trailing inputs X.)
        network = fuzz_network(6)
        faults = faults_of(network, "stuck_at")
        state = fuzz_state(network, 6)
        sequences = random_sequence_vectors(network, 40, 2, seed=61)
        shallow = stuck_at_detection_words(
            network, faults, sequences, unroll=2, initial_state=state
        )
        deep = stuck_at_detection_words(
            network, faults, sequences, unroll=3, initial_state=state
        )
        for w2, w3 in zip(shallow, deep):
            assert w2 & ~w3 == 0


# ---------------------------------------------------------------------------
# PODEM fault dropping on the unrolled form
# ---------------------------------------------------------------------------

class TestBatchDropping:
    def test_batch_drop_matches_detection_words(self):
        from repro.atpg.podem_compiled import batch_drop_detected

        network = s27()
        uv = unroll_network(network, 3)
        cnet = compile_network(uv.network)
        faults = faults_of(network, "stuck_at")
        pending = {
            f.name: stuck_at_unrolled_injection(uv, cnet, f)
            for f in faults
        }
        state = {q: 0 for q in network.flops}
        sequences = random_sequence_vectors(network, 8, 3, seed=3)
        words = stuck_at_detection_words(
            network, faults, sequences, unroll=3, initial_state=state
        )
        for k, cycles in enumerate(sequences):
            flat = uv.flatten_vector(cycles, state)
            dropped = batch_drop_detected(cnet, flat, pending)
            expected = {
                f.name
                for f, w in zip(faults, words)
                if (w >> k) & 1
            }
            assert dropped == expected


# ---------------------------------------------------------------------------
# The real ISCAS-89 s27
# ---------------------------------------------------------------------------

class TestS27:
    def test_parses_as_sequential(self):
        network = s27()
        assert network.is_sequential
        assert network.flops == {"G5": "G10", "G6": "G11", "G7": "G13"}
        assert network.stats()["gates"] == 10

    def test_full_stuck_at_coverage_from_reset(self):
        network = s27()
        faults = faults_of(network, "stuck_at")
        state = {q: 0 for q in network.flops}
        sequences = random_sequence_vectors(network, 256, 3, seed=27)
        result = parallel_stuck_at_simulation(
            network, faults, sequences, unroll=3, initial_state=state
        )
        assert result.coverage == 1.0

    @pytest.mark.parametrize("path", PATHS)
    def test_engines_agree_with_serial_oracle(self, path):
        network = s27()
        faults = faults_of(network, "stuck_at")
        state = {q: 0 for q in network.flops}
        sequences = random_sequence_vectors(network, 20, 3, seed=5)
        words = on_path(
            path, stuck_at_detection_words, network, faults, sequences,
            unroll=3, initial_state=state,
        )
        for fi, fault in enumerate(faults):
            for vi, cycles in enumerate(sequences):
                expected = detects_stuck_at(
                    network, fault, cycles, unroll=3, initial_state=state
                )
                assert bool((words[fi] >> vi) & 1) == expected


# ---------------------------------------------------------------------------
# Sequential corpus: provenance + registry + differential at scale
# ---------------------------------------------------------------------------

class TestSequentialCorpus:
    @pytest.mark.parametrize("name", sorted(SEQ_CORPUS_RECIPES))
    def test_checked_in_netlist_matches_recipe(self, name):
        """Regenerating from the recipe reproduces the checked-in bytes."""
        from repro.logic.bench_format import write_bench

        path = NETLIST_DIR / f"{name}.bench"
        assert path.exists(), (
            "corpus netlist missing; run tools/gen_scaling_netlists.py"
        )
        assert write_bench(build_corpus_network(name)) == path.read_text()

    @pytest.mark.parametrize("name", ["s27", *sorted(SEQ_CORPUS_RECIPES)])
    def test_registry_ingests_with_sequential_tag(self, name):
        from repro.campaign.registry import get_registry

        reg = get_registry()
        spec = reg.spec(name)
        assert {"corpus", "iscas-class", "sequential"} <= spec.tags
        assert reg.load(name).is_sequential

    def test_sqx344_differential(self):
        network = build_corpus_network("sqx344")
        faults = faults_of(network, "stuck_at")
        state = {q: 0 for q in network.flops}
        sequences = random_sequence_vectors(network, 96, 2, seed=1)
        assert on_path(
            "multiword", stuck_at_detection_words, network, faults, sequences,
            unroll=2, initial_state=state,
        ) == on_path(
            "single_word", stuck_at_detection_words, network, faults,
            sequences, unroll=2, initial_state=state,
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(SEQ_CORPUS_RECIPES))
    def test_corpus_differential_full(self, name):
        """Both sequential corpus circuits: multi-word vs single-word,
        stuck-at and polarity (voltage + IDDQ), 3 frames."""
        network = build_corpus_network(name)
        state = {q: 0 for q in network.flops}
        sequences = random_sequence_vectors(
            network, 128, 3, seed=7, x_fraction=0.05
        )
        sa = faults_of(network, "stuck_at")
        assert on_path(
            "multiword", stuck_at_detection_words, network, sa, sequences,
            unroll=3, initial_state=state,
        ) == on_path(
            "single_word", stuck_at_detection_words, network, sa, sequences,
            unroll=3, initial_state=state,
        )
        po = faults_of(network, "polarity")
        for iddq in (False, True):
            assert on_path(
                "multiword", polarity_detection_words, network, po, sequences,
                iddq=iddq, unroll=3, initial_state=state,
            ) == on_path(
                "single_word", polarity_detection_words, network, po,
                sequences, iddq=iddq, unroll=3, initial_state=state,
            )

    @pytest.mark.slow
    def test_sequential_scaling_campaign_single_digit_seconds(self):
        """The sequential acceptance bar: the ~1500-gate corpus circuit
        unrolled x3 completes the fault_sim cell in single digits."""
        import time

        from repro.campaign.tasks import run_fault_sim_task

        network = build_corpus_network("sqx1488")
        assert network.stats()["gates"] >= 1000
        start = time.perf_counter()
        metrics = run_fault_sim_task(network)
        elapsed = time.perf_counter() - start
        assert metrics["n_frames"] == 3
        # sqx1488 is deep (depth > 100) and PI-starved, so random
        # sequences plateau well below full coverage — the bar here is
        # "a meaningful fraction, fast", not ATPG-grade closure.
        assert metrics["stuck_at_coverage"] > 0.4
        assert metrics["polarity_iddq_coverage"] > 0.5
        assert elapsed < 10.0, f"sequential campaign took {elapsed:.1f}s"
