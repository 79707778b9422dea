"""Differential harness for the multi-word fault×vector engine.

The multi-word engine (:mod:`repro.logic.multiword`) re-expresses the
single-word dual-rail semantics of :mod:`repro.logic.compiled` as 2-D
numpy ``uint64`` sweeps; nothing here is allowed to be "close" — every
test asserts *bit-identical* detection matrices across three
independent implementations:

* the multi-word engine,
* the single-word compiled path (each forced in turn with
  ``oracles.fault_sim_paths.on_path``), and
* the legacy dict simulator (the ``detects_*`` oracles of
  ``tests/oracles/serial_sim.py``), spot-checked per (fault, vector)
  bit since it is orders of magnitude slower.

Two shortcuts of the multi-word engine have their own oracles here: the
single-rail stuck-at sweep on X-free vectors (with word-by-word
dropping) is checked against the dual-rail matrix, and the skipped
voltage-silent polarity faults against the unpruned dual-rail sweep.

Circuits come from three sources: hand-written benchmarks, the seeded
random-network fuzzer (:mod:`repro.circuits.random_circuits`), and the
checked-in ISCAS-class corpus, whose provenance (recipe regeneration
reproduces the checked-in bytes) is asserted here too.
"""

import dataclasses
import itertools
import pathlib

import numpy as np
import pytest
from oracles.fault_sim_paths import PATHS, on_path
from oracles.serial_sim import (
    detects_polarity,
    detects_stuck_at,
    detects_stuck_open,
)

from repro.atpg import fault_sim
from repro.atpg.fault_sim import (
    _use_multiword,
    parallel_polarity_simulation,
    parallel_stuck_at_simulation,
    parallel_stuck_open_simulation,
    polarity_detection_words,
    polarity_injection,
    stuck_at_detection_words,
    stuck_at_injection,
    stuck_open_detection_words,
)
from repro.atpg.podem_compiled import batch_drop_detected
from repro.campaign.tables import SECTION5_SUITE
from repro.circuits import (
    build_benchmark,
    c17,
    parity_tree,
    ripple_carry_adder,
)
from repro.circuits.random_circuits import (
    CORPUS_RECIPES,
    SEQ_CORPUS_RECIPES,
    build_corpus_network,
    random_network,
    random_sequence_vectors,
    random_sequential_network,
    random_vectors,
)
from repro.faults import PolarityFault, get_universe
from repro.gates.library import ALL_CELLS
from repro.logic import sequential
from repro.logic import multiword as mw
from repro.logic.compiled import FaultInjection, compile_network, pack_vectors
from repro.logic.network import Network

NETLIST_DIR = (
    pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "netlists"
)


def faults_of(network, universe):
    return get_universe(universe).collapse(network)


def pair_list(vectors):
    return list(zip(vectors[:-1], vectors[1:]))


# ---------------------------------------------------------------------------
# Packing primitives
# ---------------------------------------------------------------------------

class TestPacking:
    def test_word_int_roundtrip(self):
        for value in (0, 1, (1 << 64) - 1, 1 << 64, (1 << 200) - 12345):
            n_words = max(1, -(-value.bit_length() // 64))
            row = mw.words_from_int(value, n_words)
            assert row.dtype == np.dtype("<u8")
            assert mw.int_from_words(row) == value

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129, 200])
    def test_vector_counts_pack_to_expected_words(self, n):
        network = c17()
        cnet = compile_network(network)
        vectors = random_vectors(network, n, seed=n)
        mv = mw.pack_vectors_multiword(cnet, vectors)
        assert mv.n == n
        assert mv.n_words == -(-n // 64)
        # Tail mask covers exactly the first n bits.
        assert mw.int_from_words(mv.mask) == (1 << n) - 1
        # Bit k of the packed rails == the single-word packing of the
        # same vector (cross-check against the proven engine).
        for base in range(0, n, 64):
            chunk = vectors[base:base + 64]
            packed = pack_vectors(cnet, chunk)
            w = base // 64
            for idx in mv.ones:
                assert int(mv.ones[idx][w]) == packed.ones[idx]
                assert int(mv.zeros[idx][w]) == packed.zeros[idx]

    def test_x_entries_stay_x(self):
        network = c17()
        cnet = compile_network(network)
        vectors = random_vectors(network, 70, seed=9, x_fraction=0.4)
        mv = mw.pack_vectors_multiword(cnet, vectors)
        for k, vector in enumerate(vectors):
            w, bit = divmod(k, 64)
            for net in network.primary_inputs:
                idx = cnet.net_index[net]
                one = (int(mv.ones[idx][w]) >> bit) & 1
                zero = (int(mv.zeros[idx][w]) >> bit) & 1
                if net not in vector:
                    assert (one, zero) == (0, 0)  # X: neither rail
                else:
                    assert (one, zero) == (
                        (1, 0) if vector[net] else (0, 1)
                    )

    def test_good_simulation_matches_single_word(self):
        network = ripple_carry_adder(4)
        cnet = compile_network(network)
        vectors = random_vectors(network, 130, seed=3, x_fraction=0.2)
        mv = mw.pack_vectors_multiword(cnet, vectors)
        ones, zeros = mw.simulate_good(cnet, mv)
        for base in range(0, len(vectors), 64):
            packed = pack_vectors(cnet, vectors[base:base + 64])
            good_ones, good_zeros = cnet.simulate(packed)
            w = base // 64
            for row in range(cnet.n_nets):
                assert int(ones[row, w]) == good_ones[row]
                assert int(zeros[row, w]) == good_zeros[row]


# ---------------------------------------------------------------------------
# Path selection
# ---------------------------------------------------------------------------

class TestPathSelection:
    def test_size_thresholds(self):
        assert not _use_multiword(n_faults=4, n_vectors=64)
        assert _use_multiword(n_faults=4, n_vectors=129)
        assert _use_multiword(n_faults=64, n_vectors=8)

    def test_needs_a_big_enough_netlist(self):
        # Same fault and vector counts: a tiny netlist stays on the
        # single-word path, a large one takes the multi-word engine.
        assert not _use_multiword(100, 256, n_ops=10)
        assert _use_multiword(100, 256, n_ops=1000)


# ---------------------------------------------------------------------------
# Differential fuzz suite: random circuits, three engines
# ---------------------------------------------------------------------------

FUZZ_SEEDS = [1, 2, 3, 5, 8, 13]


def fuzz_network(seed):
    return random_network(
        seed,
        n_gates=20 + 7 * seed,
        n_inputs=4 + seed % 5,
        dp_fraction=0.3,
    )


class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_stuck_at_matrices_identical(self, seed):
        network = fuzz_network(seed)
        faults = faults_of(network, "stuck_at")
        vectors = random_vectors(
            network, 100 + seed, seed=seed * 17, x_fraction=0.1
        )
        multi = on_path(
            "multiword", stuck_at_detection_words, network, faults, vectors,
        )
        single = on_path(
            "single_word", stuck_at_detection_words, network, faults, vectors,
        )
        assert multi == single
        # Legacy dict oracle, spot-checked per (fault, vector) bit.
        rng = np.random.default_rng(seed)
        for fi in rng.choice(len(faults), size=4, replace=False):
            for vi in rng.choice(len(vectors), size=6, replace=False):
                expected = detects_stuck_at(
                    network, faults[fi], vectors[vi]
                )
                assert bool((multi[fi] >> int(vi)) & 1) == expected

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    @pytest.mark.parametrize("iddq", [False, True])
    def test_polarity_matrices_identical(self, seed, iddq):
        network = fuzz_network(seed)
        faults = faults_of(network, "polarity")
        assert faults, "fuzz recipe must include DP gates"
        vectors = random_vectors(
            network, 90 + seed, seed=seed * 31, x_fraction=0.1
        )
        multi = on_path(
            "multiword", polarity_detection_words, network, faults, vectors,
            iddq=iddq,
        )
        single = on_path(
            "single_word", polarity_detection_words, network, faults, vectors,
            iddq=iddq,
        )
        assert multi == single
        rng = np.random.default_rng(seed + 100)
        for fi in rng.choice(len(faults), size=3, replace=False):
            for vi in rng.choice(len(vectors), size=5, replace=False):
                expected = detects_polarity(
                    network, faults[fi], vectors[vi], iddq=iddq
                )
                assert bool((multi[fi] >> int(vi)) & 1) == expected

    @pytest.mark.parametrize("seed", FUZZ_SEEDS[:4])
    def test_stuck_open_matrices_identical(self, seed):
        network = fuzz_network(seed)
        faults = faults_of(network, "stuck_open")
        pairs = pair_list(random_vectors(network, 80, seed=seed * 7))
        multi = on_path(
            "multiword", stuck_open_detection_words, network, faults, pairs,
        )
        single = on_path(
            "single_word", stuck_open_detection_words, network, faults, pairs,
        )
        assert multi == single
        rng = np.random.default_rng(seed + 200)
        for fi in rng.choice(len(faults), size=3, replace=False):
            for pi in rng.choice(len(pairs), size=4, replace=False):
                init, test = pairs[pi]
                expected = detects_stuck_open(
                    network, faults[fi], init, test
                )
                assert bool((multi[fi] >> int(pi)) & 1) == expected

    @pytest.mark.parametrize("seed", FUZZ_SEEDS[:3])
    def test_parallel_results_identical(self, seed):
        network = fuzz_network(seed)
        sa = faults_of(network, "stuck_at")
        po = faults_of(network, "polarity")
        so = faults_of(network, "stuck_open")
        vectors = random_vectors(network, 150, seed=seed, x_fraction=0.05)
        pairs = pair_list(vectors[:90])
        assert on_path(
            "multiword", parallel_stuck_at_simulation, network, sa, vectors,
        ) == on_path(
            "single_word", parallel_stuck_at_simulation, network, sa, vectors,
        )
        for iddq in (False, True):
            assert on_path(
                "multiword", parallel_polarity_simulation, network, po,
                vectors, iddq=iddq,
            ) == on_path(
                "single_word", parallel_polarity_simulation, network, po,
                vectors, iddq=iddq,
            )
        assert on_path(
            "multiword", parallel_stuck_open_simulation, network, so, pairs,
        ) == on_path(
            "single_word", parallel_stuck_open_simulation, network, so, pairs,
        )

    def test_odd_fault_chunks_identical(self):
        network = fuzz_network(3)
        cnet = compile_network(network)
        faults = faults_of(network, "stuck_at")
        vectors = random_vectors(network, 77, seed=5)
        mv = mw.pack_vectors_multiword(cnet, vectors)
        good = mw.simulate_good(cnet, mv)
        injections = [stuck_at_injection(cnet, f) for f in faults]
        reference = mw.batch_detect(cnet, mv, good, injections)
        for chunk in (1, 13, 37, 1000):
            assert (
                mw.batch_detect(
                    cnet, mv, good, injections, fault_chunk=chunk
                )
                == reference
            )


# ---------------------------------------------------------------------------
# Hand-written benchmarks (structured logic, not just random DAGs)
# ---------------------------------------------------------------------------

class TestBenchmarkCircuits:
    @pytest.mark.parametrize(
        "builder", [c17, lambda: ripple_carry_adder(8), lambda: parity_tree(8)]
    )
    def test_stuck_at_identical(self, builder):
        network = builder()
        faults = faults_of(network, "stuck_at")
        vectors = random_vectors(network, 200, seed=42, x_fraction=0.15)
        assert on_path(
            "multiword", stuck_at_detection_words, network, faults, vectors,
        ) == on_path(
            "single_word", stuck_at_detection_words, network, faults, vectors,
        )


# ---------------------------------------------------------------------------
# PODEM fault dropping through the batch path
# ---------------------------------------------------------------------------

class TestBatchDropping:
    def test_batch_drop_matches_per_fault_reference(self):
        network = build_corpus_network("cpx432")
        cnet = compile_network(network)
        faults = faults_of(network, "stuck_at")
        pending = {f.name: stuck_at_injection(cnet, f) for f in faults}
        assert len(pending) >= 512  # exercises the multi-word branch
        vector = random_vectors(network, 1, seed=5)[0]
        got = batch_drop_detected(cnet, vector, pending)
        packed = pack_vectors(cnet, [vector])
        good = cnet.simulate(packed)
        expected = {
            name
            for name, inj in pending.items()
            if cnet.detect_word(packed, good, inj)
        }
        assert got == expected
        assert got  # a random vector drops *something* at this scale


# ---------------------------------------------------------------------------
# ISCAS-class corpus: provenance + registry + differential at scale
# ---------------------------------------------------------------------------

class TestCorpus:
    @pytest.mark.parametrize("name", sorted(CORPUS_RECIPES))
    def test_checked_in_netlist_matches_recipe(self, name):
        """Regenerating from the recipe reproduces the checked-in bytes."""
        from repro.logic.bench_format import write_bench

        path = NETLIST_DIR / f"{name}.bench"
        assert path.exists(), "corpus netlist missing; run tools/gen_scaling_netlists.py"
        assert write_bench(build_corpus_network(name)) == path.read_text()

    @pytest.mark.parametrize("name", sorted(CORPUS_RECIPES))
    def test_registry_ingests_corpus(self, name):
        from repro.campaign.registry import get_registry

        reg = get_registry()
        spec = reg.spec(name)
        assert {"corpus", "iscas-class"} <= spec.tags
        network = reg.load(name)
        assert network.stats()["gates"] == CORPUS_RECIPES[name]["n_gates"]

    def test_cpx432_differential(self):
        network = build_corpus_network("cpx432")
        faults = faults_of(network, "stuck_at")
        vectors = random_vectors(network, 96, seed=1)
        assert on_path(
            "multiword", stuck_at_detection_words, network, faults, vectors,
        ) == on_path(
            "single_word", stuck_at_detection_words, network, faults, vectors,
        )
        po = faults_of(network, "polarity")
        iddq = on_path(
            "multiword", polarity_detection_words, network, po, vectors,
            iddq=True,
        )
        assert any(iddq)
        assert iddq == on_path(
            "single_word", polarity_detection_words, network, po, vectors,
            iddq=True,
        )
        so = faults_of(network, "stuck_open")
        pairs = pair_list(random_vectors(network, 257, seed=2))
        for n_pairs in (1, 256):
            words = on_path(
                "multiword", stuck_open_detection_words, network, so,
                pairs[:n_pairs],
            )
            assert any(words)
            assert words == on_path(
                "single_word", stuck_open_detection_words, network, so,
                pairs[:n_pairs],
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(CORPUS_RECIPES))
    def test_corpus_differential_full(self, name):
        """Every corpus circuit: multi-word vs single-word, all classes."""
        network = build_corpus_network(name)
        vectors = random_vectors(network, 192, seed=7, x_fraction=0.05)
        sa = faults_of(network, "stuck_at")
        assert on_path(
            "multiword", stuck_at_detection_words, network, sa, vectors,
        ) == on_path(
            "single_word", stuck_at_detection_words, network, sa, vectors,
        )
        po = faults_of(network, "polarity")
        for iddq in (False, True):
            assert on_path(
                "multiword", polarity_detection_words, network, po, vectors,
                iddq=iddq,
            ) == on_path(
                "single_word", polarity_detection_words, network, po, vectors,
                iddq=iddq,
            )
        so = faults_of(network, "stuck_open")
        pairs = pair_list(vectors)
        assert on_path(
            "multiword", stuck_open_detection_words, network, so, pairs,
        ) == on_path(
            "single_word", stuck_open_detection_words, network, so, pairs,
        )

    @pytest.mark.slow
    def test_scaling_campaign_coverage(self):
        """The >=1000-gate full campaign lands on its pinned coverage
        (its run time is the perfbench ``corpus_scale`` workload's)."""
        from repro.campaign.tasks import run_fault_sim_task

        network = build_corpus_network("cpx1908")
        assert network.stats()["gates"] >= 1000
        metrics = run_fault_sim_task(network)
        assert metrics["stuck_at_coverage"] == 7231 / 10692
        assert metrics["polarity_iddq_coverage"] == 1737 / 2400


# ---------------------------------------------------------------------------
# Cone-bounded batches: edge cases against the single-word engine
# ---------------------------------------------------------------------------

def assert_batch_matches_single_word(cnet, vectors, injections):
    """Detection words, and every net of every faulty machine, equal the
    single-word engine's at several fault-chunk sizes.

    Returns the detection words and, per injection, whether its faulty
    machine differs from the good one on any net.
    """
    packed = pack_vectors(cnet, vectors)
    good_sw = cnet.simulate(packed)
    mv = mw.pack_vectors_multiword(cnet, vectors)
    good = mw.simulate_good(cnet, mv)
    expected = [cnet.detect_word(packed, good_sw, inj) for inj in injections]
    for chunk in (1, 3, mw.DEFAULT_FAULT_CHUNK):
        assert mw.batch_detect(
            cnet, mv, good, injections, fault_chunk=chunk
        ) == expected
    # Full state: nets the sweep does not yield keep their good value.
    batch = mw.FaultBatch(cnet, injections, mv.n_words)
    changed = {}
    for idx, ones, zeros in mw.simulate_batch(cnet, mv, good, batch):
        assert idx not in changed
        assert ones.shape == zeros.shape == (len(injections), mv.n_words)
        changed[idx] = (ones & mv.mask, zeros & mv.mask)
    excited = []
    for row, injection in enumerate(injections):
        bad_ones, bad_zeros = cnet.simulate(packed, injection)
        excited.append((bad_ones, bad_zeros) != tuple(good_sw))
        for idx in range(cnet.n_nets):
            if idx in changed:
                ones, zeros = (rail[row] for rail in changed[idx])
            else:
                ones, zeros = good[0][idx], good[1][idx]
            assert (mw.int_from_words(ones), mw.int_from_words(zeros)) == (
                bad_ones[idx], bad_zeros[idx]
            ), (row, cnet.net_names[idx])
    return expected, excited


def edge_network():
    """PI ``a`` doubles as a PO; ``unused`` and ``dangle`` have no
    readers; ``g_dup`` reads ``b`` on both pins."""
    n = Network("edges")
    for pi in ("a", "b", "c", "unused"):
        n.add_input(pi)
    n.add_gate("g_nand", "NAND2", ["a", "b"], "y")
    n.add_gate("g_dup", "NAND2", ["b", "b"], "w")
    n.add_gate("g_xor", "XOR2", ["w", "c"], "v")
    n.add_gate("g_dangle", "INV", ["c"], "dangle")
    for po in ("a", "y", "v"):
        n.add_output(po)
    return n


def edge_vectors(network):
    return random_vectors(network, 70, seed=4, x_fraction=0.15)


class TestConeBoundedBatches:
    def test_pi_that_is_a_po_with_stem_faults(self):
        network = edge_network()
        cnet = compile_network(network)
        a = cnet.net_index["a"]
        injections = [
            FaultInjection(lines={a: 0}),
            FaultInjection(lines={a: 1}),
            FaultInjection(lines={cnet.net_index["y"]: 0}),
        ]
        words, _ = assert_batch_matches_single_word(
            cnet, edge_vectors(network), injections
        )
        assert words[0] and words[1]  # observed directly at the output

    def test_faults_on_nets_without_readers(self):
        network = edge_network()
        cnet = compile_network(network)
        injections = [
            FaultInjection(lines={cnet.net_index[net]: value})
            for net in ("dangle", "unused") for value in (0, 1)
        ]
        words, excited = assert_batch_matches_single_word(
            cnet, edge_vectors(network), injections
        )
        assert words == [0, 0, 0, 0]
        assert all(excited)

    def test_branch_faults_on_pins_sharing_one_net(self):
        network = edge_network()
        cnet = compile_network(network)
        pos = cnet.gate_op["g_dup"]
        injections = [
            FaultInjection(pins={(pos, pin): value})
            for pin in (0, 1) for value in (0, 1)
        ]
        injections.append(FaultInjection(pins={(pos, 0): 0, (pos, 1): 1}))
        words, _ = assert_batch_matches_single_word(
            cnet, edge_vectors(network), injections
        )
        assert words[0] and words[2]  # either pin at 0 forces w = 1

    @pytest.mark.parametrize("seed", [2, 5])
    def test_polarity_table_overrides(self, seed):
        network = fuzz_network(seed)
        cnet = compile_network(network)
        faults = faults_of(network, "polarity")
        injections = [polarity_injection(cnet, f) for f in faults]
        vectors = random_vectors(network, 90, seed=seed, x_fraction=0.1)
        _, excited = assert_batch_matches_single_word(
            cnet, vectors, injections
        )
        assert any(excited)

    def test_stuck_open_word_forces(self):
        network = fuzz_network(3)
        cnet = compile_network(network)
        vectors = random_vectors(network, 75, seed=11, x_fraction=0.1)
        mask = (1 << len(vectors)) - 1
        rng = np.random.default_rng(3)

        def random_word():
            ones = int.from_bytes(rng.bytes(16), "little") & mask
            zeros = int.from_bytes(rng.bytes(16), "little") & mask & ~ones
            return ones, zeros

        nets = [cnet.pi_index[0], *(out for _, out, _ in cnet.ops)]
        injections = [
            FaultInjection(words={
                int(idx): random_word()
                for idx in rng.choice(nets, size=1 + k % 3, replace=False)
            })
            for k in range(24)
        ]
        words, _ = assert_batch_matches_single_word(
            cnet, vectors, injections
        )
        assert any(words)

    def test_three_frame_unrolled_sequential_circuit(self):
        from repro.circuits.random_circuits import (
            random_sequence_vectors,
            random_sequential_network,
        )
        from repro.logic import sequential

        network = random_sequential_network(6, n_gates=60, n_flops=4)
        uv = sequential.unroll_network(network, 3)
        cnet = compile_network(uv.network)
        injections = [
            sequential.stuck_at_unrolled_injection(uv, cnet, f)
            for f in faults_of(network, "stuck_at")
        ] + [
            sequential.polarity_unrolled_injection(uv, cnet, f)
            for f in faults_of(network, "polarity")
        ]
        vectors = uv.flatten_vectors(
            random_sequence_vectors(network, 80, 3, seed=6),
            {q: 0 for q in network.flops},
        )
        words, _ = assert_batch_matches_single_word(
            cnet, vectors, injections
        )
        assert any(words)

    def test_chunk_with_an_empty_cone(self):
        network = edge_network()
        cnet = compile_network(network)
        unused = cnet.net_index["unused"]
        empty = [FaultInjection(), FaultInjection(lines={unused: 1})]
        batch = mw.FaultBatch(cnet, empty, 2)
        assert mw._batch_cone(cnet, batch) == ([], {})
        # Empty-cone faults sort last, so the final chunks have no cone.
        injections = [empty[0], FaultInjection(lines={0: 1}), empty[1]]
        words, excited = assert_batch_matches_single_word(
            cnet, edge_vectors(network), injections
        )
        assert words[0] == words[2] == 0
        assert excited == [False, True, True]


# ---------------------------------------------------------------------------
# Single-rail sweep: X-free stuck-at batches, word-by-word dropping
# ---------------------------------------------------------------------------

def first_detections(words):
    return [(w & -w).bit_length() - 1 if w else None for w in words]


def assert_single_rail_matches_dual_rail(
    cnet, vectors, injections, chunk_words=(1, 3, 37, 2048)
):
    """On X-free vectors the single-rail words equal the dual-rail
    matrix, and the dropping sweep keeps, per fault, exactly the bits
    of its first detecting 64-vector word.  Returns the matrix."""
    mv = mw.pack_vectors_multiword(cnet, vectors)
    assert mv.binary
    full = mw.batch_detect(cnet, mv, mw.simulate_good(cnet, mv), injections)
    for chunk in chunk_words:
        assert mw.batch_detect_x_free(
            cnet, mv, injections, chunk_words=chunk
        ) == full
        dropped = mw.batch_detect_x_free(
            cnet, mv, injections, drop_detected=True, chunk_words=chunk
        )
        for word, ref, first in zip(dropped, full, first_detections(full)):
            if first is None:
                assert word == 0
            else:
                shift = 64 * (first // 64)
                assert word == ref & ((2**64 - 1) << shift)
    return full


def sequential_problem(seed=6, n=80):
    network = random_sequential_network(seed, n_gates=60, n_flops=4)
    sequences = random_sequence_vectors(network, n, 3, seed=seed)
    return network, sequences, {q: 0 for q in network.flops}


class TestSingleRailSweep:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS[:3])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_random_circuits(self, seed, n):
        network = fuzz_network(seed)
        cnet = compile_network(network)
        faults = faults_of(network, "stuck_at")
        vectors = random_vectors(network, n, seed=seed * 7 + n)
        full = assert_single_rail_matches_dual_rail(
            cnet, vectors, [stuck_at_injection(cnet, f) for f in faults]
        )
        assert any(full)
        multi = on_path(
            "multiword", parallel_stuck_at_simulation, network, faults,
            vectors,
        )
        assert multi == on_path(
            "single_word", parallel_stuck_at_simulation, network, faults,
            vectors,
        )
        assert on_path(
            "multiword", stuck_at_detection_words, network, faults, vectors,
        ) == full

    @pytest.mark.parametrize("seed", FUZZ_SEEDS[3:])
    def test_late_detections_survive_dropping(self, seed):
        """A repeated vector fills the first words, so most faults are
        first detected in a later word, after several drop rounds."""
        network = fuzz_network(seed)
        cnet = compile_network(network)
        faults = faults_of(network, "stuck_at")
        vectors = random_vectors(network, 170, seed=seed)
        vectors = [vectors[0]] * 130 + vectors[1:]
        full = assert_single_rail_matches_dual_rail(
            cnet, vectors, [stuck_at_injection(cnet, f) for f in faults]
        )
        late = [k for k in first_detections(full) if k and k >= 128]
        assert len(late) > len(faults) // 4
        assert on_path(
            "multiword", parallel_stuck_at_simulation, network, faults,
            vectors,
        ) == on_path(
            "single_word", parallel_stuck_at_simulation, network, faults,
            vectors,
        )

    @pytest.mark.parametrize("drop_detected", [False, True])
    def test_unexcited_faults_are_not_simulated(
        self, monkeypatch, drop_detected
    ):
        network = edge_network()
        cnet = compile_network(network)
        a = cnet.net_index["a"]
        nand = cnet.gate_op["g_nand"]
        vectors = [
            dict(v, a=0) for v in random_vectors(network, 100, seed=3)
        ]
        injections = [
            FaultInjection(lines={a: 0}),
            FaultInjection(pins={(nand, 0): 0}),
            FaultInjection(lines={a: 0}, pins={(nand, 1): 1}),
            FaultInjection(lines={a: 1}),
            FaultInjection(pins={(nand, 0): 1}),
        ]
        expected = assert_single_rail_matches_dual_rail(
            cnet, vectors, injections
        )
        assert expected[:2] == [0, 0] and all(expected[3:])
        simulated = []

        class Spy(mw.FaultBatch):
            def __init__(self, cnet, chunk, n_words):
                simulated.extend(id(injection) for injection in chunk)
                super().__init__(cnet, chunk, n_words)

        monkeypatch.setattr(mw, "FaultBatch", Spy)
        mv = mw.pack_vectors_multiword(cnet, vectors)
        words = mw.batch_detect_x_free(
            cnet, mv, injections, drop_detected=drop_detected
        )
        assert first_detections(words) == first_detections(expected)
        assert id(injections[0]) not in simulated
        assert id(injections[1]) not in simulated
        assert {id(i) for i in injections[2:]} <= set(simulated)

    def test_chunk_with_an_empty_cone(self):
        network = edge_network()
        cnet = compile_network(network)
        unused = cnet.net_index["unused"]
        injections = [
            FaultInjection(),
            FaultInjection(lines={cnet.net_index["a"]: 1}),
            FaultInjection(lines={unused: 1}),
            FaultInjection(lines={cnet.net_index["dangle"]: 0}),
        ]
        words = assert_single_rail_matches_dual_rail(
            cnet, random_vectors(network, 70, seed=4), injections
        )
        assert words[0] == words[2] == words[3] == 0
        assert words[1]

    def test_branch_faults_on_pins_sharing_one_net(self):
        network = edge_network()
        cnet = compile_network(network)
        pos = cnet.gate_op["g_dup"]
        injections = [
            FaultInjection(pins={(pos, pin): value})
            for pin in (0, 1) for value in (0, 1)
        ]
        injections.append(FaultInjection(pins={(pos, 0): 0, (pos, 1): 1}))
        words = assert_single_rail_matches_dual_rail(
            cnet, random_vectors(network, 130, seed=8), injections
        )
        assert words[0] and words[2] and words[4]

    def test_three_frame_unrolled_sequential_circuit(self):
        network, sequences, state = sequential_problem()
        uv = sequential.unroll_network(network, 3)
        cnet = compile_network(uv.network)
        faults = faults_of(network, "stuck_at")
        injections = [
            sequential.stuck_at_unrolled_injection(uv, cnet, f)
            for f in faults
        ]
        words = assert_single_rail_matches_dual_rail(
            cnet, uv.flatten_vectors(sequences, state), injections
        )
        assert any(words)
        opts = dict(unroll=3, initial_state=state)
        assert on_path(
            "multiword", parallel_stuck_at_simulation, network, faults,
            sequences, **opts,
        ) == on_path(
            "single_word", parallel_stuck_at_simulation, network, faults,
            sequences, **opts,
        )

    @pytest.mark.parametrize("with_x", [False, True])
    def test_the_vectors_pick_the_sweep(self, monkeypatch, with_x):
        """X-free vectors take the single rail and never the dual one;
        vectors with X take the dual rail, with the same result."""
        network = fuzz_network(5)
        faults = faults_of(network, "stuck_at")
        vectors = random_vectors(
            network, 150, seed=3, x_fraction=0.1 if with_x else 0.0
        )
        cnet = compile_network(network)
        mv = mw.pack_vectors_multiword(cnet, vectors)
        assert mv.binary is not with_x

        def refuse(*args, **kwargs):
            raise AssertionError("wrong sweep")

        expected_words = on_path(
            "single_word", stuck_at_detection_words, network, faults, vectors,
        )
        expected = on_path(
            "single_word", parallel_stuck_at_simulation, network, faults,
            vectors,
        )
        monkeypatch.setattr(
            mw, "batch_detect" if not with_x else "batch_detect_x_free",
            refuse,
        )
        assert on_path(
            "multiword", stuck_at_detection_words, network, faults, vectors,
        ) == expected_words
        assert on_path(
            "multiword", parallel_stuck_at_simulation, network, faults,
            vectors,
        ) == expected

    def test_unknown_initial_state_takes_the_dual_rail(self):
        network, sequences, _ = sequential_problem(seed=7, n=70)
        uv = sequential.unroll_network(network, 3)
        cnet = compile_network(uv.network)
        mv = mw.pack_vectors_multiword(cnet, uv.flatten_vectors(sequences))
        assert not mv.binary  # frame-0 state is X
        faults = faults_of(network, "stuck_at")
        assert on_path(
            "multiword", parallel_stuck_at_simulation, network, faults,
            sequences, unroll=3,
        ) == on_path(
            "single_word", parallel_stuck_at_simulation, network, faults,
            sequences, unroll=3,
        )

    def test_good_machine_equals_the_dual_rail_ones_rail(self):
        network = ripple_carry_adder(4)
        cnet = compile_network(network)
        mv = mw.pack_vectors_multiword(
            cnet, random_vectors(network, 100, seed=1)
        )
        ones, zeros = mw.simulate_good(cnet, mv)
        values = mw.simulate_good_single_rail(cnet, mv)
        assert np.array_equal(values & mv.mask, ones)
        assert np.array_equal(~values & mv.mask, zeros)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name", sorted(CORPUS_RECIPES) + sorted(SEQ_CORPUS_RECIPES)
    )
    def test_corpus_single_rail_matches_dual_rail(self, name):
        """Every corpus circuit, as the ``fault_sim`` cell sweeps it."""
        network = build_corpus_network(name)
        faults = faults_of(network, "stuck_at")
        opts: dict = {}
        if network.is_sequential:
            vectors = random_sequence_vectors(network, 192, 3, seed=7)
            opts = dict(
                unroll=3, initial_state={q: 0 for q in network.flops}
            )
        else:
            vectors = random_vectors(network, 192, seed=7)
        cnet, injections, flat = fault_sim._stuck_at_problem(
            network, faults, vectors, opts.get("unroll"),
            opts.get("initial_state"),
        )
        mv = mw.pack_vectors_multiword(cnet, flat)
        assert mv.binary
        dual = mw.batch_detect(
            cnet, mv, mw.simulate_good(cnet, mv), injections
        )
        assert on_path(
            "multiword", stuck_at_detection_words, network, faults, vectors,
            **opts,
        ) == dual
        result = on_path(
            "multiword", parallel_stuck_at_simulation, network, faults,
            vectors, **opts,
        )
        assert result == fault_sim._result_from_words(
            [f.name for f in faults], dual
        )


# ---------------------------------------------------------------------------
# Voltage-silent polarity faults: skipped, with the unpruned sweep as oracle
# ---------------------------------------------------------------------------

def unpruned_words(network, faults, vectors, **opts):
    """The dual-rail voltage sweep over every fault, silent or not."""
    return on_path(
        "multiword", fault_sim._polarity_words,
        network, faults, vectors, False,
        opts.get("unroll"), opts.get("initial_state"),
    )


def single_gate_network(gtype):
    network = Network(f"one_{gtype}")
    pins = [f"i{k}" for k in range(ALL_CELLS[gtype].n_inputs)]
    for pin in pins:
        network.add_input(pin)
    network.add_gate("g", gtype, pins, "y")
    network.add_output("y")
    return network, pins


class TestVoltageSilentFaults:
    def test_every_cell_fault_is_classified(self):
        """Exhaustive local vectors detect a fault at the gate's own
        output exactly on its output-detecting vectors; silent faults
        (none) give word 0."""
        for gtype, cell in ALL_CELLS.items():
            network, pins = single_gate_network(gtype)
            faults = [
                PolarityFault("g", gtype, t.name, kind)
                for t in cell.transistors for kind in ("n", "p")
            ]
            vectors = [
                dict(zip(pins, bits))
                for bits in itertools.product((0, 1), repeat=len(pins))
            ]
            oracle = unpruned_words(network, faults, vectors)
            words = polarity_detection_words(network, faults, vectors)
            assert words == oracle
            for fault, word in zip(faults, oracle):
                detecting = [
                    tuple(v[pin] for pin in pins)
                    for k, v in enumerate(vectors) if word >> k & 1
                ]
                assert fault.output_detecting_vectors() == detecting

    @pytest.mark.parametrize(
        "name", [*SECTION5_SUITE, "rca8", "alu4", "cpx432"]
    )
    def test_pruned_words_equal_the_unpruned_sweep(self, name):
        network = (
            build_corpus_network(name) if name in CORPUS_RECIPES
            else build_benchmark(name)
        )
        faults = faults_of(network, "polarity")
        vectors = random_vectors(network, 130, seed=11, x_fraction=0.1)
        oracle = unpruned_words(network, faults, vectors)
        assert polarity_detection_words(network, faults, vectors) == oracle
        for path in PATHS:
            assert on_path(
                path, polarity_detection_words, network, faults, vectors,
            ) == oracle
        assert parallel_polarity_simulation(
            network, faults, vectors
        ) == fault_sim._result_from_words(
            [f.name for f in faults], oracle
        )

    def test_all_silent_skips_lowering_but_keeps_the_checks(
        self, monkeypatch
    ):
        network = build_benchmark("rca4")
        faults = faults_of(network, "polarity")
        vectors = random_vectors(network, 20, seed=1)
        assert not any(f.output_detecting_vectors() for f in faults)

        def refuse(*args, **kwargs):
            raise AssertionError("lowered an all-silent problem")

        monkeypatch.setattr(fault_sim, "_polarity_problem", refuse)
        assert polarity_detection_words(network, faults, vectors) == (
            [0] * len(faults)
        )
        seq, sequences, _ = sequential_problem()
        seq_faults = faults_of(seq, "polarity")
        with pytest.raises(sequential.SequentialNetworkError):
            polarity_detection_words(seq, seq_faults, sequences)
        result = parallel_polarity_simulation(
            seq, seq_faults, sequences, unroll=3
        )
        assert result.coverage == 0.0
        assert result.undetected == sorted(f.name for f in seq_faults)

    @pytest.mark.parametrize("unroll", [None, 3])
    def test_a_definite_wrong_value_is_still_simulated(
        self, monkeypatch, unroll
    ):
        """Patch one fault type's image with a definite wrong value: its
        faults are swept (the mixed silent/non-silent path) and detected,
        the rest still get word 0 unsimulated."""
        if unroll is None:
            network = fuzz_network(2)
            vectors = random_vectors(network, 150, seed=2, x_fraction=0.1)
            opts: dict = {}
        else:
            network, vectors, state = sequential_problem(seed=4, n=90)
            opts = dict(unroll=3, initial_state=state)
        faults = faults_of(network, "polarity")
        target = (faults[0].gtype, faults[0].transistor, faults[0].kind)
        original = PolarityFault.image

        def image(self):
            image = original(self)
            if (self.gtype, self.transistor, self.kind) != target:
                return image
            k = next(k for k, v in enumerate(image.faulty) if v in (0, 1))
            vector, flipped = image.vectors[k], 1 - image.faulty[k]
            faulty = list(image.faulty)
            faulty[k] = flipped
            return dataclasses.replace(
                image, faulty=tuple(faulty),
                wrong=tuple(sorted({*image.wrong, vector})),
                table={**image.table, vector: flipped},
                held_table={**image.held_table, vector: flipped},
            )

        monkeypatch.setattr(PolarityFault, "image", image)
        audible = [
            k for k, f in enumerate(faults)
            if (f.gtype, f.transistor, f.kind) == target
        ]
        assert 0 < len(audible) < len(faults)
        oracle = unpruned_words(network, faults, vectors, **opts)
        assert any(oracle[k] for k in audible)
        for path in PATHS:
            assert on_path(
                path, polarity_detection_words, network, faults, vectors,
                **opts,
            ) == oracle
            assert on_path(
                path, parallel_polarity_simulation, network, faults, vectors,
                **opts,
            ) == fault_sim._result_from_words(
                [f.name for f in faults], oracle
            )
        assert faults[audible[0]].output_detecting_vectors()
        k = next(k for k in audible if oracle[k])
        first = first_detections([oracle[k]])[0]
        assert detects_polarity(
            network, faults[k], vectors[first], **opts
        )


class TestIddqLowering:
    """IDDQ mode reads only the fault-free simulation, so lowering an
    IDDQ problem builds no fault injection."""

    @pytest.fixture
    def no_injections(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built an injection in IDDQ mode")

        monkeypatch.setattr(fault_sim, "polarity_injection", refuse)
        monkeypatch.setattr(
            sequential, "polarity_unrolled_injection", refuse
        )

    def _expected(self, network, faults, vectors, **opts):
        return [
            sum(
                1 << k for k, v in enumerate(vectors)
                if detects_polarity(network, f, v, iddq=True, **opts)
            )
            for f in faults
        ]

    @pytest.mark.parametrize("sequential_circuit", [False, True])
    def test_iddq_words_without_injections(
        self, no_injections, sequential_circuit
    ):
        if sequential_circuit:
            network, vectors, state = sequential_problem(n=24)
            opts = {"unroll": 3, "initial_state": state}
        else:
            network = fuzz_network(FUZZ_SEEDS[0])
            vectors = random_vectors(network, 40, seed=5, x_fraction=0.1)
            opts = {}
        faults = faults_of(network, "polarity")
        assert faults
        expected = self._expected(network, faults, vectors, **opts)
        assert any(expected)
        for path in PATHS:
            assert on_path(
                path, polarity_detection_words, network, faults, vectors,
                iddq=True, **opts,
            ) == expected
            assert on_path(
                path, parallel_polarity_simulation, network, faults,
                vectors, iddq=True, **opts,
            ) == fault_sim._result_from_words(
                [f.name for f in faults], expected
            )
