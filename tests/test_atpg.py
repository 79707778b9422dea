"""Tests for the ATPG stack: fault lists, PODEM, fault sim, SOF and
polarity generators, IDDQ selection, compaction."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.serial_atpg import serial_polarity_simulation
from oracles.serial_sim import (
    detects_polarity,
    detects_stuck_at,
    detects_stuck_open,
)

from repro.atpg import (
    PolarityFault,
    StuckAtFault,
    StuckOpenFault,
    compact_tests,
    generate_polarity_test,
    generate_test,
    parallel_stuck_at_simulation,
    polarity_faults,
    run_polarity_atpg,
    run_sof_atpg,
    select_iddq_vectors,
    stuck_at_faults,
    stuck_open_faults,
)
from repro.circuits import (
    build_benchmark,
    c17,
    parity_tree,
    ripple_carry_adder,
)
from repro.logic import simulate_outputs


def _fill(network, vector):
    full = dict(vector)
    for net in network.primary_inputs:
        full.setdefault(net, 0)
    return full


class TestFaultLists:
    def test_stuck_at_enumeration(self):
        network = c17()
        faults = stuck_at_faults(network, collapse=False)
        nets = len(network.nets())
        pins = sum(len(g.inputs) for g in network.gates.values())
        assert len(faults) == 2 * (nets + pins)

    def test_collapse_reduces(self):
        network = c17()
        assert len(stuck_at_faults(network)) < len(
            stuck_at_faults(network, collapse=False)
        )

    def test_fault_names_unique(self):
        faults = stuck_at_faults(ripple_carry_adder(2))
        names = [f.name for f in faults]
        assert len(set(names)) == len(names)

    def test_polarity_faults_only_on_dp_gates(self):
        assert polarity_faults(c17()) == []
        pf = polarity_faults(parity_tree(4))
        assert pf
        assert all(f.kind in ("n", "p") for f in pf)

    def test_polarity_local_behaviour_cached(self):
        f1 = PolarityFault("g_p0", "XOR2", "t1", "n")
        assert f1.iddq_vectors() == ((0, 0),)
        assert f1.output_detecting_vectors() == []

    def test_stuck_open_masked_flags(self):
        sop = stuck_open_faults(parity_tree(4))
        assert all(f.is_masked() for f in sop)
        sop = stuck_open_faults(c17())
        assert not any(f.is_masked() for f in sop)

    def test_validation(self):
        with pytest.raises(ValueError):
            StuckAtFault("x", 2)
        with pytest.raises(ValueError):
            PolarityFault("g", "XOR2", "t1", "z")
        with pytest.raises(ValueError):
            StuckOpenFault("g", "NOPE2", "t1")


class TestPodem:
    @pytest.mark.parametrize(
        "builder", [c17, lambda: ripple_carry_adder(3),
                    lambda: parity_tree(4)]
    )
    def test_every_generated_test_verifies(self, builder):
        """Property: PODEM output always detects its target under
        independent fault simulation."""
        network = builder()
        for fault in stuck_at_faults(network):
            result = generate_test(network, fault)
            if result.success:
                assert detects_stuck_at(
                    network, fault, _fill(network, result.vector)
                ), fault.name

    def test_c17_fully_testable(self):
        network = c17()
        for fault in stuck_at_faults(network):
            assert generate_test(network, fault).success, fault.name

    def test_untestable_reported(self):
        # y = OR(a, a) has an untestable s-a-1 on one branch?  Use a
        # redundant AND-OR: y = (a AND b) OR (a AND NOT b) OR ... keep it
        # simple: a buffer chain where the stem fault dominates.
        from repro.logic import Network

        network = Network("red")
        network.add_input("a")
        network.add_gate("g1", "BUF", ["a"], "x")
        network.add_gate("g2", "OR2", ["x", "a"], "y")
        network.add_output("y")
        network.validate()
        # x/sa1 with a=1 is consistent; with a=0, y = OR(1,0)=1 vs good 0
        # -> testable.  x/sa0: a=1 -> OR(0,1)=1 == good -> masked!
        fault = StuckAtFault("x", 0, gate="g2", pin=0)
        result = generate_test(network, fault)
        assert not result.success
        assert not result.aborted  # proven untestable, not given up


class TestFaultSimulation:
    def test_parallel_matches_serial(self):
        """Property: bit-parallel and serial stuck-at simulation agree."""
        network = ripple_carry_adder(2)
        faults = stuck_at_faults(network)
        import random

        rng = random.Random(5)
        vectors = [
            {n: rng.randint(0, 1) for n in network.primary_inputs}
            for _ in range(24)
        ]
        parallel = parallel_stuck_at_simulation(network, faults, vectors)
        for fault in faults:
            serial_hit = any(
                detects_stuck_at(network, fault, v) for v in vectors
            )
            assert serial_hit == (fault.name in parallel.detected), (
                fault.name
            )

    def test_detection_index_is_first(self):
        network = c17()
        faults = stuck_at_faults(network)
        vectors = [
            {"g1": 0, "g2": 0, "g3": 0, "g6": 0, "g7": 0},
            {"g1": 1, "g2": 1, "g3": 1, "g6": 1, "g7": 1},
        ]
        result = parallel_stuck_at_simulation(network, faults, vectors)
        for name, idx in result.detected.items():
            fault = next(f for f in faults if f.name == name)
            assert detects_stuck_at(network, fault, vectors[idx])
            for earlier in range(idx):
                assert not detects_stuck_at(
                    network, fault, vectors[earlier]
                )

    def test_polarity_iddq_detection(self):
        network = parity_tree(4)
        fault = polarity_faults(network)[0]
        test, aborted = generate_polarity_test(network, fault)
        assert test is not None and not aborted
        full = _fill(network, test.vector)
        assert detects_polarity(
            network, fault, full, iddq=(test.mode == "iddq")
        )

    def test_stuck_open_two_pattern_detection(self):
        network = c17()
        result = run_sof_atpg(network)
        assert result.tests
        for test in result.tests:
            assert detects_stuck_open(
                network, test.fault, test.init_vector, test.test_vector
            )


class TestPolarityAtpg:
    def test_budget_exhaustion_is_aborted_not_untestable(self):
        """With no backtrack budget some IDDQ justifications give up;
        those faults are aborted, not proven untestable (every one has
        a test at the default budget)."""
        network = build_benchmark("parity8")
        starved = run_polarity_atpg(network, max_backtracks=0)
        assert not starved.untestable
        assert len(starved.aborted) == 4
        full = run_polarity_atpg(network)
        assert len(full.tests) == 80
        assert not full.untestable and not full.aborted
        assert {f.name for f in starved.aborted} <= {
            t.fault.name for t in full.tests
        }
        for fault in starved.aborted:
            test, aborted = generate_polarity_test(
                network, fault, max_backtracks=0
            )
            assert test is None and aborted

    def test_full_coverage_on_adder(self):
        network = ripple_carry_adder(2)
        result = run_polarity_atpg(network)
        assert result.coverage == 1.0

    def test_tests_verify(self):
        network = parity_tree(4)
        result = run_polarity_atpg(network)
        for test in result.tests:
            full = _fill(network, test.vector)
            assert detects_polarity(
                network, test.fault, full, iddq=(test.mode == "iddq")
            ), test.fault.name

    def test_classic_set_misses_polarity(self):
        """The paper's core claim at circuit level: a full stuck-at test
        set leaves polarity faults undetected at the outputs."""
        from repro.analysis import classic_stuck_at_testset

        network = parity_tree(4)
        test_set = classic_stuck_at_testset(network)
        pf = polarity_faults(network)
        by_sa = serial_polarity_simulation(network, pf, test_set)
        atpg = run_polarity_atpg(network)
        assert by_sa.coverage < atpg.coverage
        assert atpg.coverage > 0.95


class TestSofAtpg:
    def test_c17_all_covered(self):
        result = run_sof_atpg(c17())
        assert not result.masked
        assert not result.untestable
        covered = {t.fault.name for t in result.tests}
        assert len(covered) == len(stuck_open_faults(c17()))

    def test_dp_circuit_all_masked(self):
        result = run_sof_atpg(parity_tree(4))
        assert not result.tests
        assert not result.untestable
        assert len(result.masked) == len(stuck_open_faults(parity_tree(4)))

    def test_mixed_circuit(self):
        network = ripple_carry_adder(2)
        result = run_sof_atpg(network)
        # All gates are DP (XOR3/MAJ3): everything masked.
        assert len(result.masked) == len(stuck_open_faults(network))


class TestIddqSelection:
    def test_cover_is_complete_and_compact(self):
        network = parity_tree(4)
        selection = select_iddq_vectors(network)
        assert selection.coverage == 1.0
        pf = polarity_faults(network)
        # Greedy compaction should do far better than one vector per
        # fault.
        assert len(selection.vectors) < len(pf) / 2

    def test_covered_indices_valid(self):
        network = ripple_carry_adder(2)
        selection = select_iddq_vectors(network)
        for name, idx in selection.covered.items():
            assert 0 <= idx < len(selection.vectors)


class TestCompaction:
    def test_preserves_coverage(self):
        from repro.analysis import classic_stuck_at_testset

        network = c17()
        faults = stuck_at_faults(network)
        vectors = []
        for fault in faults:
            r = generate_test(network, fault)
            if r.success:
                vectors.append(_fill(network, r.vector))
        before = parallel_stuck_at_simulation(network, faults, vectors)
        compacted = compact_tests(network, vectors, faults)
        after = parallel_stuck_at_simulation(
            network, faults, compacted.vectors
        )
        assert after.coverage == before.coverage
        assert len(compacted.vectors) <= len(vectors)

    @given(st.integers(min_value=0, max_value=2**5 - 1))
    @settings(max_examples=20, deadline=None)
    def test_compacted_set_still_detects(self, seed_bits):
        """Property: each fault detected before compaction has a
        detecting vector in the compacted set."""
        network = c17()
        faults = stuck_at_faults(network)[:10]
        vectors = [
            {
                n: (seed_bits >> k ^ j) & 1
                for k, n in enumerate(network.primary_inputs)
            }
            for j in range(4)
        ]
        compacted = compact_tests(network, vectors, faults)
        before = parallel_stuck_at_simulation(network, faults, vectors)
        after = parallel_stuck_at_simulation(
            network, faults, compacted.vectors
        )
        assert set(before.detected) == set(after.detected)
