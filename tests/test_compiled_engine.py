"""Equivalence of the compiled bit-parallel engine with the serial
ternary oracle, swept over every generated benchmark circuit and every
fault class (stuck-at, polarity voltage/IDDQ, two-pattern stuck-open),
plus the campaign wrappers and the fault-dropping ATPG loops built on
top of it."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.serial_atpg import (
    serial_polarity_simulation,
    serial_stuck_at_simulation,
)
from oracles.serial_sim import (
    detects_polarity,
    detects_stuck_at,
    detects_stuck_open,
)

from repro.atpg import (
    parallel_polarity_simulation,
    parallel_stuck_at_simulation,
    parallel_stuck_open_simulation,
    polarity_detection_words,
    polarity_faults,
    run_sof_atpg,
    run_stuck_at_atpg,
    stuck_at_detection_words,
    stuck_at_faults,
    stuck_open_detection_words,
    stuck_open_faults,
)
from repro.circuits import BENCHMARK_BUILDERS, build_benchmark, c17
from repro.logic import simulate_outputs
from repro.logic.compiled import FaultInjection, pack_vectors
from repro.logic.network import Network
from repro.logic.values import X

BENCHES = sorted(BENCHMARK_BUILDERS)

#: Cap per fault class so the full benchmark x class sweep stays fast;
#: stride sampling keeps the selection spread over the circuit.
MAX_FAULTS = 36
N_VECTORS = 12
N_PAIRS = 8


def _sample(faults):
    if len(faults) <= MAX_FAULTS:
        return list(faults)
    stride = len(faults) // MAX_FAULTS + 1
    return list(faults)[::stride]


def _vectors(network, n, seed, values=(0, 1)):
    rng = random.Random(seed)
    return [
        {net: rng.choice(values) for net in network.primary_inputs}
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# Fault-free equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BENCHES)
def test_fault_free_outputs_match_serial(name):
    """Batched dual-rail simulation equals the ternary simulator on
    every benchmark, including X-bearing vectors."""
    network = build_benchmark(name)
    cnet = network.compiled()
    vectors = _vectors(network, N_VECTORS, seed=1, values=(0, 1, X))
    state = cnet.simulate(pack_vectors(cnet, vectors))
    for k, vector in enumerate(vectors):
        assert cnet.outputs_unpacked(state, k) == simulate_outputs(
            network, vector
        )


def test_missing_inputs_default_to_x():
    network = c17()
    cnet = network.compiled()
    state = cnet.simulate(pack_vectors(cnet, [{}]))
    assert cnet.outputs_unpacked(state, 0) == simulate_outputs(network, {})


# ---------------------------------------------------------------------------
# Fault-class equivalence, vector-for-vector
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BENCHES)
def test_stuck_at_matches_oracle(name):
    network = build_benchmark(name)
    faults = _sample(stuck_at_faults(network))
    vectors = _vectors(network, N_VECTORS, seed=2)
    words = stuck_at_detection_words(network, faults, vectors)
    for fault, word in zip(faults, words):
        for k, vector in enumerate(vectors):
            assert bool(word >> k & 1) == detects_stuck_at(
                network, fault, vector
            ), (name, fault.name, k)


@pytest.mark.parametrize("name", BENCHES)
@pytest.mark.parametrize("iddq", [False, True])
def test_polarity_matches_oracle(name, iddq):
    network = build_benchmark(name)
    faults = _sample(polarity_faults(network))
    if not faults:
        pytest.skip(f"{name} has no DP gates")
    vectors = _vectors(network, N_VECTORS, seed=3)
    words = polarity_detection_words(network, faults, vectors, iddq=iddq)
    for fault, word in zip(faults, words):
        for k, vector in enumerate(vectors):
            assert bool(word >> k & 1) == detects_polarity(
                network, fault, vector, iddq=iddq
            ), (name, fault.name, k, iddq)


@pytest.mark.parametrize("name", BENCHES)
def test_stuck_open_matches_oracle(name):
    network = build_benchmark(name)
    faults = _sample(stuck_open_faults(network))
    if not faults:
        pytest.skip(f"{name} has no cell-mapped gates")
    init = _vectors(network, N_PAIRS, seed=4)
    test = _vectors(network, N_PAIRS, seed=5)
    pairs = list(zip(init, test))
    words = stuck_open_detection_words(network, faults, pairs)
    for fault, word in zip(faults, words):
        for k, (iv, tv) in enumerate(pairs):
            assert bool(word >> k & 1) == detects_stuck_open(
                network, fault, iv, tv
            ), (name, fault.name, k)


@given(st.integers(min_value=0, max_value=3**10 - 1))
@settings(max_examples=25, deadline=None)
def test_stuck_at_equivalence_property(ternary_seed):
    """Property: for arbitrary ternary vectors (X included), batched
    and serial stuck-at detection agree on every fault of c17."""
    network = c17()
    digits = []
    while len(digits) < 10:
        digits.append(ternary_seed % 3)
        ternary_seed //= 3
    vectors = [
        dict(zip(network.primary_inputs, digits[:5])),
        dict(zip(network.primary_inputs, digits[5:])),
    ]
    faults = stuck_at_faults(network)
    words = stuck_at_detection_words(network, faults, vectors)
    for fault, word in zip(faults, words):
        for k, vector in enumerate(vectors):
            assert bool(word >> k & 1) == detects_stuck_at(
                network, fault, vector
            )


# ---------------------------------------------------------------------------
# Campaign wrappers
# ---------------------------------------------------------------------------

def test_campaign_first_detection_matches_serial():
    network = build_benchmark("rca4")
    faults = stuck_at_faults(network)
    vectors = _vectors(network, 48, seed=6)
    result = parallel_stuck_at_simulation(network, faults, vectors)
    for fault in faults:
        serial_first = next(
            (
                k for k, v in enumerate(vectors)
                if detects_stuck_at(network, fault, v)
            ),
            None,
        )
        assert result.detected.get(fault.name) == serial_first


def _seeded_vectors(network, n, seed):
    """``n`` binary vectors from a seeded numpy generator."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(n, len(network.primary_inputs)))
    return [
        dict(zip(network.primary_inputs, map(int, row))) for row in bits
    ]


@pytest.mark.parametrize("name", ["c17", "rca8", "rca16", "alu4"])
def test_full_stuck_at_campaign_matches_serial(name):
    """The whole collapsed fault list over 192 seeded vectors, with
    dropping: the batched campaign equals the serial one."""
    network = build_benchmark(name)
    faults = stuck_at_faults(network)
    vectors = _seeded_vectors(network, 192, seed=17)
    batched = parallel_stuck_at_simulation(network, faults, vectors)
    serial = serial_stuck_at_simulation(network, faults, vectors)
    assert batched.detected == serial.detected
    assert batched.undetected == serial.undetected


def test_random_vector_coverage_floors():
    """Random vectors catch most stuck-at faults of an adder, IDDQ
    observables catch most polarity faults with random vectors, and
    random two-pattern pairs expose a solid share of SP opens (DP opens
    are masked, hence the mixed ALU)."""
    rca8 = build_benchmark("rca8")
    stuck = parallel_stuck_at_simulation(
        rca8, stuck_at_faults(rca8), _seeded_vectors(rca8, 128, seed=11)
    )
    assert stuck.coverage > 0.9
    network = build_benchmark("rca16")
    iddq = parallel_polarity_simulation(
        network, polarity_faults(network),
        _seeded_vectors(network, 256, seed=23), iddq=True,
    )
    assert iddq.coverage > 0.9
    alu = build_benchmark("alu4")
    vectors = _seeded_vectors(alu, 256, seed=29)
    pairs = list(zip(vectors[::2], vectors[1::2]))
    opens = parallel_stuck_open_simulation(
        alu, stuck_open_faults(alu), pairs
    )
    assert opens.coverage > 0.3


@pytest.mark.parametrize("iddq", [False, True])
def test_polarity_campaign_matches_serial(iddq):
    network = build_benchmark("parity8")
    faults = polarity_faults(network)
    vectors = _vectors(network, 32, seed=7)
    batched = parallel_polarity_simulation(
        network, faults, vectors, iddq=iddq
    )
    serial = serial_polarity_simulation(
        network, faults, vectors, iddq=iddq
    )
    assert batched.detected == serial.detected
    assert batched.undetected == serial.undetected


def test_stuck_open_campaign_detects_generated_tests():
    network = c17()
    atpg = run_sof_atpg(network)
    pairs = [(t.init_vector, t.test_vector) for t in atpg.tests]
    faults = [t.fault for t in atpg.tests]
    result = parallel_stuck_open_simulation(network, faults, pairs)
    assert result.coverage == 1.0
    for k, test in enumerate(atpg.tests):
        assert result.detected[test.fault.name] <= k


# ---------------------------------------------------------------------------
# Fault-dropping ATPG loops
# ---------------------------------------------------------------------------

def test_run_stuck_at_atpg_full_coverage_and_verified():
    for name in ("c17", "rca4"):
        network = build_benchmark(name)
        faults = stuck_at_faults(network)
        result = run_stuck_at_atpg(network, faults)
        assert result.coverage == 1.0
        assert len(result.tests) < len(faults)  # dropping compacts
        for fault in faults:
            index = result.detected[fault.name]
            assert detects_stuck_at(
                network, fault, result.tests[index]
            ), fault.name


def test_aborted_fault_detected_by_later_test(monkeypatch):
    """A fault whose search gives up stays live for fault dropping: on
    tmr_voter with no backtrack budget, tests generated after two of
    the aborted searches detect those faults, which end in ``detected``
    and not in ``aborted``."""
    import repro.atpg.podem as podem

    network = build_benchmark("tmr_voter")
    faults = stuck_at_faults(network)
    gave_up = []
    search = podem.generate_test

    def logged(net, fault, max_backtracks=500):
        result = search(net, fault, max_backtracks)
        if result.aborted:
            gave_up.append(fault.name)
        return result

    monkeypatch.setattr(podem, "generate_test", logged)
    result = run_stuck_at_atpg(network, faults, max_backtracks=0)
    later = [name for name in gave_up if name in result.detected]
    assert len(later) == 2
    assert result.aborted == sorted(set(gave_up) - set(later))
    by_name = {fault.name: fault for fault in faults}
    for name in later:
        index = result.detected[name]
        assert detects_stuck_at(network, by_name[name], result.tests[index])


def test_sof_atpg_dropping_preserves_coverage():
    network = build_benchmark("alu_slice")
    plain = run_sof_atpg(network)
    dropping = run_sof_atpg(network, drop_detected=True)
    assert dropping.coverage == pytest.approx(plain.coverage)
    assert len(dropping.tests) <= len(plain.tests)
    for name, index in dropping.dropped.items():
        fault = next(
            f for f in stuck_open_faults(network) if f.name == name
        )
        test = dropping.tests[index]
        assert detects_stuck_open(
            network, fault, test.init_vector, test.test_vector
        ), name


# ---------------------------------------------------------------------------
# Compiled-form lifecycle
# ---------------------------------------------------------------------------

def test_compiled_cache_invalidated_by_edits():
    network = Network("cache")
    network.add_input("a")
    network.add_gate("g1", "INV", ["a"], "y")
    network.add_output("y")
    first = network.compiled()
    assert network.compiled() is first  # cached
    network.add_gate("g2", "INV", ["y"], "z")
    network.add_output("z")
    rebuilt = network.compiled()
    assert rebuilt is not first
    assert len(rebuilt.ops) == 2


def test_injection_words_force_per_vector_values():
    """The word-level line override injects arbitrary per-vector values
    (the mechanism behind stuck-open retained-value simulation)."""
    network = Network("force")
    network.add_input("a")
    network.add_gate("g1", "BUF", ["a"], "y")
    network.add_output("y")
    cnet = network.compiled()
    packed = pack_vectors(cnet, [{"a": 0}, {"a": 0}, {"a": 0}])
    forced = FaultInjection(
        words={cnet.net_index["y"]: (0b010, 0b101)}
    )
    state = cnet.simulate(packed, forced)
    assert [cnet.outputs_unpacked(state, k)[0] for k in range(3)] == [
        0, 1, 0
    ]
