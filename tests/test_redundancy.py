"""Implication-based redundancy proofs (:mod:`repro.atpg.redundancy`).

A fault :func:`proven_redundant` flags is sent to ``untestable`` without
a PODEM search, so a flag must be a proof: no fault it flags may ever be
detected.  Checked against exhaustive simulation on random circuits,
against a 4096-vector sweep and PODEM on the corpus circuit cpx432, and
on small circuits with known redundancies.  The check must also leave
the search itself alone: a flagged fault handed to ``generate_test``
still gets exactly the legacy oracle's answer.
"""

import itertools

import pytest
from oracles.podem_legacy import on_legacy_kernel
from repro.atpg import (
    generate_test,
    podem,
    run_stuck_at_atpg,
    stuck_at_injection,
)
from repro.atpg.redundancy import proven_redundant
from repro.campaign import get_registry
from repro.campaign.tables import SECTION5_SUITE
from repro.circuits import build_benchmark
from repro.circuits.random_circuits import random_network, random_vectors
from repro.faults import StuckAtFault, get_universe
from repro.logic import multiword as mw
from repro.logic.compiled import compile_network
from repro.logic.network import Network


def collapsed(network):
    return get_universe("stuck_at").collapse(network)


def flagged(network, faults=None):
    cnet = compile_network(network)
    faults = collapsed(network) if faults is None else faults
    return [f for f in faults if proven_redundant(cnet, f)]


def detection_words(network, faults, vectors):
    cnet = compile_network(network)
    mv = mw.pack_vectors_multiword(cnet, vectors)
    good = mw.simulate_good(cnet, mv)
    return mw.batch_detect(
        cnet, mv, good, [stuck_at_injection(cnet, f) for f in faults]
    )


def exhaustive_vectors(network):
    pis = network.primary_inputs
    return [
        dict(zip(pis, bits))
        for bits in itertools.product((0, 1), repeat=len(pis))
    ]


@pytest.fixture(scope="module")
def cpx432():
    network = get_registry().load("cpx432")
    return network, flagged(network)


# ---------------------------------------------------------------------------
# Soundness
# ---------------------------------------------------------------------------

def test_random_networks_against_exhaustive_simulation():
    """No flagged fault is detected by any input vector, and the check
    proves most of the truly redundant faults."""
    n_redundant = n_flagged = 0
    for seed in range(20):
        network = random_network(seed)
        faults = collapsed(network)
        words = detection_words(
            network, faults, exhaustive_vectors(network)
        )
        proven = {f.name for f in flagged(network, faults)}
        for fault, word in zip(faults, words):
            if fault.name in proven:
                assert word == 0, (seed, fault.name)
        n_redundant += sum(1 for w in words if not w)
        n_flagged += len(proven)
    assert n_redundant > 0
    assert n_flagged >= n_redundant // 2


def test_cpx432_flags_nothing_a_random_sweep_detects(cpx432):
    network, proven = cpx432
    assert len(proven) > 300
    vectors = random_vectors(network, 4096, seed=4096)
    words = detection_words(network, proven, vectors)
    assert [f.name for f, w in zip(proven, words) if w] == []


def _podem_detects_none(network, faults):
    for fault in faults:
        assert not generate_test(network, fault, 500).success, fault.name


def test_cpx432_podem_finds_no_test_for_a_flagged_fault(cpx432):
    network, proven = cpx432
    _podem_detects_none(network, proven[::8])


@pytest.mark.slow
def test_cpx432_podem_finds_no_test_for_any_flagged_fault(cpx432):
    network, proven = cpx432
    _podem_detects_none(network, proven)


# ---------------------------------------------------------------------------
# Known redundancies
# ---------------------------------------------------------------------------

def _network(inputs, gates, outputs):
    network = Network("hand")
    for net in inputs:
        network.add_input(net)
    for name, gtype, ins, out in gates:
        network.add_gate(name, gtype, ins, out)
    for net in outputs:
        network.add_output(net)
    return network


def _proven(network, fault):
    return proven_redundant(compile_network(network), fault)


def test_reconvergent_a_and_not_a():
    """``t = a AND NOT a`` is constant 0: exciting ``t`` stuck-at-0 asks
    for ``a = 1`` and ``NOT a = 1`` at once."""
    network = _network(
        ["a", "b"],
        [("g1", "INV", ("a",), "na"),
         ("g2", "AND2", ("a", "na"), "t"),
         ("g3", "OR2", ("t", "b"), "y")],
        ["y"],
    )
    assert _proven(network, StuckAtFault("t", 0))
    assert not _proven(network, StuckAtFault("t", 1))
    assert not _proven(network, StuckAtFault("b", 0))


def test_consensus_term_is_redundant():
    """``y = ab + a'c + bc``: the consensus term ``bc`` adds nothing.
    Exciting its AND output stuck-at-0 needs ``b = c = 1``, and the OR
    dominator needs ``ab = a'c = 0``, so ``a`` must be both 0 and 1."""
    network = _network(
        ["a", "b", "c"],
        [("g0", "INV", ("a",), "na"),
         ("g1", "AND2", ("a", "b"), "p"),
         ("g2", "AND2", ("na", "c"), "q"),
         ("g3", "AND2", ("b", "c"), "r"),
         ("g4", "OR3", ("p", "q", "r"), "y")],
        ["y"],
    )
    assert _proven(network, StuckAtFault("r", 0))
    assert not _proven(network, StuckAtFault("p", 0))
    assert not _proven(network, StuckAtFault("q", 0))


def test_dominator_side_input_conflicts_with_excitation():
    """Exciting ``t = a AND b`` stuck-at-0 sets ``a = 1``; its only path
    out is ``y = t AND NOT a``, whose side input then needs ``a = 0``.
    Excitation alone implies no conflict: the dominator rule is what
    proves it."""
    network = _network(
        ["a", "b", "c"],
        [("g1", "AND2", ("a", "b"), "t"),
         ("g2", "INV", ("a",), "na"),
         ("g3", "AND2", ("t", "na"), "y"),
         ("g4", "XOR2", ("b", "c"), "z")],
        ["y", "z"],
    )
    assert _proven(network, StuckAtFault("t", 0))
    assert not _proven(network, StuckAtFault("y", 1))
    words = detection_words(
        network, [StuckAtFault("t", 0)], exhaustive_vectors(network)
    )
    assert words == [0]


def test_branch_fault_side_inputs():
    """A branch stuck-at-1 on one pin of ``AND(a, a)`` needs ``a = 0``
    on the faulted pin and ``a = 1`` on the other: redundant.  The
    stuck-at-0 branch is testable."""
    network = _network(
        ["a", "b"],
        [("g1", "AND2", ("a", "a"), "t"),
         ("g2", "OR2", ("t", "b"), "y")],
        ["y"],
    )
    assert _proven(network, StuckAtFault("a", 1, gate="g1", pin=0))
    assert not _proven(network, StuckAtFault("a", 0, gate="g1", pin=0))


def test_fault_without_a_path_to_an_output():
    network = _network(
        ["a", "b"],
        [("g1", "AND2", ("a", "b"), "y"),
         ("g2", "OR2", ("a", "b"), "dangling")],
        ["y"],
    )
    assert _proven(network, StuckAtFault("dangling", 0))
    assert not _proven(network, StuckAtFault("y", 0))


# ---------------------------------------------------------------------------
# The search is untouched
# ---------------------------------------------------------------------------

def _same(a, b):
    return (a.success, a.vector, a.backtracks, a.aborted) == (
        b.success, b.vector, b.backtracks, b.aborted
    )


@pytest.mark.parametrize("circuit", ["alu4", "alu_slice"])
def test_generate_test_on_flagged_faults_matches_the_oracle(circuit):
    network = build_benchmark(circuit)
    proven = flagged(network)
    assert proven
    for fault in proven:
        compiled = generate_test(network, fault)
        assert not compiled.success
        assert _same(
            compiled, on_legacy_kernel(generate_test, network, fault)
        ), fault.name


@pytest.mark.parametrize(
    "circuit", [*SECTION5_SUITE, "rca8", "rca16", "alu4"]
)
def test_small_circuits_keep_their_classification(circuit):
    """On the paper grid and rca8/rca16/alu4 PODEM alone proves every
    flagged fault untestable within budget, so the check moves no fault
    between the untestable and aborted lists there."""
    network = build_benchmark(circuit)
    for fault in flagged(network):
        result = generate_test(network, fault)
        assert not result.success and not result.aborted, fault.name


def test_generate_test_on_flagged_cpx432_faults_matches_the_oracle(cpx432):
    network, proven = cpx432
    for fault in proven[:: len(proven) // 6]:
        compiled = generate_test(network, fault, max_backtracks=50)
        assert _same(compiled, on_legacy_kernel(
            generate_test, network, fault, max_backtracks=50
        )), fault.name


def test_flagged_faults_skip_the_search(monkeypatch):
    """``run_stuck_at_atpg`` lists a proven fault as untestable without
    running PODEM on it."""

    def refuse(*args, **kwargs):
        raise AssertionError("searched a proven-redundant fault")

    monkeypatch.setattr(podem, "generate_test", refuse)
    network = _network(
        ["a", "b"],
        [("g1", "INV", ("a",), "na"),
         ("g2", "AND2", ("a", "na"), "t"),
         ("g3", "OR2", ("t", "b"), "y")],
        ["y"],
    )
    result = run_stuck_at_atpg(network, [StuckAtFault("t", 0)])
    assert result.untestable == ["t/sa0"]
    assert result.total_backtracks == 0 and not result.aborted


@pytest.mark.slow
def test_cpx432_campaign_halves_the_aborts():
    """Full cpx432 ATPG: the same 94 tests as the search alone, with
    at most half of its 286 aborts left.  The run's own tests detect 8
    of the 77 faults whose search aborts, which lifts coverage from
    the search's 0.8116 to 0.8148."""
    network = get_registry().load("cpx432")
    result = run_stuck_at_atpg(network, collapsed(network))
    assert len(result.tests) == 94
    assert round(result.coverage, 4) == 0.8148
    assert len(result.aborted) == 69 <= 143
