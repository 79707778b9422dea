"""Compiled-vs-legacy PODEM equivalence and the compilation memo.

The compiled kernel (:mod:`repro.atpg.podem_compiled`) mirrors the
legacy dict-based search of the test oracle
(``tests/oracles/podem_legacy.py``) decision-for-decision, so the two
must agree on *everything*: success flags, generated vectors, backtrack counts,
and the detected / untestable / aborted partition of every campaign —
swept here over every generated benchmark and every fault class, over
aborted, untestable and detected faults of the corpus circuit cpx432,
plus the edge cases (redundant untestable faults, backtrack-budget aborts,
faults on primary outputs/inputs, justification-only searches).
"""

import pytest
from oracles.podem_legacy import legacy_kernel, on_legacy_kernel
from oracles.serial_sim import (
    detects_polarity,
    detects_stuck_at,
    detects_stuck_open,
)
from repro.atpg import (
    generate_polarity_test,
    generate_test,
    justify_and_propagate,
    polarity_faults,
    run_sof_atpg,
    run_stuck_at_atpg,
    stuck_at_faults,
)
from repro.campaign import get_registry
from repro.faults import StuckAtFault, get_universe
from repro.circuits import BENCHMARK_BUILDERS, build_benchmark
from repro.logic.compiled import (
    compile_network,
    invalidate_network,
    structural_fingerprint,
)
from repro.logic.network import Network

BENCHES = sorted(BENCHMARK_BUILDERS)

#: Cap per fault class so the two-engine sweep over every benchmark
#: stays fast; stride sampling spreads the selection over the circuit.
MAX_FAULTS = 24


def _sample(faults, cap=MAX_FAULTS):
    if len(faults) <= cap:
        return list(faults)
    stride = len(faults) // cap + 1
    return list(faults)[::stride]


def _same_result(a, b):
    return (a.success, a.vector, a.backtracks, a.aborted) == (
        b.success, b.vector, b.backtracks, b.aborted
    )


# ---------------------------------------------------------------------------
# Per-fault equivalence across every benchmark and fault class
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BENCHES)
def test_stuck_at_generation_matches_legacy(name):
    network = build_benchmark(name)
    for fault in _sample(stuck_at_faults(network)):
        legacy = on_legacy_kernel(generate_test, network, fault)
        compiled = generate_test(network, fault)
        assert _same_result(legacy, compiled), (name, fault.name)
        if compiled.success:
            # Oracle verification, independent of both engines.
            assert detects_stuck_at(
                network, fault, compiled.vector
            ), (name, fault.name)


@pytest.mark.parametrize("name", BENCHES)
def test_polarity_generation_matches_legacy(name):
    network = build_benchmark(name)
    faults = _sample(polarity_faults(network), cap=8)
    if not faults:
        pytest.skip(f"{name} has no DP gates")
    for fault in faults:
        legacy, legacy_aborted = on_legacy_kernel(
            generate_polarity_test, network, fault
        )
        compiled, aborted = generate_polarity_test(network, fault)
        assert legacy_aborted == aborted, (name, fault.name)
        if legacy is None:
            assert compiled is None, (name, fault.name)
            continue
        assert compiled is not None, (name, fault.name)
        assert (legacy.vector, legacy.mode, legacy.local_vector) == (
            compiled.vector, compiled.mode, compiled.local_vector
        ), (name, fault.name)
        if compiled.mode == "voltage":
            assert detects_polarity(network, fault, compiled.vector)
        else:
            assert detects_polarity(
                network, fault, compiled.vector, iddq=True
            )


@pytest.mark.parametrize("name", ["c17", "alu_slice"])
def test_sof_atpg_matches_legacy(name):
    network = build_benchmark(name)
    with legacy_kernel():
        legacy = run_sof_atpg(network)
    compiled = run_sof_atpg(network)
    assert [t.fault.name for t in legacy.tests] == [
        t.fault.name for t in compiled.tests
    ]
    for lt, ct in zip(legacy.tests, compiled.tests):
        assert (lt.init_vector, lt.test_vector) == (
            ct.init_vector, ct.test_vector
        ), lt.fault.name
        assert detects_stuck_open(
            network, ct.fault, ct.init_vector, ct.test_vector
        )
    assert [f.name for f in legacy.masked] == [
        f.name for f in compiled.masked
    ]
    assert [f.name for f in legacy.untestable] == [
        f.name for f in compiled.untestable
    ]


#: Pinned campaign rows: (faults, tests, coverage, untestable, aborted).
CAMPAIGN_ROWS = {
    "c17": (34, 9, 1.0, 0, 0),
    "rca4": (82, 18, 1.0, 0, 0),
    "eq4": (30, 9, 1.0, 0, 0),
    "alu_slice": (82, 16, 81 / 82, 1, 0),
    "rca8": (162, 34, 1.0, 0, 0),
    "rca16": (322, 66, 1.0, 0, 0),
    "alu4": (286, 48, 282 / 286, 4, 0),
}


@pytest.mark.parametrize("name", sorted(CAMPAIGN_ROWS))
def test_campaign_partition_identical(name):
    """Full fault-dropping campaigns agree on tests, detection indices
    and the untestable/aborted classification, bit for bit, and land on
    the pinned row (the rca8/rca16/alu4 rows are the acceptance
    circuits of the compiled kernel)."""
    network = build_benchmark(name)
    faults = stuck_at_faults(network)
    with legacy_kernel():
        legacy = run_stuck_at_atpg(network, faults)
    compiled = run_stuck_at_atpg(network, faults)
    assert legacy.tests == compiled.tests
    assert legacy.detected == compiled.detected
    assert legacy.untestable == compiled.untestable
    assert legacy.aborted == compiled.aborted
    assert legacy.coverage == compiled.coverage
    assert (
        len(faults), len(compiled.tests), compiled.coverage,
        len(compiled.untestable), len(compiled.aborted),
    ) == CAMPAIGN_ROWS[name]


# ---------------------------------------------------------------------------
# Corpus mirror: cpx432
# ---------------------------------------------------------------------------

def _outcome(result):
    """PODEM outcome class; None for a detection with no backtrack."""
    if result.aborted:
        return "aborted"
    if not result.success:
        return "untestable"
    return "detected" if result.backtracks else None


def _corpus_subset(network, quotas):
    """cpx432 faults of each outcome class, first come first served.

    Walks the collapsed stuck-at list in collapse order, stems and then
    branch faults, and keeps the first faults whose compiled outcome
    ``(is_branch, class)`` still has room in ``quotas``.  Trivial
    detections (no backtrack) are skipped: they exercise no search.
    """
    faults = get_universe("stuck_at").collapse(network)
    need = dict(quotas)
    chosen = []
    for branch in (False, True):
        for fault in faults:
            if not any(n for (b, _), n in need.items() if b == branch):
                break
            if fault.is_branch != branch:
                continue
            compiled = generate_test(network, fault)
            key = (branch, _outcome(compiled))
            if need.get(key):
                need[key] -= 1
                chosen.append((fault, compiled))
    assert not any(need.values()), need
    return chosen


def _mirror_corpus(quotas):
    network = get_registry().load("cpx432")
    for fault, compiled in _corpus_subset(network, quotas):
        legacy = on_legacy_kernel(generate_test, network, fault)
        assert _same_result(legacy, compiled), fault.name
        if compiled.success:
            assert detects_stuck_at(network, fault, compiled.vector)


def test_cpx432_subset_matches_legacy():
    """One aborted, two untestable and a few detected faults (stems
    and branches) give identical results on both engines."""
    _mirror_corpus({
        (False, "aborted"): 1,
        (False, "untestable"): 2,
        (False, "detected"): 3,
        (True, "detected"): 2,
    })


@pytest.mark.slow
def test_cpx432_hard_faults_match_legacy():
    _mirror_corpus({
        (False, "aborted"): 5,
        (False, "untestable"): 6,
        (False, "detected"): 8,
        (True, "detected"): 4,
        (True, "untestable"): 1,
    })


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------

def _redundant_network() -> Network:
    """y = OR(a, NOT a) — constant 1, so y/sa1 is untestable."""
    network = Network("redundant")
    network.add_input("a")
    network.add_gate("inv", "INV", ["a"], "an")
    network.add_gate("orr", "OR2", ["a", "an"], "y")
    network.add_output("y")
    network.validate()
    return network


def test_untestable_redundant_fault_both_engines():
    network = _redundant_network()
    fault = StuckAtFault("y", 1)  # y is constant 1: sa1 undetectable
    legacy = on_legacy_kernel(generate_test, network, fault)
    compiled = generate_test(network, fault)
    for engine, result in (("legacy", legacy), ("compiled", compiled)):
        assert not result.success, engine
        assert not result.aborted, engine  # proven, not given up
    assert _same_result(legacy, compiled)


def test_backtrack_budget_abort_both_engines():
    """With a zero backtrack budget the untestable proof cannot finish:
    both engines give up identically and flag the abort."""
    network = _redundant_network()
    fault = StuckAtFault("y", 1)
    legacy = on_legacy_kernel(
        generate_test, network, fault, max_backtracks=0
    )
    compiled = generate_test(network, fault, max_backtracks=0)
    assert legacy.aborted and compiled.aborted
    assert _same_result(legacy, compiled)


def test_fault_on_primary_output_and_input():
    network = build_benchmark("c17")
    po_faults = [StuckAtFault("g22", 0), StuckAtFault("g22", 1)]
    pi_faults = [StuckAtFault("g1", 0), StuckAtFault("g1", 1)]
    for fault in po_faults + pi_faults:
        legacy = on_legacy_kernel(generate_test, network, fault)
        compiled = generate_test(network, fault)
        assert _same_result(legacy, compiled), fault.name
        assert compiled.success, fault.name
        assert detects_stuck_at(network, fault, compiled.vector)


def test_justification_only_matches_legacy():
    """propagate=False (IDDQ-style justification) parity."""
    network = build_benchmark("rca4")
    gate = network.gates["fa2_sum"]
    for local in ((0, 1, 1), (1, 0, 0), (1, 1, 1)):
        condition = list(zip(gate.inputs, local))
        legacy = on_legacy_kernel(
            justify_and_propagate, network, condition, propagate=False
        )
        compiled = justify_and_propagate(network, condition, propagate=False)
        assert _same_result(legacy, compiled), local


# ---------------------------------------------------------------------------
# Compilation memo
# ---------------------------------------------------------------------------

def test_structurally_identical_networks_share_compiled_form():
    first = build_benchmark("rca4")
    second = build_benchmark("rca4")
    assert first is not second
    assert structural_fingerprint(first) == structural_fingerprint(second)
    assert compile_network(first) is compile_network(second)


def test_different_structures_do_not_share():
    rca = build_benchmark("rca4")
    other = build_benchmark("eq4")
    assert structural_fingerprint(rca) != structural_fingerprint(other)
    assert compile_network(rca) is not compile_network(other)


def test_invalidate_evicts_shared_memo_entry():
    network = build_benchmark("parity8")
    cnet = compile_network(network)
    network.invalidate()
    rebuilt = compile_network(network)
    assert rebuilt is not cnet
    # A fresh structurally identical build now shares the new entry.
    assert compile_network(build_benchmark("parity8")) is rebuilt
    invalidate_network(network)  # module-level form, same effect
    assert compile_network(network) is not rebuilt


def test_structural_edit_switches_memo_entry():
    network = build_benchmark("c17")
    before = compile_network(network)
    network.add_gate("extra", "INV", ["g22"], "g22_n")
    network.add_output("g22_n")
    after = compile_network(network)
    assert after is not before
    assert len(after.ops) == len(before.ops) + 1
    # The untouched structure keeps its own memo entry.
    assert compile_network(build_benchmark("c17")) is before


def test_structures_immune_to_source_network_mutation():
    """A memoized CompiledNetwork can be shared with fresh structurally
    identical networks after its original source was edited; derived
    structures must come from the compile-time snapshot, not the live
    (now different) network."""
    original = build_benchmark("c17")
    shared = compile_network(original)
    # Mutate the original *before* structures are ever built; the old
    # memo entry stays keyed by the pre-mutation fingerprint.
    original.add_gate("early", "INV", ["g1"], "aaa")
    original.add_output("aaa")
    fresh = build_benchmark("c17")
    assert compile_network(fresh) is shared
    structs = shared.structures()
    # c17 is NAND2-only: every op must see NAND semantics (had the zip
    # drifted onto the mutated network, the inserted INV would shift
    # every gtype by one).
    assert shared.op_gtypes == ("NAND2",) * len(shared.ops)
    first_level = shared.gate_op["g_g10"]
    out = shared.ops[first_level][1]
    # Cheapest fully-specified local assignment over two PI inputs:
    # cost 1 + 1, plus one gate hop.
    assert structs.cc0[out] == 3
    assert structs.cc1[out] == 3
    assert structs.inverting[first_level] == 1


def test_structures_cached_and_consistent():
    network = build_benchmark("alu_slice")
    cnet = compile_network(network)
    structs = cnet.structures()
    assert cnet.structures() is structs
    # Driver/fanout agree with the op array.
    for pos, (_, out, ins) in enumerate(cnet.ops):
        assert structs.driver_op[out] == pos
        for i in ins:
            assert pos in structs.fanout_ops[i]
    # Every PO is output-reachable; every PI is flagged.
    for idx in cnet.po_index:
        assert structs.po_reachable[idx]
    for idx in cnet.pi_index:
        assert structs.is_pi[idx]
        assert structs.cc0[idx] == structs.cc1[idx] == 1
