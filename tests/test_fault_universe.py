"""Cross-layer round-trip equivalence suite for :mod:`repro.faults`.

The refactor contract: the unified fault-universe API must be
*bit-identical* to the seed enumerators — same fault sets, same counts,
same campaign coverage numbers — on the reference circuits.  The
expected values below were captured from the pre-refactor enumerators
and campaign runners (seed commit) and are asserted against the new
registry-driven paths.
"""

import importlib

import pytest

from repro.campaign.registry import get_registry
from repro.campaign.tasks import run_fault_class
from repro.core.defects import (
    DefectMechanism,
    _site_sort_key,
    enumerate_defect_sites,
)
from repro.faults import (
    PolarityFault,
    PolarityFaultRecord,
    ReproDeprecationWarning,
    StuckOpenFault,
    get_universe,
    register_universe,
    universe_names,
)
from repro.faults.cli import format_census
from repro.faults.universe import FaultUniverse
from repro.gates.library import ALL_CELLS, INV, XOR2


def load(name):
    return get_registry().load(name)


#: Seed enumeration counts: circuit -> (stuck-at full, stuck-at
#: collapsed, polarity, stuck-open), captured from the pre-refactor
#: enumerators.
SEED_COUNTS = {
    "c17": (46, 34, 0, 24),
    "rca8": (162, 162, 256, 128),
    "alu4": (430, 286, 160, 292),
}


class TestRegistry:
    def test_builtin_universes_registered(self):
        assert universe_names() == [
            "defect_mechanism",
            "device_defect",
            "circuit_fault",
            "polarity",
            "stuck_at",
            "stuck_open",
        ]

    def test_unknown_universe_is_a_helpful_keyerror(self):
        with pytest.raises(KeyError, match="unknown fault universe"):
            get_universe("bridging_or")

    def test_duplicate_registration_requires_replace(self):
        universe = get_universe("stuck_at")
        with pytest.raises(ValueError, match="already registered"):
            register_universe("stuck_at", universe)
        assert register_universe("stuck_at", universe, replace=True) is universe

    def test_plugin_universe_round_trip(self):
        class Empty(FaultUniverse):
            layer = "logic"
            description = "test-only"

            def enumerate(self, network):
                return []

        try:
            register_universe("test_empty", Empty())
            assert get_universe("test_empty").stats(load("c17")).n_faults == 0
            assert "test_empty" in universe_names()
        finally:
            from repro.faults.universe import _REGISTRY

            _REGISTRY.pop("test_empty", None)


class TestSeedEquivalence:
    """New-API enumeration == the seed enumerators, bit for bit."""

    @pytest.mark.parametrize("circuit", sorted(SEED_COUNTS))
    def test_counts_match_seed(self, circuit):
        network = load(circuit)
        sa_full, sa_collapsed, pol, sop = SEED_COUNTS[circuit]
        assert len(get_universe("stuck_at").enumerate(network)) == sa_full
        assert len(get_universe("stuck_at").collapse(network)) == sa_collapsed
        assert len(get_universe("polarity").enumerate(network)) == pol
        assert len(get_universe("stuck_open").enumerate(network)) == sop

    @pytest.mark.parametrize("circuit", sorted(SEED_COUNTS))
    def test_lists_match_atpg_reexports(self, circuit):
        from repro.atpg import (
            polarity_faults,
            stuck_at_faults,
            stuck_open_faults,
        )

        network = load(circuit)
        assert stuck_at_faults(network) == get_universe(
            "stuck_at"
        ).collapse(network)
        assert stuck_at_faults(network, collapse=False) == get_universe(
            "stuck_at"
        ).enumerate(network)
        assert polarity_faults(network) == get_universe(
            "polarity"
        ).enumerate(network)
        assert stuck_open_faults(network) == get_universe(
            "stuck_open"
        ).enumerate(network)

    @pytest.mark.parametrize("circuit", sorted(SEED_COUNTS))
    def test_enumeration_is_deterministic(self, circuit):
        network = load(circuit)
        for name in universe_names():
            universe = get_universe(name)
            first = [universe.fault_name(f) for f in universe.enumerate(network)]
            second = [
                universe.fault_name(f) for f in universe.enumerate(network)
            ]
            assert first == second

    def test_collapse_is_a_sublist(self):
        network = load("alu4")
        universe = get_universe("stuck_at")
        full = [f.name for f in universe.enumerate(network)]
        collapsed = [f.name for f in universe.collapse(network)]
        assert set(collapsed) <= set(full)
        # Explicit-list collapsing prunes to the same set.
        pruned = universe.collapse(network, universe.enumerate(network))
        assert [f.name for f in pruned] == collapsed


#: Seed campaign metrics (pre-refactor ``run_fault_class``), pinned so
#: the rewired tasks keep producing bit-identical coverage/escape
#: numbers.  The heavy polarity/iddq cells are pinned on c17 (trivial)
#: and checked structurally elsewhere to keep the suite fast.
SEED_METRICS = {
    ("c17", "stuck_at"): {
        "n_faults": 34, "n_tests_generated": 9, "n_vectors": 7,
        "coverage": 1.0, "n_untestable": 0, "n_aborted": 0, "backtracks": 0,
    },
    ("c17", "polarity"): {
        "n_faults": 0, "coverage_by_stuck_at_set": None, "n_escapes": 0,
        "atpg_coverage": None, "n_voltage_tests": 0, "n_iddq_tests": 0,
        "n_untestable": 0,
    },
    ("c17", "iddq"): {
        "n_faults": 0, "n_vectors": 0, "coverage": None, "n_detected": 0,
        "n_uncovered": 0,
    },
    ("c17", "stuck_open"): {
        "n_faults": 24, "n_masked": 0, "n_tests": 11, "n_dropped": 13,
        "n_untestable": 0, "coverage": 1.0,
    },
    ("rca8", "stuck_at"): {
        "n_faults": 162, "n_tests_generated": 34, "n_vectors": 18,
        "coverage": 1.0, "n_untestable": 0, "n_aborted": 0, "backtracks": 8,
    },
    ("rca8", "stuck_open"): {
        "n_faults": 128, "n_masked": 128, "n_tests": 0, "n_dropped": 0,
        "n_untestable": 0, "coverage": 0.0,
    },
    ("alu4", "stuck_at"): {
        "n_faults": 286, "n_tests_generated": 48, "n_vectors": 42,
        "coverage": 0.986013986013986, "n_untestable": 4, "n_aborted": 0,
        "backtracks": 262,
    },
    ("alu4", "stuck_open"): {
        "n_faults": 292, "n_masked": 80, "n_tests": 64, "n_dropped": 144,
        "n_untestable": 4, "coverage": 0.7123287671232876,
    },
}


class TestCampaignEquivalence:
    @pytest.mark.parametrize(
        "circuit,fault_class", sorted(SEED_METRICS), ids="-".join
    )
    def test_metrics_bit_identical_to_seed(self, circuit, fault_class):
        assert run_fault_class(load(circuit), fault_class) == SEED_METRICS[
            (circuit, fault_class)
        ]


class TestCrossLayerLowering:
    """The paper's mapping, as universe hops: mechanism -> device ->
    circuit -> logic, landing exactly on the seed logic universes."""

    @pytest.mark.parametrize("circuit", sorted(SEED_COUNTS))
    def test_nanowire_breaks_image_onto_stuck_open(self, circuit):
        network = load(circuit)
        mechanism = get_universe("defect_mechanism")
        images = set()
        for fault in mechanism.enumerate(network):
            if fault.site.mechanism is DefectMechanism.NANOWIRE_BREAK:
                images.update(mechanism.image(network, fault))
        assert images == set(get_universe("stuck_open").enumerate(network))

    @pytest.mark.parametrize("circuit", sorted(SEED_COUNTS))
    def test_rail_bridges_image_onto_polarity_universe(self, circuit):
        network = load(circuit)
        mechanism = get_universe("defect_mechanism")
        images = set()
        for fault in mechanism.enumerate(network):
            if fault.site.mechanism is DefectMechanism.TERMINAL_BRIDGE:
                images.update(mechanism.image(network, fault))
        assert images == set(get_universe("polarity").enumerate(network))

    def test_break_site_lowers_through_every_layer(self):
        network = load("rca8")
        mechanism = get_universe("defect_mechanism")
        site = next(
            f
            for f in mechanism.enumerate(network)
            if f.site.mechanism is DefectMechanism.NANOWIRE_BREAK
        )
        (layer_name, device_fault), = mechanism.lower(network, site)
        assert layer_name == "device_defect"
        (layer_name, circuit_fault), = get_universe("device_defect").lower(
            network, device_fault
        )
        assert layer_name == "circuit_fault"
        image = get_universe("circuit_fault").image(network, circuit_fault)
        assert image == [
            StuckOpenFault(site.gate, site.gtype, site.site.transistor)
        ]

    def test_logic_fault_is_its_own_image(self):
        network = load("c17")
        universe = get_universe("stuck_at")
        fault = universe.enumerate(network)[0]
        assert universe.image(network, fault) == [fault]

    def test_circuit_universe_covers_every_descriptor_kind(self):
        network = load("rca8")
        kinds = {
            kind for kind, _ in get_universe("circuit_fault")
            .stats(network).by_kind
        }
        assert kinds == {
            "ChannelBreakFault",
            "DriveDriftFault",
            "FloatingPolarityGate",
            "GOSFault",
            "InterconnectBridgeFault",
            "StuckAtNType",
            "StuckAtPType",
            "TerminalBridgeFault",
        }

    def test_sp_rail_bridges_collapse_as_benign(self):
        # c17 is all-SP: half of its PG-rail bridges re-tie an already
        # tied terminal and must be pruned by mechanism collapsing.
        network = load("c17")
        mechanism = get_universe("defect_mechanism")
        stats = mechanism.stats(network)
        assert stats.n_faults - stats.n_collapsed == 24


class TestDefectSiteOrdering:
    def test_sites_follow_documented_sort_key(self):
        for cell in (INV, XOR2, ALL_CELLS["NAND3"]):
            sites = enumerate_defect_sites(cell)
            assert sites == sorted(sites, key=_site_sort_key)

    def test_mechanisms_grouped_in_table_i_order(self):
        ranks = [
            list(DefectMechanism).index(s.mechanism)
            for s in enumerate_defect_sites(XOR2)
        ]
        assert ranks == sorted(ranks)


class TestPolarityRecordDedup:
    def test_table_iii_rows_are_canonical_records(self):
        from repro.core.test_algorithms import polarity_fault_table

        rows = polarity_fault_table(XOR2)
        assert all(isinstance(r, PolarityFaultRecord) for r in rows)
        assert rows[0].fault_type == "stuck-at n-type"
        assert rows[0].kind == "n"

    def test_record_materialises_the_logic_fault(self):
        record = PolarityFaultRecord(
            transistor="t1",
            kind="p",
            detecting_vector=(1, 1),
            leakage_detect=True,
            output_detect=False,
        )
        assert record.fault("g3", "XOR2") == PolarityFault(
            "g3", "XOR2", "t1", "p"
        )


class TestDeprecationShims:
    def test_removed_shims_are_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.atpg.faults")
        for module in ("repro.core", "repro.core.test_algorithms"):
            with pytest.raises(AttributeError):
                importlib.import_module(module).PolarityFaultRow

    def test_package_reexports_stay_silent(self, recwarn):
        from repro.atpg import stuck_at_faults  # noqa: F401 (canonical)
        from repro.core import PolarityFaultRecord  # noqa: F401 (canonical)

        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_first_party_deprecations_are_errors(self):
        """The ``pytest.ini`` filter a future shim relies on."""
        import warnings

        with pytest.raises(ReproDeprecationWarning):
            warnings.warn("shim", ReproDeprecationWarning)


class TestCensusCli:
    def test_census_matches_checked_in_golden(self, tmp_path):
        import pathlib

        golden = (
            pathlib.Path(__file__).parent
            / "golden" / "faults_census_smoke.txt"
        ).read_text()
        rendered = (
            "\n\n".join(format_census(c) for c in ("c17", "rca8")) + "\n"
        )
        assert rendered == golden

    def test_cli_entry_points(self, capsys):
        from repro.campaign.cli import main

        assert main(["faults", "list"]) == 0
        assert "defect_mechanism" in capsys.readouterr().out
        assert main(["faults", "census", "tmr_voter",
                     "--universes", "polarity"]) == 0
        out = capsys.readouterr().out
        assert "tmr_voter" in out and "sa-n-type:4" in out

    def test_cli_doctests(self):
        import doctest

        import repro.faults.cli as cli_module

        result = doctest.testmod(cli_module, verbose=False)
        assert result.attempted > 0 and result.failed == 0


class TestBatchedSpiceScreen:
    def test_screen_runs_over_universe_subset(self):
        from repro.core.detection import screen_cell_faults
        from repro.core.fault_models import (
            ChannelBreakFault,
            InterconnectBridgeFault,
            StuckAtNType,
        )

        reports = screen_cell_faults(
            XOR2,
            faults=[
                StuckAtNType("t1"),
                ChannelBreakFault("t3"),
                InterconnectBridgeFault("a", "out"),
            ],
            fanout=2,
        )
        assert len(reports) == 3
        # Table III row: stuck-at n-type on t1 is IDDQ-only at (0, 0).
        assert reports[0].iddq_detectable
        assert (0, 0) in reports[0].iddq_vectors
        # DP channel breaks are functionally masked (Section V-C).
        assert not reports[1].output_detectable
        # An input-output short on XOR2 corrupts some vector.
        assert reports[2].detected

    def test_full_inv_universe_screen(self):
        from repro.core.detection import screen_cell_faults
        from repro.faults import circuit_faults_for_cell

        faults = circuit_faults_for_cell(INV)
        reports = screen_cell_faults(INV, fanout=1)
        assert len(reports) == len(faults)
        by_desc = {r.fault_description: r for r in reports}
        # The SP inverter hides nothing: a full channel break on the
        # pull-up is output-detectable.
        break_report = next(
            r for d, r in by_desc.items() if "channel break on t1" in d
        )
        assert break_report.output_detectable
