"""Structure indexes of :class:`~repro.logic.network.Network`.

``fanout_of`` is served from a lazily built net -> gates index and
``levelized`` from one ASAP-level sweep.  Both must give exactly what
the straightforward definitions give; those definitions are kept here
as oracles:

* fanout: scan every gate for the net among its inputs;
* levelization: place gates in waves — each wave is every remaining
  gate whose inputs are all placed, sorted by name.
"""

import pytest

from repro.campaign.registry import get_registry
from repro.circuits import c17
from repro.circuits.random_circuits import (
    random_network,
    random_sequential_network,
)
from repro.logic.network import Gate, Network
from repro.logic.sequential import unroll_network

CORPUS = ("cpx432", "cpx880", "cpx1908", "s27", "sqx344", "sqx1488")


def scan_fanout(network, net):
    return [g for g in network.gates.values() if net in g.inputs]


def wave_levelized(network):
    order = []
    placed = set(network.primary_inputs)
    placed.update(network.flops)
    remaining = dict(network.gates)
    while remaining:
        ready = [
            g for g in remaining.values()
            if all(n in placed for n in g.inputs)
        ]
        if not ready:
            raise ValueError(
                f"combinational loop or missing driver in {network.name!r}"
            )
        for g in sorted(ready, key=lambda g: g.name):
            order.append(g)
            placed.add(g.output)
            del remaining[g.name]
    return order


def assert_matches_oracles(network):
    assert network.levelized() == wave_levelized(network)
    for net in network.nets():
        assert network.fanout_of(net) == scan_fanout(network, net), net


def load(name):
    registry = get_registry()
    if name.endswith("@x3"):
        return unroll_network(registry.load(name[:-3]), 3).network
    return registry.load(name)


class TestIndexesMatchOracles:
    @pytest.mark.parametrize("name", CORPUS + ("sqx1488@x3",))
    def test_corpus(self, name):
        assert_matches_oracles(load(name))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_combinational(self, seed):
        network = random_network(
            seed, n_gates=15 + 9 * seed, n_inputs=3 + seed % 6,
            dp_fraction=0.3,
        )
        assert_matches_oracles(network)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_sequential(self, seed):
        network = random_sequential_network(
            seed, n_gates=30 + 10 * seed, n_inputs=4, n_flops=3,
        )
        assert_matches_oracles(network)

    def test_gate_reading_one_net_on_two_pins_is_listed_once(self):
        n = Network("dup")
        n.add_input("a")
        n.add_input("b")
        n.add_gate("g2", "NAND2", ["a", "a"], "y")
        n.add_gate("g1", "NOR3", ["b", "a", "b"], "z")
        assert [g.name for g in n.fanout_of("a")] == ["g2", "g1"]
        assert [g.name for g in n.fanout_of("b")] == ["g1"]
        assert n.fanout_of("y") == [] == n.fanout_of("nowhere")

    def test_returned_list_is_a_copy(self):
        n = c17()
        n.fanout_of("g11").clear()
        assert len(n.fanout_of("g11")) == 2

    @pytest.mark.parametrize("case", ["loop", "missing"])
    def test_same_error_on_loops_and_missing_drivers(self, case):
        n = Network(case)
        n.add_input("a")
        if case == "loop":
            n.add_gate("g1", "NAND2", ["a", "y2"], "y1")
            n.add_gate("g2", "INV", ["y1"], "y2")
        else:
            n.add_gate("g1", "NAND2", ["a", "ghost"], "y1")
        with pytest.raises(ValueError) as new:
            n.levelized()
        with pytest.raises(ValueError) as old:
            wave_levelized(n)
        assert str(new.value) == str(old.value)


class TestInvalidation:
    def test_edits_drop_the_indexes(self):
        n = Network("grow")
        n.add_input("a")
        n.add_gate("g1", "INV", ["a"], "b")
        assert [g.name for g in n.fanout_of("a")] == ["g1"]
        assert [g.name for g in n.levelized()] == ["g1"]
        n.add_gate("g0", "BUF", ["a"], "c")
        assert [g.name for g in n.fanout_of("a")] == ["g1", "g0"]
        assert [g.name for g in n.levelized()] == ["g0", "g1"]
        n.add_flop("q", "c")
        n.add_gate("g2", "AND2", ["q", "b"], "d")
        assert [g.name for g in n.fanout_of("q")] == ["g2"]
        assert [g.name for g in n.fanout_of("b")] == ["g2"]
        assert_matches_oracles(n)

    def test_add_flop_resolves_a_pending_gate(self):
        n = Network("state")
        n.add_input("a")
        n.add_gate("g1", "AND2", ["a", "q"], "d")
        with pytest.raises(ValueError):
            n.levelized()
        n.add_flop("q", "d")
        assert [g.name for g in n.levelized()] == ["g1"]

    def test_invalidate_drops_the_indexes(self):
        n = c17()
        assert len(n.fanout_of("g11")) == 2
        n.levelized()
        # Mutate behind the API, then invalidate explicitly.
        n.gates["extra"] = Gate("extra", "INV", ("g11",), "e")
        n._driver["e"] = "extra"
        n.invalidate()
        assert n.fanout_of("g11") == scan_fanout(n, "g11")
        assert len(n.fanout_of("g11")) == 3
        assert n.levelized() == wave_levelized(n)
        assert n.gates["extra"] in n.levelized()
