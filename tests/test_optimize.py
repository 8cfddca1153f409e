"""Tests for constant propagation and dead-logic removal (repro.synth.optimize).

The constant-propagation and pruning passes are tested through their
per-gate formulation in the test oracle (``reference_kernels``); the
inverter-naming cases run on both the production ``optimize``
(``[True]``) and the oracle's (``[False]``).
"""

import numpy as np
import pytest

from repro.circuit.builder import NetlistBuilder
from repro.circuit.netlist import Netlist
from repro.circuit.validate import check_netlist
from repro.synth.adders import kogge_stone_adder
from repro.synth.optimize import optimize

import reference_kernels
from reference_kernels import propagate_constants, prune_unused

#: ``optimize`` per test parameter: production (True) or the oracle (False).
OPTIMIZE = {True: optimize, False: reference_kernels.optimize}


def _truth_table(netlist, input_names):
    rows = {}
    count = len(input_names)
    for value in range(2 ** count):
        stimulus = {name: np.array([(value >> i) & 1]) for i, name in enumerate(input_names)}
        rows[value] = [int(np.asarray(out).ravel()[0]) for out in netlist.evaluate_outputs(stimulus)]
    return rows


class TestPropagateConstants:
    def test_and_with_constant_zero_folds(self):
        builder = NetlistBuilder("t")
        a = builder.input_bit("a")
        y = builder.and2(a, builder.zero)
        builder.output_bus("S", [builder.or2(y, a)])
        optimised = propagate_constants(builder.build())
        # The AND with 0 disappears and the OR simplifies to a wire to "a".
        assert optimised.num_gates == 0
        assert optimised.outputs == ["a"]

    def test_xor_with_constant_one_becomes_inverter(self):
        builder = NetlistBuilder("t")
        a = builder.input_bit("a")
        builder.output_bus("S", [builder.xor2(a, builder.one)])
        optimised = propagate_constants(builder.build())
        assert optimised.cell_histogram() == {"INV": 1}

    def test_mux_with_constant_select(self):
        builder = NetlistBuilder("t")
        a, b = builder.input_bit("a"), builder.input_bit("b")
        builder.output_bus("S", [builder.mux2(a, b, builder.one)])
        optimised = propagate_constants(builder.build())
        assert optimised.num_gates == 0
        assert optimised.outputs == ["b"]

    def test_fully_constant_cone_maps_output_to_constant(self):
        builder = NetlistBuilder("t")
        builder.input_bit("a")
        builder.output_bus("S", [builder.and2(builder.one, builder.one)])
        optimised = propagate_constants(builder.build())
        assert optimised.outputs == ["const1"]

    @pytest.mark.parametrize("cell,inputs", [
        ("AND3", 3), ("OR3", 3), ("MAJ3", 3), ("AOI21", 3), ("OAI21", 3),
        ("NAND2", 2), ("NOR2", 2), ("XNOR2", 2), ("MUX2", 3),
    ])
    def test_function_preserved_with_constant_inputs(self, cell, inputs):
        """Tying any single input to a constant must preserve the boolean function."""
        for constant_position in range(inputs):
            for constant_value in (0, 1):
                builder = NetlistBuilder("t")
                nets, names = [], []
                for position in range(inputs):
                    if position == constant_position:
                        nets.append(builder.const(constant_value))
                    else:
                        name = f"x{position}"
                        nets.append(builder.input_bit(name))
                        names.append(name)
                builder.output_bus("S", [builder.gate(cell, *nets)])
                original = builder.build()
                optimised = propagate_constants(original)
                assert _truth_table(original, names) == _truth_table(optimised, names)


def _mux_with_constant_data(taken_net=None, taken_gate=None):
    """A MUX2 whose constant data input expands to an inverter named
    ``m_inv_1`` driving ``y_inv_1`` — with optional squatters on those
    names to force the collision path."""
    netlist = Netlist("t")
    netlist.add_input("a")
    netlist.add_input("s")
    if taken_net is not None:
        netlist.add_input(taken_net)
    if taken_gate is not None:
        netlist.add_gate(taken_gate, "INV", ["s"], f"{taken_gate}_out")
    # MUX2(a, 0, s) simplifies to AND2(a, NOT s): the inverter on the
    # select is minted during expansion.
    netlist.add_gate("m", "MUX2", ["a", "const0", "s"], "y")
    netlist.add_output("y")
    if taken_gate is not None:
        netlist.add_output(f"{taken_gate}_out")
    if taken_net is not None:
        netlist.add_output(taken_net)
    return netlist


class TestInverterExpansionNaming:
    @pytest.mark.parametrize("vector", [True, False])
    def test_net_name_collision_gets_fresh_name(self, vector):
        # A primary input already owns the natural inverter net name;
        # expansion must mint a different one instead of colliding.
        netlist = _mux_with_constant_data(taken_net="y_inv_1")
        optimised = OPTIMIZE[vector](netlist)
        assert check_netlist(optimised).ok
        inverters = [g for g in optimised.gates if g.cell == "INV"]
        assert len(inverters) == 1
        assert inverters[0].output != "y_inv_1"
        original = _truth_table(netlist, ["a", "s", "y_inv_1"])
        assert original == _truth_table(optimised, ["a", "s", "y_inv_1"])

    @pytest.mark.parametrize("vector", [True, False])
    def test_gate_name_collision_gets_fresh_name(self, vector):
        # Another gate already owns the natural inverter gate name.
        netlist = _mux_with_constant_data(taken_gate="m_inv_1")
        optimised = OPTIMIZE[vector](netlist)
        assert check_netlist(optimised).ok
        minted = [g for g in optimised.gates
                  if g.cell == "INV" and g.output != "m_inv_1_out"]
        assert len(minted) == 1
        assert minted[0].name != "m_inv_1"
        assert _truth_table(netlist, ["a", "s"]) == \
            _truth_table(optimised, ["a", "s"])

    @pytest.mark.parametrize("vector", [True, False])
    def test_collision_free_expansion_keeps_natural_names(self, vector):
        netlist = _mux_with_constant_data()
        optimised = OPTIMIZE[vector](netlist)
        [inverter] = [g for g in optimised.gates if g.cell == "INV"]
        assert inverter.name == "m_inv_1"
        assert inverter.output == "y_inv_1"

    @pytest.mark.parametrize("vector", [True, False])
    def test_deep_alias_chain_resolves(self, vector):
        # A long chain of constant-simplified gates exercises the
        # path-compressed alias resolution.
        netlist = Netlist("t")
        netlist.add_input("a")
        previous = "a"
        for index in range(64):
            netlist.add_gate(f"g{index}", "AND2", [previous, "const1"],
                             f"n{index}")
            previous = f"n{index}"
        netlist.add_output(previous)
        optimised = OPTIMIZE[vector](netlist)
        assert optimised.num_gates == 0
        assert optimised.outputs == ["a"]


class TestPruneUnused:
    def test_removes_dead_cone(self):
        builder = NetlistBuilder("t")
        a, b = builder.input_bit("a"), builder.input_bit("b")
        dead = builder.and2(a, b)
        builder.xor2(dead, a)  # dead cone, never observed
        builder.output_bus("S", [builder.or2(a, b)])
        pruned = prune_unused(builder.build())
        assert pruned.num_gates == 1
        assert check_netlist(pruned).ok

    def test_keeps_everything_reachable(self):
        netlist = kogge_stone_adder(8)
        assert prune_unused(netlist).num_gates == netlist.num_gates


class TestOptimize:
    def test_idempotent_on_clean_design(self):
        netlist = kogge_stone_adder(8)
        once = optimize(netlist)
        twice = optimize(once)
        assert twice.num_gates == once.num_gates

    def test_preserves_adder_function(self, rng):
        netlist = optimize(kogge_stone_adder(12))
        a = rng.integers(0, 2**12, 200, dtype=np.uint64)
        b = rng.integers(0, 2**12, 200, dtype=np.uint64)
        result = netlist.compute_words({"A": a, "B": b, "cin": np.zeros(200, dtype=np.uint64)})
        assert np.array_equal(result, a + b)
