"""Unit tests for the netlist graph and its evaluation (repro.circuit.netlist)."""

import numpy as np
import pytest

from repro.circuit.netlist import CONST1, Netlist
from repro.exceptions import NetlistError, SimulationError


def build_xor_netlist():
    """a XOR b built from NAND gates, with a registered 2-bit bus view."""
    netlist = Netlist("xor_from_nand")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    netlist.add_gate("g1", "NAND2", [a, b], "n1")
    netlist.add_gate("g2", "NAND2", [a, "n1"], "n2")
    netlist.add_gate("g3", "NAND2", [b, "n1"], "n3")
    netlist.add_gate("g4", "NAND2", ["n2", "n3"], "y")
    netlist.add_output("y")
    netlist.register_bus("Y", ["y"])
    return netlist


class TestConstruction:
    def test_duplicate_input_rejected(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_input("a")

    def test_gate_reading_unknown_net(self):
        netlist = Netlist("t")
        with pytest.raises(NetlistError):
            netlist.add_gate("g", "INV", ["missing"], "y")

    def test_gate_redefining_net(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_gate("g1", "INV", ["a"], "y")
        with pytest.raises(NetlistError):
            netlist.add_gate("g2", "INV", ["a"], "y")

    def test_duplicate_gate_name(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_gate("g", "INV", ["a"], "y1")
        with pytest.raises(NetlistError):
            netlist.add_gate("g", "INV", ["a"], "y2")

    def test_wrong_arity(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_gate("g", "AND2", ["a"], "y")

    def test_output_must_exist(self):
        netlist = Netlist("t")
        with pytest.raises(NetlistError):
            netlist.add_output("nope")

    def test_bus_must_reference_known_nets(self):
        netlist = Netlist("t")
        with pytest.raises(NetlistError):
            netlist.register_bus("B", ["nope"])

    def test_counters_and_lookup(self):
        netlist = build_xor_netlist()
        assert netlist.num_gates == 4
        assert netlist.gate("g1").cell == "NAND2"
        with pytest.raises(NetlistError):
            netlist.gate("missing")
        assert netlist.driver_of("y").name == "g4"
        assert netlist.driver_of("a") is None
        assert netlist.cell_histogram() == {"NAND2": 4}
        assert netlist.logic_depth() == 3


class TestEvaluation:
    def test_xor_truth_table(self):
        netlist = build_xor_netlist()
        for a in (0, 1):
            for b in (0, 1):
                outputs = netlist.evaluate_outputs({"a": a, "b": b})
                assert int(np.asarray(outputs[0])) == a ^ b

    def test_vectorised_evaluation(self):
        netlist = build_xor_netlist()
        values = netlist.evaluate({"a": np.array([0, 1, 1]), "b": np.array([1, 1, 0])})
        assert values["y"].tolist() == [1, 0, 1]

    def test_constants_available(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_gate("g", "AND2", ["a", CONST1], "y")
        netlist.add_output("y")
        outputs = netlist.evaluate_outputs({"a": np.array([0, 1])})
        assert outputs[0].tolist() == [0, 1]

    def test_missing_input_rejected(self):
        netlist = build_xor_netlist()
        with pytest.raises(SimulationError):
            netlist.evaluate({"a": 1})

    def test_non_binary_input_rejected(self):
        netlist = build_xor_netlist()
        with pytest.raises(SimulationError):
            netlist.evaluate({"a": np.array([2]), "b": np.array([0])})

    def test_scalar_and_array_inputs_broadcast(self):
        netlist = build_xor_netlist()
        values = netlist.evaluate({"a": 1, "b": np.array([[0, 1], [1, 1]])})
        assert values["y"].tolist() == [[1, 0], [0, 0]]
        assert values[CONST1].tolist() == [[1, 1], [1, 1]]

    def test_shapes_that_do_not_broadcast_rejected(self):
        netlist = build_xor_netlist()
        with pytest.raises(SimulationError):
            netlist.evaluate({"a": np.array([0, 1]), "b": np.array([0, 1, 1])})

    def test_empty_stimulus(self):
        netlist = build_xor_netlist()
        values = netlist.evaluate({"a": np.zeros(0), "b": np.zeros(0)})
        assert values["y"].shape == (0,)


class TestWordLevel:
    def test_encode_decode_roundtrip(self):
        netlist = Netlist("bus")
        nets = [netlist.add_input(f"A[{i}]") for i in range(4)]
        netlist.register_bus("A", nets)
        words = np.array([0b1010, 0b0110], dtype=np.uint64)
        bits = netlist.encode_bus("A", words)
        assert netlist.decode_bus("A", bits).tolist() == [0b1010, 0b0110]

    def test_encode_rejects_oversized_words(self):
        netlist = Netlist("bus")
        nets = [netlist.add_input(f"A[{i}]") for i in range(4)]
        netlist.register_bus("A", nets)
        with pytest.raises(SimulationError):
            netlist.encode_bus("A", np.array([16], dtype=np.uint64))

    def test_unknown_bus(self):
        netlist = Netlist("bus")
        with pytest.raises(NetlistError):
            netlist.encode_bus("A", np.array([1], dtype=np.uint64))

    def test_compute_words_on_xor(self):
        netlist = build_xor_netlist()
        result = netlist.compute_words({"a": np.array([0, 1, 1]), "b": np.array([1, 1, 0])},
                                       output_bus="Y")
        assert result.tolist() == [1, 0, 1]

    def test_compute_words_unknown_operand(self):
        netlist = build_xor_netlist()
        with pytest.raises(SimulationError):
            netlist.compute_words({"zzz": np.array([1])}, output_bus="Y")
