"""Unit tests for the cell models and the technology library."""

import itertools

import numpy as np
import pytest

from reference_kernels import CELL_FUNCTIONS
from repro.circuit.cells import CELLS, cell
from repro.circuit.library import DEFAULT_DELAYS_PS, CellTiming, TechnologyLibrary, default_library
from repro.exceptions import ConfigurationError, NetlistError


class TestCells:
    def test_all_cells_have_positive_arity(self):
        for name, definition in CELLS.items():
            assert definition.arity >= 1, name

    def test_unknown_cell(self):
        with pytest.raises(NetlistError):
            cell("XOR9")

    def test_wrong_operand_count(self):
        with pytest.raises(NetlistError):
            cell("AND2").evaluate(1)

    @pytest.mark.parametrize("name,inputs,expected", [
        ("INV", (0,), 1), ("INV", (1,), 0),
        ("BUF", (1,), 1),
        ("AND2", (1, 1), 1), ("AND2", (1, 0), 0),
        ("OR2", (0, 0), 0), ("OR2", (1, 0), 1),
        ("NAND2", (1, 1), 0), ("NOR2", (0, 0), 1),
        ("XOR2", (1, 0), 1), ("XOR2", (1, 1), 0),
        ("XNOR2", (1, 1), 1),
        ("AND3", (1, 1, 1), 1), ("AND3", (1, 0, 1), 0),
        ("OR3", (0, 0, 0), 0), ("OR3", (0, 1, 0), 1),
        ("MUX2", (1, 0, 0), 1), ("MUX2", (1, 0, 1), 0),
        ("MAJ3", (1, 1, 0), 1), ("MAJ3", (1, 0, 0), 0),
        ("AOI21", (1, 1, 0), 0), ("AOI21", (0, 0, 0), 1),
        ("OAI21", (1, 0, 1), 0), ("OAI21", (0, 0, 1), 1),
    ])
    def test_truth_tables(self, name, inputs, expected):
        assert int(cell(name).evaluate(*inputs)) == expected

    def test_vectorised_evaluation(self):
        a = np.array([0, 0, 1, 1], dtype=np.uint8)
        b = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert cell("XOR2").evaluate(a, b).tolist() == [0, 1, 1, 0]

    def test_maj3_is_full_adder_carry(self):
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    assert int(cell("MAJ3").evaluate(a, b, c)) == (a + b + c) // 2


def _combinations(name):
    """Every 0/1 input combination of a cell, and the oracle's output for each."""
    combos = list(itertools.product((0, 1), repeat=CELLS[name].arity))
    return combos, [int(CELL_FUNCTIONS[name](*combo)) for combo in combos]


class TestOneKernel:
    """Each cell's one bitwise kernel equals the oracle's ``uint8``
    function in every operand form it serves."""

    def test_oracle_covers_every_cell(self):
        assert set(CELL_FUNCTIONS) == set(CELLS)

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_python_ints(self, name):
        combos, expected = _combinations(name)
        got = [cell(name).kernel(*combo) & 1 for combo in combos]
        assert got == expected
        assert [cell(name).evaluate(*combo) for combo in combos] == expected

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_uint8_arrays(self, name):
        combos, expected = _combinations(name)
        columns = [np.array(column, dtype=np.uint8) for column in zip(*combos)]
        got = cell(name).evaluate(*columns)
        assert got.dtype == np.uint8
        assert got.tolist() == expected

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_packed_words_all_lanes(self, name):
        """Lane ``i`` of every operand word holds combination ``i`` modulo
        their count, so all 64 lanes of the result are checked."""
        combos, expected = _combinations(name)
        words = [np.array([sum(combos[lane % len(combos)][pin] << lane
                               for lane in range(64))], dtype=np.uint64)
                 for pin in range(CELLS[name].arity)]
        result = int(cell(name).kernel(*words)[0])
        assert [(result >> lane) & 1 for lane in range(64)] == \
            [expected[lane % len(combos)] for lane in range(64)]


class TestCellTiming:
    def test_bounds(self):
        timing = CellTiming(nominal_delay=10e-12, min_scale=0.8, max_scale=1.5)
        assert timing.min_delay == pytest.approx(8e-12)
        assert timing.max_delay == pytest.approx(15e-12)

    def test_invalid_delay(self):
        with pytest.raises(ConfigurationError):
            CellTiming(nominal_delay=0.0)

    def test_invalid_scales(self):
        with pytest.raises(ConfigurationError):
            CellTiming(nominal_delay=1e-12, min_scale=1.2)
        with pytest.raises(ConfigurationError):
            CellTiming(nominal_delay=1e-12, max_scale=0.5)


class TestTechnologyLibrary:
    def test_default_covers_all_cells(self):
        library = default_library()
        assert set(library.cell_names()) == set(CELLS)

    def test_delay_lookup(self):
        library = default_library()
        assert library.delay("INV") == pytest.approx(DEFAULT_DELAYS_PS["INV"] * 1e-12)

    def test_unknown_cell(self):
        with pytest.raises(ConfigurationError):
            default_library().delay("FOO")

    def test_missing_cell_rejected(self):
        with pytest.raises(ConfigurationError):
            TechnologyLibrary({"INV": 10.0})

    def test_extra_cell_rejected(self):
        delays = dict(DEFAULT_DELAYS_PS)
        delays["BOGUS"] = 1.0
        with pytest.raises(ConfigurationError):
            TechnologyLibrary(delays)

    def test_scaled(self):
        library = default_library()
        doubled = library.scaled(2.0)
        assert doubled.delay("XOR2") == pytest.approx(2 * library.delay("XOR2"))
        with pytest.raises(ConfigurationError):
            library.scaled(0.0)

    def test_variation_is_deterministic_with_seed(self):
        base = default_library()
        one = base.with_variation(0.1, seed=3)
        two = base.with_variation(0.1, seed=3)
        assert one.delay("INV") == pytest.approx(two.delay("INV"))
        assert one.delay("INV") != pytest.approx(base.delay("INV"))

    def test_variation_rejects_negative_sigma(self):
        with pytest.raises(ConfigurationError):
            default_library().with_variation(-0.1)

    def test_contains(self):
        assert "INV" in default_library()
        assert "FOO" not in default_library()
