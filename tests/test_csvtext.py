"""``format_table`` against ``'%.17g'`` applied one value at a time."""

import math

import numpy as np
import pytest

from ebloch import csvtext
from ebloch.csvtext import fmt, format_table


def reference(table, labels=None):
    lines = [",".join(fmt(x) for x in row) for row in np.asarray(table, dtype=float).tolist()]
    if labels is not None:
        lines = [f"{line},{label}" for line, label in zip(lines, labels)]
    return "".join(line + "\n" for line in lines)


@pytest.fixture
def arrays(monkeypatch):
    """Every table takes the array path, however few its nonzero values."""
    monkeypatch.setattr(csvtext, "_MIN_ENTRIES", -(10 ** 9))


def assert_cells(values, cols=7):
    values = np.asarray(values, dtype=float).ravel()
    table = values[: len(values) - len(values) % cols].reshape(-1, cols)
    got, want = format_table(table), reference(table)
    if got != want:
        bad = [(g, w) for g, w in zip(got.replace("\n", ",").split(","),
                                      want.replace("\n", ",").split(",")) if g != w]
        pytest.fail(f"{len(bad)} cells differ, first {bad[:5]}")


def with_neighbours(values, ulps=4):
    out = [values]
    for direction in (np.inf, -np.inf):
        v = values
        for _ in range(ulps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


def test_random_bit_patterns_of_both_signs(arrays):
    bits = np.random.default_rng(49).integers(0, 2 ** 64, 1_000_000, dtype=np.uint64,
                                              endpoint=False)
    values = bits.view(np.float64)
    assert (values < 0).any() and (values > 0).any()
    assert_cells(values, cols=8)


def test_every_power_of_ten_and_its_four_ulps_each_side(arrays):
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = with_neighbours(powers)
    assert_cells(np.concatenate([values, -values]))


def test_every_power_of_two_subnormals_included(arrays):
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_cells(np.concatenate([powers, -powers]), cols=5)


def test_integers_and_time_grids(arrays):
    assert_cells(np.arange(-350_000, 350_001, dtype=float))
    k = np.arange(200_001)
    assert_cells(np.concatenate([k * 0.025, k * 1e-3]), cols=3)


def test_exact_ties_round_half_even_through_the_fallback(arrays):
    # 1 + j 2^-17 with j odd has 18 significant digits, the last a 5
    values = 1.0 + np.arange(1, 2 ** 17, 2) / 2 ** 17
    assert fmt(values[0]) == "1.0000076293945312"
    assert_cells(np.concatenate([values, -values * 2.0 ** 40]))


def test_zeros_nan_and_infinities_take_their_text_from_a_mask(arrays):
    special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1.0]
    table = np.array(special * 40).reshape(-1, 8)
    assert format_table(table).splitlines()[0] == "0,-0,nan,nan,inf,-inf,4.9406564584124654e-324,1"
    assert_cells(table, cols=8)
    assert_cells(np.zeros(531 * 4), cols=531)


@pytest.mark.parametrize("path", ["arrays", "per entry"])
def test_flags_close_each_row_on_both_paths(monkeypatch, path):
    monkeypatch.setattr(csvtext, "_MIN_ENTRIES", -(10 ** 9) if path == "arrays" else 10 ** 9)
    rng = np.random.default_rng(7)
    for rows in (1, 300):
        table = rng.standard_normal((rows, 7)) * 10.0 ** rng.integers(-30, 30, (rows, 7))
        flags = np.arange(rows) % 3 > 0
        labels = ["true" if flag else "false" for flag in flags]
        assert format_table(table, flags) == reference(table, labels)
    assert (format_table([[0.1, 2.0, 1e-5]], [False])
            == "0.10000000000000001,2,1.0000000000000001e-05,false\n")
    assert format_table(np.empty((0, 3))) == ""


def test_mostly_zero_tables_stay_on_the_template(monkeypatch):
    # exact propagation of a Gibbs start: 4 records of 531 columns, 496 of
    # them coherences that stay zero; the quench's 1,201 x 7 takes the arrays
    sparse = np.zeros((4, 531))
    sparse[:, :35] = np.random.default_rng(3).random((4, 35))
    dense = np.random.default_rng(4).random((1201, 7))
    template = csvtext._float_lines
    calls = []
    monkeypatch.setattr(csvtext, "_float_lines",
                        lambda *args: calls.append(args) or template(*args))
    assert format_table(sparse) == reference(sparse)
    assert format_table(dense) == reference(dense)
    assert len(calls) == 1 and calls[0][0] is sparse
