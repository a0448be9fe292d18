"""Fixed-point tick arithmetic."""

from hypothesis import given, strategies as st

from mmseq.timeunits import TICKS_PER_TU, format_ticks, quantize, to_ticks


def test_tick_scale():
    assert TICKS_PER_TU == 10_000
    assert to_ticks(1) == 10_000
    assert to_ticks(97.0) == 970_000
    assert to_ticks("97.0000") == 970_000


def test_string_conversion_is_exact():
    # decimal strings land exactly on the grid, no float detour
    assert to_ticks("0.0001") == 1
    assert to_ticks("123.4567") == 1_234_567


def test_half_even_rounding():
    assert to_ticks("0.00005") == 0      # 0.5 ticks -> even neighbor
    assert to_ticks("0.00015") == 2
    assert to_ticks("0.00025") == 2


def test_format_ticks():
    assert format_ticks(970_000) == "97.0000"
    assert format_ticks(1) == "0.0001"
    assert format_ticks(0) == "0.0000"
    assert format_ticks(-15_000) == "-1.5000"


def test_quantize():
    assert quantize(0.30000000000000004) == 0.3
    assert quantize(0.12345) == 0.1234 or quantize(0.12345) == 0.1235


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_format_round_trip(ticks):
    assert to_ticks(format_ticks(ticks)) == ticks


@given(st.integers(min_value=0, max_value=10**6))
def test_int_tu_round_trip(tu):
    assert to_ticks(tu) == tu * TICKS_PER_TU
