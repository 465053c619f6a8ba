"""Property tests of the field checks in ``selpred.checks``: which values
each accepts, what it returns, and that every rejection names the field."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from selpred.checks import (MAX_SIZE, ConfigurationError, boolean, drop_rate,
                            fraction, integer, open_fraction, real, size)

FIELDS = st.from_regex(r"[a-z][a-z_]{0,15}", fullmatch=True)

NUMPY_INTEGERS = st.sampled_from(
    [np.int8, np.int16, np.int32, np.int64,
     np.uint8, np.uint16, np.uint32, np.uint64]).flatmap(
    lambda t: st.integers(np.iinfo(t).min, np.iinfo(t).max).map(t))

NUMPY_FLOATS = st.one_of(st.floats().map(np.float64),
                         st.floats(width=32).map(np.float32))

BOOLS = st.one_of(st.booleans(), st.booleans().map(np.bool_))

VALUES = st.one_of(
    st.integers(), NUMPY_INTEGERS, BOOLS, st.floats(), NUMPY_FLOATS,
    st.text(max_size=4), st.none(), st.lists(st.integers(), max_size=2),
    st.complex_numbers(), st.sampled_from([10**400, -10**400]))


def _message(check, *args, **kwargs):
    """The message of the ConfigurationError ``check`` raises."""
    with pytest.raises(ConfigurationError) as exc:
        check(*args, **kwargs)
    return str(exc.value)


@given(VALUES, FIELDS)
def test_integer_accepts_exactly_ints_and_numpy_integers(value, field):
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        got = integer(value, field)
        assert type(got) is int and got == value
    else:
        assert (_message(integer, value, field)
                == f"{field}: {value!r} is not an integer")


@given(st.one_of(st.integers(-4, 4), st.integers(), NUMPY_INTEGERS),
       st.integers(-3, 3), FIELDS)
def test_integer_raises_below_least_only(value, least, field):
    if value < least:
        assert (_message(integer, value, field, least=least)
                == f"{field} must be >= {least}, got {value}")
    else:
        got = integer(value, field, least=least)
        assert type(got) is int and got == value


@given(st.one_of(st.integers(-2, 2), st.integers(MAX_SIZE - 2, MAX_SIZE + 2),
                 st.integers(), NUMPY_INTEGERS), st.integers(-3, 3), FIELDS)
def test_size_is_an_integer_at_most_max_size(value, least, field):
    if value < least:
        assert (_message(size, value, field, least=least)
                == f"{field} must be >= {least}, got {value}")
    elif value > MAX_SIZE:
        assert (_message(size, value, field, least=least)
                == f"{field} must be <= {MAX_SIZE}, got {value}")
    else:
        got = size(value, field, least=least)
        assert type(got) is int and got == value


def test_max_size_squared_is_an_addressable_float64_count():
    """Two sizes multiplied, in float64 bytes, fit numpy's index type;
    one more would not."""
    top = np.iinfo(np.intp).max
    assert 8 * MAX_SIZE ** 2 <= top < 8 * (MAX_SIZE + 1) ** 2


@given(st.one_of(BOOLS, st.text(max_size=4),
                 st.sampled_from([math.nan, math.inf, -math.inf, np.nan,
                                  np.float32("inf"), -np.float64("inf"),
                                  10**400, -10**400])),
       FIELDS)
def test_real_rejects_bools_strings_and_non_finite_numbers(value, field):
    assert _message(real, value, field) in (
        f"{field}: {value!r} is not a real number",
        f"{field}: {value!r} is not finite")


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 NUMPY_FLOATS.filter(np.isfinite), NUMPY_INTEGERS,
                 st.integers(-2**1000, 2**1000)),
       FIELDS)
def test_real_accepts_finite_numbers(value, field):
    got = real(value, field)
    assert type(got) is float and got == float(value)


@given(st.one_of(st.floats(), st.integers(-2, 3), NUMPY_FLOATS,
                 st.sampled_from([0.0, 1.0, 5e-324, 1.0000000000000002])),
       FIELDS)
def test_fraction_accepts_exactly_zero_to_one(value, field):
    if 0 < value <= 1:
        got = fraction(value, field)
        assert type(got) is float and got == float(value)
    else:
        assert _message(fraction, value, field) in (
            f"{field} must lie in (0, 1], got {value}",
            f"{field}: {value!r} is not finite")


@pytest.mark.parametrize("check, inside, interval", [
    (open_fraction, lambda x: 0 < x < 1, "(0, 1)"),
    (drop_rate, lambda x: 0 <= x < 1, "[0, 1)"),
], ids=["open_fraction", "drop_rate"])
@given(st.one_of(st.floats(), st.integers(-2, 3), NUMPY_FLOATS,
                 st.sampled_from([0.0, -0.0, 1.0, 5e-324,
                                  0.9999999999999999])),
       FIELDS)
def test_unit_interval_checks_accept_exactly_their_interval(
        check, inside, interval, value, field):
    if inside(value):
        got = check(value, field)
        assert type(got) is float and got == float(value)
    else:
        assert _message(check, value, field) in (
            f"{field} must lie in {interval}, got {value}",
            f"{field}: {value!r} is not finite")


@given(VALUES, FIELDS)
def test_boolean_accepts_only_bools(value, field):
    if isinstance(value, (bool, np.bool_)):
        assert boolean(value, field) is bool(value)  # a plain bool
    else:
        assert (_message(boolean, value, field)
                == f"{field}: {value!r} is not a boolean")
