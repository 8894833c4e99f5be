"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def lowest_digit_limit():
    """Python's limit on int/str conversion at its floor, 640 digits, as
    ``-X int_max_str_digits=640`` sets it for a run; restored afterwards.
    An interpreter without the limit runs the test as it is."""
    was = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if was is None:
        yield
        return
    sys.set_int_max_str_digits(sys.int_info.str_digits_check_threshold)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(was)
