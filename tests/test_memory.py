"""Memory linear in what is read and written, as the chart dimension grows.

Under ``tracemalloc``, the peak of ``parse`` plus ``run_command(["check-all"])``
is divided by the bytes of the model text and of the check-all text.  Linear
cost holds that ratio flat, so it may change by at most 1.5x when the chart
dimension ``d`` grows to ``4·d``.  Two models, each one pair on ``d``
coordinates: the identity map ``x <- x``, and the blowup whose center is every
coordinate, whose answer prints ``d`` chart maps of ``d`` assignments each.
No wall time is measured.
"""

import tracemalloc

import pytest

from modpairs.cli import run_command
from modpairs.dsl import parse


def _pair(d: int) -> str:
    coords = " ".join(f"x{i}" for i in range(d))
    divisor = ", ".join(f"x{i}: 1" for i in range(d))
    return f"pair P {{ dim {d}; coords {coords}; divisor {{{divisor}}} }}\n"


def identity_map_model(d: int) -> str:
    assigns = "; ".join(f"x{i} <- x{i}" for i in range(d))
    return _pair(d) + f"map F : P -> P {{ {assigns} }}\n"


def full_center_blowup_model(d: int) -> str:
    center = ", ".join(f"x{i}" for i in range(d))
    return _pair(d) + f"blowup B on P center {{ {center} }}\n"


def peak_per_byte(text: str) -> float:
    """Peak traced bytes of parse plus check-all, per byte read and written."""
    tracemalloc.start()
    try:
        report = run_command(parse(text), ["check-all"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.status == 0 and report.records
    return peak / (len(text.encode()) + len(report.text.encode()))


@pytest.mark.parametrize(
    "model, d",
    [(identity_map_model, 250), (full_center_blowup_model, 50)],
    ids=["identity-map", "full-center-blowup"],
)
def test_peak_memory_grows_with_the_bytes_read_and_written(model, d):
    run_command(parse(model(4)), ["check-all"])  # first-call allocations stay out of the figures
    small, large = peak_per_byte(model(d)), peak_per_byte(model(4 * d))
    assert 1 / 1.5 <= large / small <= 1.5, (small, large)
