"""The reference timings that scale the benchmark's timings to nominal speed."""

import subprocess

import pytest

from perfbench import speed


def test_scale_divides_by_the_harmonic_mean_reference():
    # references of 1 and 3 are speeds 1 and 1/3: a mean speed of 2/3
    assert speed.scale(3.0, [1.0, 3.0], 1.0) == pytest.approx(2.0)
    # a box running at half speed doubles both the timing and its reference
    assert speed.scale(2 * 3.0, [2 * speed.WORK_S], speed.WORK_S) == pytest.approx(3.0)


def test_reference_work_is_fixed():
    assert speed.reference_work() == speed.reference_work() == speed.ROUNDS
    cpu, wall = speed.work()
    assert 0 < cpu and 0 < wall


def test_the_reference_launch_prints_its_ready_line():
    out = subprocess.run(speed.LAUNCH_ARGV, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == speed.LAUNCH_READY
