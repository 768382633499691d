"""Tests of the benchmark's own oracles: against each other, scipy and known
counts.  None of them imports stepspectra."""

import cmath
import math
import os
import sys

import mpmath
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from stepbench import checks, oracles  # noqa: E402


@pytest.mark.parametrize("depth,R", [(4.0, 1.0), (2.5, 1.4), (5.5, 0.85), (30.0, 2.0)])
def test_step_secular_vanishes_at_real_well_bound_states(depth, R):
    states = oracles.real_well_bound_states(depth, R)
    # a 1-D square well of strength z = sqrt(depth) R binds floor(2z/pi) + 1 states
    assert len(states) == math.floor(2.0 * math.sqrt(depth) * R / math.pi) + 1
    for E in states:
        near = abs(oracles.step_secular(-depth, R, E + 1e-3))
        assert abs(oracles.step_secular(-depth, R, E)) < 1e-9 * near
        # and the refiner does not wander off a simple zero
        assert abs(oracles.refine(lambda x: oracles.step_secular(-depth, R, x), E + 1e-6) - E) < 1e-11


@pytest.mark.parametrize("v0,R,E", [
    (-5.86 + 1.03j, 0.92, -3.0 + 0.4j),
    (-2.5 + 0.0j, 1.4, -7.5 - 1.2j),
    (-4.64 - 0.84j, 1.33, -0.2 + 0.05j),
    (1.0 + 0.08j, 40.0, 0.99 + 0.08j),
])
def test_transfer_product_equals_closed_form_for_one_piece(v0, R, E):
    # one piece: F = (i / chi) * e^{2 i chi R} * odd * even
    with mpmath.workdps(40):
        chi = oracles._sqrt_upper(mpmath.mpc(E))
        closed = 1j / chi * mpmath.exp(2j * chi * R) * oracles.step_secular(v0, R, E)
        product = oracles.transfer_secular([(-R, R, v0)], E)
        assert abs(product - closed) <= mpmath.mpf(10) ** -30 * abs(closed)


def test_transfer_product_of_split_piece_and_free_gap():
    # cutting a piece in two, or inserting a zero-width gap, changes nothing
    E = -2.0 + 0.7j
    with mpmath.workdps(40):
        whole = oracles.transfer_secular([(-1.0, 1.0, -3.0 + 0.5j)], E)
        split = oracles.transfer_secular([(-1.0, 0.25, -3.0 + 0.5j), (0.25, 1.0, -3.0 + 0.5j)], E)
        assert abs(whole - split) <= mpmath.mpf(10) ** -30 * abs(whole)
        free = oracles.transfer_secular([(-1.0, -0.5, 0.0), (0.5, 1.0, 0.0)], E)
        assert abs(free - 1) <= mpmath.mpf(10) ** -30


@pytest.mark.parametrize("v0,R,E", [
    (-5.0 + 0.3j, 1.0, -2.4 + 0.2j),
    (-8.0 + 0.5j, 1.0, -11.5 - 1.4j),
    (-6.5 - 0.6j, 1.0, -0.6 + 1.6j),
    (-5.0 + 0.3j, 1.0, -9.5 + 0.1j),
])
def test_d2_wronskian_agrees_with_scipy(v0, R, E):
    from scipy.special import hankel1, jv

    k = cmath.sqrt(E - v0)
    chi = cmath.sqrt(E)
    if chi.imag < 0:
        chi = -chi
    expected = -k * jv(1, k * R) * hankel1(0, chi * R) + chi * jv(0, k * R) * hankel1(1, chi * R)
    got = complex(oracles.radial_wronskian_d2(v0, R, E))
    assert abs(got - expected) <= 1e-12 * abs(expected)


def test_imag_step_residual_at_a_root_and_off_it():
    N = 16.0
    # an odd-parity root: sin(kN) = e^{i pi/4} k solves i + k^2 csc^2(kN) = 0
    with mpmath.workdps(30):
        k = mpmath.findroot(lambda k: mpmath.sin(k * N) - mpmath.exp(0.25j * mpmath.pi) * k,
                            mpmath.mpc(3.0, 0.2))
        E = complex(k * k + 1j)
    residual, _ = oracles.imag_step_residual(E, N, "odd")
    assert residual < 1e-12
    residual_off, _ = oracles.imag_step_residual(E + 1e-3, N, "odd")
    assert residual_off > 1e-6


def test_coincident_counts_every_close_pair():
    assert checks._coincident([1 + 1j, 2 + 1j, 3 + 1j]) == 0
    assert checks._coincident([1 + 1j, 1 + 1j + 1e-9j, 5 + 0j, 1 + 1j + 2e-9]) == 3
