"""Reference computations made apart from stepspectra.

Nothing here imports the package under test.  The secular functions are
rebuilt from their definitions in mpmath (or taken from scipy), so a check
that passes says the program agrees with an independent computation, not
with itself.
"""

from __future__ import annotations

import math

import mpmath

#: working precision of every mpmath oracle, unless a geometry needs more
BASE_DPS = 30


def _sqrt_upper(z):
    """Square root with Im >= 0 (the physical sheet of the exterior momentum)."""
    s = mpmath.sqrt(z)
    return -s if mpmath.im(s) < 0 else s


def step_secular(v0, R, E):
    """Closed-form secular of the step v0 * 1_[-R, R]: odd times even factor.

    odd:  i*chi*sin(kR)/k - cos(kR);  even: i*chi*cos(kR) + k*sin(kR),
    with k = sqrt(E - v0) and chi the upper square root of E.  Both factors
    are even in k, so the branch of k does not matter.
    """
    E = mpmath.mpc(E)
    k = mpmath.sqrt(E - mpmath.mpc(v0))
    chi = _sqrt_upper(E)
    w = k * R
    odd = 1j * chi * R * mpmath.sinc(w) - mpmath.cos(w)
    even = 1j * chi * mpmath.cos(w) + k * mpmath.sin(w)
    return odd * even


def transfer_secular(pieces, E):
    """Right-exterior growing-wave coefficient by a high-precision 2x2 product.

    ``pieces`` is a list of (a, b, v) with a < b sorted and disjoint; gaps
    between pieces are free.  The left condition is the decaying wave
    e^{-i chi x}; the result is normalized so the free line gives 1.
    """
    E = mpmath.mpc(E)
    chi = _sqrt_upper(E)
    psi, dpsi = mpmath.mpc(1), -1j * chi
    x = mpmath.mpf(pieces[0][0])
    segments = []
    for a, b, v in pieces:
        if a > x:
            segments.append((mpmath.mpf(a) - x, mpmath.mpc(0)))
        segments.append((mpmath.mpf(b) - mpmath.mpf(a), mpmath.mpc(v)))
        x = mpmath.mpf(b)
    for width, v in segments:
        k2 = E - v
        k = mpmath.sqrt(k2)
        c = mpmath.cos(k * width)
        s = width * mpmath.sinc(k * width)  # sin(k w) / k
        psi, dpsi = c * psi + s * dpsi, -k2 * s * psi + c * dpsi
    b_coeff = (1j * chi * psi - dpsi) / (2j * chi)
    span = mpmath.mpf(pieces[-1][1]) - mpmath.mpf(pieces[0][0])
    return b_coeff * mpmath.exp(1j * chi * span)


def transfer_dps(pieces, E) -> int:
    """Digits the transfer product needs: the dominant solution grows by at
    most e^{2 * max|Im k| * span} over the subdominant one."""
    E = complex(E)
    rate = abs(complex(mpmath.sqrt(E)).imag)
    for _, _, v in pieces:
        rate = max(rate, abs(complex(mpmath.sqrt(E - complex(v))).imag))
    span = pieces[-1][1] - pieces[0][0]
    return BASE_DPS + int(math.ceil(2.0 * rate * span / math.log(10.0)))


def radial_wronskian_d2(v0, R, E):
    """s-wave Wronskian in d = 2 from mpmath Bessel and Hankel functions.

    k*J_0'(kR)*H_0(chi R) - chi*J_0(kR)*H_0'(chi R), with J_0' = -J_1 and
    H_0' = -H_1; k = sqrt(E - v0) on either branch, chi upper.
    """
    E = mpmath.mpc(E)
    k = mpmath.sqrt(E - mpmath.mpc(v0))
    chi = _sqrt_upper(E)
    return (
        -k * mpmath.besselj(1, k * R) * mpmath.hankel1(0, chi * R)
        + chi * mpmath.besselj(0, k * R) * mpmath.hankel1(1, chi * R)
    )


def refine(f, z0: complex, dps: int = BASE_DPS) -> complex:
    """Zero of ``f`` by mpmath's secant ``findroot`` started at ``z0``."""
    z0 = complex(z0)
    h = 1e-7 * max(1.0, abs(z0))
    with mpmath.workdps(dps):
        root = mpmath.findroot(
            f, (mpmath.mpc(z0), mpmath.mpc(z0 + h)), solver="secant",
            tol=mpmath.mpf(10) ** (5 - dps), maxsteps=60, verify=False,
        )
        return complex(root)


def real_well_bound_states(depth: float, R: float):
    """Bound states of the real well -depth * 1_[-R, R], by scipy bisection.

    Pole-free matching conditions with k = sqrt(E + depth), q = sqrt(-E):
    even k*sin(kR) - q*cos(kR) = 0, odd k*cos(kR) + q*sin(kR) = 0.
    """
    import numpy as np
    from scipy.optimize import brentq

    def even(E):
        k, q = math.sqrt(E + depth), math.sqrt(-E)
        return k * math.sin(k * R) - q * math.cos(k * R)

    def odd(E):
        k, q = math.sqrt(E + depth), math.sqrt(-E)
        return k * math.cos(k * R) + q * math.sin(k * R)

    grid = np.linspace(-depth, 0.0, 4001)[1:-1]  # k = 0 zeroes the odd form trivially
    states = []
    for g in (even, odd):
        vals = [g(E) for E in grid]
        for i in range(len(grid) - 1):
            if vals[i] == 0.0:
                states.append(float(grid[i]))
            elif vals[i] * vals[i + 1] < 0:
                states.append(brentq(g, grid[i], grid[i + 1], xtol=1e-14, rtol=1e-15))
    return sorted(states)


def imag_step_residual(E: complex, N: float, parity: str):
    """(relative residual of i + k^2 csc^2(kN) or sec^2, Im chi_match) at E.

    The census potential is i * 1_[-N, N]; chi_match is the exterior momentum
    forced by the interior log-derivative, -i k cot(kN) (odd) or
    i k tan(kN) (even), and the energy is physical iff its Im is positive.
    """
    with mpmath.workdps(BASE_DPS):
        k = mpmath.sqrt(mpmath.mpc(E) - 1j)
        w = k * N
        if parity == "odd":
            term = k * k / mpmath.sin(w) ** 2
            chi_match = -1j * k * mpmath.cot(w)
        else:
            term = k * k / mpmath.cos(w) ** 2
            chi_match = 1j * k * mpmath.tan(w)
        residual = abs(1j + term) / max(1, abs(term))
        return float(residual), float(mpmath.im(chi_match))
