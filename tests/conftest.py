"""Shared test oracles, independent of the library code paths they check."""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import settings
from scipy.optimize import brentq

# derandomized so tier-1 is reproducible (no example database to replay);
# bounded so the property tests add a few seconds
settings.register_profile(
    "stepspectra", derandomize=True, database=None, deadline=None, max_examples=150
)
settings.load_profile("stepspectra")


def real_well_bound_states(depth: float, R: float):
    """Bound-state energies of the real well -depth * 1_[-R, R], by bisection.

    Uses the pole-free matching forms
        even: k sin(kR) - m cos(kR) = 0,
        odd:  k cos(kR) + m sin(kR) = 0,
    with m = sqrt(depth - k^2), scanned for sign changes on a dense grid.
    Independent of the package's secular functions.
    """
    kmax = math.sqrt(depth)

    def g_even(k):
        return k * math.sin(k * R) - math.sqrt(depth - k * k) * math.cos(k * R)

    def g_odd(k):
        return k * math.cos(k * R) + math.sqrt(depth - k * k) * math.sin(k * R)

    energies = []
    for g in (g_even, g_odd):
        grid = np.linspace(1e-9, kmax - 1e-12, 4001)
        vals = np.array([g(k) for k in grid])
        for i in range(len(grid) - 1):
            if vals[i] == 0.0:
                k0 = grid[i]
            elif vals[i] * vals[i + 1] < 0:
                k0 = brentq(g, grid[i], grid[i + 1], xtol=1e-15, rtol=8.9e-16)
            else:
                continue
            energies.append(k0 * k0 - depth)
    return sorted(energies)


def real_well_parity_states(depth: float, R: float, parity: str):
    """Same oracle, restricted to one parity."""
    kmax = math.sqrt(depth)

    def g_even(k):
        return k * math.sin(k * R) - math.sqrt(depth - k * k) * math.cos(k * R)

    def g_odd(k):
        return k * math.cos(k * R) + math.sqrt(depth - k * k) * math.sin(k * R)

    g = g_even if parity == "even" else g_odd
    grid = np.linspace(1e-9, kmax - 1e-12, 4001)
    vals = np.array([g(k) for k in grid])
    energies = []
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0:
            k0 = brentq(g, grid[i], grid[i + 1], xtol=1e-15, rtol=8.9e-16)
            energies.append(k0 * k0 - depth)
    return sorted(energies)


def mp_transfer_secular(pieces, E, dps: int = 40):
    """Global secular by an unscaled mpmath 2x2 transfer product, and its scale.

    ``pieces`` is a sorted list of disjoint (a, b, v); the gaps between them
    are free.  The left condition is the decaying wave e^{-i chi x}, and F is
    the coefficient of the right-growing exterior wave, normalized so the free
    line gives 1.  mpmath's exponent range is unbounded, so the product never
    overflows however long the gaps, and the propagated solution is the
    dominant one, so the digits only have to cover cancellation in F.

    Returns (F, scale).  ``scale`` is the forward-error scale of the product:
    the largest ||Phi(x_{j+1} -> x_R)|| * ||M_j|| * ||state(x_j)|| over the
    stretches j, carried through the read-out of F.  A float64 sweep is good to
    about 1e-16 * scale, so |F| far below ``scale`` marks a cancellation
    (F near a zero), where only agreement relative to ``scale`` is meaningful.
    """
    with mpmath.workdps(dps):
        E = mpmath.mpc(E)
        chi = mpmath.sqrt(E)
        if mpmath.im(chi) < 0:
            chi = -chi
        x = mpmath.mpf(pieces[0][0])
        stretches = []
        for a, b, v in pieces:
            if mpmath.mpf(a) > x:
                stretches.append((mpmath.mpf(a) - x, mpmath.mpc(0)))
            stretches.append((mpmath.mpf(b) - mpmath.mpf(a), mpmath.mpc(v)))
            x = mpmath.mpf(b)
        mats = []
        for width, v in stretches:
            k2 = E - v
            kw = mpmath.sqrt(k2) * width
            c, s = mpmath.cos(kw), width * mpmath.sinc(kw)
            mats.append(mpmath.matrix([[c, s], [-k2 * s, c]]))
        states = [mpmath.matrix([[1], [-1j * chi]])]
        for m in mats:
            states.append(m * states[-1])
        psi, dpsi = states[-1][0], states[-1][1]
        phase = mpmath.exp(1j * chi * (x - mpmath.mpf(pieces[0][0])))
        F = (1j * chi * psi - dpsi) / (2j * chi) * phase

        scale = 0
        tail = mpmath.eye(2)  # Phi(x_{j+1} -> x_R)
        for j in reversed(range(len(mats))):
            terms = (tail, mats[j], states[j])
            scale = max(scale, mpmath.fprod(mpmath.mnorm(t, "inf") for t in terms))
            tail = tail * mats[j]
        scale *= (1 + 1 / abs(chi)) / 2 * abs(phase)
        return complex(F), float(scale)


def mp_bessel_j01(z: complex):
    """(J_0(z), J_1(z)) from mpmath at 50 digits."""
    with mpmath.workdps(50):
        zm = mpmath.mpc(z)
        return complex(mpmath.besselj(0, zm)), complex(mpmath.besselj(1, zm))


def mp_bessel_jh(nu: int, z: complex):
    """(J_nu, H1_nu, J_nu', H1_nu') at z from mpmath, for integer nu.

    mpmath forms H1 = J + iY, which cancels by e^{2 |Im z|}, so the working
    precision is 30 digits plus that loss.  H1' comes from the recurrence
    H1_nu' = (H1_{nu-1} - H1_{nu+1}) / 2, not the identities the library uses.
    """
    with mpmath.workdps(30 + math.ceil(2.0 * abs(z.imag) / math.log(10.0))):
        zm = mpmath.mpc(z)
        j = mpmath.besselj(nu, zm)
        dj = mpmath.besselj(nu, zm, derivative=1)
        h = mpmath.hankel1(nu, zm)
        dh = (mpmath.hankel1(nu - 1, zm) - mpmath.hankel1(nu + 1, zm)) / 2
        return complex(j), complex(h), complex(dj), complex(dh)


def mp_hankel1_upper(nu: int, z: complex) -> complex:
    """H1_nu(z) = (2/(pi i)) e^{-i nu pi/2} K_nu(-iz) from mpmath at 20 digits.

    The formula holds for -pi/2 < arg z <= pi, so for z in the upper half
    plane, where K at -iz does not cancel the way J + iY does.  On the points
    of ``TestHankelRoutes``' beyond-14 ring, 20 digits are within 1e-20 of the
    30-digit values (19 digits: 1.7e-20), at 0.4 of the cost.
    """
    with mpmath.workdps(20):
        return complex(2 / (mpmath.pi * 1j) * mpmath.expjpi(-nu / 2.0)
                       * mpmath.besselk(nu, -1j * mpmath.mpc(z)))


def imag_step_branch(N: int, n: int, parity: str, sign: int, tol: float = 1e-9, max_iter: int = 60):
    """One branch of the imaginary-step census by scalar Newton, as a reference.

    The ladder of V = i*1_[-N,N]: the seed is -i*W_n(target)/N with W from
    scipy, and Newton runs on v0 + kappa^2 csc^2(kappa N) (odd) or
    v0 + kappa^2 sec^2(kappa N) (even) in cmath.  A branch converges when the
    residual falls to ``tol`` with every iterate inside the hop disk
    |kappa - seed| <= 0.75*pi/N, and its upper-half representative neither
    hops from the seed's nor crosses to the mirrored side of the ladder.
    Returns (seed, kappa, converged, on_physical_sheet), kappa in the upper
    half plane; the sheet flag is Im(chi) > 0 for the matched exterior
    momentum chi = -i*kappa*cot(kappa N) (odd) or i*kappa*tan(kappa N) (even).
    """
    v0, R = 1j, float(N)
    root = cmath.sqrt(v0)
    target = 1j * sign * root * R / 2.0 if parity == "odd" else -sign * root * R / 2.0
    seed = -1j * complex(scipy.special.lambertw(target, n, tol=1e-15)) / R
    hop = 0.75 * math.pi / R

    def terms(k):
        w = k * R
        s, c = cmath.sin(w), cmath.cos(w)
        if parity == "odd":
            sq, t, wt = 1.0 / (s * s), c / s, -w * c / s
        else:
            sq, t, wt = 1.0 / (c * c), s / c, w * s / c
        return v0 + k * k * sq, 2.0 * k * sq * (1.0 + wt), t

    kappa, converged, t = seed, False, 0j
    for _ in range(max_iter):
        f, d, t = terms(kappa)
        if abs(f) <= tol:
            converged = True
            break
        if d == 0 or not abs(kappa - f / d - seed) <= hop:
            break
        kappa = kappa - f / d
    chi = (-1j if parity == "odd" else 1j) * kappa * t
    seed_up = seed if seed.imag >= 0 else -seed
    if kappa.imag < 0:
        kappa = -kappa
    if abs(kappa - seed_up) > hop or (
        kappa.real * seed_up.real < 0 and min(abs(kappa.real), abs(seed_up.real)) > 0.1 / R
    ):
        converged = False
    return seed, kappa, converged, converged and chi.imag > 0


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def line_targets(n: int) -> list:
    """n targets [re, im], evenly spaced from 0.6+0.08i to 1.6+0.03i.  As n grows, the
    desk potential's disks of radius 5e-3 around them hold more eigenvalues (Boegli's
    accumulation): 3 targets give 1 each, 30 give 114 in all, up to 6 in one disk."""
    return [[float(a), float(b)] for a, b in zip(np.linspace(0.6, 1.6, n), np.linspace(0.08, 0.03, n))]
