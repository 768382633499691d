"""Exact spectral theory of a single complex step potential.

The parity secular functions use the trigonometric pairing of the interface
matching, odd: i*chi - kappa*cot(kappa*R), even: i*chi + kappa*tan(kappa*R), with
the inversions V0 = -kappa^2*csc^2(kappa*R) and V0 = -kappa^2*sec^2(kappa*R).  All
take csc^2/cot or sec^2/tan from one overflow-safe core, ``_trig_sq``, which the
imaginary-step census shares; ``secular_entire``, and radial d = 3 as its odd
parity, is built on the sweep's propagator ``schrodinger_1d._piece``.  The
physical-sheet classification is the invariant one: the matched exterior
momentum must have positive imaginary part (decaying exterior wave).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, PoleProximityError, SheetError
from .schrodinger_1d import _piece, _rescaled
from .special_functions import _h01, _j01, sqrt_upper

PARITIES = ("even", "odd")
POLE_GUARD = 1e-8
SECTOR_APERTURE = 0.2  # default half-opening of the eigenvalue sector
#: Newton steps of the bump construction
_CONSTRUCT_MAX_ITER = 100


def _check_parity(parity: str) -> str:
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}, got {parity!r}")
    return parity


def _check_sector(zeta: complex, aperture: float = SECTOR_APERTURE) -> complex:
    """``zeta`` as a complex number, or ValueError unless it lies in the sector
    0 < Im zeta <= aperture * Re zeta."""
    zeta = complex(zeta)
    if not zeta.imag > 0:
        raise ValueError(f"Im zeta > 0 required, got {zeta!r}")
    if zeta.imag > aperture * zeta.real:
        raise ValueError(f"zeta = {zeta!r} outside the sector |Im z| <= {aperture} * Re z")
    return zeta


@dataclass(frozen=True)
class StepBump:
    """Complex step ``v0 * 1_[center-half_width, center+half_width]``."""

    v0: complex
    half_width: float
    center: float = 0.0

    def __post_init__(self):
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        object.__setattr__(self, "v0", complex(self.v0))

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.half_width, self.center + self.half_width)

    def shifted(self, center: float) -> "StepBump":
        return replace(self, center=center)


@dataclass(frozen=True)
class BumpReport:
    """Outcome of the inverse construction: the bump plus its diagnostics."""

    bump: StepBump
    achieved_eigenvalue: complex
    residual: float
    iterations: int


def _trig_sq(parity: str, w):
    """(csc^2 w, cot w) for odd, (sec^2 w, tan w) for even, elementwise, from q =
    e^{a+ib} = e^{2isw}, s = sign(Im w), so |q| <= 1; near q = +-1, q -+ 1 is taken
    as +-(expm1(a) - 2e^a (sin|cos)^2(b/2)) + i Im q, free of cancellation."""
    w = np.asarray(w, dtype=complex)
    s = np.where(w.imag < 0.0, -1.0, 1.0)
    z = 2j * s * w
    q = np.exp(z)
    qm, qp = np.asarray(q - 1.0), np.asarray(q + 1.0)  # writable at 0-d too
    for d, sgn, half in ((qm, 1.0, np.sin), (qp, -1.0, np.cos)):
        near = np.abs(d) < 0.5
        if near.any():
            a, h = z.real[near], half(0.5 * z.imag[near])
            d[near] = sgn * (np.expm1(a) - 2.0 * np.exp(a) * h * h) + 1j * q.imag[near]
    with np.errstate(divide="ignore", invalid="ignore"):
        if parity == "odd":
            return -4.0 * q / (qm * qm), 1j * s * qp / qm
        return 4.0 * q / (qp * qp), -1j * s * qm / qp


def _secular_terms(parity: str, v0: complex, R: float, kappa):
    """The secular v0 + kappa^2 csc^2(kappa R) (odd) or v0 + kappa^2 sec^2(kappa R)
    (even), its kappa-derivative and cot/tan, elementwise from one trig call."""
    w = kappa * R
    sq, t = _trig_sq(parity, w)
    wt = -w * t if parity == "odd" else w * t
    return v0 + kappa * kappa * sq, 2.0 * kappa * sq * (1.0 + wt), t


def _guard_pole(w: complex, parity: str) -> None:
    """PoleProximityError if w = kappa*R is within POLE_GUARD of a cot (odd) or tan (even) pole."""
    m = round(w.real / math.pi) if parity == "odd" else round(w.real / math.pi - 0.5) + 0.5
    dist = abs(w - m * math.pi)
    if dist < POLE_GUARD:
        raise PoleProximityError(
            f"kappa*R = {w!r} within {dist:.2e} of a {parity}-parity pole",
            distance=dist,
        )


def chi_match(bump: StepBump, E: complex, parity: str) -> complex:
    """Exterior momentum forced by the interior logarithmic derivative at the edge."""
    _check_parity(parity)
    kappa = cmath.sqrt(complex(E) - bump.v0)  # either branch: the value is even in kappa
    w = kappa * bump.half_width
    _guard_pole(w, parity)
    t = complex(_trig_sq(parity, w)[1])
    return -1j * kappa * t if parity == "odd" else 1j * kappa * t


def physical_sheet(bump: StepBump, E: complex, parity: str) -> bool:
    """True iff the matched exterior wave decays (Im chi_match > 0, strictly)."""
    return chi_match(bump, E, parity).imag > 0.0


def secular(bump: StepBump, E: complex, parity: str) -> complex:
    """Physical-sheet secular function of the step at energy ``E``: i*(chi - chi_match)
    with chi = sqrt_upper(E), so its zeros are the genuine eigenvalues."""
    chi_m = chi_match(bump, E, parity)
    return 1j * (sqrt_upper(E) - chi_m)


def secular_entire(bump: StepBump, E: complex, parity: str) -> complex:
    """Pole-free rescaling of the physical-sheet secular (same zero set).

    odd:  i*chi*sin(w)/kappa - cos(w);  even: i*chi*cos(w) + kappa*sin(w),
    with w = kappa*R.  Analytic in E off [0, inf); suited to winding counts.
    Built on the sweep's factored propagator ``schrodinger_1d._piece`` and
    its log-space rescaling: where the value, which grows like e^{|Im w|},
    leaves float range, :class:`UnsupportedDomainError` is raised.
    """
    _check_parity(parity)
    E = complex(E)
    k2 = E - bump.v0
    c, s, t = _piece(k2, bump.half_width)
    chi = sqrt_upper(E)
    val = 1j * chi * s - c if parity == "odd" else 1j * chi * c + k2 * s
    return _rescaled(val, t, E)


def solve_for_v0(kappa: complex, R: float, parity: str) -> complex:
    """Step height giving a secular zero at E = kappa^2 + V0 for this parity.

    odd: V0 = -kappa^2 csc^2(kappa R); even: V0 = -kappa^2 sec^2(kappa R).
    The zero sits on the physical sheet iff Im chi_match > 0 there.
    """
    _check_parity(parity)
    if not (R > 0 and math.isfinite(R)):
        raise ValueError(f"R must be positive and finite, got {R}")
    kappa = complex(kappa)
    w = kappa * R
    _guard_pole(w, parity)
    return -(kappa * kappa) * complex(_trig_sq(parity, w)[0])


def energy(kappa: complex, v0: complex) -> complex:
    """E = kappa^2 + v0."""
    return complex(kappa) ** 2 + complex(v0)


def bump_norm_lq(bump: StepBump, q: float) -> float:
    """Exact L^q norm: |v0| * (2R)^(1/q), sup norm for q = inf."""
    if q == math.inf:
        return abs(bump.v0)
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return abs(bump.v0) * (2.0 * bump.half_width) ** (1.0 / q)


def davies_nath(bump: StepBump, q: float, s: float) -> float:
    """Exponentially weighted norm ((2/s)(1 - e^{-sR}))^(1/q) * |v0|.

    The sup over translates is attained at the bump center by symmetry.
    """
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    if q == math.inf:
        return abs(bump.v0)
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    weight = (2.0 / s) * (1.0 - math.exp(-s * bump.half_width))
    return abs(bump.v0) * weight ** (1.0 / q)


# ---------------------------------------------------------------------------
# Inverse construction: given the eigenvalue, build the bump
# ---------------------------------------------------------------------------

def _construct_newton(zh: complex, R: float, kappa0: complex, tol: float):
    """Solve kappa*cot(kappa*R) = i*sqrt(zh) by Newton from kappa0."""
    target = 1j * sqrt_upper(zh)
    kappa = kappa0
    trace = [kappa]
    for it in range(_CONSTRUCT_MAX_ITER):
        w = kappa * R
        csc2, c = (complex(x) for x in _trig_sq("odd", w))
        g = kappa * c - target
        if abs(g) <= tol:
            return kappa, abs(g), it, trace
        dg = c - w * csc2
        if dg == 0:
            break
        step = g / dg
        kappa = kappa - step
        trace.append(kappa)
        if abs(kappa - kappa0) > 0.5:
            break  # left the seeding neighborhood; treat as divergence
    w = kappa * R
    return None, abs(kappa * complex(_trig_sq("odd", w)[1]) - target), _CONSTRUCT_MAX_ITER, trace


def construct_bump(zeta: complex, sigma: float = 1.0,
                   sector_aperture: float = SECTOR_APERTURE) -> BumpReport:
    """Build a step bump whose odd-parity eigenvalue is exactly ``zeta``.

    Works at unit modulus internally (the problem is scale covariant) and
    undoes the scaling on output:

    1. eps = Im(zeta/|zeta|)/2 sets the smallness scale,
    2. R is log(1/eps)/(2*sigma*eps) snapped to the phase grid
       2*Re(kappa)*R = pi/2 (mod 2*pi) for Re(kappa) = -1,
    3. Newton on kappa |-> kappa*cot(kappa*R) - i*sqrt(zeta/|zeta|) from the
       seed -1 + i*eps*sigma (reseeded at +1 on a sheet failure),
    4. V0 = zeta/|zeta| - kappa^2,

    to a round-trip residual |secular| of at most 1e-10 * (1 + |zeta|).  The
    bump is centred at 0.
    """
    zeta = _check_sector(zeta, sector_aperture)
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")

    scale = abs(zeta)
    zh = zeta / scale
    lam = math.sqrt(scale)
    tol = 1e-10 * (1.0 + abs(zeta))
    # internal tolerance in the unit-modulus frame (secular scales by lam)
    tol_int = min(tol / lam, 1e-12)

    eps = zh.imag / 2.0
    r_target = math.log(1.0 / eps) / (2.0 * sigma * eps)
    # phase grid: -2R = pi/2 (mod 2pi)  =>  R in {pi*k - pi/4}
    k_grid = max(1, round((r_target + math.pi / 4.0) / math.pi))
    R_int = math.pi * k_grid - math.pi / 4.0

    last_exc = None
    for re_seed in (-1.0, 1.0):
        kappa0 = complex(re_seed, eps * sigma)
        kappa, res, iters, trace = _construct_newton(zh, R_int, kappa0, tol_int)
        if kappa is None:
            last_exc = ConvergenceError(
                f"bump construction did not converge for zeta = {zeta!r} (seed {kappa0!r})",
                last_iterate=trace[-1],
                residual=res,
                trace=trace,
            )
            continue
        v0_int = zh - kappa * kappa
        bump_int = StepBump(v0_int, R_int)
        if not physical_sheet(bump_int, zh, "odd"):
            last_exc = SheetError(
                f"converged point for zeta = {zeta!r} is not on the physical sheet"
            )
            continue
        bump = StepBump(scale * v0_int, R_int / lam)
        residual = abs(secular(bump, zeta, "odd"))
        if residual > tol:
            last_exc = ConvergenceError(
                f"round-trip residual {residual:.3e} above tol {tol:.3e}",
                last_iterate=kappa,
                residual=residual,
            )
            continue
        return BumpReport(bump=bump, achieved_eigenvalue=zeta, residual=residual,
                          iterations=iters)
    raise last_exc


def radial_secular(v0: complex, R: float, E: complex, d: int) -> complex:
    """s-wave secular of the well ``v0`` on ``r < R`` in d in {2, 3} dimensions;
    zeros with Im chi > 0 are eigenvalues.

    d = 2: the Wronskian kappa*J_0'(kappa R)*H1_0(chi R) - chi*J_0(kappa R)*H1_0'(chi R).
    d = 3: u = r*psi with u(0) = 0 is the odd parity of the step on the line, so
    the value is ``secular_entire(StepBump(v0, R), E, "odd")``.  The order-1/2
    Wronskian is (2i/pi)*kappa*e^{i chi R}/(sqrt(kappa R)*sqrt(chi R)) times it,
    principal roots: that factor is zero-free off E = v0, and its sqrt(kappa)
    has a cut along v0 + (-inf, 0] that the value here has not.
    """
    if d not in (2, 3):
        raise ValueError(f"radial solver supports d in {{2, 3}}, got {d}")
    if not (R > 0 and math.isfinite(R)):
        raise ValueError(f"R must be positive and finite, got {R}")
    if d == 3:
        return secular_entire(StepBump(v0, R), E, "odd")
    E = complex(E)
    chi = sqrt_upper(E)
    kappa = cmath.sqrt(E - complex(v0))
    # J is needed only at kappa*R and H1 only at chi*R: J_0' = -J_1, H1_0' = -H1_1
    h0, h1 = _h01(chi * R)
    if kappa == 0:  # E = v0: kappa*J_0'(kappa R) -> 0 and J_0 -> 1
        return chi * h1
    j0, j1 = _j01(kappa * R)
    return chi * j0 * h1 - kappa * j1 * h0
