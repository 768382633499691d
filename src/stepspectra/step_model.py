"""Exact spectral theory of a single complex step potential.

The parity secular functions use the trigonometric pairing of the interface
matching, odd: i*chi - kappa*cot(kappa*R), even: i*chi + kappa*tan(kappa*R), with
the inversions V0 = -kappa^2*csc^2(kappa*R) and V0 = -kappa^2*sec^2(kappa*R).  All
take csc^2 or sec^2 and r = -cot or tan, so chi = i*kappa*r, from one overflow-safe
core, ``_trig_sq``, which the census shares; ``secular_entire``, and radial d = 3 as
its odd parity, is ``schrodinger_1d._sweep`` over one segment from a parity start
state.  The physical-sheet classification is the invariant one: the matched
exterior momentum must have positive imaginary part (decaying exterior wave).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, PoleProximityError, SheetError, UnsupportedDomainError
from .schrodinger_1d import _rescaled, _sweep
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


def _check_aperture(aperture: float) -> None:
    """ValueError unless the sector aperture is > 0 (NaN would pass every zeta)."""
    if not aperture > 0:
        raise ValueError(f"sector aperture must be > 0, got {aperture!r}")


def _check_sector(zeta: complex, aperture: float = SECTOR_APERTURE) -> complex:
    """``zeta`` as a complex number, or ValueError unless it lies in the sector
    0 < Im zeta <= aperture * Re zeta, for an aperture > 0."""
    _check_aperture(aperture)
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
    """(csc^2, -cot)(w) = (-4q/(q-1)^2, -is(q+1)/(q-1)) for odd, (sec^2, tan)(w) = (4q/(q+1)^2,
    -is(q-1)/(q+1)) for even, q = e^{a+ib} = e^{2isw}, s = sign(Im w), |q| <= 1; near q = +-1,
    q -+ 1 is +-(expm1(a) - 2e^a (sin|cos)^2(b/2)) + i Im q.  Scalars by cmath, 1-d arrays by numpy."""
    if np.ndim(w) == 0:
        s = -1.0 if w.imag < 0.0 else 1.0
        z = 2j * s * w
        q, a, b = cmath.exp(z), z.real, 0.5 * z.imag
        qm, qp = q - 1.0, q + 1.0
        if abs(qm) < 0.5:
            qm = complex(math.expm1(a) - 2.0 * math.exp(a) * math.sin(b) ** 2, q.imag)
        elif abs(qp) < 0.5:
            qp = complex(2.0 * math.exp(a) * math.cos(b) ** 2 - math.expm1(a), q.imag)
        d, o, sg = (qm, qp, -1.0) if parity == "odd" else (qp, qm, 1.0)
        try:
            return sg * 4.0 * q / (d * d), -1j * s * o / d
        except ZeroDivisionError:  # an exact pole, or (q - 1)^2 underflows: the array's inf/nan
            return tuple(complex(x[0]) for x in _trig_sq(parity, np.array([w])))
    w = np.asarray(w, dtype=complex)
    s = np.where(w.imag < 0.0, -1.0, 1.0)
    z = 2j * s * w
    q = np.exp(z)
    qm, qp = q - 1.0, q + 1.0
    cand = (np.abs(q.real) > 0.5).nonzero()[0]  # |q -+ 1| < 0.5 needs |Re q| > 0.5
    for d, sgn, half in ((qm, 1.0, np.sin), (qp, -1.0, np.cos)):
        near = cand[np.abs(d[cand]) < 0.5]
        if near.size:
            a, h = z.real[near], half(0.5 * z.imag[near])
            d[near] = sgn * (np.expm1(a) - 2.0 * np.exp(a) * h * h) + 1j * q.imag[near]
    d, o, sg = (qm, qp, -1.0) if parity == "odd" else (qp, qm, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return sg * 4.0 * q / (d * d), -1j * s * o / d


def _secular_terms(parity: str, v0: complex, R: float, kappa):
    """The secular v0 + kappa^2 csc^2(kappa R) (odd) or v0 + kappa^2 sec^2(kappa R)
    (even), its kappa-derivative and r = -cot/tan, elementwise from one trig call."""
    w = kappa * R
    sq, r = _trig_sq(parity, w)
    return v0 + kappa * kappa * sq, 2.0 * kappa * sq * (1.0 + w * r), r


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
    return 1j * kappa * _trig_sq(parity, w)[1]


def secular_entire(bump: StepBump, E: complex, parity: str) -> complex:
    """Pole-free rescaling of the physical-sheet secular (same zero set).

    odd:  i*chi*sin(w)/kappa - cos(w);  even: i*chi*cos(w) + kappa*sin(w),
    with w = kappa*R.  Analytic in E off [0, inf); suited to winding counts.
    It is i*chi*psi - psi' at R of the sweep over the segment (R, v0) from
    (psi, psi') = (0, 1) (odd) or (1, 0) (even), rescaled in log space: where
    the value, which grows like e^{|Im w|}, leaves float range,
    :class:`UnsupportedDomainError` is raised.
    """
    _check_parity(parity)
    E = complex(E)
    start = (0j, 1.0 + 0j) if parity == "odd" else (1.0 + 0j, 0j)
    psi, dpsi, log_scale = _sweep(((bump.half_width, bump.v0),), E, *start)
    return _rescaled(1j * sqrt_upper(E) * psi - dpsi, log_scale, E)


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
    return -(kappa * kappa) * _trig_sq(parity, w)[0]


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

def construct_bump(zeta: complex, sigma: float = 1.0,
                   sector_aperture: float = SECTOR_APERTURE) -> BumpReport:
    """Build a step bump whose odd-parity eigenvalue is exactly ``zeta``.

    Works at unit modulus internally (the problem is scale covariant) and
    undoes the scaling on output:

    1. eps = Im(zeta/|zeta|)/2 sets the smallness scale,
    2. R is log(1/eps)/(2*sigma*eps) snapped to the phase grid
       2*Re(kappa)*R = pi/2 (mod 2*pi) for Re(kappa) = -1,
    3. Newton on kappa |-> kappa*cot(kappa*R) - i*sqrt(zeta/|zeta|) from the
       seed -1 + i*eps*sigma,
    4. V0 = zeta/|zeta| - kappa^2,

    to a round-trip residual |secular| of at most 1e-10 * (1 + |zeta|).  The
    bump is centred at 0.  A half-width beyond float range, or Im sqrt(zeta/|zeta|)
    below the Newton tolerance, raises :class:`UnsupportedDomainError`.
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
    denom = 2.0 * sigma * eps
    r_target = math.log(1.0 / eps) / denom if denom > 0 else math.inf
    if not math.isfinite(r_target / lam):
        raise UnsupportedDomainError(
            f"half-width log(1/eps)/(2*sigma*eps) of the bump for zeta = {zeta!r}, sigma = "
            f"{sigma!r} is beyond float range")
    # phase grid: -2R = pi/2 (mod 2pi)  =>  R in {pi*k - pi/4}
    k_grid = max(1, round((r_target + math.pi / 4.0) / math.pi))
    R_int = math.pi * k_grid - math.pi / 4.0

    # Newton's residual can reach Im sqrt(zh): below tol_int rounding would pick the sheet
    root = sqrt_upper(zh)
    if root.imag < tol_int:
        raise UnsupportedDomainError(f"Im sqrt(zeta/|zeta|) for zeta = {zeta!r} is below the Newton "
                                     f"tolerance {tol_int:.3e}: the physical sheet cannot be resolved")
    # Newton on g = kappa*cot(w) - i*sqrt(zh), w = kappa*R, g' = cot(w) - w*csc^2(w), cot = -r;
    # it fails at g' = 0, after the step cap, or once it leaves the seed's neighbourhood
    target = 1j * root
    kappa = kappa0 = complex(-1.0, eps * sigma)
    for iters in range(_CONSTRUCT_MAX_ITER + 1):
        w = kappa * R_int
        csc2, r = _trig_sq("odd", w)
        g = -kappa * r - target
        dg = -r - w * csc2
        if iters < _CONSTRUCT_MAX_ITER and abs(kappa - kappa0) <= 0.5:
            if abs(g) <= tol_int:
                break
            if dg != 0:
                kappa = kappa - g / dg
                continue
        raise ConvergenceError(
            f"bump construction did not converge for zeta = {zeta!r} (seed {kappa0!r})",
            last_iterate=kappa, residual=abs(g))

    bump = StepBump(scale * (zh - kappa * kappa), R_int / lam)
    chi_m = chi_match(bump, zeta, "odd")
    if not chi_m.imag > 0.0:
        raise SheetError(f"converged point for zeta = {zeta!r} is not on the physical sheet")
    residual = abs(sqrt_upper(zeta) - chi_m)
    if residual > tol:
        raise ConvergenceError(f"round-trip residual {residual:.3e} above tol {tol:.3e}",
                               last_iterate=kappa, residual=residual)
    return BumpReport(bump=bump, achieved_eigenvalue=zeta, residual=residual, iterations=iters)


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
    chi, kappa = sqrt_upper(E), cmath.sqrt(E - complex(v0))
    # J is needed only at kappa*R and H1 only at chi*R: J_0' = -J_1, H1_0' = -H1_1
    h0, h1 = _h01(chi * R)
    if kappa == 0:  # E = v0: kappa*J_0'(kappa R) -> 0 and J_0 -> 1
        return chi * h1
    j0, j1 = _j01(kappa * R)
    # chi*H1 first: H1 ~ e^{-Im chi R} tames chi before J ~ e^{|Im kappa R|} comes in
    value = j0 * (chi * h1) - j1 * (kappa * h0)
    if not cmath.isfinite(value):  # a product on the way left float range
        raise UnsupportedDomainError(f"Wronskian left float range at E = {E!r}, R = {R!r}")
    return value
