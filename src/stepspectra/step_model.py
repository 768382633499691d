"""Exact spectral theory of a single complex step potential.

The secular functions use the self-consistent trigonometric pairing derived
from explicit interface matching:

* odd wavefunction:  i*chi - kappa*cot(kappa*R),  inversion V0 = -kappa^2*csc^2(kappa*R)
* even wavefunction: i*chi + kappa*tan(kappa*R),  inversion V0 = -kappa^2*sec^2(kappa*R)

and the physical-sheet classification is the invariant one: the exterior
momentum determined by the interior logarithmic derivative must have positive
imaginary part (decaying exterior wave).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, PoleProximityError, SheetError, UnsupportedDomainError
from .special_functions import _bessel_all, _h01, _j01, sqrt_upper

PARITIES = ("even", "odd")
POLE_GUARD = 1e-8
SECTOR_APERTURE = 0.2  # default half-opening of the eigenvalue sector


def _check_parity(parity: str) -> str:
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}, got {parity!r}")
    return parity


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
    lq_norms: dict = field(default_factory=dict)
    davies_nath: float = 0.0
    parity: str = "odd"
    iterations: int = 0
    kappa: complex = 0j
    seed: complex = 0j


def _cot(w: complex) -> complex:
    # overflow-safe: cot -> -i*(1 + 2e^{2iw}) high in the upper half plane
    if w.imag > 350.0:
        return -1j * (1.0 + 2.0 * cmath.exp(2j * w))
    if w.imag < -350.0:
        return 1j * (1.0 + 2.0 * cmath.exp(-2j * w))
    return cmath.cos(w) / cmath.sin(w)


def _tan(w: complex) -> complex:
    if w.imag > 350.0:
        return 1j * (1.0 - 2.0 * cmath.exp(2j * w))
    if w.imag < -350.0:
        return -1j * (1.0 - 2.0 * cmath.exp(-2j * w))
    return cmath.sin(w) / cmath.cos(w)


def _pole_distance(w: complex, parity: str) -> float:
    """Distance of w = kappa*R to the nearest pole of cot (odd) or tan (even)."""
    if parity == "odd":
        m = round(w.real / math.pi)
        return abs(w - m * math.pi)
    m = round(w.real / math.pi - 0.5)
    return abs(w - (m + 0.5) * math.pi)


def _guard_pole(w: complex, parity: str) -> None:
    dist = _pole_distance(w, parity)
    if dist < POLE_GUARD:
        raise PoleProximityError(
            f"kappa*R = {w!r} within {dist:.2e} of a {parity}-parity pole",
            distance=dist,
        )


def interior_momentum(bump: StepBump, E: complex) -> complex:
    """kappa = sqrt(E - v0) on either branch (all users are even in kappa)."""
    return cmath.sqrt(complex(E) - bump.v0)


def chi_match(bump: StepBump, E: complex, parity: str) -> complex:
    """Exterior momentum forced by the interior logarithmic derivative at the edge."""
    _check_parity(parity)
    kappa = interior_momentum(bump, E)
    w = kappa * bump.half_width
    _guard_pole(w, parity)
    if parity == "odd":
        return -1j * kappa * _cot(w)
    return 1j * kappa * _tan(w)


def physical_sheet(bump: StepBump, E: complex, parity: str) -> bool:
    """True iff the matched exterior wave decays (Im chi_match > 0, strictly)."""
    return chi_match(bump, E, parity).imag > 0.0


def secular(bump: StepBump, E: complex, parity: str, sheet: str = "physical") -> complex:
    """Secular function of the step at energy ``E``.

    ``sheet="physical"`` uses chi = sqrt_upper(E) (zeros are the genuine
    eigenvalues); ``sheet="matched"`` picks the square root of E closest to
    the matched exterior momentum, so zeros cover resonances on either sheet
    and the inverse formulas round-trip for every kappa.
    """
    _check_parity(parity)
    E = complex(E)
    kappa = interior_momentum(bump, E)
    w = kappa * bump.half_width
    _guard_pole(w, parity)
    t = kappa * _cot(w) if parity == "odd" else kappa * _tan(w)
    chi = sqrt_upper(E)
    if sheet == "matched":
        chi_m = -1j * t if parity == "odd" else 1j * t
        if abs(-chi - chi_m) < abs(chi - chi_m):
            chi = -chi
    elif sheet != "physical":
        raise ValueError(f"sheet must be 'physical' or 'matched', got {sheet!r}")
    return 1j * chi - t if parity == "odd" else 1j * chi + t


def secular_entire(bump: StepBump, E: complex, parity: str) -> complex:
    """Pole-free rescaling of the physical-sheet secular (same zero set).

    odd:  i*chi*sin(w)/kappa - cos(w);  even: i*chi*cos(w) + kappa*sin(w),
    with w = kappa*R.  Analytic in E off [0, inf); suited to winding counts.
    The value grows like e^{|Im w|}; where it leaves float range,
    :class:`UnsupportedDomainError` is raised.
    """
    _check_parity(parity)
    E = complex(E)
    kappa = interior_momentum(bump, E)
    w = kappa * bump.half_width
    chi = sqrt_upper(E)
    try:
        cos_w, sin_w = cmath.cos(w), cmath.sin(w)
        if parity == "even":
            val = 1j * chi * cos_w + kappa * sin_w
        else:
            sinc = bump.half_width * (1.0 - w * w / 6.0) if abs(w) < 1e-8 else sin_w / kappa
            val = 1j * chi * sinc - cos_w
        # cos/sin can stay finite while the products above overflow to inf
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise OverflowError
    except OverflowError:
        raise UnsupportedDomainError(
            f"secular_entire is beyond float range at E = {E!r} (|Im kappa*R| = {abs(w.imag):.4g})"
        ) from None
    return val


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
    if parity == "odd":
        s = cmath.sin(w)
        return -(kappa * kappa) / (s * s)
    c = cmath.cos(w)
    return -(kappa * kappa) / (c * c)


def energy(kappa: complex, v0: complex) -> complex:
    """E = kappa^2 + v0."""
    return complex(kappa) ** 2 + complex(v0)


def bump_norm_lq(bump: StepBump, q: float) -> float:
    """Exact L^q norm: |v0| * (2R)^(1/q), sup norm for q = inf."""
    if q == math.inf:
        return abs(bump.v0)
    if q < 1:
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
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    weight = (2.0 / s) * (1.0 - math.exp(-s * bump.half_width))
    return abs(bump.v0) * weight ** (1.0 / q)


# ---------------------------------------------------------------------------
# Inverse construction: given the eigenvalue, build the bump
# ---------------------------------------------------------------------------

def _construct_newton(zh: complex, R: float, kappa0: complex, tol: float, max_iter: int):
    """Solve kappa*cot(kappa*R) = i*sqrt(zh) by Newton from kappa0."""
    target = 1j * sqrt_upper(zh)
    kappa = kappa0
    trace = [kappa]
    for it in range(max_iter):
        w = kappa * R
        c = _cot(w)
        g = kappa * c - target
        if abs(g) <= tol:
            return kappa, abs(g), it, trace
        s = cmath.sin(w)
        dg = c - w / (s * s) if abs(w.imag) < 350.0 else c - w * (-4.0) * cmath.exp(2j * w)
        if dg == 0:
            break
        step = g / dg
        kappa = kappa - step
        trace.append(kappa)
        if abs(kappa - kappa0) > 0.5:
            break  # left the seeding neighborhood; treat as divergence
    w = kappa * R
    return None, abs(kappa * _cot(w) - target), max_iter, trace


def construct_bump(
    zeta: complex,
    sigma: float = 1.0,
    center: float = 0.0,
    tol: float | None = None,
    max_iter: int = 100,
    sector_aperture: float = SECTOR_APERTURE,
) -> BumpReport:
    """Build a step bump whose odd-parity eigenvalue is exactly ``zeta``.

    Works at unit modulus internally (the problem is scale covariant) and
    undoes the scaling on output:

    1. eps = Im(zeta/|zeta|)/2 sets the smallness scale,
    2. R is log(1/eps)/(2*sigma*eps) snapped to the phase grid
       2*Re(kappa)*R = pi/2 (mod 2*pi) for Re(kappa) = -1,
    3. Newton on kappa |-> kappa*cot(kappa*R) - i*sqrt(zeta/|zeta|) from the
       seed -1 + i*eps*sigma (reseeded at +1 on a sheet failure),
    4. V0 = zeta/|zeta| - kappa^2.
    """
    zeta = complex(zeta)
    if not (zeta.imag > 0):
        raise ValueError(f"Im zeta > 0 required, got {zeta!r}")
    if abs(zeta.imag) > sector_aperture * zeta.real:
        raise ValueError(
            f"zeta = {zeta!r} outside the sector |Im z| <= {sector_aperture} * Re z"
        )
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")

    scale = abs(zeta)
    zh = zeta / scale
    lam = math.sqrt(scale)
    if tol is None:
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
        kappa, res, iters, trace = _construct_newton(zh, R_int, kappa0, tol_int, max_iter)
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
        bump = StepBump(scale * v0_int, R_int / lam, center)
        residual = abs(secular(bump, zeta, "odd"))
        if residual > tol:
            last_exc = ConvergenceError(
                f"round-trip residual {residual:.3e} above tol {tol:.3e}",
                last_iterate=kappa,
                residual=residual,
            )
            continue
        s_decay = sqrt_upper(zeta).imag
        norms = {q: bump_norm_lq(bump, q) for q in (1.0, 2.0, math.inf)}
        return BumpReport(
            bump=bump,
            achieved_eigenvalue=zeta,
            residual=residual,
            lq_norms=norms,
            davies_nath=davies_nath(bump, 1.0, s_decay),
            parity="odd",
            iterations=iters,
            kappa=kappa * lam,
            seed=kappa0,
        )
    raise last_exc


# ---------------------------------------------------------------------------
# Eigenfunctions
# ---------------------------------------------------------------------------

def _sinhc(x: float) -> float:
    return 1.0 + x * x / 6.0 if abs(x) < 1e-6 else math.sinh(x) / x


def _sinc_real(x: float) -> float:
    return 1.0 - x * x / 6.0 if abs(x) < 1e-6 else math.sin(x) / x


def eigenfunction(bump: StepBump, E: complex, parity: str, x, tol: float = 1e-8):
    """L^2-normalized eigenfunction of the bump at eigenvalue ``E`` on ``x``.

    Interior trigonometric, exterior proportional to e^{i*chi*|x - center|};
    requires ``E`` to be an actual physical-sheet secular zero.
    """
    _check_parity(parity)
    E = complex(E)
    res = abs(secular(bump, E, parity))
    if res > tol * (1.0 + abs(E)):
        raise ValueError(
            f"E = {E!r} is not an eigenvalue of the bump (|secular| = {res:.3e})"
        )
    if not physical_sheet(bump, E, parity):
        raise ValueError(f"E = {E!r} lies off the physical sheet for parity {parity!r}")

    kappa = interior_momentum(bump, E)
    chi = sqrt_upper(E)
    R = bump.half_width
    a, b = kappa.real, kappa.imag
    # interior L2 mass: int |cos|^2 = sinh(2bR)/(2b) + sin(2aR)/(2a), odd uses a minus
    cosh_part = R * _sinhc(2.0 * b * R)
    cos_part = R * _sinc_real(2.0 * a * R)
    if parity == "even":
        edge = cmath.cos(kappa * R)
        interior_mass = cosh_part + cos_part
    else:
        edge = cmath.sin(kappa * R)
        interior_mass = cosh_part - cos_part
    exterior_mass = abs(edge) ** 2 / chi.imag
    norm = math.sqrt(interior_mass + exterior_mass)

    u = np.asarray(x, dtype=float) - bump.center
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.empty(u.shape, dtype=complex)
    inside = np.abs(u) <= R
    if parity == "even":
        out[inside] = np.cos(kappa * u[inside])
        out[~inside] = edge * np.exp(1j * chi * (np.abs(u[~inside]) - R))
    else:
        out[inside] = np.sin(kappa * u[inside])
        out[~inside] = np.sign(u[~inside]) * edge * np.exp(1j * chi * (np.abs(u[~inside]) - R))
    out /= norm
    return out[0] if scalar else out


def radial_secular(v0: complex, R: float, E: complex, d: int) -> complex:
    """s-wave Wronskian kappa*J'_nu(kappa R)*H1_nu(chi R) - chi*J_nu(kappa R)*H1'_nu(chi R).

    nu = (d-2)/2 with d in {2, 3}; zeros with Im chi > 0 are eigenvalues.
    """
    if d not in (2, 3):
        raise ValueError(f"radial solver supports d in {{2, 3}}, got {d}")
    if not (R > 0 and math.isfinite(R)):
        raise ValueError(f"R must be positive and finite, got {R}")
    E = complex(E)
    chi = sqrt_upper(E)
    kappa = cmath.sqrt(E - complex(v0))
    if d == 3:
        _, h, _, dh = _bessel_all(0.5, chi * R)
        j, _, dj, _ = _bessel_all(0.5, kappa * R)
        return kappa * dj * h - chi * j * dh
    # d = 2 needs only J at kappa*R and H1 at chi*R: J_0' = -J_1, H1_0' = -H1_1
    h0, h1 = _h01(chi * R)
    if kappa == 0:  # E = v0: kappa*J_0'(kappa R) -> 0 and J_0 -> 1
        return chi * h1
    j0, j1 = _j01(kappa * R)
    return chi * j0 * h1 - kappa * j1 * h0
