"""Analytic zero counting and localization, plus the imaginary-step census.

Winding numbers are computed by composite Gauss-Legendre quadrature of
f'/f along the contour (f' by central differences), with per-edge adaptive
bisection until the total is within a quarter of an integer and stable under
refinement.  Zero localization recursively subdivides a rectangle until each
cell holds at most one zero, then polishes by Newton.

The census of V = i*1_[-N,N] refines each resonance ladder as numpy arrays
over the branch number n, with Lambert-W seeds and a per-branch Newton stop.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContourError, StepSpectraError
from .special_functions import _dist_to_ray, lambert_w

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class Region:
    """Rectangle or disk in the complex plane."""

    kind: str
    re_lo: float = 0.0
    re_hi: float = 0.0
    im_lo: float = 0.0
    im_hi: float = 0.0
    center: complex = 0j
    radius: float = 0.0

    @staticmethod
    def rectangle(re_lo: float, re_hi: float, im_lo: float, im_hi: float) -> "Region":
        if not (re_lo < re_hi and im_lo < im_hi):
            raise ValueError("rectangle needs re_lo < re_hi and im_lo < im_hi")
        return Region("rectangle", re_lo=re_lo, re_hi=re_hi, im_lo=im_lo, im_hi=im_hi)

    @staticmethod
    def disk(center: complex, radius: float) -> "Region":
        if not radius > 0:
            raise ValueError("disk needs a positive radius")
        return Region("disk", center=complex(center), radius=radius)

    def contains(self, z: complex) -> bool:
        z = complex(z)
        if self.kind == "rectangle":
            return self.re_lo <= z.real <= self.re_hi and self.im_lo <= z.imag <= self.im_hi
        return abs(z - self.center) <= self.radius

    def bounding_rectangle(self) -> "Region":
        if self.kind == "rectangle":
            return self
        c, r = self.center, self.radius
        return Region.rectangle(c.real - r, c.real + r, c.imag - r, c.imag + r)

    @property
    def diameter(self) -> float:
        if self.kind == "rectangle":
            return math.hypot(self.re_hi - self.re_lo, self.im_hi - self.im_lo)
        return 2.0 * self.radius

    @property
    def scale(self) -> float:
        if self.kind == "rectangle":
            return max(abs(self.re_lo), abs(self.re_hi), abs(self.im_lo), abs(self.im_hi), 1.0)
        return max(abs(self.center) + self.radius, 1.0)

    def edges(self):
        """Counterclockwise contour as (start, end) straight segments or arcs.

        Rectangles give four segments; disks give four quarter arcs encoded as
        ("arc", center, radius, theta0, theta1).
        """
        if self.kind == "rectangle":
            a = complex(self.re_lo, self.im_lo)
            b = complex(self.re_hi, self.im_lo)
            c = complex(self.re_hi, self.im_hi)
            d = complex(self.re_lo, self.im_hi)
            return [("seg", a, b), ("seg", b, c), ("seg", c, d), ("seg", d, a)]
        quarters = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi]
        return [
            ("arc", self.center, self.radius, t0, t1)
            for t0, t1 in zip(quarters[:-1], quarters[1:])
        ]


@dataclass(frozen=True)
class LocatedZero:
    location: complex
    multiplicity: int
    residual: float


@dataclass
class ZeroReport:
    zeros: list = field(default_factory=list)
    winding_total: int = 0
    contour_min_modulus: float = math.inf
    complete: bool = True

    def locations(self):
        return [z.location for z in self.zeros]


@dataclass(frozen=True)
class QuadParams:
    """Knobs for the contour quadrature.

    ``cut_aware`` caps the finite-difference step by the distance to the
    spectral cut [0, inf) so that difference stencils never straddle the
    branch point of the secular functions this package integrates.
    """

    max_refine: int = 28
    integer_tol: float = 0.25
    stability_tol: float = 0.05
    guard_factor: float = 1e-12
    fd_step: float = 1e-6
    cut_aware: bool = True


def _fd_step(z: complex, params: QuadParams) -> float:
    h = params.fd_step * max(1.0, abs(z))
    if params.cut_aware:
        dist = _dist_to_ray(z)
        if dist > 0.0:
            h = min(h, 0.45 * dist)
    return max(h, 1e-12)


def _fd_log_derivative(f, z: complex, params: QuadParams):
    """(f'/f)(z) by central differences; returns (value, |f(z)|)."""
    h = _fd_step(z, params)
    f0 = complex(f(z))
    fp = complex(f(z + h))
    fm = complex(f(z - h))
    if f0 == 0:
        return None, 0.0
    return (fp - fm) / (2.0 * h * f0), abs(f0)


class _EdgeIntegrator:
    """Adaptive composite Gauss-Legendre integral of f'/f along one edge."""

    def __init__(self, f, params: QuadParams):
        self.f = f
        self.params = params
        self.min_modulus = math.inf
        self.evaluations = 0

    def _points(self, edge, t0: float, t1: float):
        mid = 0.5 * (t0 + t1)
        half = 0.5 * (t1 - t0)
        ts = mid + half * _GL_NODES
        if edge[0] == "seg":
            _, a, b = edge
            zs = a + (b - a) * ts
            dz = (b - a) * half * _GL_WEIGHTS
        else:
            _, c, r, th0, th1 = edge
            theta = th0 + (th1 - th0) * ts
            zs = c + r * np.exp(1j * theta)
            dz = 1j * r * np.exp(1j * theta) * (th1 - th0) * half * _GL_WEIGHTS
        return zs, dz

    def _panel(self, edge, t0: float, t1: float) -> complex:
        zs, dz = self._points(edge, t0, t1)
        total = 0j
        for z, w in zip(zs, dz):
            val, mod = _fd_log_derivative(self.f, complex(z), self.params)
            self.evaluations += 1
            if mod < self.min_modulus:
                self.min_modulus = mod
            if val is None:
                raise ContourError(
                    f"f vanishes at contour point {z!r}; nudge the region boundary"
                )
            total += val * w
        return total

    def integrate(self, edge) -> complex:
        stack = [(0.0, 1.0, self._panel(edge, 0.0, 1.0), 0)]
        total = 0j
        params = self.params
        # panel acceptance proportional to parameter length keeps the summed
        # error below stability_tol/4 for the whole edge
        tol = params.stability_tol / 4.0
        while stack:
            t0, t1, coarse, depth = stack.pop()
            mid = 0.5 * (t0 + t1)
            left = self._panel(edge, t0, mid)
            right = self._panel(edge, mid, t1)
            err = abs(left + right - coarse)
            if err <= tol * (t1 - t0) or err <= 1e-14:
                total += left + right
            elif depth >= params.max_refine:
                raise ContourError(
                    "contour integral did not stabilize under refinement; "
                    "a zero may sit on (or hug) the contour — nudge the region"
                )
            else:
                stack.append((t0, mid, left, depth + 1))
                stack.append((mid, t1, right, depth + 1))
        return total


def winding_count(f, region: Region, params: QuadParams | None = None) -> int:
    """Number of zeros of ``f`` enclosed by the region, by the argument principle.

    Raises :class:`ContourError` if the contour modulus guard trips or the
    integral refuses to settle near an integer.
    """
    params = params or QuadParams()
    integrator = _EdgeIntegrator(f, params)
    total = 0j
    moduli_guard = []
    for edge in region.edges():
        total += integrator.integrate(edge)
        moduli_guard.append(integrator.min_modulus)
    count = total / (2j * math.pi)
    nearest = round(count.real)
    if abs(count - nearest) > params.integer_tol:
        raise ContourError(
            f"winding integral {count:.4f} is not within {params.integer_tol} of an integer"
        )
    guard = params.guard_factor * max(region.scale, 1.0)
    if integrator.min_modulus < guard:
        raise ContourError(
            f"minimum contour modulus {integrator.min_modulus:.3e} below guard {guard:.3e}; "
            "nudge the region boundary away from the suspected zero"
        )
    return int(nearest)


def contour_min_modulus(f, region: Region, n: int = 128) -> float:
    """Cheap uniform sample of min |f| along the contour (diagnostic)."""
    lo = math.inf
    for edge in region.edges():
        for t in np.linspace(0.0, 1.0, n // 4, endpoint=False):
            if edge[0] == "seg":
                _, a, b = edge
                z = a + (b - a) * t
            else:
                _, c, r, th0, th1 = edge
                z = c + r * cmath.exp(1j * (th0 + (th1 - th0) * t))
            lo = min(lo, abs(complex(f(z))))
    return lo


def _newton_polish(f, z0: complex, cell: Region, params: QuadParams, fscale: float):
    box = cell.bounding_rectangle()
    grown = Region.rectangle(
        box.re_lo - 0.5 * cell.diameter,
        box.re_hi + 0.5 * cell.diameter,
        box.im_lo - 0.5 * cell.diameter,
        box.im_hi + 0.5 * cell.diameter,
    )
    z = z0
    for _ in range(60):
        f0 = complex(f(z))
        if abs(f0) <= 1e-10 * fscale:
            return z, abs(f0)
        h = _fd_step(z, params)
        d = (complex(f(z + h)) - complex(f(z - h))) / (2.0 * h)
        if d == 0:
            return None
        step = f0 / d
        z = z - step
        if not grown.contains(z):
            return None
        if abs(step) <= 1e-14 * max(1.0, abs(z)):
            return z, abs(complex(f(z)))
    f0 = abs(complex(f(z)))
    return (z, f0) if f0 <= 1e-8 * fscale else None


def _subdivide(cell: Region, shift_re: float, shift_im: float):
    mid_re = cell.re_lo + (cell.re_hi - cell.re_lo) * (0.5 + shift_re)
    mid_im = cell.im_lo + (cell.im_hi - cell.im_lo) * (0.5 + shift_im)
    return [
        Region.rectangle(cell.re_lo, mid_re, cell.im_lo, mid_im),
        Region.rectangle(mid_re, cell.re_hi, cell.im_lo, mid_im),
        Region.rectangle(cell.re_lo, mid_re, mid_im, cell.im_hi),
        Region.rectangle(mid_re, cell.re_hi, mid_im, cell.im_hi),
    ]


_NUDGES = (0.0, 0.13, -0.13, 0.29, -0.29, 0.41)


def _cell_fscale(f, cell: Region) -> float:
    samples = []
    for edge in cell.edges():
        _, a, b = edge
        for t in (0.25, 0.75):
            samples.append(abs(complex(f(a + (b - a) * t))))
    med = float(np.median(samples)) if samples else 1.0
    return max(med, 1e-300)


def locate_zeros(
    f,
    region: Region,
    params: QuadParams | None = None,
    min_diameter: float | None = None,
    budget: int = 4000,
) -> ZeroReport:
    """Locate and refine all zeros of ``f`` in the region.

    Quadtree subdivision until each cell winds at most once (or hits the
    minimum diameter, which then sets the reported multiplicity), Newton
    polish to residual < 1e-10 x local scale.  A budget exhaustion returns a
    partial report flagged ``complete=False``.
    """
    params = params or QuadParams()
    if min_diameter is None:
        min_diameter = 1e-8 * region.scale

    report = ZeroReport()
    report.contour_min_modulus = contour_min_modulus(f, region)
    total = winding_count(f, region, params)
    report.winding_total = total
    if total == 0:
        return report

    outer = region.bounding_rectangle()
    if region.kind == "disk":
        # work on the bounding box; its winding may exceed the disk's
        total = winding_count(f, outer, params)

    used = 0
    found = []
    stack = [(outer, total)]
    while stack:
        cell, wind = stack.pop()
        if used >= budget:
            report.complete = False
            break
        center = complex(0.5 * (cell.re_lo + cell.re_hi), 0.5 * (cell.im_lo + cell.im_hi))
        if cell.diameter <= min_diameter:
            found.append(LocatedZero(center, wind, abs(complex(f(center)))))
            continue
        if wind == 1:
            polished = _newton_polish(f, center, cell, params, _cell_fscale(f, cell))
            if polished is not None and cell.contains(polished[0]):
                found.append(LocatedZero(polished[0], 1, polished[1]))
                continue
        # split with a retry ladder of midpoint shifts; children partition the
        # cell exactly, and their windings must sum to the parent's
        for idx, shift in enumerate(_NUDGES):
            try:
                children = _subdivide(cell, shift * 0.37, shift)
                child_winds = [winding_count(f, ch, params) for ch in children]
                used += len(children)
                if sum(child_winds) == wind:
                    stack.extend(
                        (ch, w) for ch, w in zip(children, child_winds) if w > 0
                    )
                    break
            except ContourError:
                used += 1
                continue
        else:
            # every split failed: for a cell already near the floor this is a
            # multiple zero pinching the contour guard; accept it as a leaf
            if cell.diameter <= 1e3 * min_diameter:
                found.append(LocatedZero(center, wind, abs(complex(f(center)))))
            else:
                report.complete = False

    if region.kind == "disk":
        found = [z for z in found if region.contains(z.location)]
    found.sort(key=lambda z: (z.location.real, z.location.imag))
    report.zeros = found
    if report.complete and sum(z.multiplicity for z in found) != report.winding_total:
        report.complete = False
    return report


def rouche_compare(f, g, region: Region, n_init: int = 64, n_max: int = 4096):
    """sup |f - g| / |g| over the contour, with the Rouche domination verdict.

    ``g`` must not vanish on the sampled contour.  The sample is doubled
    until the supremum stabilizes to 0.1% or the cap is reached.
    """
    edges = region.edges()

    def sample(n: int) -> float:
        worst = 0.0
        for edge in edges:
            for t in np.linspace(0.0, 1.0, n // len(edges), endpoint=False):
                if edge[0] == "seg":
                    _, a, b = edge
                    z = a + (b - a) * t
                else:
                    _, c, r, th0, th1 = edge
                    z = c + r * cmath.exp(1j * (th0 + (th1 - th0) * t))
                gz = complex(g(z))
                if abs(gz) < 1e-300:
                    raise StepSpectraError(f"g vanishes at contour sample {z!r}")
                worst = max(worst, abs(complex(f(z)) - gz) / abs(gz))
        return worst

    n = n_init
    ratio = sample(n)
    while n < n_max:
        n *= 2
        new_ratio = sample(n)
        if abs(new_ratio - ratio) <= 1e-3 * max(new_ratio, 1e-30):
            ratio = new_ratio
            break
        ratio = new_ratio
    return ratio, ratio < 1.0


# ---------------------------------------------------------------------------
# Lambert-W census of the purely imaginary step potential
# ---------------------------------------------------------------------------

#: The four resonance ladders of the step: (parity, factor sign).  The
#: exponential approximations of the parity secular functions factor as
#: 2*kappa*e^{i*kappa*R} = s*sqrt(V0) (odd) and = s*i*sqrt(V0) (even).
FAMILIES = (("odd", +1), ("odd", -1), ("even", +1), ("even", -1))


class BranchResult(NamedTuple):
    """One Lambert branch of one ladder, refined against the exact secular."""

    n: int
    parity: str
    sign: int
    kappa_seed: complex
    kappa_refined: complex
    energy: complex
    on_physical_sheet: bool
    residual: float
    converged: bool


def _family_target(parity: str, sign: int, v0: complex, R: float) -> complex:
    root = cmath.sqrt(v0)
    if parity == "odd":
        return 1j * sign * root * R / 2.0
    return -sign * root * R / 2.0


def imag_step_seed(N: int, n, parity: str = "odd", sign: int = +1):
    """Lambert-W branch seed kappa = -i W_n(target)/R for the (parity, sign) ladder
    (an array of seeds for an int array ``n``)."""
    v0, R = 1j, float(N)
    w = lambert_w(n, _family_target(parity, sign, v0, R))
    return -1j * w / R


def _trig_sq(parity: str, w):
    """(csc^2 w, cot w) for odd, (sec^2 w, tan w) for even, elementwise;
    beyond |Im w| = 350 both come from e^{+-2iw}, which cannot overflow."""
    w = np.asarray(w, dtype=complex)
    odd = parity == "odd"
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        den, num = (np.sin(w), np.cos(w)) if odd else (np.cos(w), np.sin(w))
        sq, t = 1.0 / (den * den), num / den
    far = np.abs(w.imag) > 350.0
    if far.any():
        sgn, up = (1.0 if odd else -1.0), w.imag > 0.0
        e = np.exp(np.where(up, 2j, -2j) * np.where(far, w, 0.0))
        u = 1.0 + 2.0 * sgn * e
        sq = np.where(far, -4.0 * sgn * e * u, sq)
        t = np.where(far, np.where(up, -1j, 1j) * sgn * u, t)
    return sq, t


def _secular_terms(parity: str, v0: complex, R: float, kappa):
    """The secular v0 + kappa^2 csc^2(kappa R) (odd) or v0 + kappa^2 sec^2(kappa R)
    (even), its kappa-derivative and cot/tan, elementwise from one trig call."""
    w = kappa * R
    sq, t = _trig_sq(parity, w)
    wt = -w * t if parity == "odd" else w * t
    return v0 + kappa * kappa * sq, 2.0 * kappa * sq * (1.0 + wt), t


def _secular_kappa(parity: str, v0: complex, R: float, kappa):
    return _secular_terms(parity, v0, R, kappa)[0]


def _refine_ladder(N: int, ns, parity: str, sign: int, tol: float, max_iter: int) -> dict:
    """Newton over the branch array ``ns`` of one ladder: the record columns.
    A branch stops unconverged at a zero derivative or as soon as an iterate
    leaves the hop disk |kappa - seed| <= 0.75*pi/R, keeping the last inside."""
    v0, R = 1j, float(N)
    seed = imag_step_seed(N, ns, parity, sign)
    hop = 0.75 * math.pi / R
    kappa, res = seed.copy(), np.full(seed.shape, math.inf)
    # chi at convergence: the matched exterior momentum -i*kappa*cot (odd) or
    # i*kappa*tan (even), which is even in kappa
    converged, chi = np.zeros(seed.shape, dtype=bool), np.zeros(seed.shape, dtype=complex)
    idx, ka = np.arange(seed.size), seed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            fval, d, t = _secular_terms(parity, v0, R, ka)
            res[idx] = np.abs(fval)
            hit = res[idx] <= tol
            converged[idx[hit]] = True
            chi[idx[hit]] = (-1j if parity == "odd" else 1j) * ka[hit] * t[hit]
            k_new = ka - fval / d
            go = ~hit & (d != 0) & (np.abs(k_new - seed[idx]) <= hop)
            idx, ka = idx[go], k_new[go]
            kappa[idx] = ka
            if not idx.size:
                break
    # the secular is even in kappa: report the upper-half representative
    seed_can = np.where(seed.imag >= 0.0, seed, -seed)
    kappa = np.where(kappa.imag < 0.0, -kappa, kappa)
    # a hop beyond half the ladder spacing, or onto the mirrored ladder side,
    # means the branch refined into a neighbor's zero
    converged &= np.abs(kappa - seed_can) <= hop
    converged &= ~((kappa.real * seed_can.real < 0.0)
                   & (np.minimum(np.abs(kappa.real), np.abs(seed_can.real)) > 0.1 / R))
    return {"kappa_seed": seed, "kappa_refined": kappa, "energy": kappa * kappa + v0,
            "on_physical_sheet": converged & (chi.imag > 0.0), "residual": res,
            "converged": converged}


def _ladders(N: int, n_window: tuple[int, int], families, tol: float, max_iter: int):
    """Per family in (parity, sign) order: the refined columns and their records."""
    if N < 8:
        raise ValueError(f"census requires N >= 8, got {N}")
    lo, hi = n_window
    if lo > hi:
        raise ValueError(f"empty n window {n_window}")
    ns = np.arange(lo, hi + 1)
    ladders = []
    for parity, sign in sorted(families):
        cols = _refine_ladder(N, ns, parity, sign, tol, max_iter)
        rows = zip(ns.tolist(), [parity] * ns.size, [sign] * ns.size,
                   *(cols[name].tolist() for name in BranchResult._fields[3:]))
        ladders.append((cols, list(map(BranchResult._make, rows))))
    return ladders


def enumerate_imag_step(
    N: int,
    n_window: tuple[int, int],
    families=FAMILIES,
    tol: float = 1e-9,
    max_iter: int = 60,
) -> list[BranchResult]:
    """Resonance ladder of V = i*1_[-N,N]: Lambert seeds, Newton refinement,
    physical-sheet flags, as records sorted by (n, parity, sign).

    ``n_window = (lo, hi)`` is inclusive; each window entry is refined once
    per requested family.  A branch whose Newton run stalls or leaves its hop
    disk is flagged (``converged=False``) rather than fatal.
    """
    ladders = _ladders(N, n_window, families, tol, max_iter)
    return [r for group in zip(*(recs for _, recs in ladders)) for r in group]


@dataclass(frozen=True)
class CensusResult:
    """``certified``: every unconverged branch's seed and final energies lie outside
    the box grown by one ladder spacing 2*pi*|kappa|/N; ``uncertified``: those that do not."""

    N: int
    count: int
    ratio: float
    box: Region
    results: tuple
    certified: bool
    uncertified: tuple

    def table_row(self) -> dict:
        return {
            "N": self.N,
            "count": self.count,
            "ratio": self.ratio,
            "box_re_lo": self.box.re_lo,
            "box_re_hi": self.box.re_hi,
            "box_im_lo": self.box.im_lo,
            "box_im_hi": self.box.im_hi,
        }


def census_box(N: int, C_box: float = 10.0) -> Region:
    lnN = math.log(N)
    return Region.rectangle(
        N * N / (C_box * lnN * lnN), C_box * N * N / (lnN * lnN), 1.0 / C_box, C_box
    )


def census_window(N: int, C_box: float = 10.0) -> tuple[int, int]:
    """Symmetric branch window wide enough to cover the census box."""
    box = census_box(N, C_box)
    kappa_max = math.sqrt(box.re_hi + box.im_hi + 2.0)
    n_max = int(math.ceil((kappa_max * N + 2.0 * math.pi) / (2.0 * math.pi))) + 2
    return (-n_max, n_max)


def _in_box(box: Region, E, pad=0.0):
    return ((box.re_lo - pad <= E.real) & (E.real <= box.re_hi + pad)
            & (box.im_lo - pad <= E.imag) & (E.imag <= box.im_hi + pad))


def imag_step_census(
    N: int,
    C_box: float = 10.0,
    n_window: tuple[int, int] | None = None,
    families=FAMILIES,
) -> CensusResult:
    """Count physical-sheet ladder energies inside the census box.

    Emits (N, count, count*log(N)/N^2) plus the box, for the locality-violation
    scaling check.  Duplicate refined energies across families are counted once.
    """
    if N < 8:
        raise ValueError(f"census requires N >= 8, got {N}")
    box = census_box(N, C_box)
    if n_window is None:
        n_window = census_window(N, C_box)
    ladders = _ladders(N, n_window, families, 1e-9, 60)
    results = tuple(r for group in zip(*(recs for _, recs in ladders)) for r in group)
    hits, uncertified = [], []
    for cols, recs in ladders:
        E, conv, seed = cols["energy"], cols["converged"], cols["kappa_seed"]
        hits.append(E[conv & cols["on_physical_sheet"] & _in_box(box, E)])
        near = (_in_box(box, seed * seed + 1j, 2.0 * math.pi * np.abs(seed) / N)
                | _in_box(box, E, 2.0 * math.pi * np.abs(cols["kappa_refined"]) / N))
        uncertified += [recs[i] for i in np.flatnonzero(~conv & near)]
    count, last = 0, None
    for e in sorted(np.concatenate(hits).tolist(), key=lambda e: (e.real, e.imag)):
        if last is None or abs(e - last) >= 1e-6 * max(1.0, abs(e)):
            count, last = count + 1, e
    ratio = count * math.log(N) / (N * N)
    return CensusResult(N=N, count=count, ratio=ratio, box=box, results=results,
                        certified=not uncertified,
                        uncertified=tuple(sorted(uncertified, key=lambda r: r[:3])))
