"""Analytic zero counting and localization, plus the imaginary-step census.

Contours are walked on 16-node Gauss-Legendre panels, a level of panels at a
time (one call of f per level when f is ``vectorized``, else one per node),
halved until the halves give a panel's integrals of u^k log f (k = 0, 1, 2)
and arg f moves by under pi/3 between nodes; the winding sums those steps.
Rectangle edges are sinh-graded toward E = 0 (Region.panels): the threshold
is the one singularity of the global and radial secular functions and lies
next to every eigenvalue, so graded nodes settle there without the deep
bisection that evenly spaced nodes need.
Zeros come from the same values (Delves & Lyness 1967; Kravanja & Van Barel
1999): with u = (z - centre)/half-diameter and u0 the first vertex, s_p =
sum m_k u_k^p = N*u0^p - (p/2 pi i) oint u^(p-1) log f du.  The rank of H0 =
[s_(i+j)] counts distinct zeros, the pencil (H1, H0) places them, a Vandermonde
solve gives multiplicities, and the secant method polishes simple zeros.  A
cell is split in four only when it winds over four times, a polished zero
leaves it, or multiplicities do not add up; a cluster that makes H0 rank
deficient is first solved again on a small disk.

The census of V = i*1_[-N,N] refines each resonance ladder as numpy arrays
over the branch number n, with Lambert-W seeds and a per-branch Newton stop.
It counts and certifies from those columns; the BranchResult records are built
only on demand (CensusResult.results on first read, enumerate_imag_step).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ContourError
from .special_functions import lambert_w
from .step_model import _secular_terms

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
#: Gauss-Legendre nodes and weights on [0, 1]
_GL_T = 0.5 * (1.0 + _GL_X)
_GL_W = 0.5 * _GL_W
#: largest step of arg f between consecutive nodes
_MAX_STEP = math.pi / 3.0
#: most bisections of one panel
_MAX_REFINE = 28
#: a panel's integrals of u^k log f must match its halves' to this, per unit length
_MOMENT_TOL = 1e-9
#: a node with |f| below this times the region's scale raises ContourError
_GUARD_FACTOR = 1e-12
#: a cell below this times the region's scale reports its centre, the winding as
#: multiplicity
_MIN_DIAMETER = 1e-8
#: most zeros, with multiplicity, that one cell's moments solve
_MAX_ZEROS = 4
#: singular values of H0 below this fraction of the largest count as zero
_RANK_TOL = 1e-9
#: least grading scale of a rectangle edge that misses 0, times its length
_GRADE_FLOOR = 1e-12


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
        if not all(map(math.isfinite, (re_lo, re_hi, im_lo, im_hi))):
            raise ValueError("rectangle needs finite bounds")
        if not (re_lo < re_hi and im_lo < im_hi):
            raise ValueError("rectangle needs re_lo < re_hi and im_lo < im_hi")
        return Region("rectangle", re_lo=re_lo, re_hi=re_hi, im_lo=im_lo, im_hi=im_hi)

    @staticmethod
    def disk(center: complex, radius: float) -> "Region":
        center = complex(center)
        if not (cmath.isfinite(center) and math.isfinite(radius)):
            raise ValueError("disk needs a finite centre and radius")
        if not radius > 0:
            raise ValueError("disk needs a positive radius")
        return Region("disk", center=center, radius=radius)

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

    @cached_property
    def _grading(self):
        """Per rectangle edge 0-3, as arrays: the direction u, the offset h of the
        edge's line from 0, the grading scale d, sigma at the edge's start and its
        growth along the edge (see ``panels``)."""
        corners = np.array([
            complex(self.re_lo, self.im_lo),
            complex(self.re_hi, self.im_lo),
            complex(self.re_hi, self.im_hi),
            complex(self.re_lo, self.im_hi),
            complex(self.re_lo, self.im_lo),
        ])
        # z = u*(s + i*h): u the edge's direction, s from sa to sb along it, h
        # its line's offset from 0
        u = np.array([1.0, 1j, -1.0, -1j])
        w = corners[:4] * u.conjugate()
        sa, h = w.real, w.imag
        sb = (corners[1:] * u.conjugate()).real
        length = sb - sa
        d = np.hypot(h, np.clip(0.0, sa, sb))
        d = np.where(d > 0.0, np.maximum(d, _GRADE_FLOOR * length), 0.5 * length)
        x, y = sa / d, sb / d
        rx, ry = np.hypot(1.0, x), np.hypot(1.0, y)
        ax, ay = np.abs(x), np.abs(y)
        # asinh(y) - asinh(x) = asinh(y*rx - x*ry), whose terms cancel when x and
        # y share a sign: there it is (y^2 - x^2)/(y*rx + x*ry), y - x = length/d
        dsig = np.arcsinh(np.where(x * y > 0.0, length / d * (ax + ay) / (ay * rx + ax * ry),
                                   y * rx - x * ry))
        return u, h, d, np.arcsinh(x), dsig

    def panels(self, edges, t0, t1):
        """Nodes and dz weights, (len(edges), 16), of panels [t0[i], t1[i]] on edge
        edges[i] (0-3) from the corner (re_lo, im_lo) or the angle 0, counterclockwise.

        A rectangle edge is graded toward E = 0, the one singularity of the secular
        functions: with s the coordinate along the edge's line from its point
        nearest 0 and d the edge's distance from 0 (at least _GRADE_FLOOR of its
        length; its half-length if it reaches 0), s = d*sinh(sigma) for sigma
        linear in t."""
        edges = np.asarray(edges)[:, None]
        t0 = np.asarray(t0, dtype=float)[:, None]
        span = np.asarray(t1, dtype=float)[:, None] - t0
        t = t0 + span * _GL_T
        if self.kind == "rectangle":
            u, h, d, sig0, dsig = (a[edges] for a in self._grading)
            sig = sig0 + dsig * t
            return u * (d * np.sinh(sig) + 1j * h), u * d * np.cosh(sig) * dsig * span * _GL_W
        rot = self.radius * np.exp(0.5j * math.pi * (edges + t))
        return self.center + rot, 0.5j * math.pi * span * _GL_W * rot


@dataclass(frozen=True)
class LocatedZero:
    location: complex
    multiplicity: int
    residual: float


@dataclass
class SolverStats:
    """What one ``locate_zeros`` call did (never in CSV or JSON): points f was evaluated at,
    calls of f, panels accepted, the deepest panel bisection, contours walked, cells split
    in four, splits redone with shifted midpoints, secant steps, smallest |f| at a node."""

    evaluations: int = 0
    calls: int = 0
    panels: int = 0
    max_depth: int = 0
    cells: int = 0
    splits: int = 0
    nudges: int = 0
    polish_iterations: int = 0
    min_modulus: float = math.inf


@dataclass
class ZeroReport:
    zeros: list = field(default_factory=list)
    winding_total: int = 0
    contour_min_modulus: float = math.inf
    complete: bool = True
    stats: SolverStats = field(default_factory=SolverStats)

    def locations(self):
        return [z.location for z in self.zeros]


#: 16 nodes on one edge: z, dz, f, |f|, arg f, its largest step and oint u^k log f dz
_Panel = namedtuple("_Panel", "edge t0 t1 depth z dz v mods args step moments")


class _Contour:
    """f on the adaptive panels of one region's contour: the winding, the
    smallest |f| and the power sums of the enclosed zeros."""

    def __init__(self, f, region: Region, stats: SolverStats):
        self.f = f
        self.region = region
        if region.kind == "rectangle":
            self.c = complex(0.5 * (region.re_lo + region.re_hi),
                             0.5 * (region.im_lo + region.im_hi))
        else:
            self.c = region.center
        self.h = 0.5 * region.diameter
        # halve the unsettled panels of all four edges a level at a time
        level = self._build([0, 1, 2, 3], [0.0] * 4, [1.0] * 4, [0] * 4)
        leaves = []
        while level:
            halves = self._halves(level)
            next_level = []
            for p, left, right in zip(level, halves[::2], halves[1::2]):
                tol = _MOMENT_TOL * float(np.abs(p.dz).sum())
                settled = max(left.step, right.step) < _MAX_STEP and np.all(
                    np.abs(p.moments - left.moments - right.moments) <= tol)
                (leaves if settled else next_level).extend((left, right))
            level = next_level
        leaves.sort(key=lambda p: (p.edge, p.t0))
        # then the panels on either side of a large step, wrap-around included
        while True:
            v = np.concatenate([p.v for p in leaves])
            steps = np.angle(v / np.roll(v, 1))
            jumps = np.flatnonzero(np.abs(steps) >= _MAX_STEP)
            if not jumps.size:
                break
            bad = set((jumps // 16).tolist()) | set(((jumps - 1) % v.size // 16).tolist())
            halves = iter(self._halves([leaves[i] for i in sorted(bad)]))
            leaves = [q for i, p in enumerate(leaves)
                      for q in ((next(halves), next(halves)) if i in bad else (p,))]
        self.leaves = leaves
        self.v = v
        self.args = np.angle(v[0]) + np.cumsum(steps) - steps[0]
        low = int(np.argmin(np.abs(v)))
        self.min_modulus = float(abs(v[low]))
        stats.cells += 1
        stats.panels += len(leaves)
        stats.max_depth = max(stats.max_depth, int(max(p.depth for p in leaves)))
        stats.min_modulus = min(stats.min_modulus, self.min_modulus)
        guard = _GUARD_FACTOR * region.scale
        if self.min_modulus < guard:
            p = leaves[low // 16]
            raise self._error(f"|f| below the guard {guard:.3e}; nudge the region", p.edge,
                              p.t0 + (p.t1 - p.t0) * _GL_T[low % 16], self.min_modulus)
        self.winding = round(float(steps.sum()) / (2.0 * math.pi))

    def _build(self, edges, t0, t1, depth, prev=None, a=None) -> list:
        """Panels [t0[i], t1[i]] of edge ``edges[i]``, evaluated, with arg f
        continued along each pair of panels j from the value prev[j] of
        argument a[j], or without ``prev`` along each panel from its first node."""
        z, dz = self.region.panels(edges, t0, t1)
        v = self.f(z.ravel())
        mods = np.abs(v)
        bad = np.flatnonzero(~((mods > 0.0) & (mods < math.inf)))
        if bad.size:
            i, j = divmod(int(bad[0]), 16)
            raise self._error("f is zero or not finite on the contour; nudge the region",
                              edges[i], t0[i] + (t1[i] - t0[i]) * _GL_T[j], mods[bad[0]])
        v = v.reshape(-1, 16 if prev is None else 32)
        if prev is None:
            prev = v[:, 0]
            a = np.angle(prev)
        steps = np.angle(v / np.column_stack((prev, v[:, :-1])))
        args = (np.asarray(a)[:, None] + np.cumsum(steps, axis=1)).reshape(-1, 16)
        u = (z - self.c) / self.h
        mods = mods.reshape(-1, 16)
        w = (np.log(mods) + 1j * args) * dz
        moments = np.stack((w.sum(1), (w * u).sum(1), (w * u * u).sum(1)), axis=1)
        worst = np.abs(steps).reshape(-1, 16).max(1)
        return list(map(_Panel, edges, t0, t1, depth, z, dz, v.reshape(-1, 16), mods, args,
                        worst, moments))

    def _error(self, message: str, edge, t, modulus) -> ContourError:
        """ContourError at parameter t of an edge, with the node there."""
        point = self.region.panels([edge], [t], [t])[0][0, 0]  # a zero-length panel
        return ContourError(message, int(edge), float(t), float(modulus), complex(point))

    def _halves(self, panels: list) -> list:
        """Both halves of each panel, arg f continued from its first node."""
        for p in panels:
            if p.depth >= _MAX_REFINE:
                raise self._error(f"no settled panel after {p.depth} bisections; nudge the region",
                                  p.edge, 0.5 * (p.t0 + p.t1), float(p.mods.min()))
        t = np.array([(p.t0, 0.5 * (p.t0 + p.t1), p.t1) for p in panels])
        return self._build(np.repeat([p.edge for p in panels], 2), t[:, :2].ravel(),
                           t[:, 1:].ravel(), np.repeat([p.depth + 1 for p in panels], 2),
                           [p.v[0] for p in panels], [p.args[0] for p in panels])

    def power_sums(self, n: int) -> np.ndarray:
        """s_0 .. s_(n-1), n >= 2, of the enclosed zeros in u = (z - center)/h."""
        u = (np.concatenate([p.z for p in self.leaves]) - self.c) / self.h
        du = np.concatenate([p.dz for p in self.leaves]) / self.h
        first = self.region.panels([0], [0.0], [0.0])[0][0, 0]  # zero-length: the first vertex
        p = np.arange(n)
        s = self.winding * ((first - self.c) / self.h) ** p + 0j
        logs = np.log(np.abs(self.v)) + 1j * self.args
        s[1:] -= p[1:] / (2j * math.pi) * (np.vander(u, n - 1, increasing=True).T @ (logs * du))
        return s


def _counted(f, stats: SolverStats):
    """f as the engine calls it, at one point or on a 1-d node array, counting
    points and calls: a node array in one call when f is ``vectorized``, else
    one call per node."""
    vectorized = getattr(f, "vectorized", False)

    def g(z):
        n = np.size(z)
        stats.evaluations += n
        stats.calls += 1 if vectorized or np.ndim(z) == 0 else n
        if np.ndim(z) == 0:
            return complex(f(z))
        return np.asarray(f(z) if vectorized else [complex(f(x)) for x in z.tolist()], dtype=complex)

    return g


def winding_count(f, region: Region) -> int:
    """Number of zeros of ``f`` enclosed by the region, by the argument principle.
    A zero on or hugging the contour raises :class:`ContourError`, which says where."""
    stats = SolverStats()
    return _Contour(_counted(f, stats), region, stats).winding


def _secant(f, z0: complex, con: _Contour, stats: SolverStats):
    """Secant steps from z0 until one is below 1e-10 relative: the simple zero, or
    None if an iterate leaves |z - center| <= 1.5 h or 16 steps do not settle."""
    za = z0
    zb = z0 + 1e-7 * con.h
    fa = f(za)
    fb = f(zb)
    for _ in range(16):
        if fb == 0:
            break
        if fb == fa:
            return None
        step = fb * (zb - za) / (fb - fa)
        za = zb
        fa = fb
        zb = zb - step
        if abs(zb - con.c) > 1.5 * con.h:
            return None
        fb = f(zb)
        stats.polish_iterations += 1
        if abs(step) <= 1e-10 * max(1.0, abs(zb)):
            break
    else:
        return None
    return LocatedZero(zb, 1, abs(fb)) if abs(fb) <= abs(fa) else LocatedZero(za, 1, abs(fa))


def _moment_zeros(f, cell: Region, con: _Contour, stats: SolverStats, multiple: bool):
    """The zeros of f in ``cell`` from its contour's power sums, or None when the
    cell has to be split.  A rank-deficient H0 means a multiple zero or zeros
    closer than the moments resolve: unless ``multiple`` accepts it, each such
    cluster is solved again on a disk of a thousandth of the cell's size."""
    n = con.winding
    s = con.power_sums(2 * n)
    idx = np.add.outer(np.arange(n), np.arange(n))
    h0 = s[idx]
    h1 = s[idx + 1]
    sv = np.linalg.svd(h0, compute_uv=False)
    r = int(np.count_nonzero(sv > _RANK_TOL * sv[0]))
    us = np.linalg.eigvals(np.linalg.solve(h0[:r, :r], h1[:r, :r]))
    m = np.linalg.solve(np.vander(us, r, increasing=True).T, s[:r])
    mult = np.rint(m.real)
    if np.any(np.abs(m - mult) > 0.1) or np.any(mult < 1) or mult.sum() != n:
        return None
    zeros = []
    for z, k in zip((con.c + con.h * us).tolist(), mult.astype(int).tolist()):
        if k == 1:
            hit = _secant(f, z, con, stats)
            found = hit and [hit]
        elif multiple:
            # the secant is only linear at a multiple zero: keep the pencil value
            found = [LocatedZero(z, k, abs(f(z)))]
        else:
            disk = Region.disk(z, 1e-3 * con.h)
            try:
                sub = _Contour(f, disk, stats)
            except ContourError:
                return None
            found = _moment_zeros(f, disk, sub, stats, True) if sub.winding == k else None
        if found is None:
            return None
        for q in found:
            if not cell.contains(q.location) or any(
                    abs(q.location - p.location) <= 1e-8 * con.h for p in zeros):
                return None
            zeros.append(q)
    return zeros


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


def locate_zeros(f, region: Region, budget: int = 4000) -> ZeroReport:
    """Locate and refine all zeros of ``f`` in the region from contour moments.

    A cell whose moments do not give its zeros is split in four (a disk falls back
    to its bounding box) down to ``_MIN_DIAMETER`` of the region's scale, where the
    centre is reported with the winding as multiplicity.  Exhausting ``budget``
    child contours flags the report ``complete=False``; ``report.stats`` counts
    the work.

    ``f`` maps a complex number to one.  If it has a true attribute
    ``vectorized``, it must also map a 1-d complex array to the array of its
    values; each refinement level of a contour is then one call of ``f``."""
    min_diameter = _MIN_DIAMETER * region.scale
    floor = 1e3 * min_diameter  # a cell this small may report a multiple zero
    stats = SolverStats()
    f = _counted(f, stats)
    top = _Contour(f, region, stats)
    report = ZeroReport(winding_total=top.winding, contour_min_modulus=top.min_modulus,
                        stats=stats)

    used = 0
    found = []
    stack = [(region, top)] if top.winding else []
    while stack:
        cell, con = stack.pop()
        if used >= budget:
            report.complete = False
            break
        wind = con.winding
        if cell.diameter <= min_diameter:
            found.append(LocatedZero(con.c, wind, abs(f(con.c))))
            continue
        zeros = (_moment_zeros(f, cell, con, stats, cell.diameter <= floor)
                 if wind <= _MAX_ZEROS else None)
        if zeros is not None:
            found += zeros
            continue
        if cell.kind == "disk":
            box = cell.bounding_rectangle()
            stack.append((box, _Contour(f, box, stats)))
            continue
        # split with a retry ladder of midpoint shifts; children partition the
        # cell exactly, and their windings must sum to the parent's
        for shift in _NUDGES:
            try:
                children = [(ch, _Contour(f, ch, stats))
                            for ch in _subdivide(cell, shift * 0.37, shift)]
            except ContourError:
                used += 1
                stats.nudges += 1
                continue
            used += len(children)
            if sum(c.winding for _, c in children) == wind:
                stats.splits += 1
                stack += [(ch, c) for ch, c in children if c.winding > 0]
                break
            stats.nudges += 1
        else:
            # every split failed: near the floor, a multiple zero pinching the guard
            if cell.diameter <= floor:
                found.append(LocatedZero(con.c, wind, abs(f(con.c))))
            else:
                report.complete = False

    if region.kind == "disk":
        found = [z for z in found if region.contains(z.location)]
    found.sort(key=lambda z: (z.location.real, z.location.imag))
    report.zeros = found
    if report.complete and sum(z.multiplicity for z in found) != report.winding_total:
        report.complete = False
    return report


# ---------------------------------------------------------------------------
# Lambert-W census of the purely imaginary step potential
# ---------------------------------------------------------------------------

#: The four resonance ladders of the step: (parity, factor sign).  The
#: exponential approximations of the parity secular functions factor as
#: 2*kappa*e^{i*kappa*R} = s*sqrt(V0) (odd) and = s*i*sqrt(V0) (even).
FAMILIES = (("odd", +1), ("odd", -1), ("even", +1), ("even", -1))
#: a branch converges once |secular| is below this, within this many Newton steps
_NEWTON_TOL = 1e-9
_NEWTON_MAX_ITER = 60


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


def imag_step_seed(N: int, n, parity: str = "odd", sign: int = +1):
    """Lambert-W branch seed kappa = -i W_n(target)/R for the (parity, sign) ladder
    (an array of seeds for an int array ``n``)."""
    root, R = cmath.sqrt(1j), float(N)
    target = 1j * sign * root * R / 2.0 if parity == "odd" else -sign * root * R / 2.0
    return -1j * lambert_w(n, target) / R


def _refine_ladder(N: int, ns, parity: str, sign: int) -> dict:
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
        for _ in range(_NEWTON_MAX_ITER):
            fval, d, t = _secular_terms(parity, v0, R, ka)
            res[idx] = np.abs(fval)
            hit = res[idx] <= _NEWTON_TOL
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


def _require_census_N(N: int) -> None:
    if N < 8:
        raise ValueError(f"census requires N >= 8, got {N}")


def _ladders(N: int, n_window: tuple[int, int], families):
    """Per family in (parity, sign) order: (parity, sign, ns, refined columns)."""
    _require_census_N(N)
    lo, hi = n_window
    if lo > hi:
        raise ValueError(f"empty n window {n_window}")
    ns = np.arange(lo, hi + 1)
    return [(parity, sign, ns, _refine_ladder(N, ns, parity, sign))
            for parity, sign in sorted(families)]


def _records(ladder, idx) -> list[BranchResult]:
    """The records of one ladder's branches at the indices ``idx``."""
    parity, sign, ns, cols = ladder
    rows = zip(ns[idx].tolist(), *(cols[name][idx].tolist() for name in BranchResult._fields[3:]))
    return [BranchResult(n, parity, sign, *rest) for n, *rest in rows]


def _all_records(ladders) -> tuple:
    """Every branch of every ladder, sorted by (n, parity, sign)."""
    return tuple(r for group in zip(*(_records(lad, slice(None)) for lad in ladders)) for r in group)


def enumerate_imag_step(N: int, n_window: tuple[int, int],
                        families=FAMILIES) -> list[BranchResult]:
    """Resonance ladder of V = i*1_[-N,N]: Lambert seeds, Newton refinement,
    physical-sheet flags, as records sorted by (n, parity, sign).

    ``n_window = (lo, hi)`` is inclusive; each window entry is refined once
    per requested family.  A branch whose Newton run stalls or leaves its hop
    disk is flagged (``converged=False``) rather than fatal.
    """
    return list(_all_records(_ladders(N, n_window, families)))


@dataclass(frozen=True)
class CensusResult:
    """``certified``: every unconverged branch's seed and final energies lie outside
    the box grown by one ladder spacing 2*pi*|kappa|/N; ``uncertified``: those that do
    not.  ``results``, every branch as a record, is built from ``ladders`` on demand."""

    N: int
    count: int
    ratio: float
    box: Region
    certified: bool
    uncertified: tuple
    unconverged: int
    ladders: list = field(repr=False, compare=False)

    @cached_property
    def results(self) -> tuple:
        return _all_records(self.ladders)

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
    """[N^2/(C log^2 N), C N^2/log^2 N] x [1/C, C] for C = ``C_box``, a finite C > 1."""
    _require_census_N(N)
    if not 1.0 < C_box < math.inf:
        raise ValueError(f"census box needs a finite C_box > 1, got {C_box}")
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


def imag_step_census(N: int, C_box: float = 10.0) -> CensusResult:
    """Count physical-sheet ladder energies inside the census box.

    Emits (N, count, count*log(N)/N^2) plus the box, for the locality-violation
    scaling check.  Duplicate refined energies across families are counted once.
    """
    box = census_box(N, C_box)
    ladders = _ladders(N, census_window(N, C_box), FAMILIES)
    hits, uncertified, unconverged = [], [], 0
    for ladder in ladders:
        cols = ladder[3]
        E, conv, seed = cols["energy"], cols["converged"], cols["kappa_seed"]
        hits.append(E[conv & cols["on_physical_sheet"] & _in_box(box, E)])
        near = (_in_box(box, seed * seed + 1j, 2.0 * math.pi * np.abs(seed) / N)
                | _in_box(box, E, 2.0 * math.pi * np.abs(cols["kappa_refined"]) / N))
        uncertified += _records(ladder, np.flatnonzero(~conv & near))
        unconverged += int(np.count_nonzero(~conv))
    count, last = 0, None
    for e in sorted(np.concatenate(hits).tolist(), key=lambda e: (e.real, e.imag)):
        if last is None or abs(e - last) >= 1e-6 * max(1.0, abs(e)):
            count, last = count + 1, e
    ratio = count * math.log(N) / (N * N)
    return CensusResult(N=N, count=count, ratio=ratio, box=box, certified=not uncertified,
                        uncertified=tuple(sorted(uncertified, key=lambda r: r[:3])),
                        unconverged=unconverged, ladders=ladders)
