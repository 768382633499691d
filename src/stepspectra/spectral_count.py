"""Analytic zero counting and localization, plus the imaginary-step census.

Contours are walked on 16-node Gauss-Legendre panels, a level of panels at a
time (when f is ``vectorized``, one call of f for the four edges and their
eight halves, then one per level; else one per node), halved until the halves
give a panel's integrals of u^k log f (k = 0, 1, 2) and arg f moves by under
pi/3 between nodes; the winding sums those steps.  Only f zero or not finite
at a node, the bisection cap or the point bound fails a contour.
Rectangle edges are sinh-graded toward E = 0 (Region.panels): the threshold
is the one singularity of the global and radial secular functions and lies
next to every eigenvalue, so graded nodes settle there without the deep
bisection that evenly spaced nodes need.
Zeros come from the same values (Delves & Lyness 1967; Kravanja & Van Barel
1999): with u = (z - centre)/half-diameter and u0 the first vertex, s_p =
sum m_k u_k^p = N*u0^p - (p/2 pi i) oint u^(p-1) log f du.  The rank of H0 =
[s_(i+j)] counts distinct zeros, the pencil (H1, H0) places them, a Vandermonde
solve gives multiplicities, and the secant method polishes simple zeros.  A
cell is split in four only when a polished zero leaves it or meets another, or
multiplicities do not add up; a cluster that makes H0 rank deficient is one
multiple zero in a cell below the floor, else solved again on a small disk.

The census of V = i*1_[-N,N] cuts each resonance ladder's window of branch numbers n into
blocks of 32 and decides a block whole where closed-form bounds, its values at its centre
plus half its width times derivative bounds in a real n, prove every branch in it
unreachable, outside the box, or inside it and off the physical sheet.  The other blocks'
branches, of all four ladders in one array with a family column, go in chunks: seeded from
W's asymptotic series, a ladder's from its own z, no Halley step (Lambert W only at |n| < 12
in reach of the box), the even ladders by W_n(conj z) = conj W_-n(z); then each branch whose
hop disk, widened by its seed's error bound, can reach the box is certified in one array
pass by one closed form for both parities: one zero in a disk around its seed, and the
disk's box and sheet.  Newton, a ladder at a time with a per-branch stop, refines only those
the certificate leaves undecided (at N = 32..256, 7 of the 5,596 certified, of 54,993
reachable, all on a box edge) or whose error could change the dedupe.  The result keeps the
counted energies and their error radii.
CensusResult.results and enumerate_imag_step, Newton on the full window from Lambert seeds,
are the independent oracle that no package code reads.
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
from .special_functions import _TWO_PI, _w_series, lambert_w
from .step_model import _secular_terms

#: the positive half of the 16-node Gauss-Legendre rule on [-1, 1], as
#: numpy.polynomial.legendre.leggauss(16) gives it (nodes and weights are symmetric)
_GL_HALF_X = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
              0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499)
_GL_HALF_W = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
              0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176)
_GL_X = np.concatenate((np.negative(_GL_HALF_X[::-1]), _GL_HALF_X))
#: Gauss-Legendre nodes and weights on [0, 1]
_GL_T = 0.5 * (1.0 + _GL_X)
_GL_W = 0.5 * np.concatenate((_GL_HALF_W[::-1], _GL_HALF_W))
#: largest step of arg f between consecutive nodes
_MAX_STEP = math.pi / 3.0
#: most bisections of one panel
_MAX_REFINE = 28
#: most points f is evaluated at in one locate_zeros or winding_count call; a
#: contour whose next level of panels would pass it raises ContourError
_MAX_POINTS = 2**20
#: a panel's integrals of u^k log f must match its halves' to this, per unit length
_MOMENT_TOL = 1e-9
#: a cell at most this times the region's scale reports a cluster as one multiple zero
_MULTIPLE_FLOOR = 1e-5
#: singular values of H0 below this fraction of the largest count as zero
_RANK_TOL = 1e-9
#: least grading scale of a rectangle edge that misses 0, times its length
_GRADE_FLOOR = 1e-12
#: least radius or side of a region, in float spacings at its largest coordinate
_MIN_ULPS = 1000
#: the direction of rectangle edge 0-3
_U = np.array([1.0, 1j, -1.0, -1j])


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

    def __post_init__(self):
        if self.kind == "rectangle":
            lo, hi = complex(self.re_lo, self.im_lo), complex(self.re_hi, self.im_hi)
            if not (cmath.isfinite(lo) and cmath.isfinite(hi)):
                raise ValueError("rectangle needs finite bounds")
            if not (lo.real < hi.real and lo.imag < hi.imag):
                raise ValueError("rectangle needs re_lo < re_hi and im_lo < im_hi")
            size, side = min(hi.real - lo.real, hi.imag - lo.imag), "side"
            at = max(map(abs, (lo.real, lo.imag, hi.real, hi.imag)))
            center = complex(0.5 * (lo.real + hi.real), 0.5 * (lo.imag + hi.imag))
        elif self.kind == "disk":
            center, size, side = complex(self.center), self.radius, "radius"
            if not (cmath.isfinite(center) and math.isfinite(size)):
                raise ValueError("disk needs a finite centre and radius")
            if not size > 0:
                raise ValueError("disk needs a positive radius")
            at = max(abs(center.real), abs(center.imag)) + size
        else:
            raise ValueError(f"region kind must be 'rectangle' or 'disk', got {self.kind!r}")
        if size < _MIN_ULPS * math.ulp(at):  # the nodes would round onto a few floats
            raise ValueError(f"{self.kind} {side} below {_MIN_ULPS} float spacings at its coordinates")
        object.__setattr__(self, "center", center)

    @staticmethod
    def rectangle(re_lo: float, re_hi: float, im_lo: float, im_hi: float) -> "Region":
        return Region("rectangle", re_lo=re_lo, re_hi=re_hi, im_lo=im_lo, im_hi=im_hi)

    @staticmethod
    def disk(center: complex, radius: float) -> "Region":
        return Region("disk", center=center, radius=radius)

    def contains(self, z: complex) -> bool:
        z = complex(z)
        if self.kind == "rectangle":
            return self.re_lo <= z.real <= self.re_hi and self.im_lo <= z.imag <= self.im_hi
        return abs(z - self.center) <= self.radius

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
        """Rows per rectangle edge 0-3: the offset h of the edge's line from 0, the
        grading scale d, sigma at the edge's start and its growth along the edge
        (see ``panels``)."""
        lo, hi = complex(self.re_lo, self.im_lo), complex(self.re_hi, self.im_hi)
        corners = np.array([lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag), lo])
        # z = u*(s + i*h): u the edge's direction, s from sa to sb along it, h
        # its line's offset from 0
        w = corners[:4] * _U.conjugate()
        sa, h = w.real, w.imag
        sb = (corners[1:] * _U.conjugate()).real
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
        return np.array((h, d, np.arcsinh(x), dsig))

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
            u, (h, d, sig0, dsig) = _U[edges], self._grading[:, edges]
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
    calls of f (an array f takes a contour's edges with their halves in one, then one per
    level), panels accepted, the deepest panel bisection, contours walked, cells split in
    four, splits redone with shifted midpoints, secant steps, smallest |f| at a node."""

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


#: 16 nodes on one edge: z, dz, f, arg f; Python numbers: largest step, oint u^k log f dz, sum |dz|
_Panel = namedtuple("_Panel", "edge t0 t1 depth z dz v args step moments length")
#: a contour's four edges, then their eight halves: edge, t0, t1 and depth per panel
_ROOTS = ([0, 1, 2, 3, 0, 0, 1, 1, 2, 2, 3, 3], [0.0] * 4 + [0.0, 0.5] * 4,
          [1.0] * 4 + [0.5, 1.0] * 4, [0] * 4 + [1] * 8)


def _walk(v, prev, a):
    """Steps and values of arg f along each row of v from the value prev of argument a."""
    q = v / np.concatenate((np.asarray(prev)[:, None], v[:, :-1]), axis=1)
    steps = np.arctan2(q.imag, q.real)
    return steps.reshape(-1, 16), (np.asarray(a)[:, None] + steps.cumsum(axis=1)).reshape(-1, 16)


class _Contour:
    """f on the adaptive panels of one region's contour: the winding, the
    smallest |f| and the power sums of the enclosed zeros."""

    def __init__(self, f, region: Region, stats: SolverStats):
        self.f = f
        self.region = region
        self.stats = stats
        self.c = region.center
        self.h = 0.5 * region.diameter
        # the four edges and their eight halves in one call of f, then the unsettled
        # panels halved a level at a time
        if stats.evaluations + 192 > _MAX_POINTS:  # no |f| yet at the first panel
            raise self._error(f"f did not settle within {_MAX_POINTS} points", 0, 0.5, math.nan)
        built = self._build(*_ROOTS)
        level, halves = built[:4], built[4:]
        leaves = []
        while level:
            halves = halves or self._halves(level)
            next_level = []
            for p, left, right in zip(level, halves[::2], halves[1::2]):
                tol = _MOMENT_TOL * p.length
                settled = max(left.step, right.step) < _MAX_STEP and all(
                    [abs(m - a - b) <= tol for m, a, b in zip(p.moments, left.moments, right.moments)])
                (leaves if settled else next_level).extend((left, right))
            level, halves = next_level, []
        leaves.sort(key=lambda p: (p.edge, p.t0))
        # then the panels on either side of a large step, wrap-around included
        while True:
            v = np.concatenate([p.v for p in leaves])
            q = v / np.concatenate((v[-1:], v[:-1]))
            steps = np.arctan2(q.imag, q.real)
            jumps = (np.abs(steps) >= _MAX_STEP).nonzero()[0]
            if not jumps.size:
                break
            bad = set((jumps // 16).tolist()) | set(((jumps - 1) % v.size // 16).tolist())
            halves = iter(self._halves([leaves[i] for i in sorted(bad)]))
            leaves = [q for i, p in enumerate(leaves)
                      for q in ((next(halves), next(halves)) if i in bad else (p,))]
        self.leaves = leaves
        mods = np.abs(v)
        self.logs = np.log(mods) + 1j * (np.arctan2(v.imag[:1], v.real[:1]) + steps.cumsum() - steps[0])
        self.min_modulus = float(abs(v[mods.argmin()]))  # np.abs(v) may differ in the last bit
        stats.cells += 1
        stats.panels += len(leaves)
        stats.max_depth = max(stats.max_depth, *[p.depth for p in leaves])
        stats.min_modulus = min(stats.min_modulus, self.min_modulus)
        self.winding = round(float(np.add.reduce(steps)) / (2.0 * math.pi))

    def _build(self, edges, t0, t1, depth, prev=None, a=None) -> list:
        """Panels [t0[i], t1[i]] of edge ``edges[i]``, f at all their nodes in one
        call, with arg f continued along each pair of panels j from the value
        prev[j] of argument a[j].  Without ``prev`` they are ``_ROOTS``: each edge
        is walked from its first node, and any halves from their edge's."""
        z, dz = self.region.panels(edges, t0, t1)
        v = self.f(z.ravel())
        mods = np.abs(v)
        ok = (mods > 0.0) & (mods < math.inf)
        if not np.logical_and.reduce(ok):
            i, j = divmod(int(ok.argmin()), 16)
            raise self._error("f is zero or not finite on the contour; nudge the region",
                              edges[i], t0[i] + (t1[i] - t0[i]) * _GL_T[j], mods[~ok][0])
        v = v.reshape(-1, 16)
        if prev is None:  # each edge from its first node, then any halves from the edge's
            steps, args = _walk(v[:4], v[:4, 0], np.arctan2(v.imag[:4, 0], v.real[:4, 0]))
            if len(v) > 4:
                steps, args = (np.concatenate(pair) for pair in zip(
                    (steps, args), _walk(v[4:].reshape(4, 32), v[:4, 0], args[:, 0])))
        else:
            steps, args = _walk(v.reshape(-1, 32), prev, a)
        u = (z - self.c) / self.h
        w = (np.log(mods).reshape(-1, 16) + 1j * args) * dz
        wu = w * u
        moments = np.add.reduce(np.array((w, wu, wu * u)), axis=2).T.tolist()
        worst = np.maximum.reduce(np.abs(steps), axis=1).tolist()
        length = np.add.reduce(np.abs(dz), axis=1).tolist()
        return list(map(_Panel, edges, t0, t1, depth, z, dz, v, args, worst, moments, length))

    def _error(self, message: str, edge, t, modulus) -> ContourError:
        """ContourError at parameter t of an edge, with the node there."""
        point = self.region.panels([edge], [t], [t])[0][0, 0]  # a zero-length panel
        return ContourError(message, int(edge), float(t), float(modulus), complex(point))

    def _halves(self, panels: list) -> list:
        """Both halves of each panel, arg f continued from its first node."""
        for p in panels:
            if p.depth >= _MAX_REFINE:
                raise self._error(f"no settled panel after {p.depth} bisections; nudge the region",
                                  p.edge, 0.5 * (p.t0 + p.t1), float(np.abs(p.v).min()))
        if self.stats.evaluations + 32 * len(panels) > _MAX_POINTS:
            p = panels[0]
            raise self._error(f"f did not settle within {_MAX_POINTS} points", p.edge,
                              0.5 * (p.t0 + p.t1), float(np.abs(p.v).min()))
        rows = [(p.edge, t0, t1, p.depth + 1) for p in panels
                for mid in (0.5 * (p.t0 + p.t1),) for t0, t1 in ((p.t0, mid), (mid, p.t1))]
        return self._build(*zip(*rows), [p.v[0] for p in panels], [p.args[0] for p in panels])

    def power_sums(self, n: int) -> np.ndarray:
        """s_0 .. s_(n-1), n >= 2, of the enclosed zeros in u = (z - center)/h."""
        u = (np.concatenate([p.z for p in self.leaves]) - self.c) / self.h
        du = np.concatenate([p.dz for p in self.leaves]) / self.h
        first = self.region.panels([0], [0.0], [0.0])[0][0, 0]  # zero-length: the first vertex
        s = self.winding * ((first - self.c) / self.h) ** np.arange(n) + 0j
        w = (self.logs - self.logs.real.mean()) * du  # less a constant, so c*f gives the same sums
        for p in range(1, n):
            s[p] -= p / (2j * math.pi) * np.add.reduce(w)
            w *= u
        return s


def _counted(f, stats: SolverStats):
    """f as the engine calls it, at one point or on a 1-d node array (a contour's
    edges with their halves, or one level), counting points and calls: a node
    array in one call when f is ``vectorized``, else one call per node."""
    vectorized = getattr(f, "vectorized", False)

    def g(z):
        if not isinstance(z, np.ndarray) or not z.ndim:  # one point
            stats.evaluations += 1
            stats.calls += 1
            return complex(f(z))
        stats.evaluations += z.size
        stats.calls += 1 if vectorized else z.size
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
    za, zb = z0, z0 + 1e-7 * con.h
    fa, fb = f(za), f(zb)
    for _ in range(16):
        if fb == 0:
            break
        if fb == fa:
            return None
        step = fb * (zb - za) / (fb - fa)
        za, fa, zb = zb, fb, zb - step
        if abs(zb - con.c) > 1.5 * con.h:
            return None
        fb = f(zb)
        stats.polish_iterations += 1
        if abs(step) <= 1e-10 * max(1.0, abs(zb)):
            break
    else:
        return None
    return LocatedZero(zb, 1, abs(fb)) if abs(fb) <= abs(fa) else LocatedZero(za, 1, abs(fa))


def _moment_zeros(f, cell: Region, con: _Contour, stats: SolverStats, floor: float):
    """The zeros of f in ``cell`` from its contour's power sums, or None when the
    cell has to be split.  A rank-deficient H0 means a multiple zero or zeros
    closer than the moments resolve: a cell at most ``floor`` across reports such
    a cluster as one multiple zero, and a larger one solves it again, by the same
    rule, on a disk of a thousandth of the cell's size."""
    n = con.winding
    s = con.power_sums(2 * n)
    idx = np.add.outer(np.arange(n), np.arange(n))
    h0, h1 = s[idx], s[idx + 1]
    sv = np.linalg.svd(h0, compute_uv=False)
    r = int(np.count_nonzero(sv > _RANK_TOL * sv[0]))
    us = np.linalg.eigvals(np.linalg.solve(h0[:r, :r], h1[:r, :r]))
    m = np.linalg.solve(np.vander(us, r, increasing=True).T, s[:r])
    mult = np.rint(m.real)
    if np.logical_or.reduce((np.abs(m - mult) > 0.1) | (mult < 1)) or np.add.reduce(mult) != n:
        return None
    zeros = []
    for z, k in zip((con.c + con.h * us).tolist(), mult.astype(int).tolist()):
        if k == 1:
            hit = _secant(f, z, con, stats)
            found = hit and [hit]
        elif cell.diameter <= floor:
            # the secant is only linear at a multiple zero: keep the pencil value
            found = [LocatedZero(z, k, abs(f(z)))]
        else:
            disk = Region.disk(z, 1e-3 * con.h)
            try:
                sub = _Contour(f, disk, stats)
            except ContourError:
                return None
            found = _moment_zeros(f, disk, sub, stats, floor) if sub.winding == k else None
        if found is None:
            return None
        # a cluster disk's zeros are already distinct at its own scale: judge them
        # only against the zeros of earlier entries
        if any(not cell.contains(q.location) or any(
                abs(q.location - p.location) <= 1e-8 * con.h for p in zeros) for q in found):
            return None
        zeros += found
    return zeros


def _subdivide(cell: Region, shift: float):
    """A cell's replacements at one step of the nudge ladder: a disk's bounding box
    grown by the step, or a rectangle's quarters about a midpoint shifted by it."""
    if cell.kind == "disk":
        c, r = cell.center, (1.0 + shift) * cell.radius
        return [Region.rectangle(c.real - r, c.real + r, c.imag - r, c.imag + r)]
    mid_re = cell.re_lo + (cell.re_hi - cell.re_lo) * (0.5 + shift * 0.37)
    mid_im = cell.im_lo + (cell.im_hi - cell.im_lo) * (0.5 + shift)
    return [
        Region.rectangle(cell.re_lo, mid_re, cell.im_lo, mid_im),
        Region.rectangle(mid_re, cell.re_hi, cell.im_lo, mid_im),
        Region.rectangle(cell.re_lo, mid_re, mid_im, cell.im_hi),
        Region.rectangle(mid_re, cell.re_hi, mid_im, cell.im_hi),
    ]


_NUDGES = (0.0, 0.13, -0.13, 0.29, -0.29, 0.41)


def locate_zeros(f, region: Region) -> ZeroReport:
    """Locate and refine all zeros of ``f`` in the region from contour moments.

    Every zero reported is one a Hankel pencil placed.  A cell whose moments do not
    give its zeros is split in four (a disk falls back to its bounding box); only a
    cell at most ``_MULTIPLE_FLOOR`` of the region's scale across reports a multiple
    zero, and a cell that never resolves ends when the call's contours reach
    ``_MAX_POINTS`` points.  A split or box whose contours do not settle is retried along
    ``_NUDGES`` (shifted midpoints, grown boxes); when every retry fails the report
    is ``complete=False``, never a guess (the region's own contour raises ContourError).
    ``report.stats`` counts the work.

    ``f`` maps a complex number to one.  If it has a true attribute
    ``vectorized``, it must also map a 1-d complex array to the array of its
    values, each the value at that node alone; a contour's four edges with
    their eight halves are then one call of ``f``, and each further level one."""
    floor = _MULTIPLE_FLOOR * region.scale
    stats = SolverStats()
    f = _counted(f, stats)
    top = _Contour(f, region, stats)
    report = ZeroReport(winding_total=top.winding, contour_min_modulus=top.min_modulus,
                        stats=stats)

    found = []
    stack = [(region, top)] if top.winding else []
    while stack:
        cell, con = stack.pop()
        wind = con.winding
        zeros = _moment_zeros(f, cell, con, stats, floor)
        if zeros is not None:
            found += zeros
            continue
        # a disk falls back to its bounding box, grown while the box's contour fails;
        # a rectangle's children partition it, and their windings must sum to its own
        disk = cell.kind == "disk"
        for shift in [s for s in _NUDGES if s >= 0] if disk else _NUDGES:
            try:
                children = [(ch, _Contour(f, ch, stats)) for ch in _subdivide(cell, shift)]
            except ContourError:
                stats.nudges += 1
                continue
            if disk or sum(c.winding for _, c in children) == wind:
                stats.splits += not disk
                stack += [(ch, c) for ch, c in children if c.winding > 0]
                break
            stats.nudges += 1
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
#: a branch converges only within the hop disk |kappa - seed| <= _HOP/N
_HOP = 0.75 * math.pi
#: the census pads a hop disk's reach in E by this fraction of the largest |E| there, for rounding
_HOP_SLACK = 1e-9
#: c of the odd ladders' factor 2*kappa*e^{i*kappa*R} = s*c; the even ladders' is i*c
_ROOT_I = cmath.sqrt(1j)
#: per family of FAMILIES, c and sigma of ``_certify``'s H = 2 kappa p - c (1 - sigma p^2):
#: s sqrt(i) and 1 on the odd ladders, s i sqrt(i) and -1 on the even ones
_C = np.array([s * (_ROOT_I if parity == "odd" else 1j * _ROOT_I) for parity, s in FAMILIES])
_SIGMA = np.array([1.0 if parity == "odd" else -1.0 for parity, _ in FAMILIES])
#: the certificate's disk radius in Newton steps |H/H'| (Rouche needs more than one)
_CERT_STEPS = 2.0
_EPS = 2.0**-52  # the float64 epsilon
#: the census's series seed errs in W by under _SERIES_C/(2 pi (|n| - 3/8))^3 <= _SERIES_C/|L1|^3
#: from |n| = _SERIES_N on (below 1e-6), and by under _POOR_PAD below it (0.063 at n = 0)
_SERIES_N, _SERIES_C, _POOR_PAD = 12, 0.5, 0.25
#: the census bounds a ladder's branches a block of _BLOCK at a time, and takes blocks, and
#: the branches of the blocks it leaves undecided, _CHUNK at a time, so its arrays stay small
_BLOCK, _CHUNK = 32, 4096


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


def imag_step_seed(N: int, n, sign: int = +1):
    """Lambert-W branch seed kappa = -i W_n(i*sign*sqrt(i)*N/2)/N for the odd ladder
    of this sign (an array of seeds for an int array ``n``); the even ladders are
    its mirror images (``_ladders``)."""
    R = float(N)
    return -1j * lambert_w(n, 1j * sign * cmath.sqrt(1j) * R / 2.0) / R


def _census_seed(N: int, n, sign: int = +1):
    """imag_step_seed from W's asymptotic series alone, with no Halley step or branch check:
    the seed that the census certifies, within ``_series_pad`` of imag_step_seed's at |n| >= 12."""
    return -1j * _w_series(n, 1j * sign * _ROOT_I * N / 2.0) / N


def _refine_ladder(N: int, seed, parity: str) -> dict:
    """Newton from the seed array of one ladder: the record columns.
    A branch stops unconverged at a zero derivative or as soon as an iterate
    leaves the hop disk |kappa - seed| <= _HOP/N, keeping the last inside."""
    v0, R, hop = 1j, float(N), _HOP / N
    kappa, res = seed.copy(), np.full(seed.shape, math.inf)
    # chi at convergence: the matched exterior momentum i*kappa*r, even in kappa
    converged, chi = np.zeros(seed.shape, dtype=bool), np.zeros(seed.shape, dtype=complex)
    idx, ka, sd = np.arange(seed.size), seed, seed  # the running branches' index, iterate, seed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            fval, d, r = _secular_terms(parity, v0, R, ka)
            res[idx] = mod = np.abs(fval)
            hit = mod <= _NEWTON_TOL
            converged[idx[hit]] = True
            chi[idx[hit]] = 1j * ka[hit] * r[hit]
            k_new = ka - fval / d
            go = ~hit & (d != 0) & (np.abs(k_new - sd) <= hop)
            idx, ka, sd = idx[go], k_new[go], sd[go]
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


def _reachable(box: Region, seed, N: int, pad=0.0):
    """The seeds s whose branch can converge into the box: E = kappa^2 + i with
    |kappa -+ s| <= hop lies within hop*(2|s| + hop) of E_s = s^2 + i.  ``pad``, a bound on
    each seed's distance from imag_step_seed's, widens hop to keep every branch that reaches."""
    hop, E_s = _HOP / N + pad, seed * seed + 1j
    reach = hop * (2.0 * np.abs(seed) + hop)
    return _depth(box, E_s) >= -(reach + _HOP_SLACK * (np.abs(E_s) + reach))


def _seeds(N: int, ns, parity: str, sign: int, seed_of):
    """One ladder's seeds at the branch numbers ``ns``: the odd ones ``seed_of(N, ns, sign)``
    (imag_step_seed or _census_seed), the even ones their mirror images, by W_n(conj z) =
    conj W_-n(z)."""
    return seed_of(N, ns, sign) if parity == "odd" else -np.conj(seed_of(N, -ns, sign))


def _ladders(N: int, n_window: tuple[int, int], families):
    """Per family in (parity, sign) order: (parity, sign, ns, imag_step_seed's seeds)."""
    _require_census_N(N)
    lo, hi = n_window
    if lo > hi:
        raise ValueError(f"empty n window {n_window}")
    if unknown := [f for f in families if tuple(f) not in FAMILIES]:
        raise ValueError(f"unknown ladder families {unknown}, not in {FAMILIES}")
    ns = np.arange(lo, hi + 1)
    for parity, sign in sorted(families):
        yield parity, sign, ns, _seeds(N, ns, parity, sign, imag_step_seed)


def _rounding(N: int, top: int) -> float:
    """The certificate's relative rounding u of p0 = e^{i kappa0 N} and of each sum, 16 eps
    (N |kappa0| + 4), for every seed of the window |n| <= top: N |kappa0| = |W| <= |L1| +
    |log L1| + 1 with |L1| <= log(N/2) + pi + 2 pi top."""
    L1 = math.log(N / 2.0) + math.pi + _TWO_PI * top
    return 16.0 * _EPS * (L1 + math.log(L1) + math.pi + 5.0)


def _certify(N: int, seed, fam, u: float):
    """A closed-form one-zero certificate per seed kappa0 of ladder FAMILIES[fam]: (rho, ok, chi,
    dchi, err).  One formula serves both parities: with p = e^{i kappa N} and q = sigma p^2, c
    and sigma = +-1 the family's (``_C``, ``_SIGMA``), the ladder's zeros of the parity secular
    are those of H(kappa) = 2 kappa p - c (1 - q), and the seed solves 2 kappa p = c.  By Rouche
    against H's linear part at kappa0, the disk |kappa - kappa0| <= rho, rho = _CERT_STEPS Newton
    steps, holds exactly one zero of H when |H(kappa0)| + M rho^2/2 < |H'(kappa0)| rho, with
    M >= |H''| on the disk from |p| <= |p0| e^{N rho}; ``ok`` says so for a disk inside the hop
    disk.  At a zero, chi = i kappa r = kappa (1 + q)/(q - 1); over the disk it moves from its
    value at kappa0 by less than ``dchi``, padded by _HOP_SLACK of |chi| for Newton's own error,
    and E = kappa^2 + i by less than ``err`` from kappa0^2 + i, padded as the reach is.  Every
    bound is padded by ``u`` (``_rounding``) for the rounding of p0, one exp per seed."""
    R, k, c = float(N), seed, _C.take(fam)
    with np.errstate(all="ignore"):
        p = np.exp(k * (1j * R))
        q = _SIGMA.take(fam) * (p * p)
        g, h = k * p, c * q  # kappa p and c q
        ak, ap = np.abs(k), np.exp(-R * k.imag)
        akp, aq = ak * ap, ap * ap
        f_hi = np.abs(2.0 * g + h - c) + u * (2.0 * akp + 1.0 + aq)
        df_lo = np.abs(2.0 * p + (2j * R) * (g + h)) - 2.0 * u * (ap + R * (akp + aq))
        rho = _CERT_STEPS * f_hi / df_lo
        P, K = ap * ((1.0 + u) * np.exp(R * rho)), ak + rho  # bound |p| and |kappa| on the disk
        Q, D = P * P, 1.0 - P * P  # |q| <= Q and |1 - q| >= D on the disk
        M = (1.0 + u) * R * P * (4.0 + 2.0 * R * K + 4.0 * R * P)
        chi = k * ((1.0 + q) / (q - 1.0))
        dchi = (rho * ((1.0 + Q) / D + 4.0 * R * K * Q / (D * D))
                + (u + _HOP_SLACK) * ak * (1.0 + aq) / D + _HOP_SLACK)
        ok = ((df_lo > 0.0) & (D > 0.0) & (rho < _HOP / R)
              & (f_hi + 0.5 * M * rho * rho < df_lo * rho))
        err = rho * (2.0 * ak + rho)
        err += _HOP_SLACK * (ak * ak + 1.0 + err)
    return rho, ok, chi, dchi, err


def _series_pad(N: int, ns):
    """Each series seed's distance bound from imag_step_seed's over the branch numbers ns, in
    closed form from |n|; 0 on the poor entries |n| < _SERIES_N, which ``_chunk_seeds``
    judges apart."""
    an = np.abs(ns)
    return np.where(an < _SERIES_N, 0.0, _SERIES_C / (N * (_TWO_PI * (an - 0.375)) ** 3))


def _block_bounds(N: int, box: Region, odd, sign, a, b, u: float):
    """Bounds over each block a <= n <= b of the ladder (odd or even, sign), the four arrays
    broadcast, on what ``_certify`` gives each branch: (decided, rho, chi_lo, chi_hi,
    depth_lo, depth_hi), with rho >= each rho, chi.imag -+ dchi in [chi_lo, chi_hi] and
    depth -+ err in [depth_lo, depth_hi], depth = _depth(box, kappa0^2 + i).

    The seed is kappa(t) = -i w(t)/N at t = n, w = W_t's series (``_w_series``) at the odd
    ladder's z, at conj z for the even one, and p = e^{i kappa N} = e^v, v = w - 2 pi i t, at
    integers.  v moves slowly: |v'| <= V1, from the series' derivative in L1 = log z + 2 pi i t.
    So each bound is its value at the block's centre plus half the width times a bound on its
    derivative in t.  |H| and |H'| come from H = c (e^delta - 1 +- p^2), delta the series
    residual (|delta| <= 2 N pad), which keeps |H| at the size of |p|^2 over the block.  A block is
    decided when none of its branches can reach the box, or when the certificate holds for
    each and puts each outside the box, or inside it and off the physical sheet; blocks
    holding |n| < _SERIES_N never are.  Each bound is padded by 2u to 6u for the rounding of
    a branch's own seed and p0, and by _HOP_SLACK for its own."""
    R, hw, tc = float(N), 0.5 * (b - a), 0.5 * (a + b)
    up, lo = 1.0 + _HOP_SLACK, 1.0 - _HOP_SLACK
    z = 1j * sign * _ROOT_I * R / 2.0
    z = np.where(odd, z, np.conj(z))
    L1 = np.log(z) + (2j * math.pi) * tc
    least = np.hypot(L1.real, np.maximum(np.abs(L1.imag) - _TWO_PI * hw, 0.0))  # of |L1|
    T, l = 1.0 / least, np.hypot(np.log(np.abs(L1) + _TWO_PI * hw), math.pi)  # l >= |log L1|
    V1 = _TWO_PI * T * (1.0 + T * (1.0 + l + T * (1.0 + l * (3.0 + l)
                                                  + T * (1.0 + l * (6.0 + l * (5.5 + l))))))
    nmin = np.where(a * b <= 0, 0, np.minimum(np.abs(a), np.abs(b)))
    pad = _series_pad(N, nmin)
    with np.errstate(all="ignore"):
        w = _w_series(tc, z)
        k, v = -1j * w / R, w - (2j * math.pi) * tc
        K1 = (_TWO_PI + V1) / R  # |kappa'|
        AK, TA, VA = np.abs(k) + hw * K1, np.abs(tc) + hw, np.abs(v) + hw * V1
        AP = (1.0 + u) * np.exp(v.real + hw * V1)  # |p| and |p|^2 on the block
        AQ = AP * AP
        F = up * (np.expm1(2.0 * R * pad) + AQ + 3.0 * u * (2.0 * AK * AP + 1.0 + AQ))
        G = lo * (R * np.exp(-2.0 * R * pad) - 2.0 * AP - 2.0 * R * AQ
                  - 6.0 * u * (AP + R * (AK * AP + AQ)))
        rho = _CERT_STEPS * F / G
        P, K = AP * ((1.0 + u) * np.exp(R * rho)), AK + rho
        Q, D = P * P, 1.0 - P * P
        M = (1.0 + u) * R * P * (4.0 + 2.0 * R * K + 4.0 * R * P)
        ok = ((nmin >= _SERIES_N) & (G > 0.0) & (D > 0.0) & (rho < _HOP / R)
              & (F + 0.5 * M * rho * rho < lo * G * rho))
        # chi = -kappa r, r = (1 + q)/(1 - q) = 1 +- 2 p^2/(1 -+ p^2): |r - 1| <= X1, |r'| <= X2
        q = np.where(odd, 1.0, -1.0) * np.exp(2.0 * v)
        chi = -k * (1.0 + q) / (1.0 - q)
        X1, X2 = 2.0 * AQ / (1.0 - AQ), 4.0 * V1 * AQ / (1.0 - AQ) ** 2
        dchi = (up * rho * ((1.0 + Q) / D + 4.0 * R * K * Q / (D * D))
                + hw * (_TWO_PI * X1 + V1 * (1.0 + X1) + (_TWO_PI * TA + VA) * X2) / R
                + (6.0 * u + 3.0 * _HOP_SLACK) * AK * (1.0 + AQ) / D + 3.0 * _HOP_SLACK)
        # E = i - w^2/N^2: Re E and Im E move by under dre and dim over the block
        E, ep = k * k + 1j, _HOP_SLACK * (AK * AK + 1.0)
        dre = hw * (8.0 * math.pi * math.pi * TA + 4.0 * math.pi * (VA + TA * V1) + 2.0 * VA * V1)
        dim = hw * (4.0 * math.pi * (VA + TA * V1) + 4.0 * VA * V1)
        spread = (dre / (R * R) + ep) + 1j * (dim / (R * R) + ep)
        err = up * (up * rho * (2.0 * AK + rho) + _HOP_SLACK * (AK * AK + 1.0))
        hop = _HOP / R + pad
        reach = hop * (2.0 * AK + hop)
        top = _depth(box, E, -spread)
        far = (nmin >= _SERIES_N) & (top + up * (reach + _HOP_SLACK * (
            np.abs(E) + np.abs(spread) + reach)) < 0.0)
        depth_lo, depth_hi = _depth(box, E, spread) - err, top + err
        chi_lo, chi_hi = chi.imag - dchi, chi.imag + dchi
        decided = far | (ok & ((depth_hi < 0.0) | ((depth_lo >= 0.0) & (chi_hi < 0.0))))
    return decided, rho, chi_lo, chi_hi, depth_lo, depth_hi


def _undecided(N: int, box: Region, n_window: tuple[int, int], u: float):
    """The window in blocks of _BLOCK branches, one centred on n = 0 so that it holds every poor
    entry: the branch numbers of all four ladders' blocks that ``_block_bounds`` leaves
    undecided, grouped by family, their family column (int8), and the number of blocks decided."""
    lo, hi = n_window
    start = np.arange(lo - (lo + _BLOCK // 2) % _BLOCK, hi + 1, _BLOCK)
    a, b = np.maximum(start, lo), np.minimum(start + _BLOCK - 1, hi)
    odd, sign = np.array([[parity == "odd", sign] for parity, sign in FAMILIES]).T[:, :, None]
    decided = np.concatenate([_block_bounds(N, box, odd, sign, a[i:i + _CHUNK],
                                            b[i:i + _CHUNK], u)[0]
                              for i in range(0, a.size, _CHUNK)], axis=1)
    fam, block = np.nonzero(~decided)
    size = (b - a + 1)[block]
    ns = np.repeat(a[block] + size - np.cumsum(size), size) + np.arange(size.sum())
    return ns, np.repeat(fam.astype(np.int8), size), int(decided.sum())


def _families(fam):
    """(parity, sign, slice) of each family present in a family column grouped by family."""
    cut = np.searchsorted(fam, np.arange(len(FAMILIES) + 1, dtype=np.int8)).tolist()
    return [(*FAMILIES[f], slice(i, j)) for f, (i, j) in enumerate(zip(cut, cut[1:])) if i < j]


def _chunk_seeds(N: int, box: Region, ns, fam):
    """Seeds of the branches ``ns`` of the families ``fam`` (grouped by family), each ladder's
    by _census_seed from its own z, its poor entries by imag_step_seed where theirs, padded by
    _POOR_PAD, can reach the box; and the mask of those that can, hops padded by ``_series_pad``."""
    seeds = [_seeds(N, ns[part], *ladder, _census_seed) for *ladder, part in _families(fam)]
    seed = seeds[0] if len(seeds) == 1 else np.concatenate(seeds)  # a copy only across ladders
    poor = np.flatnonzero(np.abs(ns) < _SERIES_N)
    for parity, sign, part in _families(fam[poor]):
        if _reachable(box, seed[poor[part]], N, _POOR_PAD / N).any():
            seed[poor[part]] = _seeds(N, ns[poor[part]], parity, sign, imag_step_seed)
    return seed, _reachable(box, seed, N, _series_pad(N, ns))


def _records(ladder, idx) -> list[BranchResult]:
    """The records of one ladder's branches at the indices ``idx``."""
    parity, sign, ns, cols = ladder
    rows = zip(ns[idx].tolist(), *(cols[name][idx].tolist() for name in BranchResult._fields[3:]))
    return [BranchResult(n, parity, sign, *rest) for n, *rest in rows]


def enumerate_imag_step(N: int, n_window: tuple[int, int],
                        families=FAMILIES) -> list[BranchResult]:
    """Resonance ladder of V = i*1_[-N,N]: Lambert seeds, Newton refinement,
    physical-sheet flags, as records sorted by (n, parity, sign).

    ``n_window = (lo, hi)`` is inclusive; each window entry is refined once
    per requested family.  A branch whose Newton run stalls or leaves its hop
    disk is flagged (``converged=False``) rather than fatal.
    """
    ladders = ((parity, sign, ns, _refine_ladder(N, seed, parity))
               for parity, sign, ns, seed in _ladders(N, n_window, families))
    return [r for group in zip(*(_records(lad, slice(None)) for lad in ladders)) for r in group]


@dataclass(frozen=True)
class CensusResult:
    """``blocks`` counts the blocks of branch numbers decided whole by their bounds, none of
    whose branches could be counted.  ``branches`` counts the reachable branches of the
    other blocks, those whose hop disk can reach the box, each certified one at a time.
    ``refined`` counts those that Newton refined, where the certificate left the zero,
    the box or the sheet undecided, or the dedupe.  ``uncertified`` lists the refined
    branches that did not converge, each of which could have been counted; ``certified``
    says it is empty.  ``energies`` are the counted energies in the dedupe's sorted order,
    each its certificate disk's centre s^2 + i at its seed s (``_chunk_seeds``), within
    ``radii``, or Newton's energy (radius 0).  ``results``, every branch of the full window
    as a Newton record from converged Lambert seeds, refines on first read: an independent
    oracle for tests and benchmarks, which no package code reads."""

    N: int
    count: int
    ratio: float
    box: Region
    certified: bool
    uncertified: tuple
    branches: int
    blocks: int
    refined: int
    energies: tuple
    radii: tuple

    @cached_property
    def results(self) -> tuple:
        return tuple(enumerate_imag_step(self.N, _box_window(self.N, self.box)))

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


def _box_window(N: int, box: Region) -> tuple[int, int]:
    kappa_max = math.sqrt(box.re_hi + box.im_hi + 2.0)
    n_max = int(math.ceil((kappa_max * N + 2.0 * math.pi) / (2.0 * math.pi))) + 2
    return (-n_max, n_max)


def _depth(box: Region, E, spread=None):
    """How far each E lies inside the box, by its nearest edge: negative outside it.  With a
    ``spread`` s, the least depth over the rectangle |Re(e - E)| <= Re s, |Im(e - E)| <= Im s;
    with -s, a bound on the greatest."""
    lo, hi = (E, E) if spread is None else (E - spread, E + spread)
    return np.minimum(np.minimum(lo.real - box.re_lo, box.re_hi - hi.real),
                      np.minimum(lo.imag - box.im_lo, box.im_hi - hi.imag))


def _newton(N: int, box: Region, fam, ns, seed) -> list:
    """Newton on these branches, grouped by family, a ladder at a time: per ladder its counted
    energies, unconverged records and number."""
    out = []
    for parity, sign, part in _families(fam):
        cols = _refine_ladder(N, seed[part], parity)
        E, conv = cols["energy"], cols["converged"]
        out.append((E[conv & cols["on_physical_sheet"] & (_depth(box, E) >= 0.0)],
                    _records((parity, sign, ns[part], cols), np.flatnonzero(~conv)), conv.size))
    return out


def _distinct(E, err):
    """The energies at least 1e-6 relative from the previous one in sorted order, each
    known to within ``err``: their positions in that order, and the positions whose error
    could change them, in a pair near that threshold or of uncertain order."""
    order = np.lexsort((E.imag, E.real))
    E, err = E[order], err[order]
    gap = np.abs(np.diff(E, prepend=np.inf))
    least = 1e-6 * np.maximum(1.0, np.abs(E))
    width = (1.0 + 1e-6) * (err[1:] + err[:-1])
    near = (width > 0.0) & ((np.abs(gap[1:] - least[1:]) <= width)
                            | (E.real[1:] - E.real[:-1] <= width))
    return order[gap >= least], np.union1d(order[1:][near], order[:-1][near])


def imag_step_census(N: int, C_box: float = 10.0) -> CensusResult:
    """Count physical-sheet ladder energies inside the census box.

    Emits (N, count, count*log(N)/N^2) plus the box, for the locality-violation scaling
    check; energies less than 1e-6 relative from the previous sorted one are dropped.  The
    four ladders' branches that ``_block_bounds`` leaves undecided are seeded (``_chunk_seeds``)
    and certified (``_certify``) in one array pass per chunk; Newton refines, a ladder at a
    time, those the certificate leaves undecided or whose error could change the dedupe.
    """
    box = census_box(N, C_box)
    window, certified, newton, branches = _box_window(N, box), [], [], 0
    u = _rounding(N, window[1])
    ns, fam, blocks = _undecided(N, box, window, u)
    for i in range(0, ns.size, _CHUNK):
        part, pf = ns[i:i + _CHUNK], fam[i:i + _CHUNK]
        seed, keep = _chunk_seeds(N, box, part, pf)
        part, pf, seed = part[keep], pf[keep], seed[keep]
        _, ok, chi, dchi, err = _certify(N, seed, pf, u)
        E = seed * seed + 1j
        depth = _depth(box, E)
        inside = depth >= err
        decided = ok & ((inside & (np.abs(chi.imag) > dchi)) | (depth < -err))
        hit, rest = decided & inside & (chi.imag > 0.0), ~decided
        certified.append((pf[hit], part[hit], seed[hit], E[hit], err[hit]))
        newton += _newton(N, box, pf[rest], part[rest], seed[rest])
        branches += part.size
    del ns, fam  # the dedupe's peak needs no window
    while True:
        bounds = np.cumsum([0] + [cert[3].size for cert in certified])
        E = np.concatenate([cert[3] for cert in certified] + [hit for hit, _, _ in newton])
        err = np.concatenate([cert[4] for cert in certified] + [np.zeros(E.size - bounds[-1])])
        kept, doubt = _distinct(E, err)
        doubt = doubt[doubt < bounds[-1]]
        if not doubt.size:
            break
        for j, cert in enumerate(certified):
            pick = np.isin(np.arange(bounds[j], bounds[j + 1]), doubt)
            newton += _newton(N, box, *(x[pick] for x in cert[:3]))
            certified[j] = tuple(x[~pick] for x in cert)
    uncertified = sorted((r for _, records, _ in newton for r in records), key=lambda r: r[:3])
    count = kept.size
    return CensusResult(N=N, count=count, ratio=count * math.log(N) / (N * N), box=box,
                        certified=not uncertified, uncertified=tuple(uncertified),
                        branches=branches, blocks=blocks,
                        refined=sum(size for _, _, size in newton),
                        energies=tuple(E[kept].tolist()), radii=tuple(err[kept].tolist()))
