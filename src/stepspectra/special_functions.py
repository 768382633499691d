"""Complex elementary and special functions with controlled branches.

Branch conventions used everywhere in the package:

* square roots of spectral parameters lie in the closed upper half plane,
* ``log`` is principal, cut on (-inf, 0],
* Lambert W branches follow the standard region layout (curved boundaries
  near the real-capable branches, straight strips far away).

Bessel/Hankel functions are float64, orders 0 and 1 only, from the power series (one
Horner pass over one coefficient table, its length fixed by |z|) and a fixed 24-node
Gauss rule for K_0, K_1.  J: the series where |z| - |Im z| <= 5 and |z| <= 40, else
(H1 + H2)/2 from the rule at -iw and iw, w = |Re z| + i|Im z|.  H1: the series' J + iY
for |z| < 3, else the rule at -iz above the real axis and 2J - conj(H1(conj z)) below.

All functions are pure and reentrant.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect

import numpy as np

from .errors import ConvergenceError, UnsupportedDomainError

_TWO_PI = 2.0 * math.pi
#: |Im z| <= _CUT_WIDTH * |z| with Re z < 0 counts as the cut of Lambert W
_CUT_WIDTH = 1e-12
#: Halley's relative residual target (exp's floor can exceed it: see lambert_w) and step cap
_W_TOL = 1e-13
_W_MAX_ITER = 50
_EULER_GAMMA = 0.5772156649015328606


def sqrt_upper(z: complex) -> complex:
    """Square root of ``z`` with Im >= 0 (strictly positive off [0, inf)).

    On the cut [0, inf) the limit from above is returned, i.e. the
    nonnegative real root.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    w = cmath.sqrt(z)
    return -w if w.imag < 0.0 else w


def _dist_to_ray(z: complex) -> float:
    """Exact distance from z to [0, inf)."""
    return abs(z.imag) if z.real >= 0.0 else abs(z)


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

def branch_of_w(w):
    """Branch index whose region contains ``w`` (standard boundary layout).

    The separating curves are {-t*cot(t) + i*t}; between their bands the
    regions are straight strips.  Points on a boundary follow the
    counterclockwise closure: an upper curve belongs to the region on its
    right, a lower one to the region on its left, and a band edge's top edge
    is included.  An array of ``w`` gives an int array of the same shape.
    """
    w = np.asarray(w, dtype=complex)
    t = np.abs(w.imag)  # the lower half mirrors: branch(w) = -branch(conj w)
    # k-th curve band covers heights (2*k*pi, (2*k+1)*pi), k >= 0; the pure
    # strip zone ((2k+1)*pi <= |Im w| <= (2k+2)*pi) belongs to branch k+1
    k = np.floor(t / _TWO_PI)
    frac = t - _TWO_PI * k
    with np.errstate(divide="ignore", invalid="ignore"):
        curve = -t / np.tan(frac)
        on_right = np.where(w.imag > 0.0, w.real >= curve, w.real > curve)
        upper = np.where((0.0 < frac) & (frac < math.pi) & on_right, k, k + 1)
        b = np.where(w.imag < 0.0, -upper, upper)
        b = np.where(w.imag == 0.0, np.where(w.real >= -1.0, 0, -1), b).astype(int)
    return int(b) if b.ndim == 0 else b


def _halley(w, z):
    """Halley on 1-d arrays (a one-entry z is shared), each entry stopping on its own:
    (w, ok); ``ok`` is False where _W_MAX_ITER ran out or the step was not finite."""
    w = np.array(w, dtype=complex)
    ok = np.zeros(w.shape, dtype=bool)
    zscale = np.maximum(np.abs(z), 1e-300)
    # argument reduction in exp caps the attainable residual at ~|Im w|*eps
    idx, wa, za, target, floor = np.arange(w.size), w, z, _W_TOL * zscale, 64.0 * 2.3e-16 * zscale
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_W_MAX_ITER):
            ew = np.exp(wa)
            f = wa * ew - za
            done = np.abs(f) <= np.maximum(target, floor * (1.0 + np.abs(wa)))
            # step where the stop fails and near w = -1, where the stop leaves w ~_W_TOL/|1 + w| off
            act = np.flatnonzero(~done | (np.abs(wa + 1.0) < 1.0))
            wx, ex, fx = wa[act], ew[act], f[act]
            fp = ex * (wx + 1.0)
            step = fx / (fp - fx * ex * (wx + 2.0) / (2.0 * fp))
            finite = np.isfinite(step)
            wa[act] = np.where(finite, wx - step, wx)
            done[act] |= np.abs(step) <= 4e-16 * (1.0 + np.abs(wa[act]))
            w[idx], ok[idx] = wa, done
            done[act] |= ~finite  # a step that is not finite ends the entry, not ok
            if done.all():
                break
            idx, wa = idx[~done], wa[~done]
            za, target, floor = (a[~done] if a.size > 1 else a for a in (za, target, floor))
    return w, ok


def _w_seed(n: int, z: complex) -> complex | None:
    """Branch 0's or -1's own seed at z, or None where ``lambert_w``'s series serves."""
    # branch-point series in p = +-sqrt(2(e z + 1)) (Corless et al. 1996, section 4),
    # p > 0 for branch 0; branch -1 meets the branch point from Im z >= 0 only
    p2 = 2.0 * (math.e * z + 1.0)
    if abs(p2) < 0.4 and (n == 0 or (n == -1 and z.imag >= 0.0)):
        p = cmath.sqrt(p2) if n == 0 else -cmath.sqrt(p2)
        return -1.0 + p - p2 / 3.0 + 11.0 / 72.0 * p * p2
    # on or just off the cut left of -1/e, W_0 is far from real: no near-real seed there
    if n == 0 and not (abs(z.imag) <= _CUT_WIDTH * abs(z) and z.real < -1.0 / math.e):
        return z * (1.0 - z) if abs(z) <= 1.5 else cmath.log(1.0 + z)
    if n == -1 and z.imag == 0.0 and -1.0 / math.e < z.real < 0.0:
        t = -math.log(-z.real)  # > 1.2: the branch-point series took -1/e < x < -0.29
        return complex(-t - math.log(t), 0.0)
    return None


def _w_series(n, z, log_z=None):
    """W_n(z) by its series through L2/L1^3, L1 = log z + 2 pi i n (log z ``log_z`` if given),
    L2 = log L1 (Corless et al. 1996, eq. 4.19); |L1| >= pi off branches 0 and -1, and where
    _w_seed has no seed of theirs."""
    with np.errstate(divide="ignore", invalid="ignore"):
        l1 = (np.log(z) if log_z is None else log_z) + 2j * math.pi * n
        seed = l1 - np.log(l1)
        l2, t = l1 - seed, 1.0 / l1
        return seed + l2 * t * (1.0 + t * (0.5 * l2 - 1.0 + t * (1.0 - 1.5 * l2 + l2 * l2 / 3.0)))


def _w_continuation(n, z):
    # Homotopy from an anchor deep inside branch n, on 1-d arrays: (w, ok).
    w = np.where(n != 0, 1.0 + 2j * math.pi * n, 1.0 + 0j)
    anchor_z = w * np.exp(w)
    ok = np.ones(n.shape, dtype=bool)
    for t in np.arange(1, 49) / 48:
        live = np.flatnonzero(ok)
        zt = anchor_z[live] + (z[live] - anchor_z[live]) * t
        w[live], ok[live] = _halley(w[live], zt)
    return w, ok


def _on_branch(w, n, z):
    b = branch_of_w(w)
    cut = (np.abs(z.imag) <= _CUT_WIDTH * np.abs(z)) & (z.real < 0.0)
    if cut.any():
        # on or just off the cut z < 0 a non-real W lies within rounding of a
        # boundary curve: its height and the side of the cut name the branch.
        # Above (Im z >= 0) an upper curve of band k is branch k and a lower one
        # branch -k-1; below, by W_n(conj z) = conj W_-n(z), k+1 and -k
        k = np.floor(np.abs(w.imag) / _TWO_PI).astype(int)
        upper = w.imag > 0.0
        side = np.where(z.imag >= 0.0, np.where(upper, k, -k - 1), np.where(upper, k + 1, -k))
        b = np.where(cut & (w.imag != 0.0), side, b)
    # the branch point w = -1 is shared by branches 0 and -1
    return (b == n) | (((n == 0) | (n == -1)) & (np.abs(w + 1.0) < 1e-6))


def lambert_w(n, z):
    """Branch ``n`` of the Lambert W function, by Halley iteration.

    ``n`` (int or int array) and ``z`` broadcast.  Every entry is seeded from the asymptotic
    series (Corless et al. 1996, eq. 4.19), except where ``_w_seed`` has a seed of branch 0
    or -1 of its own.  Halley stops at a step below 4e-16*(1 + |w|)
    or at |w*exp(w) - z| <= max(1e-13, 1.47e-14*(1 + |w|))*|z|, the second term being the floor
    of exp's argument reduction (5e-10*|z| at |w| = 3.7e4).  Each result is verified to lie in
    the branch-``n`` region, else redone by continuation from inside it.  A ConvergenceError
    carries the last iterate and its residual, which is formed on failure only.
    """
    n, z = np.asarray(n, dtype=np.int64), np.asarray(z, dtype=complex)
    shape = np.broadcast_shapes(n.shape, z.shape)
    n = np.broadcast_to(n, shape).ravel()
    z = (z if z.size == 1 else np.broadcast_to(z, shape)).ravel()
    zn = np.broadcast_to(z, n.shape)  # a z that every n shares stays one entry
    if not np.all(np.isfinite(z)):
        raise ValueError(f"z must be finite, got {z[~np.isfinite(z)][0]!r}")
    if np.any((z == 0) & (n != 0)):
        raise ValueError("z = 0 is a logarithmic singularity for branches n != 0")
    w = _w_series(n, z)
    for i in np.flatnonzero((n == 0) | (n == -1)):
        own = _w_seed(int(n[i]), complex(zn[i]))
        if own is not None:
            w[i] = own
    w, ok = _halley(w, z)
    redo = np.flatnonzero(~(ok & _on_branch(w, n, z)))
    if redo.size:
        w_c, ok_c = _w_continuation(n[redo], zn[redo])
        bad = redo[~(ok_c & _on_branch(w_c, n[redo], zn[redo]))]
        if bad.size:
            i = bad[0]
            raise ConvergenceError(
                f"Lambert W branch {n[i]} did not converge at z = {complex(zn[i])!r}",
                last_iterate=complex(w[i]), residual=float(abs(w[i] * np.exp(w[i]) - zn[i])))
        w[redo] = w_c
    return w.reshape(shape) if shape else complex(w[0])


# ---------------------------------------------------------------------------
# Bessel/Hankel functions of orders 0 and 1 (the radial s-wave solver's)
# ---------------------------------------------------------------------------

_H1_SERIES_RADIUS = 3.0  # H1 from the Y series for |z| < 3, from the Gauss rule elsewhere
#: J from the series where |z| - |Im z| <= _J_SERIES_MARGIN (its terms exceed J by at
#: most e^5) and |z| <= _J_SERIES_RADIUS; the rule fails near the cut for small |x|
_J_SERIES_MARGIN = 5.0
_J_SERIES_RADIUS = 40.0


def _series_rows(kmax: int):
    """Degrees 0 .. kmax - 1 in q = -z^2/4 of J_0, J_1/(z/2) and the Y_0, Y_1 sums, that is
    (1, 1/(k+1), H_k, 2H_k + 1/(k+1))/(k!)^2, as correctly rounded integer quotients."""
    f, h = 1, 0  # k! and k! H_k
    for k1 in range(1, kmax + 1):  # k + 1
        yield 1 / (f * f), 1 / (f * f * k1), h / f ** 3, (2 * h * k1 + f) / (f ** 3 * k1 * k1)
        f, h = f * k1, h * k1 + f


_KMAX = 72  # |z| = _J_SERIES_RADIUS takes 71 terms
_COEF = tuple(reversed(tuple(_series_rows(_KMAX))))  # highest degree first: n terms, _COEF[-n:]
#: n terms serve |z| < _TERM_RADII[n]: there max(degree-n row) (|z|/2)^{2n} < 1e-18
_TERM_RADII = (0.0,) + tuple(2.0 * (1e-18 / max(c)) ** (0.5 / n) * (1.0 - 1e-12)
                             for n, c in enumerate(reversed(_COEF[:-1]), 1))


def _series_01(z: complex, with_y: bool):
    """(J_0, J_1), or with ``with_y`` (J_0, J_1, Y_0, Y_1), from one Horner pass in q = -z^2/4
    over the power series (DLMF 10.2.2, 10.8.1), with no stop test: the term count is the
    least whose first dropped term is below 1e-18 at this |z|, 10 at |z| = 1, 71 at 40."""
    q, s0, s1, y0, y1 = -0.25 * z * z, 0j, 0j, 0j, 0j
    coef = _COEF[_KMAX - bisect(_TERM_RADII, abs(z)):]
    if not with_y:
        for a, b, _, _ in coef:
            s0, s1 = s0 * q + a, s1 * q + b
        return s0, 0.5 * z * s1
    for a, b, c, d in coef:
        s0, s1 = s0 * q + a, s1 * q + b
        y0, y1 = y0 * q + c, y1 * q + d
    j1, tp, log_term = 0.5 * z * s1, 2.0 / math.pi, cmath.log(0.5 * z) + _EULER_GAMMA
    # tp/z on its own, so that 1/z cannot overflow where H1_1 does not
    return s0, j1, tp * (log_term * s0 - y0), tp * (log_term * j1 - 0.25 * z * y1) - tp / z


#: 24-node Gauss rule for the weight e^{-s} s^{-1/2}/Gamma(1/2) on (0, inf): the squares of
#: the positive roots of H_48 and twice their Hermite weights over sqrt(pi), made at 50 digits
_RULE_S = (
    0.02543799658568936, 0.22910231649262433, 0.6372902787326687, 1.2517406323627465,
    2.075112909852381, 3.1110524551477132, 4.3642830769353065, 5.840733271323608,
    7.547704680023454, 9.494095330026488, 11.690695926056073, 14.150586187285759,
    16.889671928527108, 19.927425875242463, 23.287932824879917, 27.001406056472355,
    31.106464709046566, 35.653703516328214, 40.71159818554311, 46.37697955754013,
    52.79543252728363, 60.20666696305722, 69.06860197530438, 80.5562808199504)
_RULE_W = (
    0.3509270836237322, 0.28656491398635237, 0.19092680112285854, 0.10361036709912053,
    0.04567642420018268, 0.016299393710703856, 0.004686164223520803, 0.001079173169254377,
    0.00019763609835222678, 2.853218464849363e-05, 3.212787391085227e-06,
    2.7855833791199193e-07, 1.8308111492627642e-08, 8.94857430687275e-10,
    3.1767219624927134e-11, 7.951611916942981e-13, 1.3513354549314233e-14,
    1.4839987196129436e-16, 9.850930219397914e-19, 3.597709832474619e-21, 6.278953289598416e-24,
    4.1581179428373256e-27, 6.752912286270746e-31, 8.95431094775174e-36)
_RULE = tuple((s, w, 2.0 * w * s) for s, w in zip(_RULE_S, _RULE_W))


def _k01(x: complex):
    """(K_0(x), K_1(x)) on the principal branch from the Gauss rule on K_nu(x) = sqrt(pi/(2x))
    e^{-x}/Gamma(nu + 1/2) int_0^inf e^{-s} s^{nu - 1/2} (1 + s/(2x))^{nu - 1/2} ds (DLMF
    10.32.8): with g = sqrt(1 + s/(2x)), K_0 sums w/g and K_1 2ws*g.  Good to 1e-15 for
    |x| >= 3 with |arg x| <= pi/2 and for |x| >= 40, but not near the cut at small |x|
    (4e-3 at x = -3); beyond float range :class:`UnsupportedDomainError`."""
    # K_0 is below every normal float past Re x = 708.39; e^{-x/2} overflows below -1419, 2x past 8e307
    if not (-1419.0 <= x.real <= 708.39 and max(abs(x.real), abs(x.imag)) <= 8e307):
        raise UnsupportedDomainError(f"K_0 leaves the normal float range at x = {x!r}")
    h, s0, s1 = 0.5 / x, 0j, 0j
    for s, w, ws in _RULE:
        g = cmath.sqrt(1.0 + s * h) or 1.0  # -2x on a node: its weight, < 1e-35, is below rounding
        s0 += w / g
        s1 += ws * g
    if x.real < 0.0:  # e^{-x} grows: in halves, so that only K itself can overflow
        e = cmath.exp(-0.5 * x)
        c = cmath.sqrt(math.pi / (2.0 * x)) * e
        return c * s0 * e, c * s1 * e
    c = cmath.sqrt(math.pi / (2.0 * x)) * cmath.exp(-x)
    return c * s0, c * s1


def _nonzero(z: complex, edge: float = 0.0) -> complex:
    z = complex(z)
    # z beyond float range, z = 0, or a |z| below which the result leaves float range
    if not cmath.isfinite(z) or abs(z) <= edge:
        raise UnsupportedDomainError(f"Bessel evaluation at z = {z!r} is not supported")
    return z


def _j01(z: complex):
    """(J_0(z), J_1(z)) for z != 0."""
    z = _nonzero(z)
    if abs(z) <= _J_SERIES_RADIUS and abs(z) - abs(z.imag) <= _J_SERIES_MARGIN:
        return _series_01(z, False)
    # J = (H1 + H2)/2 at w = |Re z| + i|Im z| (J_0 even, J_1 odd, real on the real axis): H1 =
    # (-2i/pi) K_0(-iw), H2 = (2i/pi) K_0(iw), -(2/pi) K_1 at order 1; iw is never below K's cut
    w = complex(abs(z.real), abs(z.imag))
    # |H1/H2| is about e^{-2 Im w}: past Im w = 20 H1 is below H2's rounding
    a0, a1 = _k01(-1j * w) if w.imag <= 20.0 else (0j, 0j)
    b0, b1 = _k01(1j * w)
    j0, j1 = (-1j / math.pi) * (a0 - b0), (-1.0 / math.pi) * (a1 + b1)
    if not (cmath.isfinite(j0) and cmath.isfinite(j1)):
        raise UnsupportedDomainError(f"J leaves float range at z = {z!r}")
    if (z.real < 0.0) != (z.imag < 0.0):
        j0, j1 = j0.conjugate(), j1.conjugate()
    return j0, (-j1 if z.real < 0.0 else j1)


def _h01(z: complex):
    """(H1_0(z), H1_1(z)) for |z| > 3.55e-309."""
    z = _nonzero(z, 3.55e-309)  # below it |H1_1| ~ 2/(pi |z|) passes the largest float
    if abs(z) < _H1_SERIES_RADIUS:
        j0, j1, y0, y1 = _series_01(z, True)
        return j0 + 1j * y0, j1 + 1j * y1
    if z.imag < 0.0:  # H2(z) = conj(H1(conj z)) and H1 = 2J - H2
        (j0, j1), (c0, c1) = _j01(z), _h01(z.conjugate())
        return 2.0 * j0 - c0.conjugate(), 2.0 * j1 - c1.conjugate()
    k0, k1 = _k01(-1j * z)  # H1_nu(z) = (2/(pi i)) e^{-i nu pi/2} K_nu(-iz)
    return (-2j / math.pi) * k0, (-2.0 / math.pi) * k1
