"""Complex elementary and special functions with controlled branches.

Branch conventions used everywhere in the package:

* square roots of spectral parameters lie in the closed upper half plane,
* ``log`` is principal, cut on (-inf, 0],
* Lambert W branches follow the standard region layout (curved boundaries
  near the real-capable branches, straight strips far away).

Bessel/Hankel functions are float64, orders 0 and 1 only, from two routes:
the power series and Steed's continued fraction CF2 for K_0, K_1.  J: the
series where |z| - |Im z| <= 5 and |z| <= 40, elsewhere (H1 + H2)/2 from CF2 at
-iw and iw, w = |Re z| + i|Im z|.  H1: CF2 at -iz in the upper half plane, but
the series' J + iY for |z| <= 6, Im z <= 3, where CF2 is slowest; below the
real axis H1 = 2J - conj(H1(conj z)).

All functions are pure and reentrant.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceError, UnsupportedDomainError

_TWO_PI = 2.0 * math.pi
#: |Im z| <= _CUT_WIDTH * |z| with Re z < 0 counts as the cut of Lambert W
_CUT_WIDTH = 1e-12
#: Halley stops once |w*exp(w) - z| <= _W_TOL * |z|, after at most _W_MAX_ITER steps
_W_TOL = 1e-13
_W_MAX_ITER = 50
_EULER_GAMMA = 0.5772156649015328606


def _require_finite(z: complex, name: str = "z") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z


def sqrt_upper(z: complex) -> complex:
    """Square root of ``z`` with Im >= 0 (strictly positive off [0, inf)).

    On the cut [0, inf) the limit from above is returned, i.e. the
    nonnegative real root.
    """
    z = _require_finite(z)
    w = cmath.sqrt(z)
    if w.imag < 0.0:
        w = -w
    return w


def _dist_to_ray(z: complex) -> float:
    """Exact distance from z to [0, inf)."""
    return abs(z.imag) if z.real >= 0.0 else abs(z)


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

def lambert_w_seed(n, z):
    """Two-term asymptotic approximation ``log z + 2*pi*i*n - log(log z + 2*pi*i*n)``.

    Requires ``|log z + 2*pi*i*n| >= 1``; the approximation error is
    O(log|L1|/|L1|) with L1 the shifted logarithm.  ``n`` and ``z`` may be arrays.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"z must be finite, got {z!r}")
    if np.any(z == 0):
        raise ValueError("seed undefined at z = 0")
    l1 = np.log(z) + 2j * math.pi * np.asarray(n)
    if np.any(np.abs(l1) < 1.0):
        raise ValueError(
            f"asymptotic seed needs |log z + 2*pi*i*n| >= 1, got {np.min(np.abs(l1)):.3g}"
        )
    w = l1 - np.log(l1)
    return complex(w) if w.ndim == 0 else w


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
    """Halley on 1-d arrays, each entry stopping on its own: (w, residual, ok);
    ``ok`` is False where _W_MAX_ITER ran out or the step was not finite."""
    w = np.array(w, dtype=complex)
    ok = np.zeros(w.shape, dtype=bool)
    zscale = np.maximum(np.abs(z), 1e-300)
    # argument reduction in exp caps the attainable residual at ~|Im w|*eps
    idx, wa, za, target, floor = np.arange(w.size), w, z, _W_TOL * zscale, 64.0 * 2.3e-16 * zscale
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_W_MAX_ITER):
            ew = np.exp(wa)
            f = wa * ew - za
            hit = np.abs(f) <= np.maximum(target, floor * (1.0 + np.abs(wa)))
            fp = ew * (wa + 1.0)
            step = f / (fp - f * ew * (wa + 2.0) / (2.0 * fp))
            finite = np.isfinite(step)
            # the stop leaves w off by ~_W_TOL/|1 + w|: near w = -1, step anyway
            w_new = np.where(finite & (~hit | (np.abs(wa + 1.0) < 1.0)), wa - step, wa)
            done = hit | (np.abs(step) <= 4e-16 * (1.0 + np.abs(w_new)))
            w[idx], ok[idx] = w_new, done
            go = ~done & finite
            if not go.any():
                break
            idx, wa, za, target, floor = idx[go], w_new[go], za[go], target[go], floor[go]
        res = np.abs(w * np.exp(w) - z)
    return w, res, ok


def _w_seed(n: int, z: complex) -> complex:
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
    return lambert_w_seed(n, z)


def _w_continuation(n, z):
    # Homotopy from an anchor deep inside branch n, on 1-d arrays: (w, ok).
    w = np.where(n != 0, 1.0 + 2j * math.pi * n, 1.0 + 0j)
    anchor_z = w * np.exp(w)
    ok = np.ones(n.shape, dtype=bool)
    steps = 48
    for j in range(1, steps + 1):
        live = np.flatnonzero(ok)
        zt = anchor_z[live] + (z[live] - anchor_z[live]) * (j / steps)
        w[live], _, ok[live] = _halley(w[live], zt)
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

    ``n`` (int or int array) and ``z`` broadcast.  The residual ``|w*exp(w) - z|``
    is driven below 1e-13 * |z| and each result is verified to lie in the
    branch-``n`` region, else redone by continuation from inside the branch.
    Raises :class:`ConvergenceError` (with the last iterate) on failure.
    """
    n, z = np.broadcast_arrays(np.asarray(n, dtype=np.int64), np.asarray(z, dtype=complex))
    shape, n, z = n.shape, n.ravel(), z.ravel()
    if not np.all(np.isfinite(z)):
        raise ValueError(f"z must be finite, got {z[~np.isfinite(z)][0]!r}")
    if np.any((z == 0) & (n != 0)):
        raise ValueError("z = 0 is a logarithmic singularity for branches n != 0")
    w = np.empty(z.shape, dtype=complex)
    low = (n == 0) | (n == -1)  # branches with seeds of their own
    w[~low] = lambert_w_seed(n[~low], z[~low])
    for i in np.flatnonzero(low):
        w[i] = _w_seed(int(n[i]), complex(z[i]))
    w, res, ok = _halley(w, z)
    redo = np.flatnonzero(~(ok & _on_branch(w, n, z)))
    if redo.size:
        w_c, ok_c = _w_continuation(n[redo], z[redo])
        bad = redo[~(ok_c & _on_branch(w_c, n[redo], z[redo]))]
        if bad.size:
            i = bad[0]
            raise ConvergenceError(
                f"Lambert W branch {n[i]} did not converge at z = {complex(z[i])!r}",
                last_iterate=complex(w[i]), residual=float(res[i]))
        w[redo] = w_c
    return w.reshape(shape) if shape else complex(w[0])


# ---------------------------------------------------------------------------
# Bessel/Hankel functions of orders 0 and 1 (the radial s-wave solver's)
# ---------------------------------------------------------------------------

_H1_SERIES_RADIUS = 6.0  # H1 from the Y series, good to 4e-13, only for |z| <= 6, Im z <= 3
#: J from the series where |z| - |Im z| <= _J_SERIES_MARGIN (its terms exceed J by at
#: most e^5) and |z| <= _J_SERIES_RADIUS; CF2 fails to converge near the cut for |x| <~ 30
_J_SERIES_MARGIN = 5.0
_J_SERIES_RADIUS = 40.0


def _series_01(z: complex, with_y: bool):
    """(J_0, J_1), or with ``with_y`` (J_0, J_1, Y_0, Y_1), from one pass of the
    power series on t_k = (-z^2/4)^k/(k!)^2 (DLMF 10.2.2, 10.8.1).  The pass
    stops when every sum's last term is below 1e-18 of the sum (of max(sum, 1)
    for the Y sums), after about 1.4|z| terms."""
    q = -0.25 * z * z
    t = s0 = s1 = y1 = complex(1.0)  # k = 0 terms; y1's is H_0 + H_1 = 1
    y0, h = 0j, 0.0  # h = H_k, the harmonic number
    for k in range(1, 60 + int(abs(z))):
        t *= q / (k * k)
        u = t / (k + 1)
        s0 += t  # J_0
        s1 += u  # J_1/(z/2)
        if with_y:
            h += 1.0 / k
            y0 += t * h
            y1 += u * (h + h + 1.0 / (k + 1))
        if (abs(t) <= 1e-18 * abs(s0) and abs(u) <= 1e-18 * abs(s1)
                and (not with_y or abs(t) <= 1e-18 * max(abs(y0), 1.0)
                     and abs(u) <= 1e-18 * max(abs(y1), 1.0))):
            break
    j0, j1 = s0, 0.5 * z * s1
    if not with_y:
        return j0, j1
    log_term = cmath.log(0.5 * z) + _EULER_GAMMA
    return (j0, j1, (2.0 / math.pi) * (log_term * j0 - y0),
            (2.0 / math.pi) * (log_term * j1 - 1.0 / z - 0.25 * z * y1))


_CF2_MAX_ITER = 200  # CF2 runs at |x| >= 3 here and converges in at most 60 terms
_CF2_UNDERFLOW = 708.39  # Re x past which e^{-x}, and K_0 with it, is below every normal float


def _k01_cf2(x: complex):
    """(K_0(x), K_1(x)) on the principal branch, x != 0, from Steed's continued
    fraction CF2 at order 0 (Temme, J. Comput. Phys. 19, 1975; Numerical Recipes'
    ``bessik``).  CF2 converges the faster the larger |x|, and not at all near
    the cut for |x| below about 30: past ``_CF2_MAX_ITER`` terms it raises
    :class:`ConvergenceError`, and where K leaves float range
    :class:`UnsupportedDomainError`."""
    # below Re x = -1419 even e^{-x/2} overflows (|K_0| > e^{1064}); past 8e307 so does 2(1 + x)
    if not (-1419.0 <= x.real <= _CF2_UNDERFLOW and max(abs(x.real), abs(x.imag)) <= 8e307):
        raise UnsupportedDomainError(f"CF2 for K_0 leaves the normal float range at x = {x!r}")
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0j, complex(1.0)
    a = -0.25
    q = c = 0.25
    s = 1.0 + q * delh
    for i in range(2, _CF2_MAX_ITER + 1):
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) < 1e-16 * abs(s):
            break
    else:
        raise ConvergenceError(f"CF2 for K_0, K_1 did not converge in {_CF2_MAX_ITER} terms at x = {x!r}",
                               last_iterate=s, residual=abs(dels / s))
    if x.real < 0.0:  # e^{-x} grows: in halves, so that only K itself can overflow
        e = cmath.exp(-0.5 * x)
        k0 = cmath.sqrt(math.pi / (2.0 * x)) * e / s
        return k0 * e, k0 * ((x + 0.5 - 0.25 * h) / x) * e
    k0 = cmath.sqrt(math.pi / (2.0 * x)) * cmath.exp(-x) / s
    return k0, k0 * (x + 0.5 - 0.25 * h) / x


def _hankel01_cf2(z: complex):
    """(H1_0(z), H1_1(z)) for Im z >= 0, z != 0, by H1_nu(z) = (2/(pi i)) e^{-i nu pi/2} K_nu(-iz)."""
    k0, k1 = _k01_cf2(-1j * z)
    return (-2j / math.pi) * k0, (-2.0 / math.pi) * k1


def _nonzero(z: complex) -> complex:
    z = _require_finite(z)
    if z == 0:
        raise UnsupportedDomainError("Bessel evaluation at z = 0 is not supported")
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
    a0, a1 = _k01_cf2(-1j * w) if w.imag <= 20.0 else (0j, 0j)
    b0, b1 = _k01_cf2(1j * w)
    j0, j1 = (-1j / math.pi) * (a0 - b0), (-1.0 / math.pi) * (a1 + b1)
    if not (cmath.isfinite(j0) and cmath.isfinite(j1)):
        raise UnsupportedDomainError(f"J leaves float range at z = {z!r}")
    if (z.real < 0.0) != (z.imag < 0.0):
        j0, j1 = j0.conjugate(), j1.conjugate()
    return j0, (-j1 if z.real < 0.0 else j1)


def _h01(z: complex):
    """(H1_0(z), H1_1(z)) for z != 0."""
    z = _nonzero(z)
    if abs(z) <= _H1_SERIES_RADIUS and z.imag <= 3.0:
        j0, j1, y0, y1 = _series_01(z, True)
        return j0 + 1j * y0, j1 + 1j * y1
    if z.imag < 0.0:
        # H2(z) = conj(H1(conj z)) and H1 = 2J - H2
        (j0, j1), (c0, c1) = _j01(z), _hankel01_cf2(z.conjugate())
        return 2.0 * j0 - c0.conjugate(), 2.0 * j1 - c1.conjugate()
    return _hankel01_cf2(z)
