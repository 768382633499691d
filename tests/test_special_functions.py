import cmath
import math
import os
import subprocess
import sys
from bisect import bisect
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sp

import stepspectra
from stepspectra import special_functions
from stepspectra.errors import ConvergenceError, UnsupportedDomainError
from stepspectra.special_functions import _h01, _j01, branch_of_w, lambert_w, sqrt_upper

from conftest import mp_bessel_j01, mp_bessel_jh, mp_hankel1_upper


class TestSqrtUpper:
    def test_trivial_values(self):
        assert sqrt_upper(-1) == pytest.approx(1j)
        assert sqrt_upper(2j) == pytest.approx(1 + 1j)
        assert sqrt_upper(-4) == pytest.approx(2j)

    def test_square_and_half_plane(self, rng):
        for _ in range(500):
            z = complex(rng.normal(0, 3), rng.normal(0, 3))
            if z.imag == 0 and z.real >= 0:
                continue
            w = sqrt_upper(z)
            assert abs(w * w - z) <= 1e-14 * abs(z)
            if z.imag != 0:
                assert w.imag > 0

    def test_cut_limit_from_above(self):
        assert sqrt_upper(4.0) == pytest.approx(2.0)
        assert sqrt_upper(4.0).imag == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            sqrt_upper(complex(float("nan"), 0.0))


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w(0, 0) == 0
        assert lambert_w(0, math.e) == pytest.approx(1.0, abs=1e-13)
        assert lambert_w(-1, -1.0 / math.e) == pytest.approx(-1.0, abs=1e-6)

    def test_residual_and_branch_all_branches(self, rng):
        for n in range(-5, 6):
            for _ in range(100):
                z = complex(rng.normal(0, 2), rng.normal(0, 2))
                if abs(z) < 1e-3:
                    continue
                w = lambert_w(n, z)
                assert abs(w * cmath.exp(w) - z) < 1e-12 * abs(z)
                assert branch_of_w(w) == n

    def test_against_scipy(self, rng):
        for n in (-3, -1, 0, 1, 4):
            for _ in range(50):
                z = complex(rng.normal(0, 4), rng.normal(0, 4))
                if abs(z) < 1e-2:
                    continue
                ours = lambert_w(n, z)
                ref = complex(sp.lambertw(z, n))
                assert abs(ours - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("n", [0, -1])
    def test_branch_point_against_scipy(self, rng, n):
        # |e*z + 1| < 0.2 in both half planes: branch -1 meets the branch point
        # -1/e only from above, branch 0 from both sides
        radius = 0.2 * np.sqrt(rng.uniform(size=400))
        z = (-1.0 + radius * np.exp(2j * math.pi * rng.uniform(size=400))) / math.e
        z = np.append(z, [-0.4073 + 0.0307j, -0.4073 - 0.0307j])
        assert (z.imag > 0).sum() > 150 and (z.imag < 0).sum() > 150
        ours = lambert_w(n, z)
        ref = sp.lambertw(z, n, tol=1e-14)
        assert np.all(np.abs(ours - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("n", [0, -1, 1])
    def test_on_the_cut_against_scipy(self, n):
        # z = x + 0j left of the branch point: W lies on a curve -t*cot(t) + i*t
        # between two branch regions, and rounding leaves it on either side
        x = -1.0 / math.e - np.logspace(-14, 1, 300)
        ours = np.array([lambert_w(n, complex(v, 0.0)) for v in x])
        ref = sp.lambertw(x, n)
        assert np.all(np.abs(ours - ref) <= 1e-9 * np.abs(ref))

    @pytest.mark.parametrize("y", [1e-20, -1e-20, 1e-300, -1e-300])
    def test_just_off_the_cut_against_mpmath(self, y):
        # z = x + iy, |y| <= 1e-12 |z|, left of the branch point: the side of the
        # cut, not rounding, names the branch, W_n(x - i0) = conj W_-n(x + i0).
        # Within 1e-12 of -1/e the branch point itself limits the accuracy
        d = np.logspace(-14, 1, 300)
        z = -1.0 / math.e - d + 1j * y
        far = d >= 1e-12
        for n in (0, -1, 1):
            ours = lambert_w(n, z)  # raises if any point fails
            ref = np.array([complex(mpmath.lambertw(mpmath.mpc(v.real, v.imag), n))
                            for v in z[far]])
            assert np.all(np.abs(ours[far] - ref) <= 1e-9 * np.abs(ref))

    def test_branch_minus_one_on_the_real_interval(self):
        # x in (-1/e, 0): the real seed -t - log t, t = -log(-x), away from the
        # branch point, and the branch-point series next to it
        x = np.concatenate((-np.exp(-np.linspace(1.0 + 1e-6, 40.0, 200)), [-0.1]))
        ours = lambert_w(-1, x + 0j)
        ref = sp.lambertw(x, -1, tol=1e-15)
        assert np.all(np.abs(ours - ref) <= 1e-12 * np.abs(ref))
        assert ours[-1] == pytest.approx(-3.577152063957297, rel=1e-15)

    def test_boundary_curves_follow_counterclockwise_closure(self):
        # an upper curve belongs to the region on its right, a lower one to
        # the region on its left
        t = np.linspace(0.1, 3.0, 30)
        curve = -t / np.tan(t)
        assert np.all(branch_of_w(curve + 1j * t) == 0)
        assert np.all(branch_of_w(curve - 1j * t) == -1)
        assert np.all(branch_of_w(curve + 1e-9 - 1j * t) == 0)
        assert np.all(branch_of_w(curve - 1e-9 + 1j * t) == 1)

    def test_conjugation_symmetry(self, rng):
        for n in range(-4, 5):
            for _ in range(40):
                z = complex(rng.normal(0, 2), rng.normal(0.5, 1.5))
                if abs(z) < 1e-2 or abs(z.imag) < 1e-3:
                    continue
                w1 = lambert_w(-n, z.conjugate())
                w2 = lambert_w(n, z).conjugate()
                assert abs(w1 - w2) <= 1e-10 * max(1.0, abs(w2))

    def test_zero_rejected_off_principal(self):
        with pytest.raises(ValueError):
            lambert_w(2, 0)

    def test_failure_carries_iterate_and_residual(self, monkeypatch):
        # one Halley step settles neither the first run nor the continuation;
        # the residual is formed for the reported entry only
        monkeypatch.setattr(special_functions, "_W_MAX_ITER", 1)
        z = np.array([2.0 + 0.5j, -0.3 + 4.0j])
        with pytest.raises(ConvergenceError) as info:
            lambert_w(np.array([3, -2]), z)
        w = info.value.last_iterate
        assert isinstance(w, complex) and cmath.isfinite(w)
        assert info.value.residual == pytest.approx(abs(w * cmath.exp(w) - z[0]), rel=1e-12)
        assert math.isfinite(info.value.residual) and info.value.residual > 0.0


def _jh(nu, z):
    """(J_nu, H1_nu, J_nu', H1_nu') for nu in {0, 1} from the library's (J_0, J_1)
    and (H1_0, H1_1), by J_0' = -J_1 and J_1' = J_0 - J_1/z, and the same for H1."""
    (j0, j1), (h0, h1) = _j01(z), _h01(z)
    if nu == 0:
        return j0, h0, -j1, -h1
    return j1, h1, j0 - j1 / z, h0 - h1 / z


class TestBessel:
    def test_j0_series_value(self):
        # power-series oracle summed to machine precision
        total, term = 1.0, 1.0
        for k in range(1, 40):
            term *= -0.25 / (k * k)
            total += term
        assert _j01(1.0)[0] == pytest.approx(total, rel=1e-14)
        assert total == pytest.approx(0.7651976866, abs=1e-9)

    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_against_scipy(self, nu, rng):
        for _ in range(300):
            r = math.exp(rng.uniform(math.log(0.05), math.log(60.0)))
            z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            refs = (sp.jv(nu, z), sp.hankel1(nu, z), sp.jvp(nu, z), sp.h1vp(nu, z))
            for ours, ref in zip(_jh(nu, z), refs):
                assert abs(ours - ref) <= 1e-9 * max(abs(ref), 1e-250)

    def test_unsupported_domain(self):
        for half in (_j01, _h01):
            with pytest.raises(UnsupportedDomainError):
                half(0.0)
        # Im z above ~708: H1 is below every normal float
        with pytest.raises(UnsupportedDomainError):
            _h01(-0.5 + 710j)
        # |J| ~ e^{|Im z|}/sqrt(2 pi |z|) leaves float range near |Im z| = 714,
        # and the rule's 2x past |z| = 8.9e307
        for z in (10 + 720j, -10 - 720j, 720j, 1e300 + 1500j, 1e308):
            with pytest.raises(UnsupportedDomainError):
                _j01(z)

    def test_h1_past_its_float_edge_is_typed(self):
        # H1_1 ~ -2i/(pi z) passes the largest float below |z| = 3.54e-309, and
        # log(z/2) is -inf below 1e-323: a typed error, never NaN or a ValueError
        for z in (1e-310, 5e-324, -3.5e-309j, complex(2e-309, -2e-309)):
            with pytest.raises(UnsupportedDomainError):
                _h01(z)
        for z in (3.6e-309, -3.6e-309j):
            h0, h1 = _h01(z)
            assert cmath.isfinite(h0) and cmath.isfinite(h1)
            assert abs(h1 * z * math.pi / -2j - 1.0) <= 1e-15

    @pytest.mark.parametrize("z", [-50 + 711j, 100 + 709j, 100 + 710.4j, -84 - 710j, 712.5j,
                                   1e300 + 730j, 8e307])
    def test_j_at_the_float_edge(self, z):
        # |J| up to ~1e307: e^{-x} of the rule's K(iw) is taken in halves
        for ours, ref in zip(_j01(z), mp_bessel_j01(z)):
            assert abs(ours - ref) <= 1e-14 * abs(ref)


def _upper_corner_grid(rng, n=40):
    """Seeded points with Im z > 3 and |z| <= 14 (H1 from the Gauss rule)."""
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-14.0, 14.0), rng.uniform(3.0, 14.0))
        if abs(z) <= 14.0 and z.imag > 3.0:
            pts.append(z)
    return pts


class TestBesselUpperCorner:
    """|z| <= 14, Im z > 3: H1 is exponentially smaller than J and Y there."""

    @pytest.mark.parametrize("nu", [0, 1])
    def test_against_mpmath(self, nu, rng):
        for z in _upper_corner_grid(rng):
            for ours, ref in zip(_jh(nu, z), mp_bessel_jh(nu, z)):
                assert abs(ours - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_seam_at_im_3(self, nu):
        # the lower edge of the corner: both sides come from the rule but at
        # Re z = 0, where the line crosses the series seam |z| = 3; the points
        # are 2e-9 apart, and the values differ by up to 2.5e-9
        for k in range(69):
            x = -13.6 + 0.4 * k
            below = _jh(nu, complex(x, 3.0 - 1e-9))
            above = _jh(nu, complex(x, 3.0 + 1e-9))
            for b, a in zip(below, above):
                assert abs(a - b) <= 1e-8 * abs(a)

    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_wronskian(self, nu, rng):
        for z in _upper_corner_grid(rng):
            j, h, dj, dh = _jh(nu, z)
            exact = 2j / (math.pi * z)
            assert abs(j * dh - dj * h - exact) <= 1e-11 * abs(exact)


def _ring(rng, n, r_lo, r_hi, y_max, sign=1.0):
    """Seeded z with |z| log-uniform in (r_lo, r_hi], 0 <= sign*Im z <= y_max."""
    pts = []
    for _ in range(n):
        r = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
        y = rng.uniform(0.0, min(r, y_max))
        pts.append(complex(rng.choice((-1.0, 1.0)) * math.sqrt(r * r - y * y), sign * y))
    return pts


class TestHankelRoutes:
    """H1 from the series' J + iY for |z| < R_s = 3, elsewhere from the Gauss rule
    in the upper half plane and by reflection below the real axis."""

    R_S = special_functions._H1_SERIES_RADIUS

    @pytest.mark.parametrize("r_lo, r_hi, y_max, sign, tol, oracle", [
        # the rule alone, where the series' J + iY once lost up to 4.7e-10
        (R_S, 14.0, 3.0, 1.0, 1e-12, None),
        # mpmath's J + iY would need 65 digits at Im z = 40; its K at -iz needs 20
        (14.0, 600.0, 40.0, 1.0, 1e-14, mp_hankel1_upper),
        # H1 = 2J - conj(H1(conj z)), J from the rule pair near the real axis
        (R_S, 14.0, 14.0, -1.0, 1e-13, None),
    ], ids=["near-the-real-axis", "beyond-14", "lower-half-plane"])
    def test_against_mpmath(self, rng, r_lo, r_hi, y_max, sign, tol, oracle):
        oracle = oracle or (lambda nu, z: mp_bessel_jh(nu, z)[1])
        for z in _ring(rng, 40, r_lo, r_hi, y_max, sign):
            for ours, ref in zip(_h01(z), (oracle(0, z), oracle(1, z))):
                assert abs(ours - ref) <= tol * abs(ref)

    def test_series_meets_rule_on_the_seam(self, monkeypatch):
        # the whole circle |z| = R_s, both half planes; measured 9.2e-14
        pts = [self.R_S * cmath.exp(1j * math.pi * k / 360) for k in range(-360, 360)]
        series = [special_functions._series_01(z, True) for z in pts]
        monkeypatch.setattr(special_functions, "_H1_SERIES_RADIUS", 0.0)
        for z, (j0, j1, y0, y1) in zip(pts, series):
            for ours, ref in zip((j0 + 1j * y0, j1 + 1j * y1), _h01(z)):
                assert abs(ours - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_seam_at_radius_3(self, nu):
        # inside the seam H1 = J + iY from the series, outside it the rule; the
        # points are 2e-12 apart, and the values differ by up to 2.8e-12
        for k in range(-180, 180):
            t = cmath.exp(1j * math.pi * k / 180)
            inside = _jh(nu, (self.R_S - 1e-12) * t)
            outside = _jh(nu, (self.R_S + 1e-12) * t)
            for i, o in zip(inside, outside):
                assert abs(o - i) <= 1e-10 * abs(o)


class TestKRule:
    """The 24-node Gauss rule behind H1 and J beyond the series: K_0 and K_1."""

    @staticmethod
    def _rel(x):
        # at 19 digits mpmath's K is within 1e-20 of its 30-digit value on these
        # points, and 50 times faster than at 20 digits near |x| = 40
        with mpmath.workdps(19):
            refs = mpmath.besselk(0, x), mpmath.besselk(1, x)
            return max(float(abs(ours - ref) / abs(ref))
                       for ours, ref in zip(special_functions._k01(x), refs))

    def test_weights_sum_to_one(self):
        assert abs(math.fsum(special_functions._RULE_W) - 1.0) <= 1e-15

    def test_against_mpmath_in_the_right_half_plane(self, rng):
        # 3 <= |x| <= 700, |arg x| <= pi/2: H1 at -iz, and J's half at -iw
        pts = [cmath.rect(math.exp(rng.uniform(math.log(3.0), math.log(700.0))),
                          rng.uniform(-math.pi / 2, math.pi / 2)) for _ in range(80)]
        pts += [complex(0.0, y) for y in (3.0, -3.0, 40.0, -700.0)] + [3.0, 700.0]
        assert max(self._rel(x) for x in pts) <= 5e-15

    def test_against_mpmath_on_the_left_arc_40(self):
        # Re x < 0 on |x| = 40: J's half at iw where the series band ends
        pts = [cmath.rect(40.0, sign * math.pi * (0.5 + k / 200)) for k in range(1, 100)
               for sign in (1.0, -1.0)]
        assert max(self._rel(x) for x in pts + [complex(-40.0, 0.0)]) <= 5e-15

    def test_branch_point_on_a_node(self):
        # at z = i s/2 for the largest node s, J's K(iw) has 1 + s/(2x) = 0 exactly
        z = 0.5j * special_functions._RULE_S[-1]
        for w in (z, -z):
            for ours, ref in zip(_j01(w), mp_bessel_j01(w)):
                assert abs(ours - ref) <= 1e-14 * abs(ref)


class TestJRoutes:
    """J from the series where |z| - |Im z| <= 5 and |z| <= 40, elsewhere from
    the rule pair (K_0(-iw) - K_0(iw))/(pi i) at w = |Re z| + i|Im z|."""

    M = special_functions._J_SERIES_MARGIN
    R = special_functions._J_SERIES_RADIUS

    @staticmethod
    def _rel(z):
        return max(abs(ours - ref) / abs(ref) for ours, ref in zip(_j01(z), mp_bessel_j01(z)))

    def test_against_mpmath_at_all_arguments(self, rng):
        # |z| log-uniform in (0.05, 700], |Im z| <= 705
        worst = 0.0
        for _ in range(300):
            r = math.exp(rng.uniform(math.log(0.05), math.log(700.0)))
            y = rng.uniform(-min(r, 705.0), min(r, 705.0))
            z = complex(rng.choice((-1.0, 1.0)) * math.sqrt(r * r - y * y), y)
            worst = max(worst, self._rel(z))
        assert worst <= 5e-14

    def test_near_the_real_axis_between_6_and_14(self, rng):
        # the series alone lost up to 2.4e-11 here: its terms reach I_0(|z|)
        for z in _ring(rng, 40, 6.0, 14.0, 1.0) + _ring(rng, 40, 6.0, 14.0, 1.0, -1.0):
            assert self._rel(z) <= 1e-13

    def test_series_meets_cf2_pair_on_the_boundary(self, monkeypatch):
        # named for the CF2 pair that the rule replaced; the boundary is
        # |z| - |Im z| = M for |z| <= R, and the arc |z| = R with |Im z| >= R - M
        curve = [complex(math.sqrt(2.0 * self.M * y + self.M ** 2), y)
                 for y in np.linspace(0.0, self.R - self.M, 120)]
        top = math.asin((self.R - self.M) / self.R)
        arc = [self.R * cmath.exp(1j * t) for t in np.linspace(top, math.pi / 2, 30)]
        pts = [p for q in curve + arc for p in (q, -q, q.conjugate(), -q.conjugate())]
        series = [special_functions._series_01(z, False) for z in pts]
        monkeypatch.setattr(special_functions, "_J_SERIES_RADIUS", 0.0)
        for z, pair in zip(pts, series):
            for ours, ref in zip(_j01(z), pair):
                assert abs(ours - ref) <= 1e-13 * abs(ref)


class TestSeriesPass:
    """One Horner pass in q = -z^2/4 with a term count fixed by |z|."""

    KMAX = special_functions._KMAX
    M = special_functions._J_SERIES_MARGIN
    R = special_functions._J_SERIES_RADIUS

    @staticmethod
    def _exact_row(k):
        # degree k of J_0, J_1/(z/2) and the Y_0, Y_1 sums, as fractions
        a, h = Fraction(1, math.factorial(k) ** 2), sum(Fraction(1, i) for i in range(1, k + 1))
        return a, a / (k + 1), h * a, (2 * h + Fraction(1, k + 1)) * a / (k + 1)

    def test_table_is_correctly_rounded(self):
        rows = special_functions._COEF[::-1]
        assert len(rows) == self.KMAX
        for k in range(self.KMAX):
            assert rows[k] == tuple(float(c) for c in self._exact_row(k))

    def test_count_rule_drops_terms_below_1e_18(self):
        # the first dropped term, the largest exact degree-n coefficient times
        # (|z|/2)^{2n}, on a fine grid out to the J series' radius
        top = [float(max(self._exact_row(n))) for n in range(self.KMAX + 1)]
        radii = np.concatenate([np.geomspace(1e-300, 1.0, 2001),
                                np.linspace(0.0, self.R, 40001)[1:]])
        for r in radii:
            n = bisect(special_functions._TERM_RADII, r)
            assert 1 <= n < self.KMAX
            assert top[n] * (0.5 * r) ** (2 * n) < 1e-18

    def test_j_band_against_mpmath(self, rng):
        # |z| - |Im z| <= 5 out to |z| = 40, where J comes from the series alone
        worst = 0.0
        for _ in range(200):
            r = math.exp(rng.uniform(math.log(0.05), math.log(self.R)))
            y = rng.choice((-1.0, 1.0)) * rng.uniform(max(r - self.M, 0.0), r)
            z = complex(rng.choice((-1.0, 1.0)) * math.sqrt(r * r - y * y), y)
            worst = max(worst, max(abs(o - f) / abs(f) for o, f in zip(_j01(z), mp_bessel_j01(z))))
        assert worst <= 5e-14

    @pytest.mark.parametrize("zero", [2.404825557695773, 3.8317059702075125])
    def test_near_the_first_zeros(self, zero):
        # J_0 and J_1 pass through 0 here, so the error is measured absolutely:
        # the fixed count does not depend on the size of the sum
        for k in range(16):
            for z in (zero + 1e-6 * cmath.exp(2j * math.pi * k / 16), complex(zero)):
                for ours, ref in zip(_j01(z), mp_bessel_j01(z)):
                    assert abs(ours - ref) <= 2e-15

    def test_y_sums_down_to_1e_300(self, rng):
        # H1 = J + iY from the series for |z| < 3, |z| log-uniform from 1e-300
        for _ in range(100):
            z = cmath.rect(math.exp(rng.uniform(math.log(1e-300), math.log(3.0))),
                           rng.uniform(-math.pi, math.pi))
            with mpmath.workdps(30):  # J + iY cancels by at most e^6 here
                refs = [complex(mpmath.hankel1(nu, mpmath.mpc(z))) for nu in (0, 1)]
            for ours, ref in zip(_h01(z), refs):
                assert abs(ours - ref) <= 2e-15 * abs(ref)


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter on this checkout; fail on a non-zero exit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stepspectra.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_library_never_imports_mpmath():
    # a fresh interpreter: the test process itself has mpmath loaded by conftest
    _run_fresh(
        "import sys\n"
        "from stepspectra.special_functions import _h01\n"
        "from stepspectra.step_model import radial_secular\n"
        "radial_secular(-8 + 0.5j, 1.0, -11.5 + 0.7j, 2)\n"
        "_h01(-2 + 4j)\n"
        "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
    )


SPARSE_NAMES = (
    "EnvelopeParams", "SeparationSequence", "TargetSequence", "M_pq", "M_pq_L", "assemble_sparse",
    "choose_L", "h_L", "kappa_alpha", "kappa_tilde", "magnitude_check", "omega_q", "s_of_L_z",
    "sep", "sequence_condition_value", "strong_separation_check",
)


def test_package_and_cli_load_the_sparse_builder_and_svg_on_first_use():
    # a fresh interpreter: the test process has sparse_builder loaded by other
    # test modules, and a package __getattr__ that imports with "from . import"
    # recurses only on the first access
    _run_fresh(
        "import sys, stepspectra, stepspectra.cli\n"
        "early = [m for m in ('stepspectra.sparse_builder', 'stepspectra._svg') if m in sys.modules]\n"
        "assert not early, f'loaded at import: {early}'\n"
        "sb = stepspectra.sparse_builder\n"
        "assert sb is sys.modules['stepspectra.sparse_builder']\n"
        "assert stepspectra.assemble_sparse is sb.assemble_sparse\n"
        "from stepspectra import choose_L\n"
        "assert choose_L is sb.choose_L\n"
        f"names = {SPARSE_NAMES!r}\n"
        "assert all(getattr(stepspectra, n) is getattr(sb, n) for n in names)\n"
        "assert set(names) | {'sparse_builder', 'Region'} <= set(dir(stepspectra))\n"
        "try:\n"
        "    stepspectra.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('no AttributeError for an unknown name')\n"
    )
