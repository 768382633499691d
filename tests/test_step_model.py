import cmath
import math
import time

import mpmath
import numpy as np
import pytest

from stepspectra import special_functions
from stepspectra.errors import (
    ConvergenceError,
    PoleProximityError,
    StepSpectraError,
    UnsupportedDomainError,
)
from stepspectra.schrodinger_1d import PiecewisePotential, global_secular, reconstruct_eigenfunction
from stepspectra.special_functions import sqrt_upper
from stepspectra.spectral_count import Region, locate_zeros
from stepspectra.step_model import (
    StepBump,
    bump_norm_lq,
    chi_match,
    construct_bump,
    davies_nath,
    energy,
    radial_secular,
    secular_entire,
    solve_for_v0,
)

from conftest import mp_bessel_jh, real_well_parity_states


def mp_d3_wronskian(v0: complex, R: float, E):
    """The d = 3 s-wave Wronskian kappa*J'(kappa R)*H1(chi R) - chi*J(kappa R)*H1'(chi R)
    at order 1/2, as an mpmath number, from mpmath's general-order Bessel
    functions.  H1 = J + iY cancels by e^{2|Im chi R|}, so the precision is 15
    digits above the working one plus that loss; H1' = (H1_{-1/2} - H1_{3/2})/2."""
    chi = mpmath.sqrt(E)
    chi = -chi if chi.imag < 0 else chi
    with mpmath.extradps(15 + math.ceil(2.0 * abs(float(chi.imag) * R) / math.log(10.0))):
        kappa = mpmath.sqrt(mpmath.mpc(E) - mpmath.mpc(v0))
        kr, cr = kappa * R, chi * R
        j, dj = mpmath.besselj(0.5, kr), mpmath.besselj(0.5, kr, derivative=1)
        h = mpmath.hankel1(0.5, cr)
        dh = (mpmath.hankel1(-0.5, cr) - mpmath.hankel1(1.5, cr)) / 2
        return +(kappa * dj * h - chi * j * dh)


def mp_d3_root(v0: complex, R: float, seed: complex) -> complex:
    """A zero of :func:`mp_d3_wronskian` by mpmath ``findroot`` at 30 digits from ``seed``."""
    with mpmath.workdps(30):
        return complex(mpmath.findroot(lambda E: mp_d3_wronskian(v0, R, E), mpmath.mpc(seed)))


def random_kappa_R_parity(rng, min_trig=0.1):
    """Sample (kappa, R, parity) in the test annulus, away from trig poles."""
    while True:
        kap = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        R = rng.uniform(0.5, 5.0)
        parity = "odd" if rng.random() < 0.5 else "even"
        w = kap * R
        guard = abs(cmath.sin(w)) if parity == "odd" else abs(cmath.cos(w))
        if guard > min_trig:
            return kap, R, parity


class TestSecular:
    def test_free_step_has_no_zeros(self):
        # v0 = 0: i*chi = chi*cot(chi*R) would need cot(w) = i, which has no
        # finite solution, so the free secular never vanishes off the cut
        b = StepBump(0.0, 1.0)
        for E in (-1 + 0.3j, -2 - 0.5j, 4j, -0.25, 9 + 1j):
            assert abs(1j * (sqrt_upper(E) - chi_match(b, E, "odd"))) > 1e-2
            assert abs(1j * (sqrt_upper(E) - chi_match(b, E, "even"))) > 1e-2

    def test_odd_value_at_cot_zero(self):
        # kappa*R = pi/2 kills cot, value reduces to i*chi
        R = 1.3
        kap = math.pi / 2 / R
        v0 = 0.7 - 0.2j
        E = energy(kap, v0)
        val = 1j * (sqrt_upper(E) - chi_match(StepBump(v0, R), E, "odd"))
        assert val == pytest.approx(1j * sqrt_upper(E), rel=1e-12)

    def test_pole_guard(self):
        R = 1.0
        kap = math.pi  # sin(kappa R) = 0
        b = StepBump(-1.0, R)
        with pytest.raises(PoleProximityError) as err:
            chi_match(b, energy(kap, -1.0), "odd")
        assert err.value.distance is not None and err.value.distance < 1e-8

    def test_scaling_covariance_of_secular(self, rng):
        # (v0, R) -> (lam^2 v0, R/lam) maps each zero E to lam^2 E
        for _ in range(50):
            kap, R, parity = random_kappa_R_parity(rng)
            v0 = solve_for_v0(kap, R, parity)
            E = energy(kap, v0)
            b = StepBump(v0, R)
            if not chi_match(b, E, parity).imag > 0:
                continue
            for lam in (0.5, 2.0):
                scaled, E_scaled = StepBump(lam * lam * v0, R / lam), lam * lam * E
                res = abs(1j * (sqrt_upper(E_scaled) - chi_match(scaled, E_scaled, parity)))
                assert res < 1e-9 * (1.0 + lam * abs(kap))

    def test_branch_independence_in_kappa(self, rng):
        # the secular depends on kappa^2 only; flipping the branch of
        # sqrt(E - v0) cannot change the value
        for _ in range(100):
            v0 = complex(rng.normal(0, 2), rng.normal(0, 2))
            E = complex(rng.normal(0, 2), rng.normal(1, 1))
            b = StepBump(v0, 1.7)
            try:
                v1 = 1j * (sqrt_upper(E) - chi_match(b, E, "even"))
            except PoleProximityError:
                continue
            kap = cmath.sqrt(E - v0)
            w = -kap * b.half_width
            v2 = 1j * sqrt_upper(E) + (-kap) * cmath.sin(w) / cmath.cos(w)
            assert v1 == pytest.approx(v2, rel=1e-12)


class TestSolveForV0:
    def test_even_sec_pi(self):
        assert solve_for_v0(1.0, math.pi, "even") == pytest.approx(-1.0, rel=1e-14)

    def test_even_imaginary_kappa(self):
        val = solve_for_v0(1j, 1.0, "even")
        assert val == pytest.approx(1.0 / math.cosh(1.0) ** 2, rel=1e-13)
        assert val == pytest.approx(0.419974, abs=1e-6)

    def test_round_trip_property(self, rng):
        for _ in range(300):
            kap, R, parity = random_kappa_R_parity(rng)
            v0 = solve_for_v0(kap, R, parity)
            E = energy(kap, v0)
            # the secular on the sheet of E's square root nearest the matched momentum
            chi, chi_m = sqrt_upper(E), chi_match(StepBump(v0, R), E, parity)
            res = min(abs(chi - chi_m), abs(-chi - chi_m))
            assert res < 1e-12 * (1.0 + abs(kap))

    def test_physical_round_trips_vanish_on_printed_secular(self, rng):
        # where the matched sheet coincides with the upper branch, the
        # printed formula vanishes as well
        seen = 0
        for _ in range(400):
            kap, R, parity = random_kappa_R_parity(rng)
            v0 = solve_for_v0(kap, R, parity)
            E = energy(kap, v0)
            b = StepBump(v0, R)
            if chi_match(b, E, parity).imag > 0:
                seen += 1
                assert abs(1j * (sqrt_upper(E) - chi_match(b, E, parity))) < 1e-12 * (1.0 + abs(kap))
        assert seen > 10


class TestPhysicalSheet:
    def test_real_well_ground_state(self):
        E0 = real_well_parity_states(1.0, 1.0, "even")[0]
        assert E0 == pytest.approx(-0.4538, abs=5e-5)
        b = StepBump(-1.0, 1.0)
        assert abs(1j * (sqrt_upper(E0) - chi_match(b, E0, "even"))) < 1e-10
        assert chi_match(b, E0, "even").imag > 0

    def test_growing_exterior(self):
        # odd, kappa = 0.5, R = 1: chi_match = -i*0.5*cot(0.5) is negative
        # imaginary -> exponentially growing exterior
        v0 = solve_for_v0(0.5, 1.0, "odd")
        E = energy(0.5, v0)
        b = StepBump(v0, 1.0)
        cm = chi_match(b, E, "odd")
        assert cm == pytest.approx(-0.5 / math.tan(0.5) * 1j, rel=1e-12)
        assert cm.imag < 0
        assert not chi_match(b, E, "odd").imag > 0

    def test_threshold_is_not_physical(self):
        R = 1.0
        kap = math.pi / 2  # cot vanishes, chi_match = 0
        v0 = 1.0 - 0.5j
        E = energy(kap, v0)
        assert not chi_match(StepBump(v0, R), E, "odd").imag > 0


class TestEnergy:
    def test_trivial(self):
        assert energy(2j, -1.0) == -5.0
        assert energy(1.0, 1j) == 1 + 1j
        assert energy(-1 + 0.1j, 0.0) == pytest.approx(0.99 - 0.2j)


class TestNorms:
    def test_lq_values(self):
        b = StepBump(0.1, 5.0)
        assert bump_norm_lq(b, 1.0) == pytest.approx(1.0)
        assert bump_norm_lq(b, 2.0) == pytest.approx(0.1 * math.sqrt(10.0))
        assert bump_norm_lq(b, math.inf) == pytest.approx(0.1)

    def test_q_below_1_or_nan_rejected(self):
        b = StepBump(0.1, 5.0)
        for q in (0.5, math.nan):
            with pytest.raises(ValueError, match="q must be >= 1"):
                bump_norm_lq(b, q)
            with pytest.raises(ValueError, match="q must be >= 1"):
                davies_nath(b, q, 1.0)

    def test_davies_nath_value(self):
        val = davies_nath(StepBump(1.0, 1.0), 1.0, 1.0)
        assert val == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=1e-14)
        assert val == pytest.approx(1.26424, abs=1e-5)

    def test_davies_nath_small_s_limit(self):
        b = StepBump(0.3 + 0.1j, 2.0)
        for q in (1.0, 2.0, 3.0):
            assert davies_nath(b, q, 1e-9) == pytest.approx(bump_norm_lq(b, q), rel=1e-6)

    def test_davies_nath_homogeneity(self):
        b1 = StepBump(0.7j, 1.5)
        b2 = StepBump(1.4j, 1.5)
        assert davies_nath(b2, 1.0, 0.3) == pytest.approx(2 * davies_nath(b1, 1.0, 0.3))


class TestConstructBump:
    def test_acceptance_family(self):
        prev_v0 = None
        prev_R = None
        for im in (0.1, 0.05, 0.02):
            zeta = 1 + im * 1j
            rep = construct_bump(zeta, sigma=1.0)
            assert rep.residual < 1e-10
            assert abs(rep.bump.v0) <= 10.0 * im
            pot = PiecewisePotential.from_bumps([rep.bump])
            assert abs(global_secular(pot, zeta)) < 1e-8
            if prev_v0 is not None:
                # |V0| tracks Im zeta: halving Im zeta halves |V0| (10% slack)
                assert abs(rep.bump.v0) <= 1.1 * abs(prev_v0) * (im / prev_im)
                assert rep.bump.half_width > prev_R
            prev_v0, prev_R, prev_im = rep.bump.v0, rep.bump.half_width, im

    def test_scaling_covariance(self):
        r1 = construct_bump(1 + 0.1j)
        r4 = construct_bump(4 * (1 + 0.1j))
        assert r4.bump.v0 == pytest.approx(4 * r1.bump.v0, rel=1e-12)
        assert r4.bump.half_width == pytest.approx(r1.bump.half_width / 2, rel=1e-12)

    def test_envelope_factors(self):
        # width, norm and Davies-Nath envelopes of the construction,
        # all within the factor-10 window
        for im in (0.1, 0.05, 0.02):
            zeta = 1 + im * 1j
            rep = construct_bump(zeta)
            s = sqrt_upper(zeta).imag
            logterm = abs(math.log(abs(zeta.imag / zeta)))
            width_env = abs(zeta) ** 0.5 / im * logterm
            assert 0.1 < rep.bump.half_width / width_env < 10.0
            for q in (1.0, 2.0):
                env_norm = abs(zeta) ** (0.5 / q) * im ** (1 - 1 / q) * logterm ** (1 / q)
                ratio = bump_norm_lq(rep.bump, q) / env_norm
                assert 0.1 < ratio < 10.0
                env_dn = abs(zeta) ** (0.5 / q) * im ** (1 - 1 / q)
                ratio_dn = davies_nath(rep.bump, q, s) / env_dn
                assert 0.1 < ratio_dn < 10.0

    def test_rejects_lower_half_and_outside_sector(self):
        with pytest.raises(ValueError):
            construct_bump(1 - 0.1j)
        with pytest.raises(ValueError):
            construct_bump(0.1 + 0.5j)  # aperture violated

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0, -1.0])
    def test_sigma_outside_positive_finite_rejected(self, sigma):
        # sigma = inf ran Newton from the seed -1 + inf*i and raised ConvergenceError
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            construct_bump(1 + 0.1j, sigma=sigma)

    def test_newton_leaving_the_seed_neighbourhood_raises(self):
        # from the seed -1 + 1.87i the iterates run off to about -0.99 - 0.09i
        with pytest.raises(ConvergenceError, match="did not converge") as info:
            construct_bump(1 + 0.19j, sigma=20)
        assert abs(info.value.last_iterate - complex(-1.0, 20 * 0.19 / abs(1 + 0.19j) / 2)) > 0.5
        assert info.value.residual > 1.0

    def test_sheet_below_newton_resolution_raises(self):
        # Im sqrt(zeta) = 5e-301 is far below the Newton tolerance: the converged
        # point's Im chi_match would have the sign rounding gave it
        with pytest.raises(UnsupportedDomainError, match="physical sheet cannot be resolved"):
            construct_bump(1 + 1e-300j)


class TestEigenfunction:
    # the one-bump eigenstate, through the transfer sweep
    def test_real_well_bound_state_symmetric_real(self):
        E0 = real_well_parity_states(1.0, 1.0, "even")[0]
        pot = PiecewisePotential.from_bumps([StepBump(-1.0, 1.0, center=0.7)])
        pair = np.array([0.7 - 1.3, 0.7 + 1.3])
        xs = np.sort(np.concatenate([np.linspace(-4.0, 5.4, 801), pair]))
        psi = reconstruct_eigenfunction(pot, E0, xs)
        # real up to a global phase
        phase = psi[np.argmax(np.abs(psi))]
        rotated = psi * np.conj(phase) / abs(phase)
        assert np.max(np.abs(rotated.imag)) < 1e-10
        # even symmetry about the center
        psi_left, psi_right = psi[np.searchsorted(xs, pair)]
        assert psi_left == pytest.approx(psi_right, rel=1e-12)

    def test_matching_at_edges(self):
        zeta = 1 + 0.08j
        b = construct_bump(zeta).bump
        edge = b.support[1]
        h = 1e-6
        xs = np.array([edge - 3 * h, edge - h, edge + h, edge + 3 * h])
        psi_m3, inner, outer, psi_p3 = reconstruct_eigenfunction(
            PiecewisePotential.from_bumps([b]), zeta, xs)
        d_in = (inner - psi_m3) / (2 * h)
        d_out = (psi_p3 - outer) / (2 * h)
        assert abs(inner - outer) < 1e-5 * abs(inner)
        # relative to |d_in| alone: the sweep's normalization is on xs
        assert abs(d_in - d_out) < 1e-3 * abs(d_in)


class TestRadialSecular:
    #: the rectangle on which the order-1/2 Wronskian's kappa cut broke the winding count
    FOUND_RECT = (-20.0, -0.5, -1.5, 1.7)

    def test_d3_found_rectangle_one_zero_at_the_oracle_root(self):
        v0, R = -10 + 1j, 1.0
        rep = locate_zeros(lambda E: radial_secular(v0, R, E, 3), Region.rectangle(*self.FOUND_RECT))
        root = mp_d3_root(v0, R, -4.6 + 0.8j)
        assert rep.complete and [z.multiplicity for z in rep.zeros] == [1]
        assert abs(rep.zeros[0].location - root) <= 1e-10

    def test_d3_zeros_match_the_oracle_on_seeded_wells(self, rng):
        region = Region.rectangle(*self.RECT)
        for _ in range(3):
            v0, R = complex(rng.uniform(-12.0, -5.0), rng.uniform(-0.8, 0.8)), rng.uniform(0.8, 1.4)
            # the oracle is (2i/pi)*kappa*e^{i chi R}/(sqrt(kappa R)*sqrt(chi R))
            # times the value, principal roots; that factor is zero-free off
            # E = v0, so the zero sets agree there
            for _ in range(5):
                E = complex(rng.uniform(*self.RECT[:2]), rng.uniform(*self.RECT[2:]))
                kappa, chi = cmath.sqrt(E - v0), sqrt_upper(E)
                factor = 2j / math.pi * kappa * cmath.exp(1j * chi * R) / (
                    cmath.sqrt(kappa * R) * cmath.sqrt(chi * R))
                ref = complex(mp_d3_wronskian(v0, R, E))
                assert abs(factor * radial_secular(v0, R, E, 3) - ref) <= 1e-12 * abs(ref)
            rep = locate_zeros(lambda E: radial_secular(v0, R, E, 3), region)
            assert rep.complete and rep.zeros
            for z in rep.zeros:
                assert z.multiplicity == 1
                assert abs(z.location - mp_d3_root(v0, R, z.location)) <= 1e-10

    def test_d3_at_E_equal_v0_is_finite(self):
        # kappa = 0: sin(kappa R)/kappa -> R and cos(kappa R) -> 1
        v0, R = -10 + 1j, 1.0
        assert abs(radial_secular(v0, R, v0, 3) - (1j * sqrt_upper(v0) * R - 1.0)) <= 1e-15

    def test_d3_zero_matches_textbook_count(self):
        # sqrt(|V0|) R = sqrt(10) > pi/2: exactly one s-wave bound state
        oracle = real_well_parity_states(10.0, 1.0, "odd")
        assert len(oracle) == 1
        E0 = oracle[0]
        assert abs(radial_secular(-10.0, 1.0, E0, 3)) < 1e-9

    def test_free_no_zeros(self):
        for E in (-1 + 0.5j, -0.5 - 0.2j):
            assert abs(radial_secular(1e-300, 1.0, E, 3)) > 1e-3

    def test_d2_runs_and_detects_bound_state(self):
        # deep well in d = 2 has an s-wave bound state; at real E < 0 the
        # Wronskian is purely imaginary, so bisect its imaginary part
        from scipy.optimize import brentq

        grid = np.linspace(-4.0, -0.1, 200)
        vals = [radial_secular(-5.0, 1.0, E, 2).imag for E in grid]
        signs = np.sign(vals)
        flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        assert len(flips) == 1
        i = flips[0]
        root = brentq(lambda E: radial_secular(-5.0, 1.0, E, 2).imag, grid[i], grid[i + 1])
        assert abs(radial_secular(-5.0, 1.0, root, 2)) < 1e-9

    @pytest.mark.parametrize("E", [-11.5 + 0.7j, -10 - 1.2j])
    def test_d2_against_mpmath_wronskian(self, E):
        # |chi R| >= 3: H1 at chi R comes from the Gauss rule for K
        v0, R = -8 + 0.5j, 1.0
        kappa, chi = cmath.sqrt(E - v0), sqrt_upper(E)
        assert abs(chi * R) >= 3.0
        j, _, dj, _ = mp_bessel_jh(0, kappa * R)
        _, h, _, dh = mp_bessel_jh(0, chi * R)
        ref = kappa * dj * h - chi * j * dh
        assert abs(radial_secular(v0, R, E, 2) - ref) <= 1e-10 * abs(ref)
        start = time.perf_counter()
        for _ in range(100):
            radial_secular(v0, R, E, 2)
        assert (time.perf_counter() - start) / 100 < 1e-3

    #: three complex wells (v0, R) and the rectangle (re_lo, re_hi, im_lo, im_hi)
    #: the d = 2 zeros are located in by the radial benchmark
    WELLS = ((-5.0 + 0.3j, 1.0), (-8.0 + 0.5j, 1.0), (-7.0 - 0.4j, 1.0))
    RECT = (-12.0, -0.5, -1.5, 1.7)

    def _rect_points(self, rng, R, series_side, n=10):
        """Seeded E in the rectangle with |chi R| < 3 (H1 from the Y series) or,
        with ``series_side`` false, |chi R| >= 3 (H1 from the Gauss rule)."""
        pts = []
        while len(pts) < n:
            E = complex(rng.uniform(*self.RECT[:2]), rng.uniform(*self.RECT[2:]))
            if (abs(sqrt_upper(E) * R) < 3.0) == series_side:
                pts.append(E)
        return pts

    @staticmethod
    def _j_zero_points(v0, R):
        """E putting kappa*R within 1e-6 of the first zeros of J_0 and J_1 (those
        of J_1 lie right of the rectangle, at Re E > 6, for these wells)."""
        return [v0 + ((zero + size * direction) / R) ** 2
                for zero in (2.404825557695773, 3.831705970207512)
                for size in (1e-6, 1e-10) for direction in (1, 1j, -1j)]

    @staticmethod
    def _mp_wronskian(v0, R, E):
        kappa, chi = cmath.sqrt(E - v0), sqrt_upper(E)
        j, _, dj, _ = mp_bessel_jh(0, kappa * R)
        _, h, _, dh = mp_bessel_jh(0, chi * R)
        return kappa * dj * h - chi * j * dh

    def test_d2_series_side_against_mpmath_wronskian(self, rng):
        # |chi R| < 3: H1 at chi R comes from the one-pass Y series; by J_1's
        # zeros |chi R| is about 3.1, so those points meet the rule
        lower = 0
        for v0, R in self.WELLS:
            for E in self._rect_points(rng, R, True) + self._j_zero_points(v0, R):
                lower += cmath.sqrt(E - v0).imag < 0
                ref = self._mp_wronskian(v0, R, E)
                assert abs(radial_secular(v0, R, E, 2) - ref) <= 1e-11 * abs(ref)
        assert lower >= 20

    def test_d2_rule_side_against_mpmath_wronskian(self, rng):
        # |chi R| >= 3: H1 at chi R comes from the Gauss rule for K
        signs = set()
        for v0, R in self.WELLS:
            for E in self._rect_points(rng, R, False):
                signs.add(cmath.sqrt(E - v0).imag > 0)
                ref = self._mp_wronskian(v0, R, E)
                assert abs(radial_secular(v0, R, E, 2) - ref) <= 1e-12 * abs(ref)
        assert signs == {True, False}

    def test_d2_one_bessel_pass_per_argument(self, monkeypatch, rng):
        # a machine-independent cost: J alone at kappa*R, H1 alone at chi*R
        calls = []
        series, rule = special_functions._series_01, special_functions._k01
        monkeypatch.setattr(special_functions, "_series_01",
                            lambda z, with_y: calls.append(("series", z, with_y)) or series(z, with_y))
        # H1 at z takes the rule at x = -iz
        monkeypatch.setattr(special_functions, "_k01",
                            lambda x: calls.append(("rule", 1j * x, True)) or rule(x))
        rule_side = 0
        for v0, R in self.WELLS:
            for _ in range(30):
                E = complex(rng.uniform(*self.RECT[:2]), rng.uniform(*self.RECT[2:]))
                kappa_R, chi_R = cmath.sqrt(E - v0) * R, sqrt_upper(E) * R
                calls.clear()
                radial_secular(v0, R, E, 2)
                h1_call = ("rule", chi_R, True) if abs(chi_R) >= 3.0 else ("series", chi_R, True)
                rule_side += abs(chi_R) >= 3.0
                assert len(calls) == 2
                assert ("series", kappa_R, False) in calls and h1_call in calls
        assert 5 <= rule_side <= 85

    def test_d2_beyond_float_range_is_typed(self):
        # Im(kappa R), Im(chi R) ~ 720: H1 is below every normal float
        with pytest.raises(UnsupportedDomainError):
            radial_secular(-8 + 0.5j, 1.0, -518400 + 1j, 2)

    @pytest.mark.parametrize("R", [1e-160, 1e-170])
    def test_d2_tiny_chi_R_is_typed(self, R):
        # chi R = 1e-310 and 1e-320: H1_1 ~ -2i/(pi chi R) overflows, once a NaN
        with pytest.raises(UnsupportedDomainError):
            radial_secular(-5 + 0.3j, R, 1e-300, 2)

    @pytest.mark.parametrize("v0, R, E", [(-5 + 0.3j, 1e300, 1e100), (1e300, 1e200, 1.0)])
    def test_d2_kappa_R_or_chi_R_beyond_float_range_is_typed(self, v0, R, E):
        # finite inputs whose kappa*R or chi*R overflows to inf
        with pytest.raises(UnsupportedDomainError):
            radial_secular(v0, R, E, 2)

    def test_d2_large_chi_times_growing_J_is_the_wronskian(self):
        # kappa = chi to 1e-370, so the value is J_0 H1_1 - J_1 H1_0 = -2i/(pi chi R)
        # times chi; chi*J_0 alone is about 8e383
        R = 1.310303515206526e-139
        value = radial_secular(2.633272026913203e-86 - 7.203443230655259e-87j, R,
                               1.069788778781222e+284 + 9.593723592856036e+283j, 2)
        assert abs(value - (-2j / (math.pi * R))) <= 1e-12 * (2.0 / (math.pi * R))

    def test_d2_tiny_chi_times_growing_J_stays_finite(self):
        # H1_1(chi R) ~ 1e140 and J_0(kappa R) ~ e^{415}: J*H1 first would overflow
        value = radial_secular(-1e6 - 9e5j, 1.0, 1e-280j, 2)
        assert cmath.isfinite(value)

    @pytest.mark.parametrize("d", [2, 3])
    def test_log_sweep_gives_a_finite_value_or_a_typed_error(self, rng, d):
        # 400 seeded (v0, R, E) with moduli from 1e-300 to 1e300 and any phase
        mods = 10.0 ** rng.uniform(-300, 300, (400, 3))
        phases = np.exp(2j * math.pi * rng.uniform(size=(400, 2)))
        typed = 0
        for (mv, R, mE), (pv, pE) in zip(mods.tolist(), phases.tolist()):
            try:
                value = radial_secular(mv * pv, R, mE * pE, d)
            except StepSpectraError:
                typed += 1
                continue
            assert cmath.isfinite(value), (mv * pv, R, mE * pE)
        assert 0 < typed < 400
        if d == 2:  # 262 with the Wronskian's products formed left to right
            assert typed <= 261

    def test_d2_at_E_equal_v0_is_the_limit(self):
        # kappa = 0: the Wronskian tends to -chi*H1_0'(chi R), no Bessel call at 0
        v0, R = -8 + 0.5j, 1.0
        at = radial_secular(v0, R, v0, 2)
        near = radial_secular(v0, R, v0 + 1e-7, 2)
        assert np.isfinite(at.real) and np.isfinite(at.imag)
        assert abs(at - near) <= 1e-6 * abs(at)


class TestSecularEntire:
    def test_same_zeros_as_secular(self, rng):
        for _ in range(100):
            kap, R, parity = random_kappa_R_parity(rng)
            v0 = solve_for_v0(kap, R, parity)
            E = energy(kap, v0)
            b = StepBump(v0, R)
            if chi_match(b, E, parity).imag > 0:
                assert abs(secular_entire(b, E, parity)) < 1e-9 * (1 + abs(E))

    def test_no_pole_at_trig_zeros(self):
        b = StepBump(-1.0, 1.0)
        val = secular_entire(b, energy(math.pi, -1.0), "odd")
        assert np.isfinite(val.real) and abs(val) > 0.1

    def test_beyond_float_range_is_typed(self):
        # |Im kappa*R| ~ 1262: cmath.cos/sin themselves overflow
        with pytest.raises(UnsupportedDomainError):
            secular_entire(StepBump(-5.0, 40.0), -1000, "odd")
        # |Im kappa*R| ~ 709.2: cos/sin stay finite, chi*cos(w) does not
        with pytest.raises(UnsupportedDomainError):
            secular_entire(StepBump(-5.0, 1.0), -709.2**2, "even")
        # just inside float range the value is still returned
        val = secular_entire(StepBump(-5.0, 1.0), -709.2**2, "odd")
        assert np.isfinite(val.real) and abs(val) > 1e307


class TestInputChecks:
    @pytest.mark.parametrize("call", [
        lambda: secular_entire(StepBump(-1.0, 1.0), 1.0 + 1j, "both"),
        lambda: StepBump(-1.0, 0.0),
        lambda: StepBump(-1.0, math.inf),
        lambda: solve_for_v0(1.0 + 0.1j, 0.0, "odd"),
        lambda: solve_for_v0(1.0 + 0.1j, -1.0, "even"),
        lambda: radial_secular(-1.0, 0.0, 1.0 + 1j, 2),
        lambda: radial_secular(-1.0, -1.0, 1.0 + 1j, 3),
        lambda: radial_secular(-1.0, 1.0, 1.0 + 1j, 4),
        lambda: davies_nath(StepBump(-1.0, 1.0), 2.0, 0.0),
        lambda: davies_nath(StepBump(-1.0, 1.0), math.inf, -1.0),
    ], ids=["parity", "half-width-0", "half-width-inf",
            "v0-R-0", "v0-R-negative", "radial-R-0", "radial-R-negative", "radial-d-4",
            "davies-nath-s-0", "davies-nath-s-negative"])
    def test_refused(self, call):
        with pytest.raises(ValueError):
            call()

    def test_davies_nath_at_q_inf_is_the_sup_norm(self):
        assert davies_nath(StepBump(3.0 - 4.0j, 2.0), math.inf, 0.5) == 5.0
