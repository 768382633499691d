import math

import numpy as np
import pytest

from stepspectra.errors import NonSummableError, UnsupportedDomainError
from stepspectra.schrodinger_1d import PiecewisePotential
from stepspectra.sparse_builder import (
    DESK_DELTA_FLOOR,
    EnvelopeParams,
    SeparationSequence,
    TargetSequence,
    M_pq,
    M_pq_L,
    assemble_sparse,
    choose_L,
    ell_p_lq_norm,
    h_L,
    kappa_alpha,
    kappa_tilde,
    magnitude_check,
    omega_q,
    s_of_L_z,
    sep,
    sequence_condition_value,
    strong_separation_check,
)
from stepspectra.step_model import bump_norm_lq

GEOMETRIC = SeparationSequence(rule=lambda k: 2.0 ** k, convex_increments=True)
LINEAR = SeparationSequence(rule=lambda k: float(k), convex_increments=True)
LOGARITHMIC = SeparationSequence(rule=lambda k: math.log(k + 1), convex_increments=False)

ACCEPT_TARGETS = TargetSequence((1 + 0.08j, 1.3 + 0.06j, 0.8 + 0.05j))
ACCEPT_PARAMS = EnvelopeParams(d=1, q=2.0, p=4.0, alpha=1.0, gamma=1.0)


def desk_assembly():
    return assemble_sparse(ACCEPT_TARGETS, ACCEPT_PARAMS,
                           choose_L(ACCEPT_TARGETS, ACCEPT_PARAMS, mode="desk").lengths)


class TestTargetSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            TargetSequence((1 - 0.1j,))  # lower half plane
        with pytest.raises(ValueError):
            TargetSequence((0.1 + 0.5j,))  # outside sector
        with pytest.raises(ValueError):
            TargetSequence((1 + 0.05j, 1 + 0.08j))  # Im increasing
        with pytest.raises(ValueError):
            EnvelopeParams(d=1, q=0.5)  # q outside the admissible range
        with pytest.raises(ValueError, match="q > d"):
            choose_L(TargetSequence((1 + 0.05j,)), EnvelopeParams(d=1, q=1.0))  # q <= d

    def test_im_zeta_may_not_grow_by_more_than_rounding(self):
        # an absolute slack of 1e-15 let Im zeta grow 50-fold at this scale
        with pytest.raises(ValueError, match="nonincreasing"):
            TargetSequence((1 + 1e-17j, 1 + 5e-16j))
        with pytest.raises(ValueError, match="nonincreasing"):
            TargetSequence((1 + 0.1j, 1 + 0.1000001j))
        im = 1e-17
        TargetSequence((1 + 1j * im, 1 + 1j * im, 1 + 1j * (im + math.ulp(im))))

    @pytest.mark.parametrize("aperture", [math.nan, 0.0, -1.0])
    def test_aperture_not_above_zero_rejected(self, aperture):
        # a NaN aperture passed every zeta, and -1 passed -1 + 0.5i
        from stepspectra.step_model import _check_sector

        for zeta in (1 + 0.5j, -1 + 0.5j):
            with pytest.raises(ValueError, match="sector aperture must be > 0"):
                _check_sector(zeta, aperture)
            with pytest.raises(ValueError, match="sector aperture must be > 0"):
                TargetSequence((zeta,), sector_aperture=aperture)
        # with no target the aperture was never checked
        with pytest.raises(ValueError, match="sector aperture must be > 0"):
            TargetSequence((), sector_aperture=aperture)
        assert _check_sector(1 + 0.5j, math.inf) == 1 + 0.5j

    def test_sector_is_shared_with_the_bump(self):
        from stepspectra.step_model import SECTOR_APERTURE, construct_bump

        edge = 1 + 0.21j  # just outside the default sector, inside a wider one
        for build in (lambda a: TargetSequence((edge,), sector_aperture=a),
                      lambda a: construct_bump(edge, sector_aperture=a)):
            with pytest.raises(ValueError, match=rf"<= {SECTOR_APERTURE} \* Re z"):
                build(SECTOR_APERTURE)
            build(0.25)

    def test_condition_value(self):
        assert sequence_condition_value(TargetSequence(()), ACCEPT_PARAMS) == 0.0
        val = sequence_condition_value(TargetSequence((1 + 0.1j,)), ACCEPT_PARAMS)
        assert val == pytest.approx(0.481, abs=1e-3)

    def test_accumulating_sequence_finite(self):
        zetas = tuple(1.0 + 2.0 ** (-n) * 1j for n in range(4, 20))
        val = sequence_condition_value(TargetSequence(zetas), ACCEPT_PARAMS)
        assert math.isfinite(val) and val > 0


class TestEnvelopeParams:
    @pytest.mark.parametrize("d, q, p", [(1, 2.0, 4.0), (1, 3.0, 6.0), (3, 1.5, 4.0), (3, 2.5, 5.0)])
    def test_p_defaults_to_its_least_admissible_value(self, d, q, p):
        assert EnvelopeParams(d=d, q=q).p == p
        with pytest.raises(ValueError, match="need p >="):
            EnvelopeParams(d=d, q=q, p=0.99 * p)


class TestOmega:
    def test_dimension_three_flat(self):
        for z in (1j, -2 + 0.5j, 4 - 3j):
            assert omega_q(z, 3, 1.5) == pytest.approx(1.0)

    def test_d1_values(self):
        assert omega_q(4j, 1, 1.0) == pytest.approx(0.5)
        assert omega_q(-1.0, 1, 2.0) == pytest.approx(1.0)

    def test_continuity_at_qd(self):
        z = -2 + 0.7j
        assert omega_q(z, 1, 1.0 - 1e-12) == pytest.approx(omega_q(z, 1, 1.0 + 1e-12), rel=1e-9)

    def test_beyond_float_range_is_inf(self):
        # d(z, R+)^-1 = 1e320 at q = inf raised OverflowError
        assert omega_q(1 + 1e-320j, 2, math.inf) == math.inf


class TestSep:
    def test_geometric_series(self):
        assert sep(LINEAR, 1.0) == pytest.approx(1.0 / (math.e - 1.0), abs=1e-12)

    def test_single_gap(self):
        assert sep(SeparationSequence(values=[5.0]), 2.0) == pytest.approx(math.exp(-10))

    def test_monotone_in_eta(self):
        assert sep(GEOMETRIC, 0.2) < sep(GEOMETRIC, 0.1)

    def test_uncertified_rule_rejected(self):
        with pytest.raises(NonSummableError):
            sep(LOGARITHMIC, 2.0)

    def test_bounded_rule_rejected(self):
        flat = SeparationSequence(rule=lambda k: 5.0, convex_increments=True)
        with pytest.raises(NonSummableError) as err:
            sep(flat, 1.0)
        assert "partial sum" in str(err.value)

    def test_empty_values(self):
        assert sep(SeparationSequence(values=[]), 1.0) == 0.0

    def test_ratio_rounding_to_one(self):
        # eta*inc below 1e-16 for the first gaps: e^{-eta*inc} is 1.0 in float64
        eta = 1e-17
        terms = [math.exp(-eta * 2.0 ** k) for k in range(1, 80)]
        assert sep(GEOMETRIC, eta) == pytest.approx(math.fsum(terms), rel=1e-15)
        assert sep(GEOMETRIC, eta) == pytest.approx(55.14003279548, rel=1e-12)

    def test_gap_beyond_float_range_uncertified(self):
        # at eta = 1e-310 the terms of gaps past 2^1023 are still near 1
        with pytest.raises(NonSummableError, match="float range"):
            sep(GEOMETRIC, 1e-310)


class TestDistribution:
    def test_trivial_counts(self):
        assert h_L(GEOMETRIC, 0.1) == 3  # 2, 4, 8 <= 10
        assert h_L(SeparationSequence(rule=lambda k: float(k * k), convex_increments=True), 0.01) == 10
        assert h_L(GEOMETRIC, 10.0) == 0

    def test_rule_beyond_float_range(self):
        # the gallop reaches L(1024) = 2^1024, which is inf
        assert GEOMETRIC.L(1024) == math.inf
        assert h_L(GEOMETRIC, 1e-300) == 996  # 2^996 <= 1e300 < 2^997

    def test_eta0_scaling(self):
        scaled = SeparationSequence(rule=lambda k: 2.0 ** k, eta0=2.0, convex_increments=True)
        assert h_L(scaled, 0.1) == 2  # eta0*L = 4, 8 <= 10

    def test_proposition_band_geometric(self):
        # sep(L, eta) vs exp(-eta L_1) <h_L(eta/eta0)> within a factor-2 band
        ratios = []
        for eta in np.logspace(-2, -1, 9):
            bound = math.exp(-eta * 2.0) * (2.0 + h_L(GEOMETRIC, eta))
            ratios.append(sep(GEOMETRIC, eta) / bound)
        assert max(ratios) / min(ratios) < 2.0
        assert all(0.25 < r < 4.0 for r in ratios)

    def test_example_rates(self):
        # a) polynomial, b) geometric, c) doubly exponential decay rates
        for eta in np.logspace(-2, -1, 7):
            assert sep(LINEAR, eta) <= 4.0 * eta ** (-1.0)
            assert sep(LINEAR, eta) >= 0.25 * eta ** (-1.0)
            assert sep(GEOMETRIC, eta) <= 4.0 * math.log(1.0 / eta)
            double = SeparationSequence(
                rule=lambda k: math.exp(math.exp(k)), convex_increments=True
            )
            assert sep(double, eta) <= 4.0 * math.log(math.log(1.0 / eta))

    def test_strong_separation_verdicts(self):
        lams = [0.3, 0.5, 0.7]
        sgrid = [10 ** (-x) for x in np.linspace(0.5, 2.5, 12)]
        assert strong_separation_check(GEOMETRIC, lams, sgrid) is True
        assert strong_separation_check(LINEAR, lams, sgrid) is True
        assert strong_separation_check(LOGARITHMIC, lams, sgrid) is False


class TestEnvelopes:
    def test_s_of_L_z(self):
        val = s_of_L_z(LINEAR, -1.0, 1)
        assert val == pytest.approx(math.exp(-0.5) / (1 - math.exp(-0.5)), abs=1e-9)
        assert s_of_L_z(LINEAR, -4.0, 1) < val  # larger Im sqrt shrinks it
        assert s_of_L_z(SeparationSequence(values=[]), -1.0, 1) == 0.0

    def test_M_pq_printed_value(self):
        params = EnvelopeParams(d=1, q=1.0, p=2.0)
        assert M_pq(1j, params) == pytest.approx(177147.0)

    def test_M_pq_vnorm_monotone(self):
        params = EnvelopeParams(d=1, q=1.0, p=2.0)
        assert M_pq(1j, params, vnorm=2.0) > M_pq(1j, params, vnorm=1.0)

    def test_M_pq_L_dominates(self):
        params = EnvelopeParams(d=1, q=1.0, p=2.0)
        for z in (1j, -0.5 + 0.2j):
            assert M_pq_L(z, LINEAR, params) >= M_pq(z, params) * 2.0 ** (2 * params.p)

    def test_kappa_values(self):
        assert kappa_alpha(ACCEPT_PARAMS) == pytest.approx(47.0)
        assert kappa_tilde(ACCEPT_PARAMS) == pytest.approx(51.0)

    def test_kappa_gamma_shift(self):
        bumped = EnvelopeParams(d=1, q=2.0, p=4.0, alpha=1.0, gamma=2.0)
        assert kappa_tilde(bumped) == pytest.approx(kappa_tilde(ACCEPT_PARAMS) + 1.0)

    def test_kappa_alpha_limit(self):
        # alpha -> infinity drops the 2p/alpha term and raises the second branch
        huge = EnvelopeParams(d=1, q=2.0, p=4.0, alpha=1e9, gamma=1.0)
        assert kappa_alpha(huge) == pytest.approx(11.0, abs=1e-6)
        assert kappa_tilde(huge) == pytest.approx(1e9 * 1.5, rel=1e-9)


class TestChooseL:
    def test_faithful_power_law(self):
        t = TargetSequence((1 + 0.1j,))
        chosen = choose_L(t, ACCEPT_PARAMS, mode="faithful")
        assert chosen.kappa_tilde == 51.0
        assert chosen.gaps[0].log10_L == pytest.approx(51.0, abs=1e-9)

    def test_faithful_power_halving(self):
        t1 = TargetSequence((1 + 0.1j,))
        t2 = TargetSequence((1 + 0.05j,))
        l1 = choose_L(t1, ACCEPT_PARAMS, mode="faithful").gaps[0].log_L
        l2 = choose_L(t2, ACCEPT_PARAMS, mode="faithful").gaps[0].log_L
        assert l2 - l1 == pytest.approx(51.0 * math.log(2.0), rel=1e-9)

    def test_desk_monotone_and_rule(self):
        chosen = choose_L(ACCEPT_TARGETS, ACCEPT_PARAMS, mode="desk")
        logs = [g.log_L for g in chosen.gaps]
        assert logs == sorted(logs)
        # rule satisfied with equality or better at every n
        for g in chosen.gaps:
            assert g.log_L >= g.rule_rhs_log_L - 1e-12

    def test_desk_delta_floor(self):
        chosen = choose_L(ACCEPT_TARGETS, ACCEPT_PARAMS, mode="desk")
        for g in chosen.gaps:
            assert g.log10_delta >= math.log10(DESK_DELTA_FLOOR) - 1e-12

    def test_desk_assembly_feasible(self):
        chosen = choose_L(ACCEPT_TARGETS, ACCEPT_PARAMS, mode="desk")
        assert all(50.0 < L < 5e3 for L in chosen.lengths)


class TestAssembly:
    def test_gap_placement_exact(self):
        t = TargetSequence((1 + 0.1j, 1 + 0.09j))
        asm = assemble_sparse(t, ACCEPT_PARAMS, [100.0, 120.0])
        (a0, b0, _), (a1, b1, _) = asm.potential.pieces
        assert a1 - b0 == pytest.approx(100.0, abs=1e-9)

    def test_supports_disjoint_min_gap(self):
        asm = desk_assembly()
        pieces = asm.potential.pieces
        inter = [pieces[i + 1][0] - pieces[i][1] for i in range(len(pieces) - 1)]
        assert min(inter) == pytest.approx(min(asm.gaps))
        assert all(g > 0 for g in inter)

    def test_sparsity_ratios_decrease_faithful(self):
        # diam(Omega_n)/L_n with the faithful power-law gaps shrinks along the
        # sequence (widths grow logarithmically, gaps polynomially)
        from stepspectra.step_model import construct_bump

        chosen = choose_L(ACCEPT_TARGETS, ACCEPT_PARAMS, mode="faithful")
        log_ratios = []
        for zeta, gap in zip(ACCEPT_TARGETS.zetas, chosen.gaps):
            width = 2.0 * construct_bump(zeta).bump.half_width
            log_ratios.append(math.log(width) - gap.log_L)
        assert log_ratios == sorted(log_ratios, reverse=True)
        assert all(r < 0 for r in log_ratios)

    def test_norm_consistency(self):
        asm = desk_assembly()
        q = 2.0
        explicit = sum(bump_norm_lq(b, q) ** q for b in asm.bumps) ** (1 / q)
        assert asm.norms["L2"] == pytest.approx(explicit, rel=1e-12)
        assert ell_p_lq_norm(asm.bumps, 4.0, 2.0) == pytest.approx(asm.norms["l4L2"], rel=1e-12)

    def test_norm_vs_condition_value(self):
        asm = desk_assembly()
        assert asm.norms["L2"] <= 10.0 * asm.condition_value

    def test_empty_targets(self):
        asm = assemble_sparse(TargetSequence(()), ACCEPT_PARAMS, [])
        assert len(asm.potential.pieces) == 0
        assert asm.norms and all(v == 0.0 for v in asm.norms.values())
        assert ell_p_lq_norm([], 4.0, 2.0) == 0.0  # raised ValueError from max()

    def test_gap_lengths_checked(self):
        t = TargetSequence((1 + 0.1j, 1 + 0.09j, 1 + 0.08j))
        for gaps in ([100.0], [100.0, -1.0], [100.0, math.inf]):
            with pytest.raises(ValueError, match="positive finite gap lengths"):
                assemble_sparse(t, ACCEPT_PARAMS, gaps)
        with pytest.raises(ValueError, match="one-dimensional"):
            assemble_sparse(t, EnvelopeParams(d=3, q=4.0), [100.0, 120.0])


class TestMagnitude:
    def test_real_well_reduces_to_classical(self):
        # genuinely real negative eigenvalue: d(z, R+) = |z|, so the bound
        # collapses to |z|^{1/2 + q - q_d} (= 4^{3/2} here)
        rows = magnitude_check([-4.0 + 0j], PiecewisePotential([(0.0, 1.0, 2.0)]), q=2.0)
        assert rows[0].lhs == pytest.approx(8.0)
        assert rows[0].rhs == pytest.approx(4.0)  # the one piece's L^2 norm 2, squared

    def test_scale_invariance(self, rng):
        for lam in (0.5, 2.0):
            pieces = [(-1.0, 1.0, -1 + 0.4j), (4.0, 5.0, 0.3 - 0.2j)]
            pot = PiecewisePotential(pieces)
            scaled = PiecewisePotential(
                [(a / lam, b / lam, lam * lam * v) for a, b, v in pieces]
            )
            eigs = [complex(-0.3, 0.2), complex(-1.2, -0.1)]
            eigs_scaled = [lam * lam * z for z in eigs]
            for q in (1.0, 2.0):
                base = magnitude_check(eigs, pot, q=q)
                scl = magnitude_check(eigs_scaled, scaled, q=q)
                for r0, r1 in zip(base, scl):
                    assert r1.ratio == pytest.approx(r0.ratio, rel=1e-9)

    def test_single_bump_sharpness_trend(self):
        # ratio grows like eps^{q-d} log^q(1/eps) as the bump gets shallow
        from stepspectra.step_model import construct_bump

        vals = []
        for eps in (0.1, 0.05, 0.02):
            zeta = 1 + eps * 1j
            rep = construct_bump(zeta)
            pot = PiecewisePotential.from_bumps([rep.bump])
            rows = magnitude_check([zeta], pot, q=2.0)
            assert rows[0].rhs == pytest.approx(bump_norm_lq(rep.bump, 2.0) ** 2, rel=1e-14)
            predicted = eps * math.log(1.0 / eps) ** 2
            vals.append(rows[0].ratio / predicted)
        assert max(vals) / min(vals) < 4.0

    def test_ceiling_flag(self):
        rows = magnitude_check([1e6 + 1j], PiecewisePotential([(0.0, 1.0, 0.1)]), q=2.0,
                               ceiling=1.0)
        assert rows[0].flagged

    @pytest.mark.parametrize("q", [math.inf, math.nan, 0.5])
    def test_rejects_q_outside_finite_q_at_least_1(self, q):
        # q = inf and nan gave nan ratios that no ceiling flags; q < 1 is no norm
        with pytest.raises(ValueError, match="q must be finite and >= 1"):
            magnitude_check([-1.0 + 0j], PiecewisePotential([(0.0, 1.0, 2.0)]), q=q)

    @pytest.mark.parametrize("v, q, lhs, rhs, ratio", [
        # 4^2999.5 and 2^2000 raised OverflowError, and a right side that
        # underflowed to 0 a ZeroDivisionError where the left side stayed finite
        (0.5, 3000.0, math.inf, 0.0, math.inf),
        (2.0, 2000.0, math.inf, math.inf, math.inf),
        # both sides beyond float range, their ratio 4^1999.5 / 4^2000 = 1/2
        (4.0, 2000.0, math.inf, math.inf, 0.5),
    ])
    def test_sides_beyond_float_range(self, v, q, lhs, rhs, ratio):
        row, = magnitude_check([-4.0 + 0j], PiecewisePotential([(0.0, 1.0, v)]), q=q)
        assert (row.lhs, row.rhs) == (lhs, rhs)
        assert row.ratio == pytest.approx(ratio, rel=1e-9)

    def test_zero_potential_rejected(self):
        # the right side 0 raised ZeroDivisionError
        with pytest.raises(ValueError, match="no nonzero piece"):
            magnitude_check([-4.0 + 0j], PiecewisePotential([(0.0, 1.0, 0.0)]), q=2.0)


class TestInputChecks:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: EnvelopeParams(d=0), ValueError, "dimension must be >= 1"),
        (lambda: EnvelopeParams(alpha=0.0), ValueError, "alpha must be positive"),
        (lambda: EnvelopeParams(gamma=-1.0), ValueError, "gamma must be positive"),
        (lambda: EnvelopeParams(big_o_constant=math.nan), ValueError, "big_o_constant must"),
        (lambda: EnvelopeParams(C_L=0.0), ValueError, "C_L must be positive"),
        (lambda: SeparationSequence(values=[1.0], rule=float), ValueError, "exactly one of"),
        (lambda: SeparationSequence(), ValueError, "exactly one of values or rule"),
        (lambda: SeparationSequence(values=[1.0], eta0=0.0), ValueError, "eta0 must be positive"),
        (lambda: SeparationSequence(values=[1.0, 0.0]), ValueError, "must be positive"),
        (lambda: SeparationSequence(values=[2.0, 1.0]), ValueError, "nondecreasing"),
        (lambda: SeparationSequence(values=[1.0, 2.0]).L(0), IndexError, "1-based"),
        (lambda: SeparationSequence(values=[1.0, 2.0]).L(3), IndexError, "beyond the 2 stored"),
        (lambda: sep(LINEAR, 0.0), ValueError, "eta must be positive"),
        (lambda: h_L(LINEAR, -1.0), ValueError, "s must be positive"),
        (lambda: strong_separation_check(GEOMETRIC, [], [0.1]), ValueError, "nonempty"),
        (lambda: strong_separation_check(GEOMETRIC, [0.5], []), ValueError, "nonempty"),
        (lambda: strong_separation_check(GEOMETRIC, [1.0], [0.1, 0.01]), ValueError, "lambda grid"),
        (lambda: strong_separation_check(GEOMETRIC, [0.5], [0.01, 0.1]), ValueError, "descending"),
        (lambda: s_of_L_z(GEOMETRIC, 2.0, 1), ValueError, "must be positive"),
        (lambda: choose_L(ACCEPT_TARGETS, ACCEPT_PARAMS, mode="fast"), ValueError, "'desk' or"),
    ], ids=["d-0", "alpha-0", "gamma-negative", "big-o-nan", "C_L-0", "values-and-rule",
            "neither", "eta0-0", "value-0", "values-decrease", "L-index-0", "L-past-stored",
            "sep-eta-0", "h_L-s-negative", "empty-lambda-grid", "empty-s-grid",
            "lambda-1", "s-grid-ascends", "z-on-ray", "mode"])
    def test_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_stored_values_are_the_gaps(self):
        L = SeparationSequence(values=[1.0, 2.0, 2.0])
        assert [L.L(k) for k in (1, 2, 3)] == [1.0, 2.0, 2.0]

    def test_failed_bump_names_its_target(self):
        # Im zeta = 1e-320 puts the bump's half-width log(1/eps)/(2 eps) beyond float range
        targets = TargetSequence((1 + 0.1j, 1 + 1e-320j))
        with pytest.raises(UnsupportedDomainError, match=r"failed at target 2 \(\(1\+1e-320j\)\)"):
            assemble_sparse(targets, ACCEPT_PARAMS, [10.0])
