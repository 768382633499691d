import cmath
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stepspectra.errors import SchemaError, UnsupportedDomainError
from stepspectra.schrodinger_1d import (
    PiecewisePotential,
    _piece,
    _segments,
    _sweep,
    global_secular,
    make_secular_handle,
    reconstruct_eigenfunction,
)
from stepspectra.sparse_builder import EnvelopeParams, TargetSequence, assemble_sparse, choose_L
from stepspectra.special_functions import sqrt_upper
from stepspectra.step_model import StepBump, construct_bump

from conftest import mp_transfer_secular, real_well_bound_states, real_well_parity_states


def assert_matches_oracle(pot, E, rel=1e-10, near_zero=1e-4):
    """global_secular agrees with the mpmath product to ``rel`` relative,
    except where |F| has cancelled below ``near_zero`` times the product's
    forward-error scale; there, to ``rel`` relative to that floor."""
    F, scale = mp_transfer_secular(pot.pieces, E)
    value = global_secular(pot, E)
    assert cmath.isfinite(value)
    assert abs(value - F) <= rel * max(abs(F), near_zero * scale), (pot, E, value, F, scale)


class TestPotentialSchema:
    def test_roundtrip(self):
        pot = PiecewisePotential([(-1.0, 1.0, -1 + 0.5j), (3.0, 4.5, 2j)])
        again = PiecewisePotential.from_json(pot.to_json())
        assert again == pot

    def test_overlap_rejected_with_index(self):
        with pytest.raises(SchemaError) as err:
            PiecewisePotential([(-1.0, 1.0, 1.0), (0.5, 2.0, 1.0)])
        assert err.value.index == 1

    def test_bad_interval_rejected(self):
        with pytest.raises(SchemaError) as err:
            PiecewisePotential.from_dict(
                {"pieces": [{"a": 2.0, "b": 1.0, "re": 0.0, "im": 0.0}]}
            )
        assert err.value.index == 0

    def test_missing_key_names_index(self):
        with pytest.raises(SchemaError) as err:
            PiecewisePotential.from_dict(
                {"pieces": [{"a": 0.0, "b": 1.0, "re": 0.0, "im": 0.0},
                            {"a": 2.0, "b": 3.0, "re": 0.0}]}
            )
        assert err.value.index == 1
        assert "im" in str(err.value)

    def test_invalid_json_text(self):
        with pytest.raises(SchemaError):
            PiecewisePotential.from_json("{not json")


class TestGlobalSecular:
    def test_free_is_one(self):
        pot = PiecewisePotential([])
        assert global_secular(pot, -1 + 0.5j) == 1.0
        pot0 = PiecewisePotential([(-1.0, 1.0, 0.0)])
        assert global_secular(pot0, -1 + 0.5j) == pytest.approx(1.0, rel=1e-12)

    def test_single_well_ground_state(self):
        E0 = real_well_parity_states(1.0, 1.0, "even")[0]
        pot = PiecewisePotential.from_bumps([StepBump(-1.0, 1.0)])
        assert E0 == pytest.approx(-0.4538, abs=5e-5)
        assert abs(global_secular(pot, E0)) < 1e-10

    def test_all_well_states_are_zeros(self):
        pot = PiecewisePotential.from_bumps([StepBump(-10.0, 1.0)])
        for E in real_well_bound_states(10.0, 1.0):
            assert abs(global_secular(pot, E)) < 1e-9

    def test_constructed_bump_zero(self):
        for zeta in (1 + 0.1j, 1.2 + 0.05j):
            rep = construct_bump(zeta)
            pot = PiecewisePotential.from_bumps([rep.bump])
            assert abs(global_secular(pot, zeta)) < 1e-8

    def test_translation_invariance(self):
        zeta = 1 + 0.1j
        rep = construct_bump(zeta)
        pot0 = PiecewisePotential.from_bumps([rep.bump])
        pot1 = PiecewisePotential.from_bumps([rep.bump.shifted(17.3)])
        assert abs(global_secular(pot1, zeta)) == pytest.approx(
            abs(global_secular(pot0, zeta)), abs=1e-10
        )

    def test_analyticity_probe(self):
        # Cauchy-Riemann residual of the secular on a sample grid:
        # d/dx f should equal (1/i) d/dy f for an analytic function
        pot = PiecewisePotential([(-1.0, 0.0, 1 - 0.8j), (0.5, 1.5, -2 + 0.3j)])
        h = 1e-5
        for E in (-2 + 0.7j, -0.5 - 1.2j, 1.5 + 2j):
            fx = (global_secular(pot, E + h) - global_secular(pot, E - h)) / (2 * h)
            fy = (global_secular(pot, E + 1j * h) - global_secular(pot, E - 1j * h)) / (2 * h)
            residual = abs(fx - fy / 1j)
            assert residual <= 1e-6 * max(abs(fx), 1e-12)


class TestOracleAgreement:
    """The float64 sweep against the unscaled mpmath transfer product."""

    def test_random_short_potentials(self, rng):
        for _ in range(100):
            pieces = []
            x = -2.0
            for _ in range(rng.integers(1, 4)):
                width = rng.uniform(0.3, 1.5)
                pieces.append((x, x + width, complex(rng.normal(0, 2), rng.normal(0, 2))))
                x += width + rng.uniform(0.1, 1.0)
            E = complex(rng.normal(0, 2), rng.normal(0, 2))
            assert_matches_oracle(PiecewisePotential(pieces), E)

    def test_moderate_entries(self):
        pot = PiecewisePotential([(-1.0, 0.2, 0.9 - 0.4j), (0.5, 1.3, -1.1 + 0.8j)])
        assert_matches_oracle(pot, -0.5 + 0.3j)

    def test_single_complex_well(self):
        assert_matches_oracle(PiecewisePotential([(-1.0, 1.0, -1.0 + 0.2j)]), -0.7 + 0.11j)

    def test_wide_piece_and_far_pair(self):
        assert_matches_oracle(PiecewisePotential([(-8.0, 8.0, 1j)]), 100 + 1j)
        far_pair = PiecewisePotential([(-1.0, 1.0, 1j), (100.0, 102.0, 1j)])
        for E in (-1 + 1j, -30 + 0.1j, 2 - 5j):
            assert_matches_oracle(far_pair, E)

    def test_split_piece_is_invisible(self, rng):
        whole = PiecewisePotential([(-1.0, 0.5, 1.3 - 0.7j), (1.0, 2.0, -2.0)])
        split = PiecewisePotential(
            [(-1.0, -0.3, 1.3 - 0.7j), (-0.3, 0.5, 1.3 - 0.7j), (1.0, 1.6, -2.0), (1.6, 2.0, -2.0)]
        )
        for _ in range(20):
            E = complex(rng.normal(0, 2), rng.normal(0, 2))
            lhs, rhs = global_secular(whole, E), global_secular(split, E)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_zero_pieces_give_one(self, rng):
        zero_pieces = [
            PiecewisePotential([(0.0, math.pi, 0.0)]),
            PiecewisePotential([(-3.0, -1.0, 0.0), (5.0, 9.0, 0.0), (9.0, 25.0, 0.0)]),
        ]
        energies = [1.0, -1000.0, -1 + 0.5j] + [
            complex(rng.normal(0, 5), rng.normal(0, 5)) for _ in range(20)
        ]
        for pot in zero_pieces:
            for E in energies:
                assert global_secular(pot, E) == pytest.approx(1.0, rel=1e-12)

    @given(data=st.data())
    def test_random_potentials_with_long_gaps(self, data):
        n = data.draw(st.integers(1, 4), label="pieces")
        x = data.draw(st.floats(-50.0, 50.0), label="x0")
        pieces = []
        for idx in range(n):
            if idx:
                x += data.draw(st.floats(0.0, 400.0), label="gap")
            width = data.draw(st.floats(0.05, 4.0), label="width")
            v = complex(data.draw(st.floats(-20.0, 20.0)), data.draw(st.floats(-20.0, 20.0)))
            pieces.append((x, x + width, v))
            x += width
        # E off [0, inf): modulus 1e-2 .. 1e3, argument strictly inside (0, 2 pi)
        modulus = 10.0 ** data.draw(st.floats(-2.0, 3.0), label="log10|E|")
        arg = data.draw(st.floats(1e-3, 2 * math.pi - 1e-3), label="arg E")
        assert_matches_oracle(PiecewisePotential(pieces), cmath.rect(modulus, arg))


def _three_bumps_gap_330():
    reps = [construct_bump(z) for z in (1 + 0.08j, 1.3 + 0.06j, 0.8 + 0.05j)]
    bumps = []
    x = 0.0
    for i, rep in enumerate(reps):
        if i > 0:
            x += reps[i - 1].bump.half_width + 330.0 + rep.bump.half_width
        bumps.append(rep.bump.shifted(x))
    return PiecewisePotential.from_bumps(bumps)


@st.composite
def _pieces_with_one_long_gap(draw):
    """1-4 pieces with gaps up to 4, one of them (between two pieces) up to 400."""
    n = draw(st.integers(1, 4), label="pieces")
    long_gap = draw(st.integers(1, max(n - 1, 1)), label="long gap")
    x = draw(st.floats(-50.0, 50.0), label="x0")
    pieces = []
    for idx in range(n):
        if idx:
            x += draw(st.floats(0.0, 400.0 if idx == long_gap else 4.0), label="gap")
        width = draw(st.floats(0.05, 4.0), label="width")
        v = complex(draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0)))
        pieces.append((x, x + width, v))
        x += width
    return pieces


#: E off [0, inf): modulus 1e-2 .. 1e3, argument strictly inside (0, 2 pi)
_CUT_PLANE = st.builds(cmath.rect, st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e),
                       st.floats(1e-3, 2 * math.pi - 1e-3))


class TestArrayHandle:
    @given(pieces=_pieces_with_one_long_gap(), energies=st.lists(_CUT_PLANE, min_size=1, max_size=8),
           at=st.integers(0, 8))
    def test_array_equals_scalar_calls(self, pieces, energies, at):
        # both routes round the phases of the sweep (sum |k|*width) and of the
        # exterior factor (|chi|*span), so they agree to 1e-14 relative per unit of
        # phase; behind a long gap it reaches thousands, and 5e-13 relative was seen
        handle = make_secular_handle(PiecewisePotential(pieces))
        values = handle(np.array(energies))
        assert values.shape == (len(energies),)
        span = pieces[-1][1] - pieces[0][0]
        for E, value in zip(energies, values):
            phase = abs(cmath.sqrt(E)) * span + sum(abs(cmath.sqrt(E - v)) * (b - a)
                                                   for a, b, v in pieces)
            expected = handle(E)
            assert abs(value - expected) <= 1e-14 * max(1.0, phase) * abs(expected)
        # E = 0 anywhere in the array: the scalar route's pole error
        with pytest.raises(UnsupportedDomainError, match="pole at E = 0"):
            handle(np.array(energies[:at] + [0j] + energies[at:]))

    @pytest.mark.parametrize("nodes", [[1000 + 1j, -1.0, 0.0, -2.0], [1000 + 1j, 0.0, -1.0]])
    def test_array_raises_for_the_first_failing_node(self, nodes):
        # on this barrier |F| ~ e^{sqrt(1001) * 30} at E = -1 and E = -2 exceeds float
        # range too; 1000 + 1j stays in range, so nodes[1] fails first
        handle = make_secular_handle(PiecewisePotential([(0.0, 30.0, 1000.0)]))
        assert cmath.isfinite(handle(nodes[0]))
        with pytest.raises(UnsupportedDomainError) as scalar:
            handle(nodes[1])
        with pytest.raises(UnsupportedDomainError) as array:
            handle(np.array(nodes, dtype=complex))
        assert str(array.value) == str(scalar.value)


class TestRange:
    ENERGIES = (-10.0, -100.0, -1000.0, -1 + 0.5j)

    def test_long_gaps_finite_and_exact(self):
        pot = _three_bumps_gap_330()
        for E in self.ENERGIES:
            assert_matches_oracle(pot, E)

    def test_long_gaps_under_a_millisecond(self):
        pot = _three_bumps_gap_330()
        for E in self.ENERGIES:
            start = time.perf_counter()
            for _ in range(100):
                global_secular(pot, E)
            assert (time.perf_counter() - start) / 100 < 1e-3

    def test_beyond_float_range_is_typed(self):
        # |F| ~ e^{sqrt(1001) * 30}: no float holds it
        barrier = PiecewisePotential([(0.0, 30.0, 1000.0)])
        with pytest.raises(UnsupportedDomainError):
            global_secular(barrier, -1.0)
        with pytest.raises(UnsupportedDomainError):
            make_secular_handle(barrier)(-1.0 + 0.5j)


def _per_point_reconstruction(pot, E, grid):
    """reconstruct_eigenfunction as a loop of scalar _piece calls, one per point."""
    segments, _ = _segments(pot)
    chi = sqrt_upper(E)
    starts = [(1.0 + 0j, -1j * chi, 0.0)]
    starts.append(_sweep(segments, E, chi, starts))
    x0 = pot.pieces[0][0]
    edges = (x0 + np.cumsum([0.0] + [width for width, _ in segments])).tolist()
    anchors = [x0] + edges
    k2s = [E] + [E - v for _, v in segments] + [E]
    vals, logs = [], []
    for x in grid.tolist():
        r = int(np.searchsorted(edges, x, side="right"))
        p, dp, log_scale = starts[r]
        c, s, t = _piece(k2s[r], x - anchors[r])
        vals.append(c * p + s * dp)
        logs.append(log_scale + t)
    psi = np.array(vals) * np.exp(np.array(logs) - max(logs))
    return psi / math.sqrt(np.trapezoid(np.abs(psi) ** 2, grid))


class TestReconstruct:
    def test_single_even_state_symmetric(self):
        E0 = real_well_parity_states(1.0, 1.0, "even")[0]
        pot = PiecewisePotential.from_bumps([StepBump(-1.0, 1.0)])
        grid = np.linspace(-8.0, 8.0, 1601)
        psi = reconstruct_eigenfunction(pot, E0, grid)
        assert np.trapezoid(np.abs(psi) ** 2, grid) == pytest.approx(1.0, rel=1e-6)
        sym_err = np.max(np.abs(np.abs(psi) - np.abs(psi[::-1])))
        assert sym_err < 1e-6

    def test_interface_matching(self):
        # value jump straight across each interface below 1e-8; one-sided
        # differences at +-h and +-3h agree to 1e-3 (their O(h) gap is ~1e-5)
        E0 = real_well_parity_states(1.0, 1.0, "even")[0]
        pot = PiecewisePotential.from_bumps([StepBump(-1.0, 1.0)])
        eps, h = 1e-12, 1e-6
        for edge in (-1.0, 1.0):
            grid = np.sort(np.concatenate([
                np.linspace(-6.0, 6.0, 7),
                [edge - 3 * h, edge - h, edge - eps, edge + eps, edge + h, edge + 3 * h],
            ]))
            psi = reconstruct_eigenfunction(pot, E0, grid)
            i = np.searchsorted(grid, edge - eps)
            assert abs(psi[i] - psi[i + 1]) < 1e-8 * max(abs(psi[i]), 1e-12)
            d_in = (psi[i - 1] - psi[i - 2]) / (2 * h)
            d_out = (psi[i + 3] - psi[i + 2]) / (2 * h)
            assert abs(d_in - d_out) < 1e-3 * abs(d_in)

    def test_exterior_decay_rate(self):
        zeta = 1 + 0.1j
        pot = PiecewisePotential.from_bumps([construct_bump(zeta).bump])
        edge = pot.pieces[-1][1]
        xs = np.linspace(edge + 1.0, edge + 30.0, 120)
        slope = np.polyfit(xs, np.log(np.abs(reconstruct_eigenfunction(pot, zeta, xs))), 1)[0]
        assert -slope == pytest.approx(sqrt_upper(zeta).imag, rel=0.01)

    def test_two_well_quasimode_concentration(self):
        # identical wells far apart: reconstructing at the single-well energy
        # gives a quasimode fully concentrated near one well, more so as the
        # gap grows
        E0 = real_well_parity_states(1.0, 1.0, "even")[0]
        masses = []
        for L in (10.0, 20.0):
            bumps = [StepBump(-1.0, 1.0, 0.0), StepBump(-1.0, 1.0, 2.0 + L)]
            pot = PiecewisePotential.from_bumps(bumps)
            grid = np.linspace(-6.0, 8.0 + L, 4001)
            psi = reconstruct_eigenfunction(pot, E0, grid, tol=0.5)
            dens = np.abs(psi) ** 2
            mid = 1.0 + L / 2.0
            left = np.trapezoid(np.where(grid < mid, dens, 0.0), grid)
            masses.append(left / np.trapezoid(dens, grid))
        assert masses[0] >= 0.99
        assert masses[1] >= masses[0]

    def test_quasimode_defect_bound(self):
        # sparse three-bump potential: ||(H_V - zeta_1) psi_1|| is bounded by
        # the closed-form sum over the other bumps' supports
        zetas = (1 + 0.1j, 1.05 + 0.09j, 0.95 + 0.08j)
        reps = [construct_bump(z) for z in zetas]
        gap = 40.0
        bumps = []
        x = 0.0
        for i, rep in enumerate(reps):
            if i > 0:
                x += reps[i - 1].bump.half_width + gap + rep.bump.half_width
            bumps.append(rep.bump.shifted(x))
        zeta1 = zetas[0]
        grid = np.linspace(bumps[0].support[0] - 30.0, bumps[-1].support[1] + 30.0, 20001)
        psi1 = reconstruct_eigenfunction(PiecewisePotential.from_bumps(bumps[:1]), zeta1, grid)
        # (H_V - zeta_1) psi_1 = sum_{i != 1} V_i psi_1 exactly
        defect2 = 0.0
        per_bump = []
        for b in bumps[1:]:
            sel = (grid >= b.support[0]) & (grid <= b.support[1])
            contrib = np.trapezoid(np.abs(b.v0 * psi1[sel]) ** 2, grid[sel])
            defect2 += contrib
            per_bump.append(math.sqrt(contrib))
        measured = math.sqrt(defect2)
        bound = sum(per_bump)
        assert measured <= bound * (1 + 1e-12)
        assert measured < 0.05  # genuinely a small quasimode defect

    def test_wide_barrier_stays_finite(self):
        # |Im k| * width ~ 980 inside the barrier: beyond float range unscaled
        pot = PiecewisePotential([(0.0, 1.0, -5.0), (1.0, 400.0, 5.0)])
        E = -1 + 0.01j
        grid = np.linspace(-5.0, 420.0, 2001)
        psi = reconstruct_eigenfunction(pot, E, grid, tol=2 * abs(global_secular(pot, E)))
        assert np.all(np.isfinite(psi))
        assert np.trapezoid(np.abs(psi) ** 2, grid) == pytest.approx(1.0, rel=1e-9)

    def test_equals_the_per_point_loop(self):
        # the reference is one scalar _piece per grid point, edges included; within
        # 1.5 widths of the hull the exterior cancels by at most e^{2 Im k d} ~ 1e4
        zeta = 1 + 0.1j
        bump = construct_bump(zeta).bump
        lo, hi = bump.support
        cases = [
            (PiecewisePotential.from_bumps([bump]), zeta,
             np.linspace(lo - 1.5 * (hi - lo), hi + 1.5 * (hi - lo), 600)),
            (PiecewisePotential([(0.0, 1.0, -5.0), (3.0, 4.0, -5.0 + 0.5j), (4.0, 5.5, 2j)]),
             -1 + 0.3j, np.unique(np.r_[np.linspace(-5.0, 10.0, 3001), 3.0, 4.0, 5.5])),
        ]
        for pot, E, grid in cases:
            psi = reconstruct_eigenfunction(pot, E, grid, tol=math.inf)  # -1 + 0.3j is no eigenvalue
            ref = _per_point_reconstruction(pot, E, grid)
            assert np.max(np.abs(psi - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_non_finite_grid_rejected(self):
        zeta = 1 + 0.1j
        pot = PiecewisePotential.from_bumps([construct_bump(zeta).bump])
        for grid in ([-1.0, 0.0, math.inf], [-math.inf, 0.0, 1.0], [-1.0, math.nan, 1.0]):
            with pytest.raises(ValueError, match="grid"):
                reconstruct_eigenfunction(pot, zeta, grid)

    def test_non_eigenvalue_rejected(self):
        pot = PiecewisePotential.from_bumps([StepBump(-1.0, 1.0)])
        with pytest.raises(ValueError):
            reconstruct_eigenfunction(pot, -0.9 + 0j, np.linspace(-5, 5, 100))


class TestTruncationConvergence:
    def test_sparse_prefix_zero_moves(self):
        targets = TargetSequence((1 + 0.08j, 1.3 + 0.06j, 0.8 + 0.05j))
        params = EnvelopeParams(d=1, q=2.0, p=4.0, alpha=1.0, gamma=1.0)
        asm = assemble_sparse(targets, params, choose_L(targets, params, mode="desk").lengths)
        from stepspectra.spectral_count import Region, locate_zeros

        full = make_secular_handle(asm.potential)
        prefix = make_secular_handle(asm.potential.truncated(2))
        moves = []
        for zeta in targets.zetas[:2]:
            z_full = locate_zeros(full, Region.disk(zeta, 1e-2)).zeros[0].location
            z_pref = locate_zeros(prefix, Region.disk(zeta, 1e-2)).zeros[0].location
            moves.append(abs(z_full - z_pref))
        assert max(moves) < 1e-6
