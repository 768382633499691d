"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its runtime; the stated runtime
budgets are asserted as upper bounds.
"""

import cmath
import math
import time

import numpy as np
import pytest

from stepspectra.schrodinger_1d import (
    PiecewisePotential,
    make_secular_handle,
    reconstruct_eigenfunction,
)
from stepspectra.sparse_builder import (
    EnvelopeParams,
    SeparationSequence,
    TargetSequence,
    assemble_sparse,
    choose_L,
    h_L,
    kappa_tilde,
    magnitude_check,
    sep,
    strong_separation_check,
)
from stepspectra.special_functions import branch_of_w, lambert_w, sqrt_upper
from stepspectra.spectral_count import (
    Region,
    census_box,
    imag_step_census,
    enumerate_imag_step,
    locate_zeros,
    winding_count,
)
from stepspectra.step_model import (
    StepBump,
    bump_norm_lq,
    chi_match,
    construct_bump,
    davies_nath,
    energy,
    secular_entire,
    solve_for_v0,
)

from conftest import real_well_bound_states, real_well_parity_states


class _Stopwatch:
    def __init__(self, label, budget_s):
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"PASS {self.label} ({elapsed:.2f}s / budget {self.budget:.0f}s)")
            assert elapsed < self.budget, f"{self.label} exceeded its runtime budget"
        return False


def test_criterion_1_round_trip_identity():
    """1000 random (kappa, R, parity) round trips at 1e-12*(1+|kappa|)."""
    rng = np.random.default_rng(1)
    with _Stopwatch("criterion 1: round-trip identity", 1.0):
        done = 0
        while done < 1000:
            kap = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            R = rng.uniform(0.5, 5.0)
            parity = "odd" if rng.random() < 0.5 else "even"
            w = kap * R
            guard = abs(cmath.sin(w)) if parity == "odd" else abs(cmath.cos(w))
            if guard < 0.1:
                continue  # pole neighborhoods amplify rounding past any tolerance
            v0 = solve_for_v0(kap, R, parity)
            E = energy(kap, v0)
            # the secular on the sheet of E's square root nearest the matched momentum
            chi, chi_m = sqrt_upper(E), chi_match(StepBump(v0, R), E, parity)
            res = min(abs(chi - chi_m), abs(-chi - chi_m))
            assert res < 1e-12 * (1.0 + abs(kap))
            done += 1


def test_criterion_2_selfadjoint_oracle():
    """Well -10: exactly 3 bound states matching bisection to 1e-8; well -1
    ground state at the bisection value (-0.4538...)."""
    with _Stopwatch("criterion 2: selfadjoint oracle", 5.0):
        pot = PiecewisePotential.from_bumps([StepBump(-10.0, 1.0)])
        handle = make_secular_handle(pot)
        region = Region.rectangle(-10.0, -1e-6, -0.5, 0.5)
        oracle = real_well_bound_states(10.0, 1.0)
        assert winding_count(handle, region) == 3 == len(oracle)
        report = locate_zeros(handle, region)
        assert report.complete
        for located, expected in zip(report.zeros, oracle):
            assert abs(located.location - expected) < 1e-8

        ground = real_well_parity_states(1.0, 1.0, "even")[0]
        assert ground == pytest.approx(-0.4538, abs=5e-5)
        pot1 = PiecewisePotential.from_bumps([StepBump(-1.0, 1.0)])
        found = locate_zeros(make_secular_handle(pot1), Region.rectangle(-0.99, -1e-6, -0.2, 0.2))
        assert len(found.zeros) == 1
        assert abs(found.zeros[0].location - ground) < 1e-8


def test_criterion_3_bump_construction():
    """Prescribed-eigenvalue construction at Im zeta in {0.1, 0.05, 0.02}."""
    with _Stopwatch("criterion 3: bump construction", 10.0):
        for im in (0.1, 0.05, 0.02):
            zeta = 1 + im * 1j
            rep = construct_bump(zeta, sigma=1.0)
            bump = rep.bump
            pot = PiecewisePotential.from_bumps([bump])
            assert abs(make_secular_handle(pot)(zeta)) < 1e-8
            assert abs(bump.v0) <= 10.0 * im
            s = sqrt_upper(zeta).imag
            logterm = abs(math.log(abs(zeta.imag / zeta)))
            for q in (1.0, 2.0):
                env_norm = abs(zeta) ** (0.5 / q) * im ** (1 - 1 / q) * logterm ** (1 / q)
                assert 0.1 < bump_norm_lq(bump, q) / env_norm < 10.0
                env_dn = abs(zeta) ** (0.5 / q) * im ** (1 - 1 / q)
                assert 0.1 < davies_nath(bump, q, s) / env_dn < 10.0
            xs = np.linspace(bump.support[1] + 1.0, bump.support[1] + 25.0, 120)
            psi = reconstruct_eigenfunction(pot, zeta, xs)
            slope = np.polyfit(xs, np.log(np.abs(psi)), 1)[0]
            assert -slope == pytest.approx(sqrt_upper(zeta).imag, rel=0.01)


def test_criterion_4_parity_completeness():
    """5 random complex steps: odd+even zero sets = global zero set."""
    rng = np.random.default_rng(4)
    with _Stopwatch("criterion 4: parity/oracle completeness", 30.0):
        for _ in range(5):
            v0 = complex(rng.uniform(-6.0, -1.0), rng.uniform(-1.5, 1.5))
            R = rng.uniform(0.8, 1.6)
            bump = StepBump(v0, R)
            region = Region.rectangle(-8.0, -1e-3, -1.5, 1.5)
            pot = PiecewisePotential.from_bumps([bump])
            global_rep = locate_zeros(make_secular_handle(pot), region)
            assert global_rep.complete
            parity_locs = []
            for parity in ("odd", "even"):
                rep = locate_zeros(lambda E, p=parity: secular_entire(bump, E, p), region)
                assert rep.complete
                parity_locs.extend(z.location for z in rep.zeros)
            assert len(parity_locs) == len(global_rep.zeros)
            key = lambda z: (z.real, z.imag)
            for a, b in zip(sorted(parity_locs, key=key),
                            sorted((z.location for z in global_rep.zeros), key=key)):
                assert abs(a - b) < 1e-9 * max(1.0, abs(b))


def test_criterion_5_census():
    """Counts increase over N in {16,32,64}; ratio band within factor 3;
    every census certified (no dropped branch near the box), up to N = 256;
    at N = 8, 16 and 32 the count equals the winding cross-check exactly."""
    with _Stopwatch("criterion 5: desk census", 600.0):
        results = [imag_step_census(N, 10.0) for N in (16, 32, 64)]
        counts = [c.count for c in results]
        assert counts[0] < counts[1] < counts[2]
        ratios = [c.ratio for c in results]
        assert max(ratios) / min(ratios) < 3.0
        assert all(c.certified for c in results)
        assert imag_step_census(256, 10.0).certified

        cen8 = imag_step_census(8, 10.0)
        assert cen8.certified
        for cen in [cen8] + results[:2]:
            N = cen.N
            pot = PiecewisePotential([(-float(N), float(N), 1j)])
            wc = winding_count(make_secular_handle(pot), census_box(N, 10.0))
            assert cen.count == wc, f"N = {N}: census {cen.count}, winding {wc}"


def test_criterion_6_ladder_asymptotics():
    """Refined kappa_n ladder matches the printed asymptotics over
    N^2 <= |n| <= 10 N^2 with stable fitted constants; flags only for n < 0."""
    with _Stopwatch("criterion 6: ladder asymptotics", 120.0):
        fitted = {}
        for N in (16, 32):
            rows = enumerate_imag_step(N, (-10 * N * N, -N * N), families=[("odd", 1)])
            assert all(r.converged for r in rows)
            # the envelope C log|n|/|n| + C splits: the decaying part carries
            # the Re deviation, the additive constant the Im offset
            c_re = 0.0
            c_im = 0.0
            for r in rows:
                w = r.kappa_refined * N
                n = abs(r.n)
                re_dev = abs(w.real - (2 * math.pi * r.n + 5 * math.pi / 4))
                im_dev = abs(w.imag - math.log(n / N))
                c_re = max(c_re, re_dev * n / math.log(n))
                c_im = max(c_im, im_dev)
                assert re_dev + im_dev < 10.0 * (math.log(n) / n + 1.0)
            fitted[N] = (c_re, c_im)
            assert not any(r.on_physical_sheet for r in rows)  # far window: resonances
        for idx in (0, 1):
            lo, hi = sorted((fitted[16][idx], fitted[32][idx]))
            assert hi / lo < 2.0, f"fitted constant unstable across N: {fitted}"
        # the sheet flag fires only on the negative-n side
        near = enumerate_imag_step(16, (-40, 40))
        flagged = [r.n for r in near if r.on_physical_sheet]
        assert flagged and all(n < 0 for n in flagged)


def test_criterion_7_sparse_verification():
    """Desk assembly: each D(zeta_n, 1e-2) holds >= 1 eigenvalue; gaps exact;
    norms reported; faithful kappa_tilde = 51 with exact power-law lengths."""
    with _Stopwatch("criterion 7: sparse desk verification", 120.0):
        targets = TargetSequence((1 + 0.08j, 1.3 + 0.06j, 0.8 + 0.05j))
        params = EnvelopeParams(d=1, q=2.0, p=4.0, alpha=1.0, gamma=1.0)
        chosen = choose_L(targets, params, mode="desk")
        asm = assemble_sparse(targets, params, chosen.lengths)
        pieces = asm.potential.pieces
        for i in range(len(pieces) - 1):
            assert pieces[i + 1][0] - pieces[i][1] == pytest.approx(asm.gaps[i], abs=1e-9)
        handle = make_secular_handle(asm.potential)
        for zeta in targets.zetas:
            assert winding_count(handle, Region.disk(zeta, 1e-2)) >= 1
        assert asm.norms["L2"] <= 10.0 * asm.condition_value

        faithful = choose_L(targets, params, mode="faithful")
        assert kappa_tilde(params) == 51.0
        for gap, zeta in zip(faithful.gaps, targets.zetas):
            assert gap.log10_L >= 51.0 * math.log10(1.0 / zeta.imag) - 1e-9


def test_criterion_8_separation_machinery():
    """sep/h_L exact values, distribution-function band, strong-separation verdicts."""
    with _Stopwatch("criterion 8: separation machinery", 1.0):
        linear = SeparationSequence(rule=lambda k: float(k), convex_increments=True)
        assert sep(linear, 1.0) == pytest.approx(1.0 / (math.e - 1.0), abs=1e-12)
        geometric = SeparationSequence(rule=lambda k: 2.0 ** k, convex_increments=True)
        squares = SeparationSequence(rule=lambda k: float(k * k), convex_increments=True)
        assert h_L(geometric, 0.1) == 3
        assert h_L(squares, 0.01) == 10
        assert h_L(geometric, 10.0) == 0
        ratios = []
        for eta in np.logspace(-2, -1, 9):
            bound = math.exp(-eta * 2.0) * (2.0 + h_L(geometric, eta))
            ratios.append(sep(geometric, eta) / bound)
        assert max(ratios) / min(ratios) < 2.0
        lams = [0.3, 0.5, 0.7]
        sgrid = [10 ** (-x) for x in np.linspace(0.5, 2.5, 12)]
        log_like = SeparationSequence(rule=lambda k: math.log(k + 1), convex_increments=False)
        verdicts = tuple(
            strong_separation_check(L, lams, sgrid) for L in (geometric, linear, log_like)
        )
        assert verdicts == (True, True, False)


def test_criterion_9_lambert_branches():
    """Branches -5..5 with 100 random z each: residual < 1e-12 relative and
    branch-region membership."""
    rng = np.random.default_rng(9)
    with _Stopwatch("criterion 9: Lambert W branches", 1.0):
        for n in range(-5, 6):
            done = 0
            while done < 100:
                z = complex(rng.normal(0, 2), rng.normal(0, 2))
                if abs(z) < 1e-3:
                    continue
                w = lambert_w(n, z)
                assert abs(w * cmath.exp(w) - z) < 1e-12 * abs(z)
                assert branch_of_w(w) == n
                done += 1


def test_criterion_10_scaling_covariance():
    """Scaled potentials scale every eigenvalue by lambda^2 to 1e-9; the
    magnitude-check ratios are scale invariant."""
    with _Stopwatch("criterion 10: scaling covariance", 10.0):
        base_pieces = [(-1.0, 1.0, -4.0 + 0.6j)]
        base = PiecewisePotential(base_pieces)
        region = Region.rectangle(-4.0, -1e-3, -0.8, 0.8)
        base_rep = locate_zeros(make_secular_handle(base), region)
        assert base_rep.zeros
        base_eigs = [z.location for z in base_rep.zeros]
        for lam in (0.5, 2.0):
            scaled = PiecewisePotential(
                [(a / lam, b / lam, lam * lam * v) for a, b, v in base_pieces]
            )
            scaled_region = Region.rectangle(
                lam * lam * region.re_lo, lam * lam * region.re_hi,
                lam * lam * region.im_lo, lam * lam * region.im_hi,
            )
            rep = locate_zeros(make_secular_handle(scaled), scaled_region)
            assert len(rep.zeros) == len(base_eigs)
            key = lambda z: (z.real, z.imag)
            for z_scaled, z_base in zip(
                sorted((z.location for z in rep.zeros), key=key),
                sorted(base_eigs, key=key),
            ):
                assert abs(z_scaled - lam * lam * z_base) < 1e-9 * max(1.0, abs(z_scaled))
            for q in (1.0, 2.0):
                rows_base = magnitude_check(base_eigs, base, q=q)
                rows_scaled = magnitude_check(
                    [lam * lam * z for z in base_eigs], scaled, q=q
                )
                for r0, r1 in zip(rows_base, rows_scaled):
                    assert r1.ratio == pytest.approx(r0.ratio, rel=1e-9)
