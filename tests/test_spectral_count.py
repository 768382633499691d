import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from stepspectra.errors import ContourError
from stepspectra.schrodinger_1d import PiecewisePotential, make_secular_handle
from stepspectra.sparse_builder import EnvelopeParams, TargetSequence, assemble_sparse, choose_L
from stepspectra.special_functions import branch_of_w, lambert_w
from stepspectra.spectral_count import (
    FAMILIES,
    Region,
    census_box,
    census_window,
    imag_step_census,
    enumerate_imag_step,
    imag_step_seed,
    locate_zeros,
    winding_count,
)
from stepspectra.step_model import (
    StepBump,
    _secular_terms,
    _trig_sq,
    construct_bump,
    physical_sheet,
    secular_entire,
)

from conftest import imag_step_branch, mp_transfer_secular, real_well_bound_states


class TestWindingCount:
    def test_identity_and_square(self):
        assert winding_count(lambda z: z, Region.disk(0, 1)) == 1
        assert winding_count(lambda z: z * z, Region.disk(0, 1)) == 2

    def test_well_bound_state_count(self):
        pot = PiecewisePotential.from_bumps([StepBump(-10.0, 1.0)])
        f = make_secular_handle(pot)
        reg = Region.rectangle(-10.0, -1e-6, -0.5, 0.5)
        oracle = real_well_bound_states(10.0, 1.0)
        assert winding_count(f, reg) == len(oracle) == 3

    def test_zero_on_contour_raises(self):
        with pytest.raises(ContourError):
            winding_count(lambda z: z, Region.rectangle(0.0, 1.0, -0.5, 0.5))

    def test_contour_error_says_where(self):
        # the zero sits halfway along the left side, which runs from (0, 0.5i)
        # down to (0, -0.5i) as the fourth edge
        with pytest.raises(ContourError) as info:
            winding_count(lambda z: z, Region.rectangle(0.0, 1.0, -0.5, 0.5))
        err = info.value
        assert err.edge == 3
        assert abs(err.t - 0.5) < 1e-3
        assert abs(err.point) < 1e-3
        assert err.modulus < 1e-6
        assert "edge 3" in str(err)

    def test_contour_error_point_off_centre(self):
        # the left side runs from 0.7i down to -0.3i, so the zero lies 0.7 of its
        # length along it; graded toward 0, the edge reaches it at another t
        with pytest.raises(ContourError) as info:
            winding_count(lambda z: z, Region.rectangle(0.0, 1.0, -0.3, 0.7))
        err = info.value
        assert err.edge == 3
        assert abs(err.point) < 1e-3
        assert abs(err.t - 0.7) > 0.01
        assert f"at {err.point:.6g}" in str(err)

    def test_additivity_across_split(self):
        f = lambda z: (z - 0.4 - 0.1j) * (z + 0.3 + 0.2j)
        whole = Region.rectangle(-1.0, 1.0, -1.0, 1.0)
        left = Region.rectangle(-1.0, 0.05, -1.0, 1.0)
        right = Region.rectangle(0.05, 1.0, -1.0, 1.0)
        assert winding_count(f, whole) == winding_count(f, left) + winding_count(f, right)


class TestLocateZeros:
    def test_conjugate_pair(self):
        rep = locate_zeros(lambda z: z * z + 1, Region.rectangle(-2, 2, -2, 2))
        assert rep.winding_total == 2
        assert rep.complete
        locs = sorted(rep.locations(), key=lambda z: z.imag)
        assert locs[0] == pytest.approx(-1j, abs=1e-9)
        assert locs[1] == pytest.approx(1j, abs=1e-9)

    def test_double_zero_multiplicity(self):
        rep = locate_zeros(lambda z: (z - 0.3) ** 2, Region.disk(0, 1))
        assert len(rep.zeros) == 1
        assert rep.zeros[0].multiplicity == 2
        assert rep.zeros[0].location == pytest.approx(0.3, abs=1e-5)

    def test_multiplicity_sum_invariant(self, rng):
        for _ in range(5):
            roots = [complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)) for _ in range(3)]

            def f(z):
                out = 1.0 + 0j
                for r in roots:
                    out *= z - r
                return out

            rep = locate_zeros(f, Region.rectangle(-1, 1, -1, 1))
            assert sum(z.multiplicity for z in rep.zeros) == rep.winding_total == 3

    def test_constructed_bump_target(self):
        zeta = 1 + 0.1j
        rep_bump = construct_bump(zeta)
        pot = PiecewisePotential.from_bumps([rep_bump.bump])
        f = make_secular_handle(pot)
        report = locate_zeros(f, Region.disk(zeta, 0.02))
        assert report.winding_total == 1
        assert abs(report.zeros[0].location - zeta) < 1e-8

    def test_threshold_corner_evaluation_count(self):
        # the rectangle passes 1e-3 from E = 0, the secular function's one
        # singularity; edges graded toward it settle at shallow depth
        bump = StepBump(-5.86 + 1.03j, 0.92)
        pot = PiecewisePotential.from_bumps([bump])
        rep = locate_zeros(make_secular_handle(pot), Region.rectangle(-8.0, -1e-3, -1.5, 1.5))
        assert rep.complete and rep.winding_total == len(rep.zeros) == 2
        assert rep.stats.evaluations <= 700
        assert rep.stats.max_depth <= 5
        for z in rep.zeros:
            F, scale = mp_transfer_secular(pot.pieces, z.location)
            assert abs(F) <= 1e-12 * scale

    def test_stats_count_every_evaluation(self):
        bump = StepBump(-5.0 + 1.0j, 1.0)
        handle = make_secular_handle(PiecewisePotential.from_bumps([bump]))
        cases = [
            (handle, Region.rectangle(-8.0, -1e-3, -1.5, 1.5)),
            # six zeros: more than one cell's moments solve, so the cell splits
            (lambda z: np.prod([z - 0.3 * k + 0.2j * (k % 2) for k in range(-3, 3)]),
             Region.rectangle(-1.1, 1.0, -0.5, 0.4)),
        ]
        for f, region in cases:
            calls = []
            rep = locate_zeros(lambda z: calls.append(z) or f(z), region)
            assert rep.complete and rep.zeros
            assert rep.stats.evaluations == rep.stats.calls == len(calls)
            assert rep.stats.panels >= 8 and rep.stats.max_depth >= 1
            assert rep.stats.polish_iterations > 0
            assert rep.stats.min_modulus <= rep.contour_min_modulus
        assert rep.winding_total == 6
        assert rep.stats.cells > 1 and rep.stats.splits >= 1

    @pytest.mark.parametrize("pieces", [
        [(-0.92, 0.92, -5.86 + 1.03j)],
        [(-1.0, 1.0, -4.0 + 0j)],
        [(-1.11, -0.42, -2.92 - 0.39j), (-0.42, 0.24, -5.08 - 0.94j), (0.24, 1.11, -5.77 - 0.19j)],
    ])
    def test_array_handle_matches_per_node_calls(self, pieces):
        # the handle takes each contour level's node array in one call; behind a
        # plain lambda it is called once per node, on the same nodes
        region = Region.rectangle(-8.0, -1e-3, -1.5, 1.5)
        handle = make_secular_handle(PiecewisePotential(pieces))
        levels = locate_zeros(handle, region)
        nodes = locate_zeros(lambda E: handle(E), region)
        assert levels.complete and levels.winding_total == nodes.winding_total > 0
        assert [z.multiplicity for z in levels.zeros] == [z.multiplicity for z in nodes.zeros]
        for a, b in zip(levels.zeros, nodes.zeros):
            assert abs(a.location - b.location) <= 1e-12
        assert levels.stats.evaluations == nodes.stats.evaluations == nodes.stats.calls
        assert levels.stats.calls < levels.stats.evaluations / 20

    def test_array_handle_zero_on_contour_names_the_same_point(self):
        # a real well with its ground state at E = -8, on the rectangle's left side
        R = math.atan(2.0) / math.sqrt(2.0)
        handle = make_secular_handle(PiecewisePotential([(-R, R, -10.0 + 0j)]))
        region = Region.rectangle(-8.0, -1e-3, -1.5, 1.5)
        points = []
        for f in (handle, lambda E: handle(E)):
            with pytest.raises(ContourError) as info:
                locate_zeros(f, region)
            points.append(info.value.point)
        assert points[0] == points[1]
        assert abs(points[0] + 8.0) < 1e-6

    def test_disk_is_solved_on_its_circle(self):
        # the desk potential of these targets has a second zero near
        # 1.00999+0.06992i: inside the first disk's bounding box, outside the disk
        zetas = (1.0014 + 0.0796j, 1.2940 + 0.0594j, 0.8025 + 0.0504j)
        targets = TargetSequence(zetas, sector_aperture=0.2)
        params = EnvelopeParams(d=1, q=2.0, p=4.0, alpha=1.0, gamma=1.0, big_o_constant=1.25,
                                C_L=1.0)
        handle = make_secular_handle(assemble_sparse(
            targets, params, choose_L(targets, params, mode="desk").lengths).potential)
        disk = Region.disk(zetas[0], 0.01)
        box = locate_zeros(handle, disk.bounding_rectangle())
        assert sum(not disk.contains(z.location) for z in box.zeros) == 1
        calls = []
        rep = locate_zeros(lambda E: calls.append(E) or handle(E), disk)
        assert len(calls) <= 1500
        assert rep.complete and rep.winding_total == 1 and len(rep.zeros) == 1
        assert disk.contains(rep.zeros[0].location)

    @pytest.mark.parametrize("gap, expected", [
        (0.0, [(-0.5j, 1), (0.3 + 0.1j, 2)]),
        (1e-7, [(-0.5j, 1), (0.3 + 0.1j, 1), (0.3000001 + 0.1j, 1)]),
        (1e-6, [(-0.5j, 1), (0.3 + 0.1j, 1), (0.300001 + 0.1j, 1)]),
        (1e-3, [(-0.5j, 1), (0.3 + 0.1j, 1), (0.301 + 0.1j, 1)]),
    ])
    def test_close_zeros_resolved_on_a_small_disk(self, gap, expected):
        # on the unit circle the Hankel matrix of a pair 1e-6 apart is rank
        # deficient, and a disk a thousandth that size around the cluster tells
        # them apart; a pair 1e-3 apart gives an ill-conditioned pencil whose
        # values the secant polish separates
        f = lambda z: (z - 0.3 - 0.1j) * (z - 0.3 - 0.1j - gap) * (z + 0.5j)
        rep = locate_zeros(f, Region.disk(0, 1))
        assert rep.complete
        assert [z.multiplicity for z in rep.zeros] == [m for _, m in expected]
        for z, (want, m) in zip(rep.zeros, expected):
            assert abs(z.location - want) < (1e-9 if m == 1 else 1e-6)
        assert rep.stats.evaluations < 1000

    def test_rectangle_made_without_its_constructor(self):
        # Region("rectangle", ...) stores no centre: the contour takes it from the bounds
        f = lambda z: (z - 2.3 - 1.1j) * (z - 2.6 - 0.9j)
        made = locate_zeros(f, Region.rectangle(2.0, 3.0, 0.5, 1.5))
        direct = locate_zeros(f, Region("rectangle", re_lo=2.0, re_hi=3.0, im_lo=0.5, im_hi=1.5))
        assert direct.complete and len(direct.zeros) == 2
        assert direct.locations() == made.locations()
        assert direct.stats.evaluations == made.stats.evaluations
        assert direct.stats.splits == 0

    def test_rectangle_rejects_non_finite_bounds(self):
        # an infinite bound gave NaN panel nodes (and numpy warnings) before failing
        for bounds in ((-8.0, -1e-3, -1.5, math.inf), (-math.inf, -1.0, 0.0, 1.0),
                       (-8.0, -1.0, math.nan, 1.0)):
            with pytest.raises(ValueError, match="finite bounds"):
                Region.rectangle(*bounds)

    def test_disk_rejects_non_finite_centre_or_radius(self):
        for center, radius in ((complex(math.inf, 0.0), 1.0), (complex(-1.0, math.nan), 1.0),
                               (-1.0, math.inf)):
            with pytest.raises(ValueError, match="finite centre and radius"):
                Region.disk(center, radius)

    def test_budget_exhaustion_partial_report(self):
        def cluster(z):
            out = 1.0 + 0j
            for k in range(6):
                out *= z - 0.1 * k - 0.05j * k
            return out

        rep = locate_zeros(cluster, Region.rectangle(-1, 1, -1, 1), budget=3)
        assert not rep.complete

    def test_well_energies_match_oracle(self):
        pot = PiecewisePotential.from_bumps([StepBump(-10.0, 1.0)])
        f = make_secular_handle(pot)
        rep = locate_zeros(f, Region.rectangle(-10.0, -1e-6, -0.5, 0.5))
        oracle = real_well_bound_states(10.0, 1.0)
        assert len(rep.zeros) == len(oracle)
        for z, e in zip(rep.zeros, oracle):
            assert abs(z.location - e) < 1e-8


class TestParityCompleteness:
    def test_odd_even_union_equals_global(self, rng):
        # zero sets of the parity secular functions, filtered to the physical
        # sheet, match the transfer-matrix oracle zero set per region
        for trial in range(5):
            v0 = complex(rng.uniform(-6, -1), rng.uniform(-1.5, 1.5))
            R = rng.uniform(0.8, 1.6)
            bump = StepBump(v0, R)
            region = Region.rectangle(-8.0, -1e-3, -1.5, 1.5)
            pot = PiecewisePotential.from_bumps([bump])
            global_rep = locate_zeros(make_secular_handle(pot), region)
            parity_zeros = []
            for parity in ("odd", "even"):
                rep = locate_zeros(lambda E, p=parity: secular_entire(bump, E, p), region)
                parity_zeros.extend(rep.zeros)
            assert len(parity_zeros) == len(global_rep.zeros)
            key = lambda z: (z.real, z.imag)
            got = sorted((z.location for z in parity_zeros), key=key)
            want = sorted((z.location for z in global_rep.zeros), key=key)
            for a, b in zip(got, want):
                assert abs(a - b) < 1e-9 * max(1.0, abs(b))


@st.composite
def _edge_rectangles(draw):
    """Rectangles with coordinates up to 10: anywhere, with a side on Im E = 0
    ending 1e-9..1 from 0, or with a side through 0; mirrored onto Re E = 0 at will."""
    width = draw(st.floats(1e-3, 10.0))
    height = draw(st.floats(1e-3, 10.0))
    kind = draw(st.sampled_from(["free", "near", "through"]))
    if kind == "free":
        re_lo = draw(st.floats(-10.0, 10.0))
        im_lo = draw(st.floats(-10.0, 10.0))
    else:
        if kind == "near":
            gap = 10.0 ** draw(st.floats(-9.0, 0.0))
            re_lo = draw(st.sampled_from([gap, -gap - width]))
        else:
            re_lo = -width * draw(st.floats(0.0, 1.0))
        im_lo = draw(st.sampled_from([0.0, -height]))
    bounds = (re_lo, re_lo + width, im_lo, im_lo + height)
    if draw(st.booleans()):
        bounds = bounds[2:] + bounds[:2]
    return Region.rectangle(*bounds)


class TestGradedPanels:
    @given(_edge_rectangles(), st.lists(st.floats(0.0, 1.0), max_size=20))
    # a side 1e-211 from 0, and sides short beside their distance from 0
    @example(Region.rectangle(0.0, 1.0, 6.9e-212, 1.0), [])
    @example(Region.rectangle(0.0, 1.0, 2.0, 2.001), [])
    def test_nodes_in_order_and_weights_sum_to_the_edge(self, region, cuts):
        # the 1/16 grid keeps every panel short enough for 16 Gauss nodes to
        # integrate d*cosh(sigma) exactly
        ts = np.array(sorted(set(cuts) | {k / 16 for k in range(17)}))
        corners = [complex(region.re_lo, region.im_lo), complex(region.re_hi, region.im_lo),
                   complex(region.re_hi, region.im_hi), complex(region.re_lo, region.im_hi)]
        for edge in range(4):
            a, b = corners[edge], corners[(edge + 1) % 4]
            z, dz = region.panels([edge] * (ts.size - 1), ts[:-1], ts[1:])
            z = z.ravel()
            if a.imag == b.imag:
                assert np.all(z.imag == a.imag)
            else:
                assert np.all(z.real == a.real)
            along = ((z - a) / (b - a)).real
            slack = 1e-13 * max(abs(a), abs(b)) / abs(b - a)
            assert np.all((along >= -slack) & (along <= 1.0 + slack))
            assert np.all(np.diff(along) >= 0.0)
            assert abs(dz.sum() - (b - a)) <= 1e-13 * abs(b - a)

    def test_walked_rectangle_keeps_equality_and_hash(self):
        # the edge grading is cached on the instance, outside the dataclass fields
        walked = Region.rectangle(-8.0, -1e-3, -1.5, 1.5)
        walked.panels([0, 1, 2, 3], [0.0] * 4, [1.0] * 4)
        fresh = Region.rectangle(-8.0, -1e-3, -1.5, 1.5)
        assert walked == fresh and hash(walked) == hash(fresh) and repr(walked) == repr(fresh)


class TestRouche:
    def test_g1_g2_domination(self):
        # exponential approximation dominates the exact kappa-space secular
        # on a circle around the Lambert seed: |g2 - g1| < |g1| on the nodes of
        # 64 Gauss-Legendre panels per quarter arc
        N, n = 8, -40
        R, v0 = float(N), 1j
        kap = imag_step_seed(N, n, "odd", 1)
        g1 = lambda k: v0 - 4 * k * k * cmath.exp(2j * k * R)
        g2 = lambda k: _secular_terms("odd", v0, R, k)[0]
        disk = Region.disk(kap, 10.0 * N / n**2)
        ts = np.linspace(0.0, 1.0, 65)
        zs, _ = disk.panels(np.repeat(np.arange(4), 64), np.tile(ts[:-1], 4), np.tile(ts[1:], 4))
        assert max(abs(g2(z) - g1(z)) / abs(g1(z)) for z in zs.ravel().tolist()) < 1.0
        # domination transfers the zero count (Rouche)
        assert winding_count(g1, disk) == winding_count(g2, disk)


class TestLadderSeeds:
    @pytest.mark.parametrize("N", [16, 64])
    def test_array_n_lambert_equals_scalar_calls(self, N):
        ns = np.arange(-60, 61)
        root = cmath.sqrt(1j)
        for parity, sign in FAMILIES:
            # 2*kappa*e^{i kappa N} = s*sqrt(i) (odd) or s*i*sqrt(i) (even)
            z = 0.5j * sign * root * N if parity == "odd" else -0.5 * sign * root * N
            ws = lambert_w(ns, z)
            assert ws.shape == ns.shape
            assert branch_of_w(ws).tolist() == ns.tolist()
            assert ws.tolist() == [lambert_w(int(n), z) for n in ns]

    def test_continuation_entries_in_an_array(self):
        # the first two Halley runs leave their branch and are redone by
        # continuation; the third is not
        z = np.array([-0.8437 - 1.2401j, -0.3641 - 0.0629j, 2.0 + 0.5j])
        n = np.array([0, -1, 3])
        ws = lambert_w(n, z)
        assert branch_of_w(ws).tolist() == [0, -1, 3]
        assert np.all(np.abs(ws * np.exp(ws) - z) < 1e-12 * np.abs(z))
        assert ws.tolist() == [lambert_w(int(k), complex(x)) for k, x in zip(n, z)]


class TestTrigSq:
    @staticmethod
    def reference(parity, w):
        # cmath, or beyond |Im w| = 300, where sin^2 and cos^2 overflow, the
        # two-term expansion in e = e^{+-2iw}
        if abs(w.imag) <= 300.0:
            den, num = (cmath.sin(w), cmath.cos(w)) if parity == "odd" else (cmath.cos(w), cmath.sin(w))
            return 1.0 / (den * den), num / den
        sgn, up = (1.0 if parity == "odd" else -1.0), w.imag > 0.0
        e = cmath.exp((2j if up else -2j) * w)
        u = 1.0 + 2.0 * sgn * e
        return -4.0 * sgn * e * u, (-1j if up else 1j) * sgn * u

    @pytest.mark.parametrize("parity", ["odd", "even"])
    def test_matches_cmath(self, rng, parity):
        far = rng.uniform(-60, 60, 300) + 1j * rng.choice([-1, 1], 300) * rng.uniform(0, 700, 300)
        near_axis = rng.uniform(-60, 60, 300) + 1j * rng.normal(0, 1, 300)
        # within 1e-6 of the poles and zeros k*pi/2, in every direction
        k = rng.integers(-40, 41, 300)
        poles = k * math.pi / 2 + 10.0 ** rng.uniform(-12, -6, 300) * np.exp(2j * math.pi * rng.uniform(size=300))
        w = np.concatenate([far, near_axis, poles])
        sq, t = _trig_sq(parity, w)
        for x, a, b in zip(w, sq, t):
            ra, rb = self.reference(parity, complex(x))
            assert abs(a - ra) <= 1e-13 * abs(ra) + 1e-300, (x, a, ra)
            assert abs(b - rb) <= 1e-13 * abs(rb) + 1e-300, (x, b, rb)


class TestEnumerate:
    def test_seed_asymptotics_imag(self):
        N = 16
        rows = enumerate_imag_step(N, (-400, -256), families=[("odd", 1)])
        for r in rows:
            dev = (r.kappa_seed * N).imag - math.log(abs(r.n) / N)
            assert abs(dev) < 4.0  # uniformly bounded O(1)

    def test_refined_asymptotics_primary_family(self):
        N = 16
        rows = enumerate_imag_step(N, (-2 * N * N, -N * N), families=[("odd", 1)])
        for r in rows:
            assert r.converged
            w = r.kappa_refined * N
            assert abs(w.real - (2 * math.pi * r.n + 5 * math.pi / 4)) < 1.0 * math.log(
                abs(r.n)
            ) / abs(r.n)
            assert abs(w.imag - math.log(abs(r.n) / N)) < 4.0

    def test_residuals(self):
        rows = enumerate_imag_step(16, (-64, -8))
        assert all(r.residual < 1e-9 for r in rows if r.converged)
        assert sum(r.converged for r in rows) > 0.95 * len(rows)

    def test_sheet_flags_only_negative_n(self):
        rows = enumerate_imag_step(8, (-30, 30))
        flagged = [r.n for r in rows if r.on_physical_sheet]
        assert flagged
        assert all(n < 0 for n in flagged)

    def test_physical_rows_match_global_zeros(self):
        N = 8
        box = census_box(N, 10.0)
        cen = imag_step_census(N, 10.0)
        pot = PiecewisePotential([(-8.0, 8.0, 1j)])
        rep = locate_zeros(make_secular_handle(pot), box, budget=20000)
        assert rep.complete
        hits = [
            r for r in cen.results
            if r.converged and r.on_physical_sheet and box.contains(r.energy)
        ]
        for r in hits:
            assert min(abs(r.energy - z.location) for z in rep.zeros) < 1e-6

    def test_small_N_rejected(self):
        with pytest.raises(ValueError):
            enumerate_imag_step(4, (-10, -1))

    @pytest.mark.parametrize("N", [16, 64])
    def test_agrees_with_scalar_newton(self, N):
        rows = enumerate_imag_step(N, census_window(N, 10.0))
        assert [(r.n, r.parity, r.sign) for r in rows] == sorted(
            (r.n, r.parity, r.sign) for r in rows
        )
        for r in rows:
            seed, kappa, converged, sheet = imag_step_branch(N, r.n, r.parity, r.sign)
            assert abs(r.kappa_seed - seed) <= 1e-12 * abs(seed)
            assert r.converged == converged, (r, kappa)
            if converged:
                assert abs(r.kappa_refined - kappa) <= 1e-12 * abs(kappa)
                assert r.on_physical_sheet == sheet
            else:
                assert not r.on_physical_sheet

    def test_unconverged_records_stay_in_the_hop_disk(self):
        rows = enumerate_imag_step(64, census_window(64, 10.0))
        failed = [r for r in rows if not r.converged]
        assert failed
        for r in failed:
            # kappa_refined is the upper-half representative of the last iterate
            assert r.kappa_seed != 0
            dist = min(abs(r.kappa_refined - r.kappa_seed), abs(r.kappa_refined + r.kappa_seed))
            assert dist <= 0.75 * math.pi / 64 * (1.0 + 1e-12)
            assert cmath.isfinite(r.energy)


class TestCensus:
    def test_counts_increase_and_ratio_band(self):
        results = [imag_step_census(N, 10.0) for N in (16, 32, 64)]
        counts = [c.count for c in results]
        assert counts[0] < counts[1] < counts[2]
        ratios = [c.ratio for c in results]
        assert max(ratios) / min(ratios) < 3.0

    def test_census_equals_winding_exactly(self):
        N = 8
        cen = imag_step_census(N, 10.0)
        pot = PiecewisePotential([(-float(N), float(N), 1j)])
        wc = winding_count(make_secular_handle(pot), census_box(N, 10.0))
        assert cen.count == wc

    def test_energy_scalings(self):
        # Re E ~ n^2/N^2 and |Im E| ~ (|n|/N^2) log(|n|/N) along the ladder,
        # which are order relations: assert constant-factor bands
        N = 16
        rows = enumerate_imag_step(N, (-300, -200), families=[("odd", 1)])
        for r in rows:
            n = abs(r.n)
            re_pred = (2 * math.pi * n / N) ** 2
            assert r.energy.real == pytest.approx(re_pred, rel=0.15)
            im_scale = (n / N**2) * math.log(n / N)
            ratio = abs(r.energy.imag - 1.0) / im_scale
            assert 4.0 * math.pi * 1.2 < ratio < 4.0 * math.pi * 2.5

    def test_pinned_counts_and_certificate(self):
        # the census CSV of the benchmark ladder; every dropped branch starts
        # and ends at least one ladder spacing outside the box
        for N, count in ((32, 60), (64, 198), (128, 663), (192, 1357), (256, 2265)):
            cen = imag_step_census(N, 10.0)
            assert cen.count == count
            assert cen.certified and cen.uncertified == ()
            assert not any(cmath.isnan(r.energy) for r in cen.results)

    def test_census_512_certified(self):
        cen = imag_step_census(512, 10.0)
        assert cen.count == 7846
        assert cen.certified

    @pytest.mark.parametrize("N", [16, 64])
    def test_results_are_the_enumeration(self, N):
        cen = imag_step_census(N, 10.0)
        assert "results" not in vars(cen)  # nobody has read them yet
        assert list(cen.results) == enumerate_imag_step(N, census_window(N, 10.0))
        assert cen.results is cen.results
        assert cen.unconverged == sum(not r.converged for r in cen.results)

    def test_certificate_names_branches_near_the_box(self):
        # C_box = 100 stretches the box to Re E > 0.33, Im E > 0.01, where the
        # dropped branches near E = i lie
        N = 16
        full = imag_step_census(N, 10.0)
        lowered = imag_step_census(N, 100.0)
        assert full.certified
        assert not lowered.certified
        assert all(not r.converged for r in lowered.uncertified)

    @pytest.mark.parametrize("N", [0, 1])
    def test_small_N_rejected(self, N):
        with pytest.raises(ValueError, match="N >= 8"):
            census_box(N)
        with pytest.raises(ValueError, match="N >= 8"):
            imag_step_census(N)

    @pytest.mark.parametrize("C_box", [0.0, 1.0, -1.0, math.inf, math.nan])
    def test_C_box_must_be_finite_above_1(self, C_box):
        # 0 divided by zero, inf overflowed in census_window, 1 gave an empty box
        with pytest.raises(ValueError, match="finite C_box > 1"):
            imag_step_census(8, C_box)

    def test_table_row_schema(self):
        row = imag_step_census(8, 10.0).table_row()
        assert set(row) == {
            "N", "count", "ratio", "box_re_lo", "box_re_hi", "box_im_lo", "box_im_hi"
        }
