import cmath
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import stepspectra
from stepbench import checks as bench_checks
from stepspectra import special_functions, spectral_count, step_model
from stepspectra.errors import ContourError
from stepspectra.schrodinger_1d import PiecewisePotential, make_secular_handle
from stepspectra.sparse_builder import EnvelopeParams, TargetSequence, assemble_sparse, choose_L
from stepspectra.special_functions import branch_of_w, lambert_w
from stepspectra.spectral_count import (
    FAMILIES,
    Region,
    SolverStats,
    _Contour,
    _box_window,
    _counted,
    _secant,
    census_box,
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
    secular_entire,
)

from conftest import imag_step_branch, line_targets, mp_transfer_secular, real_well_bound_states


def test_gauss_legendre_literals_are_leggauss():
    x, w = np.polynomial.legendre.leggauss(16)
    assert spectral_count._GL_X.tobytes() == x.tobytes()
    assert (2.0 * spectral_count._GL_W).tobytes() == w.tobytes()
    assert spectral_count._GL_T.tobytes() == (0.5 * (1.0 + x)).tobytes()


def test_cli_import_leaves_numpy_polynomial_out():
    # a fresh interpreter: the test process has numpy.polynomial loaded above
    code = "import sys, stepspectra.cli; sys.exit('numpy.polynomial' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(stepspectra.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr or "numpy.polynomial was imported"


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

    def test_argument_jump_across_a_panel_boundary_is_halved(self):
        # the principal sqrt's cut meets edge 3 at t = 0.5, a panel boundary: the
        # panels on either side settle, and only the loop over argument steps
        # between panels halves them, until the bisection bound
        f = lambda z: np.sqrt(np.asarray(z))
        f.vectorized = True
        with pytest.raises(ContourError, match="no settled panel after 28 bisections") as info:
            winding_count(f, Region.rectangle(-2.0, 1.0, -1.0, 1.0))
        err = info.value
        assert err.edge == 3
        assert abs(err.t - 0.5) < 1e-8
        assert abs(err.point + 2.0) < 4e-9

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

    def test_modulus_far_below_its_mean_winds_zero(self):
        # |e^{40 z}| runs from e^{-40} to e^{40} on the square, with no zero near:
        # the size of |f| alone fails no contour
        f = lambda z: np.exp(40.0 * np.asarray(z))
        f.vectorized = True
        square = Region.rectangle(-1.0, 1.0, -1.0, 1.0)
        assert winding_count(f, square) == 0
        rep = locate_zeros(f, square)
        assert rep.complete and rep.zeros == [] and rep.stats.evaluations == 832

    def test_zero_hugging_the_contour_never_gives_a_wrong_winding(self):
        # a zero 10^-k inside or outside an edge: the panels either settle on the
        # true winding or raise ContourError. On the real well the bottom edge
        # runs 10^-k above or below its real bound states
        handle = make_secular_handle(PiecewisePotential([(-1.0, 1.0, -4.0 + 0j)]))
        wells = len(real_well_bound_states(4.0, 1.0))
        settled = set()
        for k in range(2, 15):
            for d in (-(10.0 ** -k), 10.0 ** -k):
                rect, disk = 1.0 + d + 0.3j, (1.0 + d) * cmath.exp(0.7j)
                cases = [
                    (lambda z, e=rect: (z - 0.2 - 0.1j) * (z - e),
                     Region.rectangle(-1.0, 1.0, -1.0, 1.0), 1 + (d < 0)),
                    (lambda z, e=disk: (z - 0.2 - 0.1j) * (z - e), Region.disk(0, 1), 1 + (d < 0)),
                    (handle, Region.rectangle(-8.0, -1e-3, d, 1.5), wells * (d < 0)),
                ]
                for i, (f, region, want) in enumerate(cases):
                    try:
                        assert winding_count(f, region) == want
                    except ContourError:
                        continue
                    settled.add((i, k))
        assert {(i, k) for i in range(3) for k in range(2, 7)} <= settled

    def test_non_finite_value_raises(self):
        f = lambda z: np.where(np.real(z) > 0.5, np.nan, np.asarray(z) - 0.1)
        f.vectorized = True
        with pytest.raises(ContourError, match="zero or not finite") as info:
            winding_count(f, Region.rectangle(-1.0, 1.0, -1.0, 1.0))
        assert info.value.point.real > 0.5

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
        locs = sorted((z.location for z in rep.zeros), key=lambda z: z.imag)
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
            # six eigenvalues of i*1_[-8,8] whose pencil on the census box fails
            # its checks, so the cell splits
            (make_secular_handle(PiecewisePotential([(-8.0, 8.0, 1j)])), census_box(8)),
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

    def test_edges_and_their_halves_in_one_call(self):
        # a contour's four edges and their eight halves, 192 nodes, go through one
        # call of the array handle: a one-zero desk disk that settles there walks
        # its contour in that call, and the secant polish adds 2 scalar calls and
        # one per step
        zeta = 1 + 0.1j
        handle = make_secular_handle(PiecewisePotential.from_bumps([construct_bump(zeta).bump]))
        rep = locate_zeros(handle, Region.disk(zeta, 0.02))
        assert rep.complete and len(rep.zeros) == 1 and rep.stats.max_depth == 1
        assert rep.stats.calls == 1 + 2 + rep.stats.polish_iterations
        assert rep.stats.evaluations == 192 + 2 + rep.stats.polish_iterations
        # contours that go deeper: the points of one call per level (520 on the
        # rectangle, 19,672 over the census box's split), one call fewer per contour;
        # and the leaves: each steps rectangle is one contour of 18 panels, 3 deep
        cases = [(pieces, Region.rectangle(-8.0, -1e-3, -1.5, 1.5), 520, 12, (18, 3, 1))
                 for pieces in ([(-0.92, 0.92, -5.86 + 1.03j)], [(-1.0, 1.0, -4.0 + 0j)],
                                [(-1.11, -0.42, -2.92 - 0.39j), (-0.42, 0.24, -5.08 - 0.94j),
                                 (0.24, 1.11, -5.77 - 0.19j)])]
        cases.append(([(-8.0, 8.0, 1j)], census_box(8), 19672, 142, (656, 8, 21)))
        for pieces, region, points, calls_per_level, leaves in cases:
            rep = locate_zeros(make_secular_handle(PiecewisePotential(pieces)), region)
            assert rep.complete and rep.stats.evaluations == points
            assert rep.stats.calls == calls_per_level - rep.stats.cells
            assert (rep.stats.panels, rep.stats.max_depth, rep.stats.cells) == leaves

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
        box = locate_zeros(handle, spectral_count._subdivide(disk, 0.0)[0])
        assert sum(not disk.contains(z.location) for z in box.zeros) == 1
        calls = []
        rep = locate_zeros(lambda E: calls.append(E) or handle(E), disk)
        assert len(calls) <= 1500
        assert rep.complete and rep.winding_total == 1 and len(rep.zeros) == 1
        assert disk.contains(rep.zeros[0].location)

    def test_thirty_desk_disks_without_a_split(self):
        # 114 eigenvalues in 30 disks, up to 6 in one, each disk centred on its
        # target next to an eigenvalue: every disk's pencil solves all of them
        zetas = tuple(complex(*z) for z in line_targets(30))
        targets = TargetSequence(zetas)
        params = EnvelopeParams(d=1, q=2.0, p=4.0)
        handle = make_secular_handle(assemble_sparse(
            targets, params, choose_L(targets, params, mode="desk").lengths).potential)
        reps = [locate_zeros(handle, Region.disk(z, 5e-3)) for z in zetas]
        assert all(r.complete and r.winding_total == len(r.zeros) for r in reps)
        assert sum(r.winding_total for r in reps) == 114
        assert max(r.winding_total for r in reps) == 6
        assert sum(r.stats.evaluations for r in reps) <= 30000

    def test_thirty_two_copies_of_one_bump(self):
        # far-apart copies of one bump put their eigenvalues next to the bump's
        # own: |F| dips like |F_1|^32 on the disk, and every one is found
        bump = construct_bump(1 + 0.1j).bump
        step = 2.0 * bump.half_width + 120.0  # an edge-to-edge gap of 120
        handle = make_secular_handle(PiecewisePotential.from_bumps(
            [bump.shifted(step * k) for k in range(32)]))
        disk = Region.disk(1 + 0.1j, 0.02)
        rep = locate_zeros(handle, disk)
        assert rep.complete and rep.winding_total == len(rep.zeros) == 32
        assert all(disk.contains(z.location) for z in rep.zeros)

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
        # values the secant polish separates. The double zero is one only on the
        # next disk, the first below the multiple-zero floor
        f = lambda z: (z - 0.3 - 0.1j) * (z - 0.3 - 0.1j - gap) * (z + 0.5j)
        rep = locate_zeros(f, Region.disk(0, 1))
        assert rep.complete
        assert [z.multiplicity for z in rep.zeros] == [m for _, m in expected]
        for z, (want, m) in zip(rep.zeros, expected):
            assert abs(z.location - want) < (1e-9 if m == 1 else 1e-6)
        assert rep.stats.evaluations < 1000

    def test_noisy_f(self):
        # relative noise leaves the zeros where they are, but it can fail the
        # secant polish on the small disk, and the cell is then split
        splits = 0
        for gap in (1e-7, 1e-3):
            want = [-0.5j, 0.3 + 0.1j, 0.3 + 0.1j + gap]
            for noise in (1e-13, 1e-11, 1e-9):
                rng = np.random.default_rng(0)
                f = lambda z: ((z - 0.3 - 0.1j) * (z - 0.3 - 0.1j - gap) * (z + 0.5j)
                               * (1.0 + noise * complex(*rng.standard_normal(2))))
                rep = locate_zeros(f, Region.disk(0, 1))
                assert rep.complete and len(rep.zeros) == 3
                for z, w in zip(rep.zeros, sorted(want, key=lambda w: (w.real, w.imag))):
                    assert abs(z.location - w) < 1e-9
                assert rep.stats.evaluations <= 12000
                splits += rep.stats.splits
        assert splits > 0

    @pytest.mark.parametrize("gap, noise", [(1e-7, 1e-11), (1e-3, 1e-9)])
    @pytest.mark.parametrize("e", [1 + 0.9j, 0.9 + 1j, -1 - 0.7j])
    def test_disk_box_grows_off_a_zero_on_its_edge(self, gap, noise, e):
        # e lies outside the disk, on its bounding box's edge, where the box's
        # contour cannot settle: a box grown by the nudge ladder takes its place,
        # and e, inside that box, is dropped as outside the disk. The unit disk is
        # far above the multiple-zero floor, so even the pair 1e-7 apart comes
        # back as two simple zeros
        rng = np.random.default_rng(0)
        f = lambda z: ((z - 0.3 - 0.1j) * (z - 0.3 - 0.1j - gap) * (z + 0.5j) * (z - e)
                       * (1.0 + noise * complex(*rng.standard_normal(2))))
        disk = Region.disk(0, 1)
        rep = locate_zeros(f, disk)
        assert rep.complete and rep.stats.nudges >= 1
        assert rep.winding_total == 3 and [z.multiplicity for z in rep.zeros] == [1, 1, 1]
        want = [-0.5j, 0.3 + 0.1j, 0.3 + 0.1j + gap]
        for z, w in zip(rep.zeros, want):
            assert abs(z.location - w) < 1e-9

    @pytest.mark.parametrize("region", [Region.disk(0.1 + 0.2j, 1.0),
                                        Region.rectangle(-0.9, 1.1, -0.8, 1.2)])
    def test_six_zeros_one_at_the_centre(self, region):
        # one cell's moments solve all six: a split at the centre would cut
        # through a zero
        c = 0.1 + 0.2j
        roots = [c] + [c + 0.6 * cmath.exp(1j * (0.3 + 2 * math.pi * k / 5)) for k in range(5)]
        rep = locate_zeros(lambda z: np.prod([z - r for r in roots], axis=0), region)
        assert rep.complete and rep.winding_total == len(rep.zeros) == 6
        for r in roots:
            assert min(abs(z.location - r) for z in rep.zeros) < 1e-9
        assert rep.stats.splits == rep.stats.nudges == 0
        assert rep.stats.evaluations <= 1000

    @pytest.mark.parametrize("region, centre, h", [
        (Region.disk(0.1j, 1.0), 0.1j, 1.0),
        (Region.rectangle(-1.0, 1.2, -0.9, 1.1), 0.1 + 0.1j, 0.5 * math.hypot(2.2, 2.0)),
    ])
    def test_power_sums_of_twenty_zeros(self, region, centre, h):
        # s_0 .. s_39 against the sums of the zeros' own powers, with no cap on
        # the winding that one cell's moments take
        k = np.arange(20)
        roots = (0.3 + 0.03 * k) * np.exp(1j * (0.7 * math.pi * k + 0.1)) + 0.05
        stats = SolverStats()
        con = _Contour(_counted(lambda z: np.prod([z - r for r in roots], axis=0), stats),
                       region, stats)
        u = (roots - centre) / h
        exact = [np.sum(u ** p) for p in range(40)]
        assert con.winding == 20
        assert np.max(np.abs(con.power_sums(40) - exact)) <= 1e-10

    def test_constant_factor_changes_nothing(self):
        # log c adds the same to a panel's moments as to its halves', and the
        # power sums take log|f| less its mean on the contour, so c*f walks the
        # same nodes and finds the same zeros
        f = lambda z: (z - 0.3 - 0.1j) * (z - 0.301 - 0.1j) * (z + 0.5j)
        reps = [locate_zeros(lambda z: c * f(z), Region.disk(0, 1)) for c in (1e-200, 1.0, 1e200)]
        for rep in reps:
            assert rep.complete and len(rep.zeros) == 3
            assert rep.stats.evaluations == reps[1].stats.evaluations
            for a, b in zip(rep.zeros, reps[1].zeros):
                assert abs(a.location - b.location) < 1e-12

    @pytest.mark.parametrize("make", [
        lambda: Region.disk(1e150 + 2e149j, 0.01),
        lambda: Region.rectangle(1e150, 1e150 + 1e136, 0.0, 1.0),
        lambda: Region.rectangle(-1.0, 1.0, 1e20, 1e20 + 1e5),
    ])
    def test_region_below_float_resolution_rejected(self, make):
        # floats near 1e150 are 2e134 apart: every node of such a contour
        # rounds onto a few floats, so f could not wind
        with pytest.raises(ValueError, match="below 1000 float spacings"):
            make()

    def test_small_disks_stay_above_the_bound(self):
        # 1e-9 at unit scale is about 4.5e6 float spacings, and the engine's own
        # cells and small disks stay above 5e-9 of the scale
        assert Region.disk(1 + 0.1j, 1e-9).radius == 1e-9
        assert Region.rectangle(1.0, 1.0 + 1e-9, 0.1, 0.1 + 1e-9).diameter > 1e-9
        # near 0 the floats are dense: a region 1e-14 across still resolves
        assert winding_count(lambda z: z, Region.disk(0j, 1e-14)) == 1
        zero = 1 + 0.1j + 3e-7 - 2e-7j
        rep = locate_zeros(lambda z: (z - zero) * (z + 2.0), Region.disk(1 + 0.1j, 1e-6))
        assert rep.complete and len(rep.zeros) == 1
        assert abs(rep.zeros[0].location - zero) < 1e-15

    def test_rectangle_made_without_its_constructor(self):
        # Region("rectangle", ...) takes its centre from the bounds, as Region.rectangle does
        f = lambda z: (z - 2.3 - 1.1j) * (z - 2.6 - 0.9j)
        made = locate_zeros(f, Region.rectangle(2.0, 3.0, 0.5, 1.5))
        direct = locate_zeros(f, Region("rectangle", re_lo=2.0, re_hi=3.0, im_lo=0.5, im_hi=1.5))
        assert direct.complete and len(direct.zeros) == 2
        assert [z.location for z in direct.zeros] == [z.location for z in made.zeros]
        assert direct.stats.evaluations == made.stats.evaluations
        assert direct.stats.splits == 0

    @pytest.mark.parametrize("kwargs, message", [
        (dict(kind="disk", center=1j, radius=-1.0), "positive radius"),
        (dict(kind="disk", center=complex(math.nan, 0.0), radius=1.0), "finite centre and radius"),
        (dict(kind="rectangle", re_lo=3.0, re_hi=2.0, im_hi=1.0), "re_lo < re_hi"),
        (dict(kind="rectangle", re_hi=math.inf, im_hi=1.0), "finite bounds"),
        (dict(kind="triangle"), "kind must be 'rectangle' or 'disk'"),
    ])
    def test_direct_construction_checks_as_the_constructors_do(self, kwargs, message):
        # the disk of radius -1 was walked as the radius-1 disk (winding 1 about 0.5i),
        # and Region("triangle") ran 2^20 points into a ContourError
        with pytest.raises(ValueError, match=message):
            Region(**kwargs)

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

    def test_secant_gives_up(self):
        # a flat f, a zero far outside the cell, and real iterates that cannot
        # reach the zeros +-i of z^2 + 1 each end the polish without a zero
        con = SimpleNamespace(c=0j, h=10.0)  # the centre and half-diameter it reads
        for f in (lambda z: 1.0 + 0j, lambda z: z - 100.0, lambda z: z * z + 1.0):
            stats = SolverStats()
            assert _secant(f, 0.3 + 0j, con, stats) is None
        assert stats.polish_iterations == 16

    @pytest.mark.parametrize("f, want", [
        (lambda z: z - 1e-9j, [(1e-9j, 1)]),
        (lambda z: (z - 1e-9j) ** 2, [(1e-9j, 2)]),
        (lambda z: (z - 1e-9j) * (z - 1.1e-9j), [(1e-9j, 1), (1.1e-9j, 1)]),
    ], ids=["simple", "double", "pair"])
    def test_tiny_cell_reports_the_pencil_zeros(self, f, want):
        # 5.7e-9 across at scale 1: each zero comes from the pencil, none is the
        # cell's centre 0 (which a least-diameter rule once reported, complete)
        rep = locate_zeros(f, Region.rectangle(-2e-9, 2e-9, -2e-9, 2e-9))
        assert rep.complete and rep.winding_total == sum(k for _, k in want)
        got = sorted(rep.zeros, key=lambda z: z.location.imag)
        assert [z.multiplicity for z in got] == [k for _, k in want]
        for z, (loc, _) in zip(got, want):
            assert abs(z.location - loc) <= 1e-21

    @pytest.mark.parametrize("noise", [0.0, 1e-12])
    def test_cluster_disk_zeros_are_judged_once(self, noise):
        # a pair 1e-9 apart is rank deficient on the unit disk and resolved on its
        # cluster disk; judged again at the enclosing cell's coarser spacing, the pair
        # was rejected and the call ran to the point bound with only -0.5i
        rng = np.random.default_rng(0)
        a, g = 0.3 + 0.1j, 1e-9

        def f(z):
            z = np.asarray(z)
            return (z - a) * (z - a - g) * (z + 0.5j) * (1.0 + noise * rng.standard_normal(z.shape))

        f.vectorized = True
        rep = locate_zeros(f, Region.disk(0, 1))
        assert rep.complete and rep.stats.evaluations <= 10_000
        got = sorted(rep.zeros, key=lambda z: z.location.real)
        assert [z.multiplicity for z in got] == [1, 1, 1]
        assert all(abs(z.location - w) <= 1e-11 for z, w in zip(got, (-0.5j, a, a + g)))

    @pytest.mark.parametrize("region", [Region.disk(0, 1), Region.rectangle(-2e-9, 2e-9, -2e-9, 2e-9)],
                             ids=["unit-disk", "tiny-rectangle"])
    def test_cell_that_never_resolves_ends_at_the_point_bound(self, monkeypatch, region):
        # every cell split, however small: the report is incomplete, never a guess
        monkeypatch.setattr(spectral_count, "_moment_zeros", lambda *args: None)
        rep = locate_zeros(lambda z: (z - 1e-9j) * (z - 0.3 - 0.1j), region)
        assert not rep.complete
        assert rep.stats.evaluations <= spectral_count._MAX_POINTS

    def test_contour_that_cannot_settle_stops_at_the_point_bound(self):
        # relative noise of 1e-6 in f fails every panel's moment test at every
        # level, so each level of the circle doubles; an engine without a bound
        # reaches 3 M points here, at 64 * 2**15 points a level, before its depth cap
        rng = np.random.default_rng(0)
        seen = [0]

        def f(z):
            seen[0] += np.size(z)
            if seen[0] > 3_000_000:
                raise RuntimeError("more than 3 M points")
            return (z - 0.1) * (1.0 + 1e-6 * rng.standard_normal(np.shape(z)))

        f.vectorized = True
        with pytest.raises(ContourError, match="f did not settle within"):
            locate_zeros(f, Region.disk(0, 1))
        assert seen[0] <= spectral_count._MAX_POINTS

    @pytest.mark.parametrize("left", [1, 64, 191])
    def test_first_call_past_the_point_bound_evaluates_nothing(self, left):
        # the four edges and their halves take 192 points: with fewer left the contour
        # fails before it calls f, so no call passes the bound
        stats = SolverStats(evaluations=spectral_count._MAX_POINTS - left)
        with pytest.raises(ContourError, match="f did not settle within") as err:
            _Contour(_counted(lambda z: z - 0.1, stats), Region.disk(0, 1), stats)
        assert math.isnan(err.value.modulus)  # no |f| yet
        assert (stats.evaluations, stats.calls) == (spectral_count._MAX_POINTS - left, 0)

    def test_child_contour_past_the_point_bound_is_a_failed_split(self, monkeypatch):
        # f is noisy only within 0.3 of 0: the outer contour settles, the polish
        # of the zero at 0.05 does not, and neither do the split's inner edges
        monkeypatch.setattr(spectral_count, "_MAX_POINTS", 20_000)
        rng = np.random.default_rng(0)

        def f(z):
            z = np.asarray(z)
            noise = 1e-6 * rng.standard_normal(z.shape) * (np.abs(z) < 0.3)
            return z - 0.05 + noise

        f.vectorized = True
        rep = locate_zeros(f, Region.rectangle(-1.0, 1.0, -1.0, 1.0))
        assert rep.winding_total == 1 and not rep.complete
        assert rep.stats.nudges == len(spectral_count._NUDGES)
        assert rep.stats.evaluations <= 20_000 + 2_000

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
        assert fresh.center == complex(-4.0005, 0.0)


class TestRouche:
    def test_g1_g2_domination(self):
        # exponential approximation dominates the exact kappa-space secular
        # on a circle around the Lambert seed: |g2 - g1| < |g1| on the nodes of
        # 64 Gauss-Legendre panels per quarter arc
        N, n = 8, -40
        R, v0 = float(N), 1j
        kap = imag_step_seed(N, n, 1)
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

    @pytest.mark.parametrize("N", [8, 16, 256])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_even_seeds_are_mirrored_odd_seeds(self, N, sign):
        # the even target is the conjugate of the odd one, and
        # W_n(conj z) = conj W_-n(z); the census seeds the even ladders this way
        lo, hi = _box_window(N, census_box(N))
        ns = np.arange(lo, hi + 1)
        even = -1j * lambert_w(ns, -sign * cmath.sqrt(1j) * N / 2.0) / N
        mirrored = -np.conj(imag_step_seed(N, -ns, sign))
        assert np.all(np.abs(even - mirrored) <= 1e-15 * np.abs(even))

    @pytest.mark.parametrize("window, families", [
        ((-3, 40), FAMILIES),  # asymmetric: the even seeds come from odd n = -40..3
        ((5, 9), [("even", 1)]),  # one even ladder, seeded from odd n = -9..-5
    ])
    def test_shared_pass_matches_a_lambert_call_per_family(self, window, families):
        N, root = 16, cmath.sqrt(1j)
        ns = np.arange(window[0], window[1] + 1)
        rows = {(r.n, r.parity, r.sign): r for r in enumerate_imag_step(N, window, families)}
        assert len(rows) == ns.size * len(families)
        for parity, sign in families:
            z = 0.5j * sign * root * N if parity == "odd" else -0.5 * sign * root * N
            ref = spectral_count._refine_ladder(N, -1j * lambert_w(ns, z) / N, parity)
            for i, n in enumerate(ns.tolist()):
                r = rows[n, parity, sign]
                assert r.converged == ref["converged"][i]
                assert abs(r.energy - ref["energy"][i]) <= 1e-12 * abs(r.energy)

    @pytest.mark.parametrize("N, share", [(256, 0.90), (1024, 0.99)])
    def test_seeds_mostly_meet_the_halley_stop(self, monkeypatch, N, share):
        # the series through L2/L1^3 already meets Halley's stop on nearly the whole
        # census window, so nearly every entry costs one exp and no step
        calls, halley = [], special_functions._halley
        monkeypatch.setattr(special_functions, "_halley",
                            lambda w, z: calls.append((np.array(w), z)) or halley(w, z))
        lo, hi = _box_window(N, census_box(N))
        passed = total = 0
        for sign in (1, -1):
            calls.clear()
            imag_step_seed(N, np.arange(lo, hi + 1), sign)
            w, z = calls[0]
            stop = np.maximum(1e-13, 64 * 2.3e-16 * (1.0 + np.abs(w))) * np.abs(z)
            passed += np.count_nonzero(np.abs(w * np.exp(w) - z) <= stop)
            total += w.size
        assert passed >= share * total

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
        # (csc^2, -cot) or (sec^2, tan) by cmath, or beyond |Im w| = 300, where
        # sin^2 and cos^2 overflow, the two-term expansion in e = e^{+-2iw}
        if abs(w.imag) <= 300.0:
            den, num = (cmath.sin(w), -cmath.cos(w)) if parity == "odd" else (cmath.cos(w), cmath.sin(w))
            return 1.0 / (den * den), num / den
        sgn, up = (1.0 if parity == "odd" else -1.0), w.imag > 0.0
        e = cmath.exp((2j if up else -2j) * w)
        u = 1.0 + 2.0 * sgn * e
        return -4.0 * sgn * e * u, (1j if up else -1j) * u

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

    @pytest.mark.parametrize("parity", ["odd", "even"])
    def test_scalar_equals_the_array_route(self, rng, parity):
        # 2,000 w: |Im w| up to 400, near the real axis, and within 1e-12 of k*pi
        # and k*pi + pi/2, where q -+ 1 takes the expm1 form on both routes
        far = rng.uniform(-60, 60, 500) + 1j * rng.choice([-1, 1], 500) * rng.uniform(0, 400, 500)
        near_axis = rng.uniform(-60, 60, 500) + 1j * rng.normal(0, 1, 500)
        k = rng.integers(-40, 41, 1000) + rng.integers(0, 2, 1000) / 2
        close = k * math.pi + 10.0 ** rng.uniform(-16, -12, 1000) * np.exp(
            2j * math.pi * rng.uniform(size=1000))
        w = np.concatenate([far, near_axis, close])
        arrays = _trig_sq(parity, w)
        for i, x in enumerate(w.tolist()):
            values = _trig_sq(parity, x)
            assert all(type(v) is complex for v in values)
            for v, a in zip(values, arrays):
                assert abs(v - a[i]) <= 1e-15 * abs(a[i]), (x, v, a[i])

    @pytest.mark.parametrize("w", [0j, -0.0 + 0j, 1e-170j, 1e-200 + 0j])
    def test_scalar_at_a_pole_is_the_array_value(self, w):
        # an exact odd pole, or one whose (q - 1)^2 underflows: no ZeroDivisionError
        # but the array route's inf and nan, as Python complex
        for parity in ("odd", "even"):
            values = _trig_sq(parity, w)
            with np.errstate(divide="ignore", invalid="ignore"):
                arrays = _trig_sq(parity, np.array([w]))
            for v, a in zip(values, arrays):
                assert type(v) is complex
                assert np.array([v]).tobytes() == a.tobytes(), (parity, w, v, a)
        assert repr(_trig_sq("odd", 0j)) == "((-inf+nanj), (nan-infj))"

    def test_construct_bump_takes_the_scalar_route(self, monkeypatch):
        # the README targets give the same bump as through the array route
        targets = [1 + 0.1j, 1.0 + 0.08j, 1.3 + 0.06j, 0.8 + 0.05j]
        scalar = [construct_bump(z).bump for z in targets]
        monkeypatch.setattr(step_model, "_trig_sq", lambda parity, w, f=_trig_sq: tuple(
            complex(a[0]) for a in f(parity, np.array([w]))))
        for z, bump in zip(targets, scalar):
            ref = construct_bump(z).bump
            assert bump.half_width == ref.half_width
            assert abs(bump.v0 - ref.v0) <= 1e-15 * abs(ref.v0)


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
        rep = locate_zeros(make_secular_handle(pot), box)
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

    @pytest.mark.parametrize("window", [(5, 4), (-1, -2)])
    def test_empty_window_rejected(self, window):
        with pytest.raises(ValueError, match="empty n window"):
            enumerate_imag_step(16, window)

    @pytest.mark.parametrize("families", [[("bogus", 1)], [("odd", 2)]])
    def test_unknown_family_rejected(self, families):
        # a parity other than odd and even would be seeded as even, and sign 2 would scale
        # the Lambert target by 2
        with pytest.raises(ValueError, match=r"unknown ladder families \[\('(bogus|odd)', [12]\)"):
            enumerate_imag_step(16, (-3, 3), families)

    @pytest.mark.parametrize("N", [16, 64])
    def test_agrees_with_scalar_newton(self, N):
        rows = enumerate_imag_step(N, _box_window(N, census_box(N, 10.0)))
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
        rows = enumerate_imag_step(64, _box_window(64, census_box(64, 10.0)))
        failed = [r for r in rows if not r.converged]
        assert failed
        for r in failed:
            # kappa_refined is the upper-half representative of the last iterate
            assert r.kappa_seed != 0
            dist = min(abs(r.kappa_refined - r.kappa_seed), abs(r.kappa_refined + r.kappa_seed))
            assert dist <= 0.75 * math.pi / 64 * (1.0 + 1e-12)
            assert cmath.isfinite(r.energy)


def _newton_recount(cen):
    """The census from its Newton records alone: the converged physical energies in the box,
    each counted unless it lies within 1e-6 relative of the previous one in sorted order,
    and whether every branch that could reach the box converged."""
    count, last = 0, None
    for e in sorted((r.energy for r in cen.results
                     if r.converged and r.on_physical_sheet and cen.box.contains(r.energy)),
                    key=lambda e: (e.real, e.imag)):
        count += last is None or abs(e - last) >= 1e-6 * max(1.0, abs(e))
        last = e
    reach = spectral_count._reachable(cen.box, np.array([r.kappa_seed for r in cen.results]), cen.N)
    return count, all(r.converged for r, ok in zip(cen.results, reach) if ok)


#: (N, count, branches, refined, blocks) of the benchmark ladder's censuses at C_box 10
_PINNED = ((32, 60, 289, 3, 28), (64, 198, 374, 1, 106), (128, 663, 836, 1, 390),
           (192, 1357, 1634, 1, 824), (256, 2265, 2463, 1, 1408))


def _series_ladders(N, box):
    """Each family's whole census window with its series seeds: (parity, sign, ns, seeds)."""
    lo, hi = _box_window(N, box)
    ns = np.arange(lo, hi + 1)
    seed_of = spectral_count._census_seed
    return [(parity, sign, ns, spectral_count._seeds(N, ns, parity, sign, seed_of))
            for parity, sign in FAMILIES]


def _reachable_count(N, C_box=10.0):
    """The branches of the whole window that can reach the box, as the census seeds them."""
    box = census_box(N, C_box)
    return sum(np.count_nonzero(spectral_count._ladder_seeds(ladder, N, box)[1])
               for ladder in _series_ladders(N, box))


def _certified_disks(N, C_box=10.0):
    """(parity, sign, n, seed, rho) of each reachable branch whose disk the certificate holds."""
    box, disks = census_box(N, C_box), []
    u = spectral_count._rounding(N, _box_window(N, box)[1])
    for parity, sign, ns, seed in _series_ladders(N, box):
        keep = spectral_count._reachable(box, seed, N)
        rho, ok = spectral_count._certify(N, seed[keep], parity, sign, u)[:2]
        disks += [(parity, sign, n, k, r) for n, k, r in zip(
            ns[keep][ok].tolist(), seed[keep][ok].tolist(), rho[ok].tolist())]
    return disks


class TestSeriesSeeds:
    """The census seeds from the asymptotic series of W, with no Halley step, and takes
    the Lambert seed only for the poor entries |n| < _SERIES_N that can reach the box."""

    def test_benchmark_ladder_takes_no_lambert_call(self, monkeypatch):
        # no poor entry reaches these boxes (the least reachable |n| is 15, at N = 32), so
        # nothing on the census path calls lambert_w
        def refuse(*args):
            raise AssertionError("lambert_w called")

        monkeypatch.setattr(spectral_count, "lambert_w", refuse)
        monkeypatch.setattr(special_functions, "lambert_w", refuse)
        for N, count, branches, refined, blocks in _PINNED:
            cen = imag_step_census(N, 10.0)
            assert (cen.count, cen.branches, cen.refined, cen.blocks) == (
                count, branches, refined, blocks)
            assert cen.certified

    @pytest.mark.parametrize("N", [8, 16, 32, 256])
    def test_seeds_lie_within_their_pads(self, N):
        # on the census window, each series seed lies within its pad of the Lambert seed;
        # the poor entries are all bit for bit imag_step_seed's, or none of them is and
        # none is kept; every branch whose Lambert seed's hop disk reaches the box is kept,
        # and a box that everything reaches gives every poor entry the Lambert seed
        box = census_box(N)
        everything = Region.rectangle(-1e9, 1e9, -1e9, 1e9)
        exact = {f[:2]: f[3] for f in spectral_count._ladders(N, _box_window(N, box), FAMILIES)}
        for ladder in _series_ladders(N, box):
            parity, sign, ns, series = ladder
            lam, pad = exact[parity, sign], spectral_count._series_pad(N, ns)
            poor = np.abs(ns) < spectral_count._SERIES_N
            assert np.all((np.abs(series - lam) <= pad)[~poor] & (pad[~poor] > 0.0))
            assert np.all(np.abs(series - lam)[poor] <= spectral_count._POOR_PAD / N)
            assert np.all(pad[poor] == 0.0)
            seed, keep = spectral_count._ladder_seeds(ladder, N, box)
            assert np.all(seed[~poor] == series[~poor])
            assert np.all(seed[poor] == lam[poor]) or (
                np.all(seed[poor] == series[poor]) and not keep[poor].any())
            assert np.all(keep | ~spectral_count._reachable(box, lam, N))
            seed, keep = spectral_count._ladder_seeds(ladder, N, everything)
            assert keep.all() and np.all(seed[poor] == lam[poor])

    def test_census_equals_the_lambert_seeded_census(self, monkeypatch):
        # the census seeded by imag_step_seed throughout decides every branch the same way
        def summary(cen):
            return (cen.count, cen.certified, cen.branches, cen.refined,
                    [repr(r) for r in cen.uncertified])

        cases = [(N, C_box) for N in range(8, 65) for C_box in (1.5, 10.0, 50.0, 100.0)]
        series = [summary(imag_step_census(N, C_box)) for N, C_box in cases]
        monkeypatch.setattr(spectral_count, "_census_seed", spectral_count.imag_step_seed)
        assert [summary(imag_step_census(N, C_box)) for N, C_box in cases] == series


class TestCensusCertificate:
    @pytest.mark.parametrize("N", [16, 64])
    def test_each_disk_winds_once_around_the_newton_zero(self, N):
        # the argument principle on a seeded sample of certificate disks: the parity
        # secular i + kappa^2 csc^2(kappa N) (odd) or sec^2 (even) in kappa has one zero
        # there, and Newton from the seed finds it.  The contour is walked in t = kappa - seed
        # and the secular taken at 30 digits: a disk of radius 1e-6 around kappa = 40 has
        # nodes rounded by 1e-9 of its radius, which keeps the contour from settling
        def secular(t, seed, trig):
            with mpmath.workdps(30):
                k = mpmath.mpc(seed) + mpmath.mpc(t)
                return complex(1j + k * k / trig(k * N) ** 2)

        disks = _certified_disks(N)
        records = {r[:3]: r for r in imag_step_census(N, 10.0).results}
        for i in np.random.default_rng(N).choice(len(disks), 16, replace=False).tolist():
            parity, sign, n, seed, rho = disks[i]
            trig = mpmath.sin if parity == "odd" else mpmath.cos
            assert winding_count(partial(secular, seed=seed, trig=trig), Region.disk(0, rho)) == 1
            newton = records[n, parity, sign]
            assert newton.converged
            # Newton reports the zero with Im kappa >= 0; the secular is even in kappa
            assert min(abs(newton.kappa_refined - seed), abs(newton.kappa_refined + seed)) <= rho

    def test_doubted_energies_go_to_newton(self, monkeypatch):
        # no census here leaves a pair in doubt, so doubt every other certified energy once:
        # Newton refines those branches, and the count and its certificate stand
        certified = imag_step_census(32, 10.0)
        distinct, doubted = spectral_count._distinct, []

        def doubting(E, err):
            count, doubt = distinct(E, err)
            if not doubted:
                doubted.append(doubt := np.flatnonzero(err > 0.0)[::2])
            return count, doubt

        monkeypatch.setattr(spectral_count, "_distinct", doubting)
        cen = imag_step_census(32, 10.0)
        assert (cen.count, cen.certified) == (certified.count, certified.certified)
        assert cen.refined == certified.refined + doubted[0].size > certified.refined

    @pytest.mark.parametrize("N, C_box", [(16, 10.0), (32, 100.0)])
    def test_moved_seeds_go_to_newton(self, monkeypatch, N, C_box):
        # a quarter of the ladder spacing 2 pi/N puts a seed midway between a zero of its
        # own factor and one of the other sign's: no disk is certified, Newton counts all.
        # Both of the census's seed functions move: its poor entries |n| < 12 reach these
        # boxes, and they take the Lambert seed
        for name in ("_census_seed", "imag_step_seed"):
            monkeypatch.setattr(spectral_count, name, lambda N, n, sign=1, seed=getattr(
                spectral_count, name): seed(N, n, sign) + 0.5 * math.pi / N)
        cen = imag_step_census(N, C_box)
        assert cen.refined == cen.branches > 0
        assert (cen.count, cen.certified) == _newton_recount(cen)

    @pytest.mark.parametrize("N, C_box", [(16, 10.0), (32, 100.0)])
    def test_radius_below_the_bound_goes_to_newton(self, monkeypatch, N, C_box):
        # no disk narrower than the Newton step |H/H'| can pass Rouche against H's linear part,
        # nor can a block's: Newton refines every reachable branch
        certified = imag_step_census(N, C_box)
        monkeypatch.setattr(spectral_count, "_CERT_STEPS", 0.9)
        cen = imag_step_census(N, C_box)
        assert cen.refined == cen.branches == _reachable_count(N, C_box) >= certified.branches
        assert (cen.count, cen.certified) == _newton_recount(cen)
        assert (cen.count, cen.certified) == (certified.count, certified.certified)


class TestBlocks:
    """The census decides whole blocks of branch numbers from closed-form bounds, and only
    what the certificate of each branch in them would decide."""

    @pytest.mark.parametrize("C_box", [1.5, 10.0, 100.0])
    @pytest.mark.parametrize("N", [8, 16, 64, 256, 1024])
    def test_decided_blocks_hold_their_branches(self, N, C_box):
        # blocks of _BLOCK branches at a seeded random offset tile the window; for each
        # reachable branch of a decided block, its certificate's rho, chi.imag -+ dchi and
        # depth -+ err lie inside the block's bounds, and the certificate decides it uncounted
        box, size = census_box(N, C_box), spectral_count._BLOCK
        lo, hi = _box_window(N, box)
        u = spectral_count._rounding(N, hi)
        a = np.arange(lo - int(np.random.default_rng([N, int(C_box)]).integers(size)), hi + 1, size)
        b = a + size - 1
        decided_total = 0
        for parity, sign, ns, seed in _series_ladders(N, box):
            decided, *bounds = spectral_count._block_bounds(
                N, box, parity == "odd", sign, a, b, u)
            poor = (a < spectral_count._SERIES_N) & (b > -spectral_count._SERIES_N)
            assert not np.any(decided & poor)
            decided_total += np.count_nonzero(decided)
            seed, keep = spectral_count._ladder_seeds((parity, sign, ns, seed), N, box)
            block = (ns - a[0]) // size
            keep &= decided[block]
            block, seed = block[keep], seed[keep]
            rho, ok, chi, dchi, err = spectral_count._certify(N, seed, parity, sign, u)
            depth = spectral_count._depth(box, seed * seed + 1j)
            rho_hi, chi_lo, chi_hi, depth_lo, depth_hi = (x[block] for x in bounds)
            assert np.all(rho <= rho_hi)
            assert np.all((chi_lo <= chi.imag - dchi) & (chi.imag + dchi <= chi_hi))
            assert np.all((depth_lo <= depth - err) & (depth + err <= depth_hi))
            inside = depth >= err
            assert np.all(ok & ((inside & (chi.imag < -dchi)) | (depth < -err)))
        assert decided_total > 0 or N <= 16

    @pytest.mark.parametrize("C_box", [1.5, 10.0, 100.0])
    def test_blocks_change_no_census(self, monkeypatch, C_box):
        # the census with no block decided, which certifies every reachable branch one at a
        # time, gives the same counts, records, energies and radii, bit for bit
        def summary(cen):
            return (cen.count, cen.certified, cen.refined, [repr(r) for r in cen.uncertified],
                    cen.energies, cen.radii)

        Ns = list(range(8, 65)) + [96, 128, 200, 256, 300, 512]
        blocked = [imag_step_census(N, C_box) for N in Ns]
        monkeypatch.setattr(spectral_count, "_block_bounds", lambda N, box, odd, sign, a, b, u: (
            np.zeros(np.broadcast(odd, a).shape, dtype=bool),))
        for N, cen in zip(Ns, blocked):
            branchwise = imag_step_census(N, C_box)
            assert (cen.blocks, branchwise.blocks) == (cen.blocks, 0)
            assert summary(cen) == summary(branchwise)
            assert cen.branches <= branchwise.branches == _reachable_count(N, C_box)


class TestCensus:
    def test_counts_increase_and_ratio_band(self):
        results = [imag_step_census(N, 10.0) for N in (16, 32, 64)]
        counts = [c.count for c in results]
        assert counts[0] < counts[1] < counts[2]
        ratios = [c.ratio for c in results]
        assert max(ratios) / min(ratios) < 3.0

    @pytest.mark.parametrize("N, count", [(8, 6), (16, 18), (32, 60), (64, 198)])
    def test_census_equals_winding_exactly(self, N, count):
        # the argument principle on the global secular, an oracle that shares no code with
        # the census; from N = 96 on its contour does not settle on the census box
        cen = imag_step_census(N, 10.0)
        pot = PiecewisePotential([(-float(N), float(N), 1j)])
        wc = winding_count(make_secular_handle(pot), census_box(N, 10.0))
        assert cen.count == wc == count

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
        # the census CSV of the benchmark ladder and N = 16, the reachable branches of the
        # blocks no bound decides, certified one at a time, the few of them Newton refines,
        # all on a box edge, and the blocks decided whole; every refined branch converges
        for N, count, branches, refined, blocks in ((16, 18, 261, 0, 8),) + _PINNED:
            cen = imag_step_census(N, 10.0)
            assert (cen.count, cen.branches, cen.refined, cen.blocks) == (
                count, branches, refined, blocks)
            assert cen.certified and cen.uncertified == ()
            assert not any(cmath.isnan(r.energy) for r in cen.results)

    def test_census_512_certified(self):
        # of 94,881 reachable branches, 8,003 are certified one at a time
        cen = imag_step_census(512, 10.0)
        assert (cen.count, cen.branches, cen.refined, cen.blocks) == (7846, 8003, 1, 5031)
        assert cen.certified
        assert cen.ratio == pytest.approx(0.18671377185081472, rel=1e-15)

    def test_census_1024_certified(self):
        # Newton refined all 335,184 reachable branches before the certificate, which then
        # certified each of them before the block bounds; now 27,772 are, one at a time
        cen = imag_step_census(1024, 10.0)
        assert (cen.count, cen.branches, cen.refined, cen.blocks) == (27524, 27772, 2, 18160)
        assert cen.certified
        assert cen.ratio == pytest.approx(0.18194373128635344, rel=1e-15)

    def test_near_equal_energies_count_once(self, monkeypatch):
        # one energy from two ladders, and a chain whose links are 0.6e-6 relative
        # apart but whose ends are 1.2e-6 apart: each counts once
        box = census_box(8, 10.0)
        e, f = complex(box.re_lo + 1.0, 1.0), complex(box.re_lo + 2.0, 1.0)
        chain = [f, f * (1.0 + 0.6e-6), f * (1.0 + 1.2e-6)]
        hits = iter([[e, chain[0]], [e, chain[2]], [chain[1]], []])
        none = ("odd", 1, np.zeros(0, dtype=int), np.zeros(0, dtype=complex),
                np.zeros(0, dtype=complex), np.zeros(0))
        monkeypatch.setattr(spectral_count, "_census_ladder", lambda ladder, N, box, u: (
            none, (np.array(next(hits), dtype=complex), [], 1), 1))
        cen = imag_step_census(8, 10.0)
        assert (cen.count, cen.branches, cen.refined) == (2, 4, 4)

    def test_dedupe_doubts_pairs_that_errors_could_change(self):
        distinct, a = spectral_count._distinct, 1000.0 + 1j
        # 1e-3 apart, a pair lies 1.5e-9 below its threshold 1e-6*|a + 1e-3|
        pair = np.array([a, a + 1e-3])
        assert distinct(pair, np.zeros(2))[0].tolist() == [0]
        assert distinct(pair, np.zeros(2))[1].size == 0
        assert distinct(pair, np.array([0.0, 1e-8]))[1].tolist() == [0, 1]
        # far apart, but 1e-12 apart in Re E: an error of 1e-9 could swap their order
        pair = np.array([a + 1e-12 + 1j, a])
        assert distinct(pair, np.array([1e-9, 0.0]))[1].tolist() == [0, 1]
        assert distinct(pair, np.array([1e-13, 0.0]))[1].size == 0
        # well below the threshold, and known well enough to say so
        kept, doubt = distinct(np.array([a + 5e-4, a]), np.array([1e-6, 1e-6]))
        assert kept.tolist() == [1] and doubt.size == 0
        # the kept positions in sorted order, by Re E and then Im E
        kept, doubt = distinct(np.array([a + 1j, a + 2.0, a]), np.zeros(3))
        assert kept.tolist() == [2, 0, 1] and doubt.size == 0

    @pytest.mark.parametrize("C_box", [1.5, 10.0, 50.0])
    @pytest.mark.parametrize("N", [8, 16, 64, 256])
    def test_energies_hold_the_newton_energies(self, N, C_box):
        # one energy and radius per counted eigenvalue, sorted as the dedupe sorts; each
        # energy that a Newton recount of the full window counts lies in one energy's disk
        cen = imag_step_census(N, C_box)
        assert len(cen.energies) == len(cen.radii) == cen.count
        assert list(cen.energies) == sorted(cen.energies, key=lambda e: (e.real, e.imag))
        E, radii = np.array(cen.energies), np.array(cen.radii)
        assert np.all(radii >= 0.0)
        newton = bench_checks._counted(cen)
        assert len(newton) == cen.count
        for r in newton:
            assert np.count_nonzero(np.abs(E - r.energy) <= radii + 1e-12 * np.abs(E)) == 1

    @pytest.mark.parametrize("N", [16, 64])
    def test_results_are_the_enumeration(self, N):
        cen = imag_step_census(N, 10.0)
        assert "results" not in vars(cen)  # nobody has read them yet
        assert list(cen.results) == enumerate_imag_step(N, _box_window(N, census_box(N, 10.0)))
        assert cen.results is cen.results
        # of the branches the full window's seeds can take into the box, the census
        # certifies one at a time those the block bounds leave undecided
        assert len(cen.results) == {16: 412, 64: 4004}[N]
        seeds = np.array([r.kappa_seed for r in cen.results])
        reach = np.count_nonzero(spectral_count._reachable(cen.box, seeds, N))
        assert reach == _reachable_count(N) == {16: 261, 64: 2443}[N]
        assert cen.branches == {16: 261, 64: 374}[N] <= reach

    def test_census_keeps_no_ladder(self):
        # each ladder's columns go once counted; they were 824 KB at N = 128, and the
        # result's own 663 energies and radii take about 46 KB
        imag_step_census(8, 10.0)  # leave first-call caches outside the trace
        tracemalloc.start()
        try:
            cen = imag_step_census(128, 10.0)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (cen.count, cen.branches) == (663, 836)  # of 8,049 reachable, 13,636 in the window
        assert retained < 64 * 1024

    @pytest.mark.parametrize("N, C_box", [(8, 10.0), (8, 50.0), (9, 30.0), (16, 200.0),
                                          (32, 1e3), (64, 1.5), (64, 10.0)])
    def test_refining_only_reachable_branches_is_sound(self, N, C_box):
        cen = imag_step_census(N, C_box)
        full = cen.results
        reach = spectral_count._reachable(cen.box, np.array([r.kappa_seed for r in full]), N)
        counted = [r for r in full
                   if r.converged and r.on_physical_sheet and cen.box.contains(r.energy)]
        assert (cen.count, cen.certified) == _newton_recount(cen)
        # a branch that converges stays in its hop disk, so its energy in the box
        # means its seed passes the predicate
        assert all(ok for r, ok in zip(full, reach) if r in counted)
        # the bound itself: a converged energy lies within hop*(2|s| + hop) of
        # E_s = s^2 + i, and every seed whose disk meets the box passes
        hop = 0.75 * math.pi / N
        for r, ok in zip(full, reach):
            e_s, disk = r.kappa_seed ** 2 + 1j, hop * (2.0 * abs(r.kappa_seed) + hop)
            if r.converged:
                assert abs(r.energy - e_s) <= disk + 1e-9 * (abs(e_s) + disk)
            dx = max(cen.box.re_lo - e_s.real, 0.0, e_s.real - cen.box.re_hi)
            dy = max(cen.box.im_lo - e_s.imag, 0.0, e_s.imag - cen.box.im_hi)
            assert ok or math.hypot(dx, dy) > disk
        # the branches Newton refines are reachable ones, and refine as they do in the full
        # window, bit for bit (repr tells every two distinct floats apart): the uncertified
        # records are reachable branches that do not converge
        assert cen.refined <= cen.branches <= np.count_nonzero(reach)
        unconverged = {repr(r) for r, ok in zip(full, reach) if ok and not r.converged}
        assert set(map(repr, cen.uncertified)) <= unconverged
        assert cen.certified == (not cen.uncertified)

    @pytest.mark.parametrize("C_box", [1.5, 10.0, 100.0])
    @pytest.mark.parametrize("N", [8, 9, 16, 32, 64, 128, 192, 256])
    def test_certified_count_is_the_newton_recount(self, N, C_box):
        cen = imag_step_census(N, C_box)
        assert (cen.count, cen.certified) == _newton_recount(cen)

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
        # 0 would divide by zero, inf overflow _box_window's branch window, 1 give an empty box
        with pytest.raises(ValueError, match="finite C_box > 1"):
            imag_step_census(8, C_box)

    def test_table_row_schema(self):
        row = imag_step_census(8, 10.0).table_row()
        assert set(row) == {
            "N", "count", "ratio", "box_re_lo", "box_re_hi", "box_im_lo", "box_im_hi"
        }
