import json
import math
import os
import time

import numpy as np
import pytest

from stepspectra import _svg, spectral_count
from stepspectra.cli import _json, main, parse_complex
from stepspectra.schrodinger_1d import PiecewisePotential, make_secular_handle
from stepspectra.step_model import StepBump

from conftest import line_targets


def run(args):
    return main(args)


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("1+0.1i") == 1 + 0.1j
        assert parse_complex("2i") == 2j
        assert parse_complex("-3") == -3.0

    def test_usage_errors_exit_1(self, capsys, tmp_path):
        assert run(["bump", "--zeta", "garbage", "--out", str(tmp_path)]) == 1
        assert run(["bump", "--zeta", "1-0.1i", "--out", str(tmp_path)]) == 1
        assert run(["imag-step", "--N", "4"]) == 1

    @pytest.mark.parametrize("case", ["out_is_directory", "potential_is_directory",
                                      "bump_out_is_file"])
    def test_os_errors_exit_1(self, capsys, tmp_path, case):
        # IsADirectoryError and FileExistsError escaped main as a traceback
        pot = tmp_path / "well.json"
        pot.write_text(_json(PiecewisePotential.from_bumps([StepBump(-10.0, 1.0)]).to_dict()))
        region = "--region=-10,-1e-6,-0.5,0.5"
        args = {
            "out_is_directory": ["spectrum", "--potential", str(pot), region, "--out", str(tmp_path)],
            "potential_is_directory": ["spectrum", "--potential", str(tmp_path), region],
            "bump_out_is_file": ["bump", "--zeta", "1+0.1i", "--out", str(pot)],
        }[case]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args, message", [
        (["spectrum"], "the following arguments are required: --potential"),
        (["spectrum", "--potential", "{pot}", "--disk", "1,0.1"], "--disk wants cx,cy,radius"),
        (["spectrum", "--potential", "{pot}", "--region=-1,0,1"], "--region wants re_lo,"),
        (["spectrum", "--potential", "{pot}"], "provide --region or --disk"),
        (["spectrum", "--potential", "{bad}", "--disk", "-1,0.1,0.05"], "must be an object"),
        (["envelopes", "--z", "i", "--L", "bogus"], "unknown separation spec 'bogus'"),
    ])
    def test_usage_error_is_one_line(self, capsys, tmp_path, args, message):
        pot, bad = tmp_path / "well.json", tmp_path / "list.json"
        pot.write_text(_json(PiecewisePotential.from_bumps([StepBump(-10.0, 1.0)]).to_dict()))
        bad.write_text("[1, 2]")
        assert run([a.format(pot=pot, bad=bad) for a in args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err and err.count("\n") == 1


class TestBumpCommand:
    def test_report_and_potential(self, tmp_path):
        out = tmp_path / "bump"
        assert run(["bump", "--zeta", "1+0.1i", "--sigma", "1", "--out", str(out), "--svg"]) == 0
        report = json.loads((out / "bump_report.json").read_text())
        assert report["residual"] < 1e-10
        pot = PiecewisePotential.from_json((out / "potential.json").read_text())
        assert len(pot.pieces) == 1
        assert (out / "bump_psi.svg").read_text().startswith("<svg")

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["bump", "--zeta", "1.2+0.07i", "--out", str(out)]) == 0
        assert (a / "bump_report.json").read_bytes() == (b / "bump_report.json").read_bytes()
        assert (a / "potential.json").read_bytes() == (b / "potential.json").read_bytes()

    def test_infinite_sigma_exit_1(self, tmp_path, capsys):
        # it ran Newton from the seed -1 + inf*i and exited 2, "did not converge"
        assert run(["bump", "--zeta", "1+0.1i", "--sigma", "inf", "--out", str(tmp_path)]) == 1
        assert "sigma must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        # R = log(1/eps)/(2*sigma*eps) beyond float range: OverflowError at the
        # phase-grid round(), or ZeroDivisionError at 2*sigma*eps = 0, a traceback each
        (["--zeta", "1+0.1i", "--sigma", "1e-320"], "beyond float range"),
        (["--zeta", "1+1e-320i"], "beyond float range"),
        (["--zeta", "1+1e-320i", "--sigma", "1e-300", "--eps0", "inf"], "beyond float range"),
        (["--zeta", "1+0.19i", "--sigma", "20"], "did not converge"),
    ])
    def test_construction_failure_exit_2(self, tmp_path, capsys, args, message):
        assert run(["bump", *args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and message in err and err.count("\n") == 1

    def test_nan_aperture_exit_1(self, tmp_path, capsys):
        # a NaN aperture passed every zeta: 1+0.5i lies far outside any sector it names
        out = tmp_path / "bump"
        assert run(["bump", "--zeta", "1+0.5i", "--eps0", "nan", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "sector aperture" in err and err.count("\n") == 1
        assert not out.exists()


class TestSpectrumCommand:
    @pytest.fixture
    def well_file(self, tmp_path):
        pot = PiecewisePotential.from_bumps([StepBump(-10.0, 1.0)])
        path = tmp_path / "well.json"
        path.write_text(_json(pot.to_dict()))
        return path

    def test_well_three_rows(self, tmp_path, well_file):
        out = tmp_path / "spec.csv"
        code = run([
            "spectrum", "--potential", str(well_file),
            "--region", "-10,-1e-6,-0.5,0.5", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re,im,multiplicity,residual"
        assert len(lines) == 4
        res = [float(line.split(",")[0]) for line in lines[1:]]
        assert res == sorted(res)

    def test_free_potential_no_rows(self, tmp_path):
        path = tmp_path / "free.json"
        path.write_text(json.dumps({"pieces": []}))
        out = tmp_path / "fr.csv"
        assert run(["spectrum", "--potential", str(path), "--region", "-5,-1,-1,1", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 1

    def test_bad_schema_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"pieces": [{"a": 1.0, "b": 0.0, "re": 0, "im": 0}]}))
        assert run(["spectrum", "--potential", str(path), "--region", "-5,-1,-1,1"]) == 1

    def test_cross_command_bump_disk(self, tmp_path):
        out = tmp_path / "bump"
        assert run(["bump", "--zeta", "1+0.1i", "--out", str(out)]) == 0
        csv_path = tmp_path / "z.csv"
        code = run([
            "spectrum", "--potential", str(out / "potential.json"),
            "--disk", "1,0.1,0.01", "--out", str(csv_path),
        ])
        assert code == 0
        rows = csv_path.read_text().strip().splitlines()[1:]
        assert len(rows) == 1
        re_, im_, mult, _res = rows[0].split(",")
        assert complex(float(re_), float(im_)) == pytest.approx(1 + 0.1j, abs=1e-7)
        assert mult == "1"

    def test_contour_failure_exit_3(self, tmp_path, well_file, monkeypatch):
        from stepspectra import cli as cli_mod
        from stepspectra.errors import ContourError

        def boom(*args, **kwargs):
            raise ContourError("zero on contour; nudge the region")

        monkeypatch.setattr(cli_mod, "locate_zeros", boom)
        code = run([
            "spectrum", "--potential", str(well_file), "--region", "-10,-1e-6,-0.5,0.5",
        ])
        assert code == 3

    def test_infinite_region_bound_exit_1(self, capsys, well_file):
        assert run(["spectrum", "--potential", str(well_file), "--region=-8,-0.001,-1.5,inf"]) == 1
        assert "finite bounds" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "check"])
    def test_region_through_threshold_exit_1(self, capsys, well_file, command):
        # re_hi = 0 puts E = 0 on the right side; it ran 28 bisections and exited 3
        assert run([command, "--potential", str(well_file), "--region=-6,0,-1,1"]) == 1
        assert "essential spectrum" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "check"])
    @pytest.mark.parametrize("region", ["--disk=1,0.1,1e-9", "--region=-1,-0.5,0.1,0.1000001"])
    def test_region_below_the_contour_resolution_exit_1(self, tmp_path, capsys, command, region):
        # a radius or half side below 1e-7 of the region's scale: the disk around the
        # bump's eigenvalue ran to the contour's 2^20-point bound and exited 3 after a second
        out = tmp_path / "bump"
        assert run(["bump", "--zeta", "1+0.1i", "--out", str(out)]) == 0
        capsys.readouterr()
        start = time.perf_counter()
        code = run([command, "--potential", str(out / "potential.json"), region])
        assert code == 1 and time.perf_counter() - start < 0.1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("usage error:") and "below 1e-07 of its scale" in line
        # a zero-free disk of twice that radius is let through, and settles
        assert run(["spectrum", "--potential", str(out / "potential.json"), "--disk=1.5,0.1,2e-7"]) == 0

    def test_idempotent_localization(self, tmp_path, well_file):
        out = tmp_path / "s.csv"
        run(["spectrum", "--potential", str(well_file), "--region", "-10,-1e-6,-0.5,0.5", "--out", str(out)])
        first = out.read_text().strip().splitlines()[1]
        re_, im_, _, _ = first.split(",")
        z = complex(float(re_), float(im_))
        out2 = tmp_path / "s2.csv"
        run([
            "spectrum", "--potential", str(well_file),
            "--disk", f"{z.real},{z.imag},1e-4", "--out", str(out2),
        ])
        row2 = out2.read_text().strip().splitlines()[1]
        z2 = complex(float(row2.split(",")[0]), float(row2.split(",")[1]))
        assert abs(z - z2) < 1e-9


class TestImagStepCommand:
    def test_census_csv(self, tmp_path):
        out = tmp_path / "census.csv"
        svg = tmp_path / "census.svg"
        assert run(["imag-step", "--N", "8,16", "--out", str(out), "--svg", str(svg)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,count,ratio,box_re_lo,box_re_hi,box_im_lo,box_im_hi"
        assert len(lines) == 3
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts[0] < counts[1]
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("N, c_box, grey", [("8,16,32", "10", 0), ("8", "50", 4)])
    def test_svg_draws_what_the_census_decided(self, monkeypatch, tmp_path, N, c_box, grey):
        # red: one circle per counted energy; grey: the unconverged branches that could
        # lie in the box.  The full-window Newton records are never read
        def full_window(*args):
            raise AssertionError("the full window was refined")

        monkeypatch.setattr(spectral_count.CensusResult, "results", property(full_window))
        monkeypatch.setattr(spectral_count, "enumerate_imag_step", full_window)
        out, svg = tmp_path / "census.csv", tmp_path / "census.svg"
        assert run(["imag-step", "--N", N, "--c-box", c_box, "--out", str(out),
                    "--svg", str(svg)]) == 0
        counts = [int(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        text = svg.read_text()
        assert text.count("<circle") == sum(counts) + grey
        assert (text.count('fill="#d62728"'), text.count('fill="#aaaaaa"')) == (sum(counts), grey)

    def test_unconverged_counts_on_stderr(self, capsys):
        # every branch that could converge into the benchmark ladder's boxes does:
        # no line on stderr
        assert run(["imag-step", "--N", "32,64,128,192,256"]) == 0
        assert capsys.readouterr().err == ""

    def test_uncertified_count_on_stderr(self, capsys, tmp_path):
        # at C_box = 50 four of N = 8's refined branches do not converge
        out = tmp_path / "census.csv"
        assert run(["imag-step", "--N", "8", "--c-box", "50", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "N=8: count=10 ratio=0.32491274088747435\n"
        assert captured.err.splitlines() == [
            "N=8: 4 unconverged branch(es) could lie in the box; count not certified",
        ]

    @pytest.mark.parametrize("c_box", ["0", "1", "-1", "inf", "nan"])
    def test_c_box_outside_finite_above_1_exit_1(self, capsys, c_box):
        assert run(["imag-step", "--N", "8", "--c-box", c_box]) == 1
        assert "finite C_box > 1" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["imag-step", "--N", "8", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("x_range, y_range", [((0.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 0.0)),
                                              ((0.0, math.nan), (0.0, 1.0))])
def test_svg_canvas_refuses_a_degenerate_range(x_range, y_range):
    with pytest.raises(ValueError, match="degenerate axis range"):
        _svg.Canvas(x_range, y_range)


class TestSparseCommand:
    @pytest.fixture
    def targets_file(self, tmp_path):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps({
            "zetas": [[1.0, 0.08], [1.3, 0.06], [0.8, 0.05]],
            "q": 2.0, "gamma": 1.0, "p": 4.0, "alpha": 1.0,
        }))
        return path

    def test_faithful_report_only(self, tmp_path, targets_file):
        out = tmp_path / "faith"
        assert run(["sparse", "--targets", str(targets_file), "--mode", "faithful", "--out", str(out)]) == 0
        report = json.loads((out / "sparse_report.json").read_text())
        assert report["kappa_tilde"] == 51.0
        assert all(40.0 < g < 80.0 for g in report["gaps_log10"])
        assert not (out / "potential.json").exists()

    def test_desk_verification(self, tmp_path, targets_file):
        out = tmp_path / "desk"
        assert run(["sparse", "--targets", str(targets_file), "--mode", "desk", "--out", str(out)]) == 0
        report = json.loads((out / "sparse_report.json").read_text())
        assert all(v["found"] >= 1 for v in report["verification"])
        pot = PiecewisePotential.from_json((out / "potential.json").read_text())
        assert len(pot.pieces) == 3

    def test_p_from_the_targets_file_sets_gaps_and_norm(self, tmp_path):
        # p = 6 enters kappa_tilde (69 against 51 at p = 4) and names the mixed norm
        path = tmp_path / "p6.json"
        path.write_text(json.dumps({"zetas": [[1.0, 0.08], [1.3, 0.06], [0.8, 0.05]],
                                    "q": 2.0, "gamma": 1.0, "p": 6}))
        out = tmp_path / "p6"
        assert run(["sparse", "--targets", str(path), "--mode", "desk", "--out", str(out)]) == 0
        report = json.loads((out / "sparse_report.json").read_text())
        assert report["kappa_tilde"] == pytest.approx(69.0, abs=1e-12)
        norms = report["assembly"]["norms"]
        assert "l4L2" not in norms
        pot = PiecewisePotential.from_json((out / "potential.json").read_text())
        l2 = [abs(v) * math.sqrt(b - a) for a, b, v in pot.pieces]
        assert norms["l6L2"] == pytest.approx(sum(n ** 6 for n in l2) ** (1 / 6), rel=1e-12)

    @pytest.mark.parametrize("n, found", [(3, [1, 1, 1]), (30, None)])
    def test_desk_disks_far_below_unit_modulus(self, tmp_path, n, found):
        # |F| is about 1e-14 on the 3-target disks, far less on the 30-target
        # ones, which hold up to 6 eigenvalues each; an absolute guard took that
        # for a zero on the circle (exit 3)
        path = tmp_path / "targets.json"
        path.write_text(json.dumps({"zetas": line_targets(n), "q": 2, "p": 4}))
        out = tmp_path / "desk"
        assert run(["sparse", "--targets", str(path), "--mode", "desk", "--delta", "5e-3",
                    "--out", str(out)]) == 0
        report = json.loads((out / "sparse_report.json").read_text())
        assert all(v["found"] == len(v["zeros"]) for v in report["verification"])
        if found is not None:
            assert [v["found"] for v in report["verification"]] == found
        assert sum(v["found"] for v in report["verification"]) == (114 if n == 30 else 3)

    @pytest.mark.parametrize("option", ["--delta=-1", "--delta=0", "--delta=nan", "--delta=inf",
                                        "--eps0=nan"])
    def test_delta_or_aperture_out_of_range_exit_1(self, tmp_path, capsys, targets_file, option):
        # each exited 0: a bad delta with "not verified" for every disk and "found": null
        # in the report, a NaN aperture with every target accepted
        out = tmp_path / "o"
        assert run(["sparse", "--targets", str(targets_file), option, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert ("--delta must be finite and > 0" if "delta" in option
                else "sector aperture must be > 0") in err
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--eps0=nan", "--eps0=-1"])
    def test_aperture_out_of_range_exit_1_on_no_targets(self, tmp_path, capsys, option):
        # with no target to check it against, each exited 0: "empty target list; report written"
        path = tmp_path / "none.json"
        path.write_text(json.dumps({"zetas": []}))
        out = tmp_path / "o"
        assert run(["sparse", "--targets", str(path), option, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "sector aperture must be > 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("spec", [
        {"q": 2.0},                           # no "zetas": KeyError
        {"zetas": [[1.0, 0.08], [1.3]]},      # a one-number entry: IndexError
        [[1.0, 0.08], [1.3, 0.06]],           # a top-level list: TypeError
    ])
    def test_malformed_targets_exit_1(self, tmp_path, capsys, spec):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert run(["sparse", "--targets", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "targets file wants" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, message", [
        ("faithful", "gap rule overflowed in log space at target 1"),  # M_pq_L = inf
        ("desk", "gap rule asks for no positive gap at target 1"),  # the rule's log < 0
    ])
    def test_tiny_target_is_a_numeric_failure(self, tmp_path, capsys, mode, message):
        # choose_L raised a bare OverflowError in both modes: a traceback, exit 1
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"zetas": [[1e-60, 1e-61]], "q": 2, "p": 4}))
        out = tmp_path / "tiny"
        assert run(["sparse", "--targets", str(path), "--mode", mode, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"numeric failure: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("mode, message", [
        ("faithful", "gap rule overflowed in log space at target 1"),
        ("desk", "gap rule asks for no positive gap at target 1"),
    ])
    def test_delta_floor_beyond_float_range(self, tmp_path, capsys, mode, message):
        # |Im zeta|^-gamma = 1e500 raised OverflowError in both modes, although
        # desk mode floors log delta at log 1e-3
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"zetas": [[1e-150, 1e-250]], "gamma": 2}))
        assert run(["sparse", "--targets", str(path), "--mode", mode,
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"numeric failure: {message}") and err.count("\n") == 1

    def test_mixed_norm_of_a_huge_bump(self, tmp_path):
        # ||V_1||_2^4 (about 1e450) raised OverflowError; the norm itself is 6e112
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"zetas": [[1e150, 2e149]]}))
        out = tmp_path / "o"
        assert run(["sparse", "--targets", str(path), "--mode", "desk", "--out", str(out)]) == 0
        norms = json.loads((out / "sparse_report.json").read_text())["assembly"]["norms"]
        assert 1e112 < norms["l4L2"] < 1e113
        assert norms["l4L2"] == pytest.approx(norms["L2"], rel=1e-15)

    def test_disk_below_float_resolution_is_not_verified(self, tmp_path, capsys):
        # floats near 1e150 are 2e134 apart: every node of D(zeta, 0.01) rounded
        # to zeta, f was constant and the disk reported "found 0 eigenvalue(s)"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"zetas": [[1e150, 2e149]]}))
        out = tmp_path / "o"
        assert run(["sparse", "--targets", str(path), "--mode", "desk", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "not verified" in captured.err and "found 0" not in captured.out
        [entry] = json.loads((out / "sparse_report.json").read_text())["verification"]
        assert entry["found"] is None and entry["zeros"] == []
        code = run(["spectrum", "--potential", str(out / "potential.json"),
                    "--disk", "1e150,2e149,0.01"])
        assert code == 1
        assert "below 1000 float spacings" in capsys.readouterr().err

    def test_faithful_gaps_below_one(self, tmp_path):
        # Im zeta > 1 makes the power law's preliminary gap underflow to 0, which
        # was reported as "usage error: gap lengths must be positive"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"zetas": [[1e150, 2e149]]}))
        out = tmp_path / "o"
        assert run(["sparse", "--targets", str(path), "--mode", "faithful", "--out", str(out)]) == 0
        [gap] = json.loads((out / "sparse_report.json").read_text())["gaps_log10"]
        assert -69.0 < gap < -68.0

    def test_resorted_gaps_warn_and_verify(self, tmp_path, capsys):
        path = tmp_path / "unsorted.json"
        path.write_text(json.dumps({"zetas": [[100, 0.14], [1, 0.14], [1, 0.12]]}))
        out = tmp_path / "o"
        assert run(["sparse", "--targets", str(path), "--out", str(out)]) == 0
        assert "gap sequence was resorted" in capsys.readouterr().err
        report = json.loads((out / "sparse_report.json").read_text())
        assert [v["found"] for v in report["verification"]] == [1, 1, 1]

    def test_unsettled_disk_exits_3_within_the_point_bound(self, tmp_path, capsys, monkeypatch):
        # |F| is 2.6e-9 on the circle of D(1e5+1e3i, 1e-2) and nearly every panel
        # fails the moment test at every level: the contour doubled its points a
        # level at a time into gigabytes; the handle here raises past 3 M points
        from stepspectra import cli as cli_mod

        seen = [0]

        def guarded(pot):
            handle = make_secular_handle(pot)

            def g(E):
                seen[0] += np.size(E)
                if seen[0] > 3_000_000:
                    raise RuntimeError("more than 3 M points")
                return handle(E)

            g.vectorized = True
            return g

        monkeypatch.setattr(cli_mod, "make_secular_handle", guarded)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"zetas": [[1e5, 1e3]]}))
        assert run(["sparse", "--targets", str(path), "--mode", "desk",
                    "--out", str(tmp_path / "o")]) == 3
        assert "f did not settle within 1048576 points" in capsys.readouterr().err
        assert seen[0] <= 2**20

    def test_empty_targets(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"zetas": [], "q": 2.0}))
        out = tmp_path / "e"
        assert run(["sparse", "--targets", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "sparse_report.json").read_text())
        assert report["targets"] == []


class TestEnvelopesCommand:
    def test_printed_value_row(self, tmp_path):
        out = tmp_path / "env.csv"
        code = run([
            "envelopes", "--z", "i", "--d", "1", "--q", "1", "--p", "2",
            "--L", "power:1", "--eta", "1", "--s", "0.1", "--out", str(out),
        ])
        assert code == 0
        header, values = out.read_text().strip().splitlines()
        row = dict(zip(header.split(","), values.split(",")))
        assert float(row["M_pq"]) == pytest.approx(177147.0)
        assert float(row["omega_q"]) == pytest.approx(1.0)
        assert float(row["sep"]) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-9)
        assert int(float(row["h_L"])) == 10

    def test_geometric_spec_and_d3(self, tmp_path):
        # without --p, p takes its EnvelopeParams default 2*max(q, (d+1)/2) = 4
        out = tmp_path / "env2.csv"
        code = run([
            "envelopes", "--z", "-1+0.5i", "--d", "3", "--q", "1.5",
            "--L", "geometric", "--eta", "0.5", "--s", "0.2", "--out", str(out),
        ])
        assert code == 0
        header, values = out.read_text().strip().splitlines()
        row = dict(zip(header.split(","), values.split(",")))
        assert float(row["omega_q"]) == pytest.approx(1.0)

    def test_scales_at_float_limits(self, tmp_path):
        # e^{-eta*inc} rounds to 1 at eta = 1e-17, and the count at s = 1e-300
        # reaches gaps 2^k beyond float range
        out = tmp_path / "env3.csv"
        code = run(["envelopes", "--z", "i", "--L", "geometric", "--eta", "1e-17",
                    "--s", "1e-300", "--out", str(out)])
        assert code == 0
        header, values = out.read_text().strip().splitlines()
        row = dict(zip(header.split(","), values.split(",")))
        assert float(row["sep"]) == pytest.approx(55.14003279548, rel=1e-12)
        assert row["h_L"] == "996"

    @pytest.mark.parametrize("args, m_pq", [
        # (<z>/|z|)^8 overflowed at |z| = 1e-300, and <s>^(2p) at p = 200: an
        # OverflowError traceback each
        (["--z", "1e-300i", "--L", "geometric"], math.inf),
        (["--z", "1e-300i", "--L", "values:1,2,4"], math.inf),
        (["--z", "i", "--p", "200", "--L", "geometric"], 5.2280801430438435e+99),
        # <z>/|Im z| raised ZeroDivisionError at Im z = 0, off [0, inf)
        (["--z", "-1"], math.inf),
        (["--z", "-1e-3+0i", "--q", "2"], math.inf),
    ])
    def test_envelope_beyond_float_range_is_inf(self, tmp_path, args, m_pq):
        out = tmp_path / "env4.csv"
        assert run(["envelopes", *args, "--out", str(out)]) == 0
        header, values = out.read_text().strip().splitlines()
        row = dict(zip(header.split(","), values.split(",")))
        assert float(row["M_pq"]) == pytest.approx(m_pq, rel=1e-12)
        assert float(row["M_pq_L"]) == math.inf

    def test_omega_beyond_float_range(self, capsys):
        # d(z, R+)^-1 = 1e320 at q = inf raised OverflowError in omega_q; omega_q
        # is now inf, and the separation sum at Im sqrt(z) = 5e-321 is not certified
        assert run(["envelopes", "--z", "1+1e-320i", "--d", "2", "--q", "inf"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: no certified convergence") and err.count("\n") == 1

    def test_count_threshold_beyond_float_range(self, capsys):
        # s*eta0 underflowed to 0, and 1/(s*eta0) raised ZeroDivisionError; the
        # threshold is now inf, and the gallop's count reports that it is unbounded
        assert run(["envelopes", "--z", "i", "--s", "1e-200", "--eta0", "1e-200"]) == 2
        assert "h_L count exceeds 1e18" in capsys.readouterr().err

    def test_z_on_cut_rejected(self):
        assert run(["envelopes", "--z", "2", "--q", "1"]) == 1


class TestCheckCommand:
    def test_ratio_table(self, tmp_path):
        out_dir = tmp_path / "bump"
        run(["bump", "--zeta", "1+0.1i", "--out", str(out_dir)])
        out = tmp_path / "check.csv"
        code = run([
            "check", "--potential", str(out_dir / "potential.json"),
            "--disk", "1,0.1,0.05", "--q", "2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re,im,lhs,rhs,ratio,flagged"
        assert len(lines) == 2

    def test_large_q_is_one_row(self, tmp_path):
        # |v0|^q of the bump (|v0| about 0.2) underflowed to 0 from about q = 460,
        # and lhs / rhs ended in a ZeroDivisionError traceback
        out_dir = tmp_path / "bump"
        run(["bump", "--zeta", "1+0.1i", "--out", str(out_dir)])
        out = tmp_path / "check.csv"
        assert run(["check", "--potential", str(out_dir / "potential.json"),
                    "--disk", "1,0.1,0.05", "--q", "1e6", "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == "re,im,lhs,rhs,ratio,flagged"
        assert row.split(",")[2:] == ["0", "0", "0", "0"]

    @pytest.mark.parametrize("q", ["inf", "nan", "0.5"])
    def test_q_outside_finite_q_at_least_1_exit_1(self, tmp_path, capsys, q):
        # inf and nan printed unflagged nan ratios, 0.5 a "norm" of no L^q space
        out_dir = tmp_path / "bump"
        run(["bump", "--zeta", "1+0.1i", "--out", str(out_dir)])
        code = run(["check", "--potential", str(out_dir / "potential.json"),
                    "--disk", "1,0.1,0.05", "--q", q])
        assert code == 1
        assert "q must be finite and >= 1" in capsys.readouterr().err
