import json
import math
import os

import pytest

from stepspectra.cli import main, parse_complex
from stepspectra.schrodinger_1d import PiecewisePotential
from stepspectra.step_model import StepBump


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


class TestBumpCommand:
    def test_report_and_potential(self, tmp_path):
        out = tmp_path / "bump"
        assert run(["bump", "--zeta", "1+0.1i", "--sigma", "1", "--out", str(out), "--svg"]) == 0
        report = json.loads((out / "bump_report.json").read_text())
        assert report["residual"] < 1e-10
        pot = PiecewisePotential.from_json((out / "potential.json").read_text())
        assert len(pot) == 1
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


class TestSpectrumCommand:
    @pytest.fixture
    def well_file(self, tmp_path):
        pot = PiecewisePotential.from_bumps([StepBump(-10.0, 1.0)])
        path = tmp_path / "well.json"
        path.write_text(pot.to_json())
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

    def test_unconverged_counts_on_stderr(self, capsys):
        assert run(["imag-step", "--N", "32,64,128,192,256"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [f"N={n}: {k} branch(es) did not refine; flagged and skipped"
                       for n, k in ((32, 28), (64, 55), (128, 108), (192, 160), (256, 214))]

    def test_uncertified_count_on_stderr(self, capsys, tmp_path):
        # at C_box = 50 four of N = 8's unconverged branches could lie in the box
        out = tmp_path / "census.csv"
        assert run(["imag-step", "--N", "8", "--c-box", "50", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "N=8: count=10 ratio=0.32491274088747435\n"
        assert captured.err.splitlines() == [
            "N=8: 8 branch(es) did not refine; flagged and skipped",
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
        assert len(pot) == 3

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

    @pytest.mark.parametrize("q", ["inf", "nan", "0.5"])
    def test_q_outside_finite_q_at_least_1_exit_1(self, tmp_path, capsys, q):
        # inf and nan printed unflagged nan ratios, 0.5 a "norm" of no L^q space
        out_dir = tmp_path / "bump"
        run(["bump", "--zeta", "1+0.1i", "--out", str(out_dir)])
        code = run(["check", "--potential", str(out_dir / "potential.json"),
                    "--disk", "1,0.1,0.05", "--q", q])
        assert code == 1
        assert "q must be finite and >= 1" in capsys.readouterr().err
