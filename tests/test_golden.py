"""The README CLI examples, rerun through ``cli.main`` and compared by value
with the outputs stored under ``tests/golden/``.

Numbers agree to 1e-9 relative (1e-12 absolute near zero); integers, such as
counts, multiplicities and ``found``, and exit codes agree exactly.  The
``residual`` column of the ``spectrum`` CSV is |f| at a polished zero, at
rounding level, and moves with any change to the polish, so it is only held
to ``RESIDUAL_BOUND``, which the stored outputs meet; every other residual is
compared by value.  SVGs are compared by their element counts.

``python tests/test_golden.py`` reruns the examples on the current tree and
rewrites, and prints, only the stored outputs that no longer compare equal; run
it only for a deliberate change of output.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import os
import pathlib
import re
import shutil
import tempfile
import xml.etree.ElementTree as ET

import pytest

from stepspectra.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RESIDUAL_BOUND = 1e-10
SPECTRUM_HEADER = "re,im,multiplicity,residual"
REL_TOL, ABS_TOL = 1e-9, 1e-12
INT_COLUMNS = {"N", "count", "multiplicity", "flagged"}

TARGETS = {"zetas": [[1.0, 0.08], [1.3, 0.06], [0.8, 0.05]], "q": 2.0, "gamma": 1.0, "p": 4.0}

#: name -> (argv with {out} for the example's directory and {bump} for the
#: bump example's, files the example writes)
EXAMPLES = {
    "bump": (["bump", "--zeta", "1+0.1i", "--sigma", "1", "--out", "{out}", "--svg"],
             ["bump_report.json", "potential.json", "bump_psi.svg"]),
    "spectrum-region": (["spectrum", "--potential", "{bump}/potential.json",
                         "--region=-10,-1e-6,-0.5,0.5", "--out", "{out}/spec.csv"],
                        ["spec.csv"]),
    "spectrum-disk": (["spectrum", "--potential", "{bump}/potential.json",
                       "--disk", "1,0.1,0.01"], []),
    "imag-step": (["imag-step", "--N", "16,32,64", "--c-box", "10",
                   "--out", "{out}/census.csv", "--svg", "{out}/census.svg"],
                  ["census.csv", "census.svg"]),
    "sparse-desk": (["sparse", "--targets", "{out}/targets.json", "--mode", "desk",
                     "--delta", "1e-2", "--out", "{out}"],
                    ["sparse_report.json", "potential.json"]),
    "sparse-faithful": (["sparse", "--targets", "{out}/targets.json", "--mode", "faithful",
                         "--out", "{out}"], ["sparse_report.json"]),
    "envelopes": (["envelopes", "--z", "i", "--d", "1", "--q", "1", "--p", "2",
                   "--L", "power:1", "--eta", "1", "--s", "0.1"], []),
    "check": (["check", "--potential", "{bump}/potential.json", "--disk", "1,0.1,0.05",
               "--q", "2"], []),
}


def run_example(name: str, out: str, bump: str) -> tuple[int, str]:
    argv, _files = EXAMPLES[name]
    os.makedirs(out, exist_ok=True)
    if name.startswith("sparse"):
        with open(os.path.join(out, "targets.json"), "w", encoding="utf-8") as fh:
            json.dump(TARGETS, fh)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([a.format(out=out, bump=bump) for a in argv])
    return code, buf.getvalue()


def close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want)) + ABS_TOL


def compare_json(got, want, path="$"):
    assert type(got) is type(want), f"{path}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            compare_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            compare_json(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert close(got, want), f"{path}: {got!r} vs {want!r}"
    else:
        assert got == want, path


def compare_csv(got: list, want: list):
    assert got[0] == want[0]
    header = want[0].split(",")
    assert len(got) == len(want)
    for g_line, w_line in zip(got[1:], want[1:]):
        for col, g, w in zip(header, g_line.split(","), w_line.split(",")):
            if col in INT_COLUMNS:
                assert g == w, (col, g_line, w_line)
            elif col == "residual" and want[0] == SPECTRUM_HEADER:
                assert float(g) <= RESIDUAL_BOUND, (col, g_line)
            else:
                assert close(float(g), float(w)), (col, g_line, w_line)


_NUMBER = re.compile(r"(\d+(?:\.\d*)?(?:e[-+]?\d+)?)")


def compare_text(got: str, want: str):
    """Line by line: CSV blocks by column, other lines by their numbers, the
    text around the numbers exactly."""
    g_lines, w_lines = got.splitlines(), want.splitlines()
    assert len(g_lines) == len(w_lines)
    i = 0
    while i < len(w_lines):
        if re.fullmatch(r"[a-zA-Z_]+(,[a-zA-Z_]+)+", w_lines[i]):
            j = i + 1
            while j < len(w_lines) and "," in w_lines[j] and "=" not in w_lines[j]:
                j += 1
            compare_csv(g_lines[i:j], w_lines[i:j])
            i = j
            continue
        g_parts, w_parts = _NUMBER.split(g_lines[i]), _NUMBER.split(w_lines[i])
        assert len(g_parts) == len(w_parts), (g_lines[i], w_lines[i])
        for k, (g, w) in enumerate(zip(g_parts, w_parts)):
            if k % 2 == 0:
                assert g == w, (g_lines[i], w_lines[i])
            elif "." in w or "e" in w:
                assert close(float(g), float(w)), (g_lines[i], w_lines[i])
            else:
                assert g == w, (g_lines[i], w_lines[i])
        i += 1


def svg_structure(path: str) -> dict:
    return dict(sorted(collections.Counter(
        el.tag.rsplit("}", 1)[-1] for el in ET.parse(path).getroot().iter()).items()))


def compare_file(got_path: str, want_path: str, svg_want: dict | None):
    if got_path.endswith(".svg"):
        assert svg_structure(got_path) == svg_want
        return
    with open(got_path, encoding="utf-8") as fh:
        got = fh.read()
    with open(want_path, encoding="utf-8") as fh:
        want = fh.read()
    if want_path.endswith(".json"):
        compare_json(json.loads(got), json.loads(want))
    else:
        compare_text(got, want)


@pytest.fixture(scope="module")
def bump_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("golden") / "bump")
    argv, _ = EXAMPLES["bump"]
    assert main([a.format(out=out, bump=out) for a in argv]) == 0
    return out


@pytest.mark.parametrize("name", list(EXAMPLES))
def test_readme_example_matches_golden(name, tmp_path, bump_dir):
    out = str(tmp_path / name)
    code, stdout = run_example(name, out, bump_dir)
    assert code == 0
    want_dir = os.path.join(GOLDEN, name)
    compare_text(stdout, open(os.path.join(want_dir, "stdout.txt"), encoding="utf-8").read())
    with open(os.path.join(GOLDEN, "svg.json"), encoding="utf-8") as fh:
        svgs = json.load(fh)
    for fname in EXAMPLES[name][1]:
        compare_file(os.path.join(out, fname), os.path.join(want_dir, fname),
                     svgs.get(f"{name}/{fname}"))


def test_golden_residuals_meet_the_bound():
    for name, (_argv, files) in EXAMPLES.items():
        for fname in ["stdout.txt"] + [f for f in files if not f.endswith(".svg")]:
            path = os.path.join(GOLDEN, name, fname)
            compare_file(path, path, None)


def _regenerate(golden: str = GOLDEN) -> list:
    """Rerun the examples and rewrite only the stored outputs whose comparison fails,
    and only the ``svg.json`` entries whose element counts differ; return the paths
    rewritten."""
    svg_path = os.path.join(golden, "svg.json")
    with open(svg_path, encoding="utf-8") as fh:
        svgs = json.load(fh)
    rewritten = []
    with tempfile.TemporaryDirectory() as tmp:
        bump = os.path.join(tmp, "bump")
        for name, (_argv, files) in EXAMPLES.items():
            out = os.path.join(tmp, name)
            code, text = run_example(name, out, bump)
            if code != 0:
                raise SystemExit(f"{name} exited {code}")
            with open(os.path.join(out, "stdout.txt"), "w", encoding="utf-8") as fh:
                fh.write(text)
            want_dir = os.path.join(golden, name)
            os.makedirs(want_dir, exist_ok=True)
            for fname in ["stdout.txt"] + files:
                got, want = os.path.join(out, fname), os.path.join(want_dir, fname)
                if fname.endswith(".svg"):
                    key = f"{name}/{fname}"
                    if svgs.get(key) != svg_structure(got):
                        svgs[key] = svg_structure(got)
                        rewritten.append(f"{svg_path} [{key}]")
                    continue
                try:
                    compare_file(got, want, None)
                except (AssertionError, ValueError, OSError):
                    shutil.copy(got, want)
                    rewritten.append(want)
    if any(path.startswith(svg_path) for path in rewritten):
        with open(svg_path, "w", encoding="utf-8") as fh:
            json.dump(svgs, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return rewritten


def _snapshot(root: str) -> dict:
    return {str(p): p.read_bytes() for p in pathlib.Path(root).rglob("*") if p.is_file()}


def test_regenerate_rewrites_only_what_changed(tmp_path):
    golden = str(tmp_path / "golden")
    shutil.copytree(GOLDEN, golden)
    before = _snapshot(golden)
    assert _regenerate(golden) == [] and _snapshot(golden) == before
    # the check's ratio, 1e-6 relative off: that file alone is rewritten, to the run's value
    path = os.path.join(golden, "check", "stdout.txt")
    text = before[path].decode()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("0.041580912757031983", "0.041580954337944740"))
    assert _regenerate(golden) == [path]
    after = _snapshot(golden)
    assert {p for p in after if after[p] != before[p]} == {path}
    compare_text(after[path].decode(), text)


if __name__ == "__main__":
    for path in _regenerate():
        print(path)
