"""Output checks of every workload, run after the timed passes.

Each check compares what the program wrote with a computation made apart
from it (``oracles``) or with a property the method must have.  A check
returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json
import math
import re

from . import oracles
from .workloads import STEPS_REGION

_WINDING = re.compile(r"winding_total=(-?\d+) complete=(True|False)")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _csv_rows(text: str):
    lines = text.strip().splitlines()
    return [line.split(",") for line in lines[1:]]


def _refined_close(f, z: complex, tol: float, dps: int = oracles.BASE_DPS):
    try:
        root = oracles.refine(f, z, dps)
    except (ZeroDivisionError, ValueError) as exc:
        return f"refinement from {z} failed: {exc}"
    if not abs(root - z) <= tol:
        return f"zero {z} refines to {root} (|diff| {abs(root - z):.2e} > {tol:.1e})"
    return None


def check_spectrum(op, stdout: str) -> list:
    problems = []
    m = _WINDING.search(stdout)
    if m is None:
        return [f"no winding line in output {stdout!r}"]
    winding, complete = int(m.group(1)), m.group(2) == "True"
    if not complete:
        problems.append("report not complete")
    rows = _csv_rows(_read(op.spec["csv"]))
    zeros = [complex(float(r[0]), float(r[1])) for r in rows]
    mults = [int(r[2]) for r in rows]
    if sum(mults) != winding:
        problems.append(f"multiplicities add to {sum(mults)}, winding total is {winding}")
    pieces = op.spec["pieces"]
    for z in zeros:
        if len(pieces) == 1:
            a, b, v0 = pieces[0]
            bad = _refined_close(lambda E: oracles.step_secular(v0, 0.5 * (b - a), E), z,
                                 1e-9 * max(1.0, abs(z)))
        else:
            bad = _refined_close(lambda E: oracles.transfer_secular(pieces, E), z,
                                 1e-9 * max(1.0, abs(z)), oracles.transfer_dps(pieces, z))
        if bad:
            problems.append(bad)
    if op.spec["kind"] == "well":
        a, b, v0 = pieces[0]
        states = [E for E in oracles.real_well_bound_states(-v0.real, 0.5 * (b - a))
                  if STEPS_REGION[0] < E < STEPS_REGION[1]]
        if len(states) != len(zeros):
            problems.append(f"real well: {len(zeros)} zeros, bisection finds {len(states)} states")
        else:
            for E, z in zip(states, sorted(zeros, key=lambda z: z.real)):
                if abs(E - z) > 1e-8:
                    problems.append(f"real well: zero {z} vs bound state {E}")
    return problems


def check_sparse(op) -> list:
    problems = []
    report = json.loads(_read(op.spec["out"] + "/sparse_report.json"))
    pot = json.loads(_read(op.spec["out"] + "/potential.json"))
    pieces = [(p["a"], p["b"], complex(p["re"], p["im"])) for p in pot["pieces"]]
    zetas, delta = op.spec["zetas"], op.spec["delta"]
    gaps = [pieces[k + 1][0] - pieces[k][1] for k in range(len(pieces) - 1)]
    chosen = [10.0 ** g for g in report["gaps_log10"][: len(gaps)]]
    for k, (g, c) in enumerate(zip(gaps, chosen)):
        if abs(g - c) > 1e-9 * c:
            problems.append(f"gap {k + 1} is {g}, chosen L is {c}")
    if len(report["verification"]) != len(zetas):
        return problems + [f"{len(report['verification'])} disks verified for {len(zetas)} targets"]
    for zeta, entry in zip(zetas, report["verification"]):
        zs = [complex(*z) for z in entry["zeros"]]
        if entry["found"] < 1:
            problems.append(f"disk at {zeta} winds {entry['found']} times")
        if len(zs) != entry["found"]:
            problems.append(f"disk at {zeta}: {len(zs)} zeros for winding {entry['found']}")
        for z in zs:
            if abs(z - zeta) > delta:
                problems.append(f"zero {z} outside D({zeta}, {delta})")
            bad = _refined_close(lambda E: oracles.transfer_secular(pieces, E), z, 1e-8,
                                 oracles.transfer_dps(pieces, z))
            if bad:
                problems.append(bad)
    return problems


def check_radial(op, summary) -> list:
    winding, complete, zeros = summary
    problems = []
    if not complete:
        problems.append("report not complete")
    if winding < 1 or sum(m for _, m in zeros) != winding:
        problems.append(f"winding {winding}, zeros {zeros}")
    v0, R = op.spec["v0"], op.spec["R"]
    for z, _ in zeros:
        bad = _refined_close(lambda E: oracles.radial_wronskian_d2(v0, R, E), z, 1e-9)
        if bad:
            problems.append(bad)
    return problems


def _counted(cen):
    """The energies a census counts: converged, physical, in the box, distinct."""
    hits = [r for r in cen.results
            if r.converged and r.on_physical_sheet and cen.box.contains(r.energy)]
    out = []
    for r in sorted(hits, key=lambda r: (r.energy.real, r.energy.imag)):
        if out and abs(r.energy - out[-1].energy) < 1e-6 * max(1.0, abs(r.energy)):
            continue
        out.append(r)
    return out


def _coincident(energies) -> int:
    """Number of pairs closer than 1e-6 relative, all pairs considered."""
    es = sorted(energies, key=lambda e: e.real)
    pairs = 0
    for i, e in enumerate(es):
        tol_e = 1e-6 * max(1.0, abs(e))
        for f in es[i + 1:]:
            if f.real - e.real > 2.0 * tol_e:
                break  # no later f can be within its own or e's tolerance
            if abs(f - e) < max(tol_e, 1e-6 * max(1.0, abs(f))):
                pairs += 1
    return pairs


def check_census(op, ss) -> list:
    """Every counted energy of every N, and the ladder as a whole."""
    problems = []
    rows = _csv_rows(_read(op.spec["csv"]))
    if [int(r[0]) for r in rows] != list(op.spec["ladder"]):
        return [f"CSV rows {[r[0] for r in rows]} do not follow the ladder {op.spec['ladder']}"]
    counts, ratios = [], []
    for row in rows:
        n, count, ratio = int(row[0]), int(row[1]), float(row[2])
        box = [float(x) for x in row[3:7]]
        counts.append(count)
        ratios.append(ratio)
        if abs(ratio - count * math.log(n) / (n * n)) > 1e-12 * max(ratio, 1e-300):
            problems.append(f"N={n}: ratio {ratio} is not count*log N/N^2")
        counted = _counted(ss.spectral_count.imag_step_census(n, 10.0))
        if len(counted) != count:
            problems.append(f"N={n}: CSV count {count}, recomputed census counts {len(counted)}")
        for r in counted:
            e = r.energy
            if not (box[0] <= e.real <= box[1] and box[2] <= e.imag <= box[3]):
                problems.append(f"N={n}: counted energy {e} outside the box")
            residual, im_chi = oracles.imag_step_residual(e, n, r.parity)
            if residual > 1e-8:
                problems.append(f"N={n}: energy {e} ({r.parity}) parity residual {residual:.2e}")
            if not im_chi > 0:
                problems.append(f"N={n}: energy {e} off the physical sheet (Im chi {im_chi:.2e})")
        dup = _coincident([r.energy for r in counted])
        if dup:
            problems.append(f"N={n}: {dup} coincident counted energies")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        problems.append(f"counts {counts} do not rise strictly along the ladder")
    if max(ratios) > 3.0 * min(ratios):
        problems.append(f"count*log N/N^2 spreads beyond a factor 3: {ratios}")
    return problems
