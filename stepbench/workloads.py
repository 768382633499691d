"""Workload inputs, made from the seed, and the operations that run on them.

Every workload perturbs a fixed base set by a small seeded jitter.  Fully
random draws from the same ranges made the cost of a pass a function of the
seed (rectangles with 1 or 3 zeros, disks that catch a second eigenvalue),
so run-to-run figures measured the seed rather than the code.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("steps", "sparse-desk", "census", "radial-wells")

#: rectangle of every `spectrum` operation: re_lo, re_hi, im_lo, im_hi
STEPS_REGION = (-8.0, -1e-3, -1.5, 1.5)
#: single complex steps (v0, half-width), centred at 0
STEP_BASES = ((-5.86 + 1.03j, 0.92), (-5.78 + 0.95j, 1.22), (-4.64 - 0.84j, 1.33), (-3.14 - 0.78j, 0.97))
#: real wells (depth, half-width); sqrt(depth)*R stays >= 0.37 from the
#: thresholds k*pi/2, so no bound state hugs the rectangle's right edge
WELL_BASES = ((4.0, 1.0), (2.5, 1.4), (5.5, 0.85), (3.2, 1.3))
#: contiguous staircases, each a list of (a, b, v)
STAIR_BASES = (
    ((-0.76, 0.09, -1.52 - 1.04j), (0.09, 0.76, -2.3 - 0.18j)),
    ((-0.725, -0.035, -1.16 + 0.06j), (-0.035, 0.725, -3.17 - 0.63j)),
    ((-1.11, -0.42, -2.92 - 0.39j), (-0.42, 0.24, -5.08 - 0.94j), (0.24, 1.11, -5.77 - 0.19j)),
    ((-1.26, -0.35, -2.25 - 0.62j), (-0.35, 0.62, -2.68 - 0.34j), (0.62, 1.26, -5.13 - 0.47j)),
)
#: relative jitter of lengths, absolute jitter of potential values
LENGTH_JITTER = 0.02
VALUE_JITTER = 0.05

#: sparse targets (Im decreasing, inside the sector |Im| <= 0.2 Re)
SPARSE_BASE = (1.0 + 0.08j, 1.3 + 0.06j, 0.8 + 0.05j)
SPARSE_RE_JITTER = 0.005
SPARSE_IM_JITTER = 0.01
#: disk radius; 1e-2 lets about one seed in seven catch a second eigenvalue
#: in the disk's bounding box, which costs 8x the evaluations
SPARSE_DELTA = 5e-3

#: the census has no input but N; the seed does not enter
CENSUS_LADDER = (32, 64, 128, 192, 256)

#: complex wells (v0, R) for the d = 2 radial Wronskian
RADIAL_BASES = ((-5.0 + 0.3j, 1.0), (-8.0 + 0.5j, 1.0), (-7.0 - 0.4j, 1.0))
RADIAL_REGION = (-12.0, -0.5, -1.5, 1.7)


@dataclass
class Op:
    """One operation: a CLI command (``argv``) or a library call (``call``)."""

    name: str
    argv: list | None = None
    call: Callable | None = None
    spec: dict = field(default_factory=dict)


def _jitter(rng: random.Random, v: complex) -> complex:
    dv = complex(rng.uniform(-VALUE_JITTER, VALUE_JITTER), rng.uniform(-VALUE_JITTER, VALUE_JITTER))
    if v.imag == 0:
        dv = complex(dv.real, 0.0)
    return v + dv


def _write_potential(path: str, pieces) -> None:
    doc = {"pieces": [{"a": a, "b": b, "re": v.real, "im": v.imag} for a, b, v in pieces]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _steps(rng: random.Random, out: str):
    shapes = [("step", [(-R, R, v0)]) for v0, R in STEP_BASES]
    shapes += [("well", [(-R, R, complex(-depth, 0.0))]) for depth, R in WELL_BASES]
    shapes += [(f"stair{len(p)}", list(p)) for p in STAIR_BASES]
    region = ",".join(repr(x) for x in STEPS_REGION)
    ops = []
    for idx, (kind, base) in enumerate(shapes):
        scale = 1.0 + rng.uniform(-LENGTH_JITTER, LENGTH_JITTER)
        pieces = [(a * scale, b * scale, _jitter(rng, complex(v))) for a, b, v in base]
        path = os.path.join(out, f"potential-{idx:02d}.json")
        _write_potential(path, pieces)
        csv = os.path.join(out, f"spectrum-{idx:02d}.csv")
        ops.append(Op(
            name=f"spectrum/{kind}-{idx:02d}",
            argv=["spectrum", "--potential", path, f"--region={region}", "--out", csv],
            spec={"kind": kind, "pieces": pieces, "csv": csv},
        ))
    return ops


def _sparse(rng: random.Random, out: str):
    zetas = [
        complex(z.real * (1.0 + rng.uniform(-SPARSE_RE_JITTER, SPARSE_RE_JITTER)),
                z.imag * (1.0 + rng.uniform(-SPARSE_IM_JITTER, SPARSE_IM_JITTER)))
        for z in SPARSE_BASE
    ]
    path = os.path.join(out, "targets.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"zetas": [[z.real, z.imag] for z in zetas], "q": 2.0, "gamma": 1.0, "p": 4.0}, fh)
    result = os.path.join(out, "sparse")
    return [Op(
        name="sparse/desk",
        argv=["sparse", "--targets", path, "--mode", "desk", "--delta", repr(SPARSE_DELTA),
              "--out", result],
        spec={"zetas": zetas, "delta": SPARSE_DELTA, "out": result},
    )]


def _census(out: str):
    csv = os.path.join(out, "census.csv")
    ladder = ",".join(str(n) for n in CENSUS_LADDER)
    return [Op(name="imag-step/ladder", argv=["imag-step", "--N", ladder, "--out", csv],
               spec={"ladder": CENSUS_LADDER, "csv": csv})]


def _radial(rng: random.Random, ss):
    region = ss.spectral_count.Region.rectangle(*RADIAL_REGION)
    ops = []
    for idx, (v0, R) in enumerate(RADIAL_BASES):
        v0 = _jitter(rng, v0)
        R = R * (1.0 + rng.uniform(-LENGTH_JITTER, LENGTH_JITTER))

        def call(v0=v0, R=R):
            # attribute lookups at call time, so an instrumented function is seen
            return ss.spectral_count.locate_zeros(
                lambda E: ss.step_model.radial_secular(v0, R, E, 2), region)

        ops.append(Op(name=f"locate_zeros/radial-{idx}", call=call, spec={"v0": v0, "R": R}))
    return ops


def make_ops(workload: str, seed: int, out: str, ss) -> list:
    """Write the workload's input files under ``out`` and return its operations.

    ``ss`` is the imported ``stepspectra`` package; only the radial wells,
    which have no CLI command, call into it here.
    """
    rng = random.Random(seed)
    os.makedirs(out, exist_ok=True)
    if workload == "steps":
        return _steps(rng, out)
    if workload == "sparse-desk":
        return _sparse(rng, out)
    if workload == "census":
        return _census(out)
    if workload == "radial-wells":
        return _radial(rng, ss)
    raise ValueError(f"unknown workload {workload!r}")
