"""Command-line front end.

Subcommands: bump, spectrum, imag-step, sparse, envelopes, check.  All CSV
and JSON output is deterministic (sorted rows, 17 significant digits); SVG
plots are static artifacts and never affect exit codes.

Exit codes: 0 success, 1 usage error, 2 numeric construction failure,
3 contour failure (a zero on or near a contour; the message says where).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from . import _svg
from .errors import ContourError, SchemaError, StepSpectraError
from .schrodinger_1d import PiecewisePotential, make_secular_handle, reconstruct_eigenfunction
from .sparse_builder import (
    EnvelopeParams,
    SeparationSequence,
    TargetSequence,
    M_pq,
    M_pq_L,
    assemble_sparse,
    choose_L,
    h_L,
    kappa_tilde,
    magnitude_check,
    omega_q,
    s_of_L_z,
    sep,
)
from .spectral_count import Region, imag_step_census, locate_zeros
from .step_model import SECTOR_APERTURE, bump_norm_lq, construct_bump, davies_nath
from .special_functions import _dist_to_ray, sqrt_upper

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_CONTOUR = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the CLI contract wants 1
    def error(self, message):
        raise _UsageError(message)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like "-5,-1,-1,1" or "-1+0.5i" through as arguments
        self._negative_number_matcher = re.compile(r"^-[\d.,+\-eEij]+$")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError:
        raise _UsageError(f"cannot parse complex number from {text!r}")


def _parse_region(args) -> Region:
    if args.disk:
        parts = [float(v) for v in args.disk.split(",")]
        if len(parts) != 3:
            raise _UsageError("--disk wants cx,cy,radius")
        region = Region.disk(complex(parts[0], parts[1]), parts[2])
        if _dist_to_ray(region.center) <= region.radius:
            raise _UsageError("region must stay off the essential spectrum [0, inf)")
        return region
    if args.region:
        parts = [float(v) for v in args.region.split(",")]
        if len(parts) != 4:
            raise _UsageError("--region wants re_lo,re_hi,im_lo,im_hi")
        region = Region.rectangle(*parts)
        if region.re_hi >= 0 and region.im_lo <= 0 <= region.im_hi:
            raise _UsageError("region must stay off the essential spectrum [0, inf)")
        return region
    raise _UsageError("provide --region or --disk")


def _parse_L(spec: str, eta0: float) -> SeparationSequence:
    """'values:1,2,4' | 'power:alpha' | 'geometric'."""
    if spec.startswith("values:"):
        vals = [float(v) for v in spec[len("values:"):].split(",")]
        return SeparationSequence.from_values(vals, eta0=eta0)
    if spec.startswith("power:"):
        alpha = float(spec[len("power:"):])
        return SeparationSequence.from_rule(
            lambda k: float(k) ** alpha, eta0=eta0, convex_increments=(alpha >= 1.0)
        )
    if spec == "geometric":
        return SeparationSequence.from_rule(lambda k: 2.0 ** k, eta0=eta0, convex_increments=True)
    raise _UsageError(f"unknown separation spec {spec!r}")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _emit(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        _write(path, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_bump(args) -> int:
    zeta = parse_complex(args.zeta)
    report = construct_bump(zeta, sigma=args.sigma, sector_aperture=args.eps0)
    qs = [float(q) for q in args.q_list.split(",")] if args.q_list else [1.0, 2.0]
    bump = report.bump
    out = {
        "zeta": [zeta.real, zeta.imag],
        "sigma": args.sigma,
        "v0": [bump.v0.real, bump.v0.imag],
        "half_width": bump.half_width,
        "center": bump.center,
        "residual": report.residual,
        "iterations": report.iterations,
        "lq_norms": {f"{q:g}": bump_norm_lq(bump, q) for q in qs},
        "davies_nath": {
            f"{q:g}": davies_nath(bump, q, sqrt_upper(zeta).imag) for q in qs
        },
    }
    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "bump_report.json"), json.dumps(out, sort_keys=True, indent=2) + "\n")
    pot = PiecewisePotential.from_bumps([bump])
    _write(os.path.join(args.out, "potential.json"), pot.to_json() + "\n")
    if args.svg:
        lo, hi = bump.support
        width = hi - lo
        xs = np.linspace(lo - 1.5 * width, hi + 1.5 * width, 600)
        psi = np.abs(reconstruct_eigenfunction(pot, zeta, xs))
        chi_im = sqrt_upper(zeta).imag
        dist = np.maximum(np.abs(xs - bump.center) - bump.half_width, 0.0)
        envelope = float(np.max(psi)) * np.exp(-chi_im * dist)
        svg = _svg.profile_svg(
            xs.tolist(),
            [(psi.tolist(), "#1f77b4"), (envelope.tolist(), "#d62728")],
            title="|psi| with decay envelope",
        )
        _write(os.path.join(args.out, "bump_psi.svg"), svg)
    print(f"bump: v0={bump.v0:.6g} R={bump.half_width:.6g} residual={report.residual:.3g}")
    return EXIT_OK


def _spectrum_rows(pot: PiecewisePotential, region: Region):
    report = locate_zeros(make_secular_handle(pot), region)  # zeros sorted by (re, im)
    rows = [
        (z.location.real, z.location.imag, z.multiplicity, z.residual)
        for z in report.zeros
    ]
    return report, rows


def _rows_to_csv(rows) -> str:
    lines = ["re,im,multiplicity,residual"]
    for re_, im_, mult, res in rows:
        lines.append(f"{_fmt(re_)},{_fmt(im_)},{mult},{_fmt(res)}")
    return "\n".join(lines) + "\n"


def cmd_spectrum(args) -> int:
    with open(args.potential, "r", encoding="utf-8") as fh:
        pot = PiecewisePotential.from_json(fh.read())
    region = _parse_region(args)
    report, rows = _spectrum_rows(pot, region)
    _emit(args.out, _rows_to_csv(rows))
    print(f"winding_total={report.winding_total} complete={report.complete}")
    return EXIT_OK


def cmd_imag_step(args) -> int:
    n_values = [int(v) for v in args.N.split(",")]
    for n in n_values:
        if n < 8:
            raise _UsageError(f"imag-step requires N >= 8, got {n}")
    lines = ["N,count,ratio,box_re_lo,box_re_hi,box_im_lo,box_im_hi"]
    all_points = []
    all_colors = []
    for n in n_values:
        cen = imag_step_census(n, args.c_box)
        row = cen.table_row()
        lines.append(",".join(str(v) if isinstance(v, int) else _fmt(v) for v in row.values()))
        if args.svg:
            for r in cen.results:
                if r.converged and abs(r.energy) > 0:
                    all_points.append(r.energy)
                    all_colors.append("#d62728" if r.on_physical_sheet else "#aaaaaa")
        print(f"N={n}: count={cen.count} ratio={_fmt(cen.ratio)}")
        if cen.unconverged:
            print(f"N={n}: {cen.unconverged} branch(es) did not refine; flagged and skipped",
                  file=sys.stderr)
        if not cen.certified:
            print(f"N={n}: {len(cen.uncertified)} unconverged branch(es) could lie in the box; "
                  "count not certified", file=sys.stderr)
    _emit(args.out, "\n".join(lines) + "\n")
    if args.svg:
        box = (cen.box.re_lo, cen.box.re_hi, cen.box.im_lo, cen.box.im_hi)
        _write(args.svg, _svg.scatter_svg(all_points, title="imag-step census", box=box,
                                          colors=all_colors))
    return EXIT_OK


def cmd_sparse(args) -> int:
    with open(args.targets, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        zetas = [complex(re_, im_) for re_, im_ in spec["zetas"]]
        # exponents the file leaves out take their EnvelopeParams defaults
        exponents = {k: float(spec[k]) for k in ("q", "p", "alpha", "gamma") if k in spec}
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError('targets file wants {"zetas": [[re, im], ...]} and optional numbers '
                          f'"q", "p", "alpha", "gamma" ({type(exc).__name__}: {exc})')
    targets = TargetSequence(tuple(zetas), sector_aperture=args.eps0)
    params = EnvelopeParams(d=1, big_o_constant=args.big_o, C_L=args.c_l, **exponents)
    chosen = choose_L(targets, params, mode=args.mode)
    if chosen.resorted:
        print("warning: gap sequence was resorted to restore monotonicity", file=sys.stderr)
    report = {
        "mode": args.mode,
        "kappa_tilde": chosen.kappa_tilde,
        "targets": [[z.real, z.imag] for z in zetas],
        "gaps_log10": [g.log10_L for g in chosen.gaps],
        "delta_log10": [g.log10_delta for g in chosen.gaps],
    }
    os.makedirs(args.out, exist_ok=True)
    if not zetas:
        print("empty target list; report written")
    elif args.mode == "faithful":
        report["note"] = (
            "faithful-mode gaps exceed floating point; report only, no potential file"
        )
        print("faithful mode: gaps reported in log10, no assembly")
    else:
        asm = assemble_sparse(targets, params, chosen.lengths)
        report["assembly"] = asm.to_dict()
        _write(os.path.join(args.out, "potential.json"), asm.potential.to_json() + "\n")
        handle = make_secular_handle(asm.potential)
        verification = []
        for zeta in zetas:
            found = locate_zeros(handle, Region.disk(zeta, args.delta))
            verification.append(
                {
                    "zeta": [zeta.real, zeta.imag],
                    "delta": args.delta,
                    "found": found.winding_total,
                    "zeros": [[z.location.real, z.location.imag] for z in found.zeros],
                }
            )
            print(f"D({zeta}, {args.delta}): found {found.winding_total} eigenvalue(s)")
        report["verification"] = verification
    _write(os.path.join(args.out, "sparse_report.json"),
           json.dumps(report, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_envelopes(args) -> int:
    z = parse_complex(args.z)
    if z.imag == 0 and z.real >= 0:
        raise _UsageError("z must avoid [0, inf)")
    params = EnvelopeParams(
        d=args.d, q=args.q, p=args.p, alpha=args.alpha, gamma=args.gamma
    )
    L = _parse_L(args.L, args.eta0)
    row = {
        "omega_q": omega_q(z, args.d, args.q),
        "s_L_z": s_of_L_z(L, z, args.d),
        "M_pq": M_pq(z, params),
        "M_pq_L": M_pq_L(z, L, params),
        "sep": sep(L, args.eta),
        "h_L": h_L(L, args.s),
        "kappa_tilde": kappa_tilde(params) if args.q > args.d else float("nan"),
    }
    header = ",".join(row.keys())
    values = ",".join(_fmt(v) if not isinstance(v, int) else str(v) for v in row.values())
    _emit(args.out, header + "\n" + values + "\n")
    return EXIT_OK


def cmd_check(args) -> int:
    with open(args.potential, "r", encoding="utf-8") as fh:
        pot = PiecewisePotential.from_json(fh.read())
    region = _parse_region(args)
    _report, rows = _spectrum_rows(pot, region)
    eigs = [complex(r[0], r[1]) for r in rows]
    lines = ["re,im,lhs,rhs,ratio,flagged"]
    for mrow in magnitude_check(eigs, pot, q=args.q, d=1, ceiling=args.ceiling):
        lines.append(
            ",".join(
                [
                    _fmt(mrow.eigenvalue.real),
                    _fmt(mrow.eigenvalue.imag),
                    _fmt(mrow.lhs),
                    _fmt(mrow.rhs),
                    _fmt(mrow.ratio),
                    str(int(mrow.flagged)),
                ]
            )
        )
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="stepspectra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bump", help="construct a step bump with a prescribed eigenvalue")
    p.add_argument("--zeta", required=True, help="target eigenvalue, e.g. 1+0.1i")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--q-list", default="1,2")
    p.add_argument("--eps0", type=float, default=SECTOR_APERTURE, help="sector aperture")
    p.add_argument("--out", default="bump_out")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_bump)

    p = sub.add_parser("spectrum", help="locate eigenvalues of a potential in a region")
    p.add_argument("--potential", required=True)
    p.add_argument("--region", help="re_lo,re_hi,im_lo,im_hi")
    p.add_argument("--disk", help="cx,cy,radius")
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("imag-step", help="Lambert census of the imaginary step")
    p.add_argument("--N", required=True, help="comma list, each >= 8")
    p.add_argument("--c-box", type=float, default=10.0)
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_imag_step)

    p = sub.add_parser("sparse", help="assemble a sparse potential for target eigenvalues")
    p.add_argument("--targets", required=True, help="JSON file with zetas")
    p.add_argument("--mode", choices=("desk", "faithful"), default="desk")
    p.add_argument("--delta", type=float, default=1e-2)
    p.add_argument("--eps0", type=float, default=SECTOR_APERTURE)
    p.add_argument("--c-l", type=float, default=1.0)
    p.add_argument("--big-o", type=float, default=1.25)
    p.add_argument("--out", default="sparse_out")
    p.set_defaults(func=cmd_sparse)

    p = sub.add_parser("envelopes", help="tabulate the scalar envelope functions")
    p.add_argument("--z", required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--p", type=float, default=None, help="default 2*max(q, (d+1)/2)")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--L", default="power:1")
    p.add_argument("--eta0", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--s", type=float, default=0.1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_envelopes)

    p = sub.add_parser("check", help="magnitude-bound ratios for computed eigenvalues")
    p.add_argument("--potential", required=True)
    p.add_argument("--region", help="re_lo,re_hi,im_lo,im_hi")
    p.add_argument("--disk", help="cx,cy,radius")
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--ceiling", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    return parser


# parse_args leaves a parser as it was, so one per process serves every main()
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, SchemaError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ContourError as exc:
        print(f"contour failure: {exc}", file=sys.stderr)
        return EXIT_CONTOUR
    except StepSpectraError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
