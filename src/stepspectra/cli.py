"""Command-line front end.

Subcommands: bump, spectrum, imag-step, sparse, envelopes, check.  All CSV
and JSON output is deterministic (sorted rows, 17 significant digits); SVG
plots are static artifacts and never affect exit codes.

Exit codes: 0 success, 1 usage error, 2 numeric construction failure,
3 contour failure (a zero on or near a contour, or f unsettled after the
engine's point bound; the message says where).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from .errors import ContourError, SchemaError, StepSpectraError
from .schrodinger_1d import PiecewisePotential, make_secular_handle, reconstruct_eigenfunction
from .spectral_count import Region, imag_step_census, locate_zeros
from .step_model import SECTOR_APERTURE, bump_norm_lq, construct_bump, davies_nath
from .special_functions import _dist_to_ray, sqrt_upper

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_CONTOUR = 3
_MIN_REGION = 1e-7  # least radius or half side of a region, times its scale, a contour resolves


class _UsageError(ValueError):
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


def _walkable(region: Region) -> Region:
    """``region`` if a contour can settle on it, else a usage error; every region ``spectrum``,
    ``check`` and ``sparse`` walk passes here: off [0, inf) and at least ``_MIN_REGION`` wide."""
    if region.kind == "disk":
        size, on_ray = region.radius, _dist_to_ray(region.center) <= region.radius
    else:
        size = 0.5 * min(region.re_hi - region.re_lo, region.im_hi - region.im_lo)
        on_ray = region.re_hi >= 0 and region.im_lo <= 0 <= region.im_hi
    if on_ray:
        raise _UsageError("region must stay off the essential spectrum [0, inf)")
    if size < _MIN_REGION * region.scale:
        raise _UsageError(f"region radius or half side {size:.3g} is below {_MIN_REGION:g} "
                          f"of its scale {region.scale:.3g}, where no contour settles")
    return region


def _parse_region(args) -> Region:
    """The ``--disk`` or ``--region`` of ``spectrum`` and ``check``, through ``_walkable``."""
    spec = args.disk or args.region
    if not spec:
        raise _UsageError("provide --region or --disk")
    parts = [float(v) for v in spec.split(",")]
    if args.disk:
        if len(parts) != 3:
            raise _UsageError("--disk wants cx,cy,radius")
        return _walkable(Region.disk(complex(parts[0], parts[1]), parts[2]))
    if len(parts) != 4:
        raise _UsageError("--region wants re_lo,re_hi,im_lo,im_hi")
    return _walkable(Region.rectangle(*parts))


def _parse_L(spec: str, eta0: float):
    """The SeparationSequence of 'values:1,2,4' | 'power:alpha' | 'geometric'."""
    from .sparse_builder import SeparationSequence
    if spec.startswith("values:"):
        vals = [float(v) for v in spec[len("values:"):].split(",")]
        return SeparationSequence(values=vals, eta0=eta0)
    if spec.startswith("power:"):
        alpha = float(spec[len("power:"):])
        return SeparationSequence(
            rule=lambda k: float(k) ** alpha, eta0=eta0, convex_increments=(alpha >= 1.0))
    if spec == "geometric":
        return SeparationSequence(rule=lambda k: 2.0 ** k, eta0=eta0, convex_increments=True)
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


def _csv(header, rows) -> str:
    """The CSV text of every command: the header line, then one line per row,
    Python ints as they are and every other number through ``_fmt``."""
    lines = [",".join(header)]
    lines += [",".join(str(v) if isinstance(v, int) else _fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    """The JSON text of every command's report and potential files."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _located(args):
    """(potential, ``locate_zeros`` report) for ``--potential`` in ``--region``/``--disk``."""
    with open(args.potential, "r", encoding="utf-8") as fh:
        pot = PiecewisePotential.from_json(fh.read())
    return pot, locate_zeros(make_secular_handle(pot), _parse_region(args))


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
    _write(os.path.join(args.out, "bump_report.json"), _json(out))
    pot = PiecewisePotential.from_bumps([bump])
    _write(os.path.join(args.out, "potential.json"), _json(pot.to_dict()))
    if args.svg:
        from . import _svg
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


def cmd_spectrum(args) -> int:
    _pot, report = _located(args)  # zeros sorted by (re, im)
    rows = [(z.location.real, z.location.imag, z.multiplicity, z.residual) for z in report.zeros]
    _emit(args.out, _csv(("re", "im", "multiplicity", "residual"), rows))
    print(f"winding_total={report.winding_total} complete={report.complete}")
    return EXIT_OK


def cmd_imag_step(args) -> int:
    try:
        n_values = [int(v) for v in args.N.split(",")]
    except ValueError:
        raise _UsageError(f"--N takes a comma list of integers >= 8, got {args.N!r}")
    rows, points, colors, boxes = [], [], [], []
    # every N and --c-box checked, and every census taken, before any output
    for cen in imag_step_census(n_values, args.c_box):
        rows.append(cen.table_row())
        if args.svg:  # red: the counted energies; grey: unconverged, could lie in the box
            points += [*cen.energies, *(r.energy for r in cen.uncertified)]
            colors += ["#d62728"] * cen.count + ["#aaaaaa"] * len(cen.uncertified)
            boxes.append((cen.box.re_lo, cen.box.re_hi, cen.box.im_lo, cen.box.im_hi))
        print(f"N={cen.N}: count={cen.count} ratio={_fmt(cen.ratio)}")
        if not cen.certified:
            print(f"N={cen.N}: {len(cen.uncertified)} unconverged branch(es) could lie in the box; "
                  "count not certified", file=sys.stderr)
    _emit(args.out, _csv(rows[0], (row.values() for row in rows)))
    if args.svg:
        from . import _svg
        _write(args.svg, _svg.scatter_svg(points, colors, boxes, title="imag-step census"))
    return EXIT_OK


def cmd_sparse(args) -> int:
    from .sparse_builder import EnvelopeParams, TargetSequence, assemble_sparse, choose_L
    if not 0.0 < args.delta < float("inf"):
        raise _UsageError(f"--delta must be finite and > 0, got {args.delta}")
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
        _write(os.path.join(args.out, "potential.json"), _json(asm.potential.to_dict()))
        handle = make_secular_handle(asm.potential)
        verification = []
        for zeta in zetas:
            entry = {"zeta": [zeta.real, zeta.imag], "delta": args.delta, "found": None, "zeros": []}
            verification.append(entry)
            try:
                disk = _walkable(Region.disk(zeta, args.delta))
            except ValueError as exc:  # no contour can settle on the disk
                print(f"D({zeta}, {args.delta}): not verified, {exc}", file=sys.stderr)
                continue
            found = locate_zeros(handle, disk)
            entry["found"] = found.winding_total
            entry["zeros"] = [[z.location.real, z.location.imag] for z in found.zeros]
            print(f"D({zeta}, {args.delta}): found {found.winding_total} eigenvalue(s)")
        report["verification"] = verification
    _write(os.path.join(args.out, "sparse_report.json"), _json(report))
    return EXIT_OK


def cmd_envelopes(args) -> int:
    from .sparse_builder import EnvelopeParams, M_pq, M_pq_L, h_L, kappa_tilde, omega_q, s_of_L_z, sep
    z = parse_complex(args.z)
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
    _emit(args.out, _csv(row, [row.values()]))
    return EXIT_OK


def cmd_check(args) -> int:
    from .sparse_builder import magnitude_check
    pot, report = _located(args)
    eigs = [z.location for z in report.zeros]
    rows = [(r.eigenvalue.real, r.eigenvalue.imag, r.lhs, r.rhs, r.ratio, int(r.flagged))
            for r in magnitude_check(eigs, pot, q=args.q, ceiling=args.ceiling)]
    _emit(args.out, _csv(("re", "im", "lhs", "rhs", "ratio", "flagged"), rows))
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
    except (SchemaError, OSError, json.JSONDecodeError, ValueError) as exc:
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
