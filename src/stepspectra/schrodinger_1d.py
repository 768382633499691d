"""Global secular function for piecewise-constant complex potentials on the line.

The global secular function imposes a decaying wave e^{-i*chi*x} left of all
supports, propagates (psi, psi') across the pieces by closed-form 2x2
matrices, and reads off the coefficient of the non-decaying exterior solution
on the right, normalized so the free potential gives identically 1.  Zeros in
{Im sqrt(E) > 0} are exactly the eigenvalues.

The sweep runs in float64 with log scaling, the standard remedy for
exponential dichotomy in shooting methods (Pryce, *Numerical Solution of
Sturm-Liouville Problems*, OUP 1993).  A piece matrix of phase w = k*width is
factored by e^{|Im w|} and built from e^{+-iw - |Im w|}, with sin(w)/w taken
directly only below |w| = 1/2, in both the scalar and the array sweep; the state is
renormalized after every piece and its log-norm accumulated; the log-norm
meets the exterior factor e^{i*chi*span} in one final exp.  The propagated
solution is the one that grows to the right, so long gaps cost no accuracy.
A value beyond float range raises ``UnsupportedDomainError``.
"""

from __future__ import annotations

import cmath
import json
import math
import sys

import numpy as np

from .errors import SchemaError, UnsupportedDomainError
from .special_functions import sqrt_upper

_LOG_MAX = math.log(sys.float_info.max)
_LOG_MIN = math.log(sys.float_info.min)


class PiecewisePotential:
    """Sorted disjoint intervals with complex values; zero elsewhere."""

    def __init__(self, pieces):
        cleaned = []
        for idx, piece in enumerate(pieces):
            a, b, v = piece
            a, b, v = float(a), float(b), complex(v)
            if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
                raise SchemaError(f"piece {idx}: need finite a < b, got ({a}, {b})", index=idx)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise SchemaError(f"piece {idx}: non-finite value {v!r}", index=idx)
            cleaned.append((a, b, v))
        for idx in range(1, len(cleaned)):
            if cleaned[idx][0] < cleaned[idx - 1][1]:
                raise SchemaError(
                    f"piece {idx} overlaps or is out of order with piece {idx - 1}",
                    index=idx,
                )
        self.pieces = tuple(cleaned)

    def __eq__(self, other) -> bool:
        return isinstance(other, PiecewisePotential) and self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __repr__(self) -> str:
        return f"PiecewisePotential({list(self.pieces)!r})"

    @classmethod
    def from_bumps(cls, bumps) -> "PiecewisePotential":
        pieces = []
        for bump in sorted(bumps, key=lambda s: s.center):
            lo, hi = bump.support
            pieces.append((lo, hi, bump.v0))
        return cls(pieces)

    # -- JSON schema: {"pieces":[{"a":..,"b":..,"re":..,"im":..},...]} --------

    def to_dict(self) -> dict:
        return {
            "pieces": [
                {"a": a, "b": b, "re": v.real, "im": v.imag} for a, b, v in self.pieces
            ]
        }

    @classmethod
    def from_dict(cls, data) -> "PiecewisePotential":
        if not isinstance(data, dict) or "pieces" not in data:
            raise SchemaError('potential JSON must be an object with a "pieces" array')
        raw = data["pieces"]
        if not isinstance(raw, list):
            raise SchemaError('"pieces" must be an array')
        pieces = []
        for idx, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise SchemaError(f"piece {idx}: expected an object", index=idx)
            missing = [k for k in ("a", "b", "re", "im") if k not in entry]
            if missing:
                raise SchemaError(f"piece {idx}: missing keys {missing}", index=idx)
            try:
                a = float(entry["a"])
                b = float(entry["b"])
                v = complex(float(entry["re"]), float(entry["im"]))
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"piece {idx}: non-numeric field ({exc})", index=idx)
            pieces.append((a, b, v))
        return cls(pieces)

    @classmethod
    def from_json(cls, text: str) -> "PiecewisePotential":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}")
        return cls.from_dict(data)


def _segments(pot: PiecewisePotential):
    """((width, value), ...) of the constant stretches across the support hull,
    gaps included with value 0, and the hull's length."""
    if not pot.pieces:
        return (), 0.0
    x = pot.pieces[0][0]
    out = []
    for a, b, v in pot.pieces:
        if a > x:
            out.append((a - x, 0j))
        out.append((b - a, v))
        x = b
    return tuple(out), x - pot.pieces[0][0]


def _piece(k2: complex, width: float):
    """(c, s, t): the propagator over ``width`` at k^2 = ``k2`` is e^t [[c, s], [-k2*s, c]],
    t = |Im w|, w = k*width, with c = (e^{iw-t} + e^{-iw-t})/2 and s = width*(e^{iw-t} -
    e^{-iw-t})/(2iw), or width*e^{-t}*sin(w)/w below |w| = 1/2, where that difference cancels."""
    w = cmath.sqrt(k2) * width
    t = abs(w.imag)
    ep, em = cmath.exp(1j * w - t), cmath.exp(-1j * w - t)
    if w.real * w.real + t * t < 0.25:  # |w| < 1/2 by the same float steps as _pieces
        sinc = cmath.sin(w) / w if abs(w) > 1e-8 else 1.0 - w * w / 6.0
        return 0.5 * (ep + em), width * math.exp(-t) * sinc, t
    return 0.5 * (ep + em), width * (ep - em) / (2j * w), t


def _pieces(k2, width):
    """``_piece`` over arrays, same formula and switch, ``k2`` and ``width`` broadcast.
    Call it under ``np.errstate(all="ignore")``: w = 0 and overflow give nan or inf."""
    w = np.sqrt(k2) * width
    t = np.abs(w.imag)
    ep, em = np.exp(1j * w - t), np.exp(-1j * w - t)
    s = width * (ep - em) / (2j * w)
    small = w.real * w.real + t * t < 0.25
    if np.logical_or.reduce(small, axis=None):
        ws, f = w[small], np.broadcast_to(width, w.shape)[small] * np.exp(-t[small])
        s[small] = f * np.where(np.abs(ws) > 1e-8, np.sin(ws) / ws, 1.0 - ws * ws / 6.0)
    return 0.5 * (ep + em), s, t


def _sweep(segments, E, psi, dpsi):
    """Carry the state (psi, psi') across ``segments``; return the final
    (psi, psi', log_scale), the true state being e^{log_scale} times it.  ``E`` is a
    complex, whose state is checked after every segment, or a 1-d array of them,
    whose failing nodes end as nan or inf for the caller to find."""
    scalar = isinstance(E, complex)
    piece, log = (_piece, math.log) if scalar else (_pieces, np.log)
    log_scale = 0.0
    for width, v in segments:
        k2 = E - v
        c, s, t = piece(k2, width)
        psi, dpsi = c * psi + s * dpsi, c * dpsi - k2 * s * psi
        norm = abs(psi) + abs(dpsi)
        if scalar and not 0.0 < norm < math.inf:
            raise UnsupportedDomainError(f"state left float range in the sweep at E = {E!r}")
        psi, dpsi = psi / norm, dpsi / norm
        log_scale += t + log(norm)
    return psi, dpsi, log_scale


def _secular(segments, span: float, E: complex) -> complex:
    """The global secular at E: the sweep from the decaying wave (1, -i*chi)."""
    if not segments:
        return 1.0 + 0j
    chi = sqrt_upper(E)
    if chi == 0:
        raise UnsupportedDomainError("the global secular function has a pole at E = 0")
    psi, dpsi, log_scale = _sweep(segments, E, 1.0 + 0j, -1j * chi)
    b_coeff = (1j * chi * psi - dpsi) / (2j * chi)
    return _rescaled(b_coeff, log_scale + 1j * chi * span, E)


def _secular_nodes(segments, span: float, E: np.ndarray) -> np.ndarray:
    """``_secular`` over a 1-d array of E in one numpy pass.  If any node fails a
    check of the scalar route (the pole at 0, a state out of float range, a value
    beyond it), the array goes through that route node by node, which raises its
    error for the first such node."""
    chi = np.sqrt(E)
    np.negative(chi, out=chi, where=chi.imag < 0.0)
    with np.errstate(all="ignore"):  # a failing node ends as nan or inf, found below
        psi, dpsi, log_scale = _sweep(segments, E, 1.0 + 0j, -1j * chi)
        b_coeff = (1j * chi * psi - dpsi) / (2j * chi)
        exponent = np.log(b_coeff) + (log_scale + 1j * chi * span)
        zero = b_coeff == 0
        in_range = (_LOG_MIN <= exponent.real) & (exponent.real < _LOG_MAX)
        if not np.logical_and.reduce(zero | (in_range & np.isfinite(exponent.imag))):
            return np.array([_secular(segments, span, x) for x in E.tolist()])
        return np.where(zero, 0j, np.exp(exponent))


def _rescaled(value: complex, log_factor: complex, E: complex) -> complex:
    """value * e^{log_factor}, formed in log space; ``UnsupportedDomainError``
    where its modulus leaves float range."""
    if value == 0:
        return 0j
    exponent = cmath.log(value) + log_factor
    if not (_LOG_MIN <= exponent.real < _LOG_MAX and math.isfinite(exponent.imag)):
        raise UnsupportedDomainError(
            f"|secular| = e^{exponent.real:.6g} at E = {E!r} leaves float range"
        )
    return cmath.exp(exponent)


def global_secular(pot: PiecewisePotential, E: complex) -> complex:
    """Coefficient of the non-decaying right exterior wave, free-normalized to 1.

    Analytic in E on the cut plane; zeros (with multiplicity) are the
    eigenvalues.  Raises ``UnsupportedDomainError`` at E = 0 and where the
    value leaves float range, above or below.
    """
    return _secular(*_segments(pot), complex(E))


def make_secular_handle(pot: PiecewisePotential):
    """E -> global_secular(pot, E) with the segments built once; a pure,
    thread-safe function handle.  Given a 1-d array of E it returns the array of
    values from one numpy pass (``vectorized``, see ``locate_zeros``); a scalar
    E takes the cmath route, which is cheaper for one point."""
    segments, span = _segments(pot)

    def handle(E):
        E = np.asarray(E, dtype=complex)
        return _secular_nodes(segments, span, E) if E.ndim else _secular(segments, span, complex(E))

    handle.vectorized = True
    return handle


# ---------------------------------------------------------------------------
# Eigenfunction reconstruction
# ---------------------------------------------------------------------------

def reconstruct_eigenfunction(
    pot: PiecewisePotential,
    E: complex,
    grid,
    tol: float = 1e-6,
):
    """Solution decaying to the left, evaluated on ``grid``, normalized on it.

    Requires |global_secular(pot, E)| < tol, so E must be an eigenvalue (or a
    deliberate quasi-eigenvalue with a loosened tolerance).  Right of the hull
    it is the outgoing wave psi(x1)*e^{i chi (x - x1)}: the incoming part, whose
    coefficient is the secular value, is dropped.  The returned array has unit
    discrete L2 norm on the grid.
    """
    E = complex(E)
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0)
            or not np.all(np.isfinite(grid))):
        raise ValueError("grid must be a strictly increasing 1-D array of finite points")
    segments, span = _segments(pot)
    fval = abs(_secular(segments, span, E))
    if fval >= tol:
        raise ValueError(
            f"E = {E!r} is not an eigenvalue at tolerance {tol:.2e} (|secular| = {fval:.3e})"
        )

    x0 = pot.pieces[0][0] if pot.pieces else 0.0
    edges = [x0]
    for width, _ in segments:
        edges.append(edges[-1] + width)

    chi = sqrt_upper(E)
    vals = np.empty(grid.shape, dtype=complex)
    logs = np.empty(grid.shape)
    cuts = [0, *np.searchsorted(grid, edges).tolist(), grid.size]
    # left of x0 the sweep's start state (1, -i chi) is the wave e^{-i chi (x - x0)}
    psi, dpsi, log_scale = 1.0 + 0j, -1j * chi, 0.0
    left = grid[:cuts[1]] - x0
    vals[:cuts[1]] = np.exp(-1j * chi.real * left)
    logs[:cuts[1]] = chi.imag * left
    # segment r from edges[r], then the sweep across it to the next start state
    for r, (_, v) in enumerate(segments):
        at = slice(cuts[r + 1], cuts[r + 2])
        with np.errstate(all="ignore"):
            c, s, t = _pieces(E - v, grid[at] - edges[r])
        vals[at] = c * psi + s * dpsi
        logs[at] = log_scale + t
        psi, dpsi, step = _sweep(segments[r:r + 1], E, psi, dpsi)
        log_scale += step
    # right of x1 = edges[-1] the outgoing wave from the final state's value
    right = grid[cuts[-2]:] - edges[-1]
    vals[cuts[-2]:] = psi * np.exp(1j * chi.real * right)
    logs[cuts[-2]:] = log_scale - chi.imag * right
    top = logs[vals != 0].max(initial=-math.inf)
    psi = vals * np.exp(logs - top) if top > -math.inf else vals

    norm = math.sqrt(float(np.trapezoid(np.abs(psi) ** 2, grid)))
    if norm == 0:
        raise ValueError("reconstructed solution vanished on the grid")
    return psi / norm
