"""Global secular function for piecewise-constant complex potentials on the line.

The global secular function imposes a decaying wave e^{-i*chi*x} left of all
supports, propagates (psi, psi') across the pieces by closed-form 2x2
matrices, and reads off the coefficient of the non-decaying exterior solution
on the right, normalized so the free potential gives identically 1.  Zeros in
{Im sqrt(E) > 0} are exactly the eigenvalues.

The sweep runs in float64 with log scaling, the standard remedy for
exponential dichotomy in shooting methods (Pryce, *Numerical Solution of
Sturm-Liouville Problems*, OUP 1993).  A piece matrix of phase w = k*width is
factored by e^{|Im w|} and built from e^{+-iw - |Im w|} (below |Im w| = 1,
where the factor stays under e, from cos and sin directly); the state is
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

    def __len__(self) -> int:
        return len(self.pieces)

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

    def truncated(self, n: int) -> "PiecewisePotential":
        """Prefix truncation keeping the first n pieces."""
        return PiecewisePotential(self.pieces[:n])

    # -- JSON schema: {"pieces":[{"a":..,"b":..,"re":..,"im":..},...]} --------

    def to_dict(self) -> dict:
        return {
            "pieces": [
                {"a": a, "b": b, "re": v.real, "im": v.imag} for a, b, v in self.pieces
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

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
    """(c, s, log_factor): the propagator over ``width`` at k^2 = ``k2`` is
    e^{log_factor} * [[c, s], [-k2*s, c]], with c ~ cos(w), s ~ sin(w)/k."""
    w = cmath.sqrt(k2) * width
    t = abs(w.imag)
    if t < 1.0:
        # the factor would stay below e: cos/sin keep sin(w)/w accurate at small w
        sinc = cmath.sin(w) / w if abs(w) > 1e-8 else 1.0 - w * w / 6.0
        return cmath.cos(w), width * sinc, 0.0
    ep = cmath.exp(1j * w - t)
    em = cmath.exp(-1j * w - t)
    return 0.5 * (ep + em), width * (ep - em) / (2j * w), t


def _pieces(k2, width):
    """``_piece`` over arrays, ``k2`` and ``width`` broadcast against each other."""
    w = np.sqrt(k2) * width
    near = np.abs(w.imag) < 1.0
    t = np.where(near, 0.0, np.abs(w.imag))
    with np.errstate(all="ignore"):
        ep = np.exp(1j * w - t)
        em = np.exp(-1j * w - t)
        sinc = np.where(np.abs(w) > 1e-8, np.sin(w) / w, 1.0 - w * w / 6.0)
        c = np.where(near, np.cos(w), 0.5 * (ep + em))
        s = np.where(near, width * sinc, width * (ep - em) / (2j * w))
    return c, s, t


def _sweep(segments, E: complex, chi: complex, starts=None):
    """Carry (psi, psi') = (1, -i*chi) across ``segments``; return the final
    (psi, psi', log_scale), the true state being e^{log_scale} times it.

    If ``starts`` is a list, each segment's start state is appended to it in
    the same (psi, psi', log_scale) form.
    """
    psi, dpsi, log_scale = 1.0 + 0j, -1j * chi, 0.0
    for width, v in segments:
        if starts is not None:
            starts.append((psi, dpsi, log_scale))
        k2 = E - v
        c, s, t = _piece(k2, width)
        psi, dpsi = c * psi + s * dpsi, c * dpsi - k2 * s * psi
        norm = abs(psi) + abs(dpsi)
        if not 0.0 < norm < math.inf:
            raise UnsupportedDomainError(f"state left float range in the sweep at E = {E!r}")
        psi, dpsi = psi / norm, dpsi / norm
        log_scale += t + math.log(norm)
    return psi, dpsi, log_scale


def _secular(segments, span: float, E: complex, starts=None) -> complex:
    """The global secular at E.  If ``starts`` is a list, it gets each segment's
    start state, as from ``_sweep``, and then the final state."""
    if not segments:
        return 1.0 + 0j
    chi = sqrt_upper(E)
    if chi == 0:
        raise UnsupportedDomainError("the global secular function has a pole at E = 0")
    psi, dpsi, log_scale = _sweep(segments, E, chi, starts)
    if starts is not None:
        starts.append((psi, dpsi, log_scale))
    b_coeff = (1j * chi * psi - dpsi) / (2j * chi)
    return _rescaled(b_coeff, log_scale + 1j * chi * span, E)


def _secular_nodes(segments, span: float, E: np.ndarray) -> np.ndarray:
    """``_secular`` over a 1-d array of E in one numpy pass.  If any node fails a
    check of the scalar route (the pole at 0, a state out of float range, a value
    beyond it), the array goes through that route node by node, which raises its
    error for the first such node."""
    chi = np.sqrt(E)
    chi = np.where(chi.imag < 0.0, -chi, chi)
    psi, dpsi, log_scale = 1.0 + 0j, -1j * chi, 0.0
    with np.errstate(all="ignore"):  # a failing node ends as nan or inf, found below
        for width, v in segments:
            k2 = E - v
            c, s, t = _pieces(k2, width)
            psi, dpsi = c * psi + s * dpsi, c * dpsi - k2 * s * psi
            norm = np.abs(psi) + np.abs(dpsi)
            psi, dpsi = psi / norm, dpsi / norm
            log_scale += t + np.log(norm)
        b_coeff = (1j * chi * psi - dpsi) / (2j * chi)
        exponent = np.log(b_coeff) + (log_scale + 1j * chi * span)
        zero = b_coeff == 0
        if not np.all(zero | ((exponent.real < _LOG_MAX) & np.isfinite(exponent.imag))):
            return np.array([_secular(segments, span, x) for x in E.tolist()])
        return np.where(zero, 0j, np.exp(exponent))


def _rescaled(value: complex, log_factor: complex, E: complex) -> complex:
    """value * e^{log_factor}, formed in log space; ``UnsupportedDomainError``
    where its modulus leaves float range."""
    if value == 0:
        return 0j
    exponent = cmath.log(value) + log_factor
    if not (exponent.real < _LOG_MAX and math.isfinite(exponent.imag)):
        raise UnsupportedDomainError(
            f"|secular| = e^{exponent.real:.6g} at E = {E!r} exceeds float range"
        )
    return cmath.exp(exponent)


def global_secular(pot: PiecewisePotential, E: complex) -> complex:
    """Coefficient of the non-decaying right exterior wave, free-normalized to 1.

    Analytic in E on the cut plane; zeros (with multiplicity) are the
    eigenvalues.  Raises ``UnsupportedDomainError`` at E = 0 and where the
    value exceeds float range.
    """
    return _secular(*_segments(pot), complex(E))


def make_secular_handle(pot: PiecewisePotential):
    """E -> global_secular(pot, E) with the segments built once; a pure,
    thread-safe function handle.  Given a 1-d array of E it returns the array of
    values from one numpy pass (``vectorized``, see ``locate_zeros``); a scalar
    E takes the cmath route, which is cheaper for one point."""
    segments, span = _segments(pot)

    def handle(E):
        if np.ndim(E) == 0:
            return _secular(segments, span, complex(E))
        return _secular_nodes(segments, span, np.asarray(E, dtype=complex))

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
    deliberate quasi-eigenvalue with a loosened tolerance).  The returned
    array has unit discrete L2 norm on the grid.
    """
    E = complex(E)
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0)
            or not np.all(np.isfinite(grid))):
        raise ValueError("grid must be a strictly increasing 1-D array of finite points")
    segments, span = _segments(pot)
    # the left exterior, continued back from x0, then each segment's and the right
    # exterior's start state from the one sweep (without segments, the left's again)
    starts = [(1.0 + 0j, -1j * sqrt_upper(E), 0.0)] * (1 if segments else 2)
    fval = abs(_secular(segments, span, E, starts))
    if fval >= tol:
        raise ValueError(
            f"E = {E!r} is not an eigenvalue at tolerance {tol:.2e} (|secular| = {fval:.3e})"
        )

    x0 = pot.pieces[0][0] if pot.pieces else 0.0
    edges = [x0]
    for width, _ in segments:
        edges.append(edges[-1] + width)
    # stretch r of a grid point: 0 left of x0, len(edges) right of the hull
    anchors = [x0] + edges
    k2s = [E] + [E - v for _, v in segments] + [E]

    vals = np.empty(grid.shape, dtype=complex)
    logs = np.empty(grid.shape)
    cuts = [0, *np.searchsorted(grid, edges).tolist(), grid.size]
    for r, (p, dp, log_scale) in enumerate(starts):
        at = slice(cuts[r], cuts[r + 1])
        c, s, t = _pieces(k2s[r], grid[at] - anchors[r])
        vals[at] = c * p + s * dp
        logs[at] = log_scale + t
    top = logs[vals != 0].max(initial=-math.inf)
    psi = vals * np.exp(logs - top) if top > -math.inf else vals

    norm = math.sqrt(float(np.trapezoid(np.abs(psi) ** 2, grid)))
    if norm == 0:
        raise ValueError("reconstructed solution vanished on the grid")
    return psi / norm
