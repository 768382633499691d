"""The sparse-potential construction pipeline and its scalar envelopes.

Validates a target eigenvalue sequence, evaluates the envelope functions
(omega_q, sep, h_L, M_pq, kappa_tilde), chooses the gap sequence, assembles
the potential from step bumps, and reports separation/decay diagnostics.

Faithful-mode gap lengths are astronomically large, so they are carried in
log space throughout; desk mode substitutes small practical constants to
produce potentials that fit in floating point and can be verified
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import NonSummableError, StepSpectraError, UnsupportedDomainError
from .schrodinger_1d import _LOG_MAX, PiecewisePotential
from .special_functions import _dist_to_ray, sqrt_upper
from .step_model import (SECTOR_APERTURE, BumpReport, _check_aperture, _check_sector, bump_norm_lq,
                         construct_bump)

DESK_DELTA_FLOOR = 1e-3
#: strong_separation_check accepts a ratio only below 1 minus this
_SEPARATION_MARGIN = 0.05


def _bracket(x: float) -> float:
    """Japanese bracket <x> = 2 + |x|."""
    return 2.0 + abs(x)


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

def _q_range_ok(d: int, q: float) -> bool:
    if d == 1:
        return 1.0 <= q <= math.inf
    if d == 2:
        return 1.0 < q <= math.inf
    return d / 2.0 <= q <= math.inf


@dataclass(frozen=True)
class TargetSequence:
    """Prescribed eigenvalues in the sector |Im z| <= sector_aperture * Re z, with
    Im zeta nonincreasing; the exponents of the construction are on EnvelopeParams."""

    zetas: tuple
    sector_aperture: float = SECTOR_APERTURE

    def __post_init__(self):
        _check_aperture(self.sector_aperture)  # before the loop, so an empty sequence checks it too
        zetas = tuple(complex(z) for z in self.zetas)
        object.__setattr__(self, "zetas", zetas)
        for idx, z in enumerate(zetas):
            try:
                _check_sector(z, self.sector_aperture)
            except ValueError as exc:
                raise ValueError(f"target {idx}: {exc}") from None
            if idx and z.imag > zetas[idx - 1].imag + 4.0 * math.ulp(zetas[idx - 1].imag):
                raise ValueError(
                    f"target {idx}: Im zeta must be nonincreasing along the sequence"
                )

    def __len__(self) -> int:
        return len(self.zetas)


@dataclass(frozen=True)
class EnvelopeParams:
    """Exponents and tunable constants of the envelope formulas and the gap choice.
    ``p`` defaults to its least admissible value 2*max(q, q_d)."""

    d: int = 1
    q: float = 2.0
    p: float | None = None
    alpha: float = 1.0
    gamma: float = 1.0
    big_o_constant: float = 1.25
    C_L: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if not _q_range_ok(self.d, self.q):
            raise ValueError(f"q = {self.q} outside the admissible range for d = {self.d}")
        p_min = 2.0 * max(self.q, self.q_d)
        if self.p is None:
            object.__setattr__(self, "p", p_min)
        elif self.p < p_min:
            raise ValueError(f"need p >= 2*max(q, q_d) = {p_min}, got {self.p}")
        for name in ("alpha", "gamma", "big_o_constant", "C_L"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def q_d(self) -> float:
        return (self.d + 1) / 2.0


# ---------------------------------------------------------------------------
# Separation sequences
# ---------------------------------------------------------------------------

class SeparationSequence:
    """Nondecreasing gap lengths, finite or rule-based (1-indexed).

    Rule-based sequences must declare ``convex_increments=True`` (increments
    nondecreasing) for the separation sum to carry a certified geometric
    tail bound.
    """

    def __init__(self, values=None, rule=None, eta0: float = 1.0, convex_increments: bool = False):
        if (values is None) == (rule is None):
            raise ValueError("provide exactly one of values or rule")
        if not eta0 > 0:
            raise ValueError("eta0 must be positive")
        self.eta0 = float(eta0)
        self.rule = rule
        self.convex_increments = bool(convex_increments)
        self.values = None
        if values is not None:
            vals = tuple(float(v) for v in values)
            if any(v <= 0 for v in vals):
                raise ValueError("gap lengths must be positive")
            if any(b < a for a, b in zip(vals[:-1], vals[1:])):
                raise ValueError("gap lengths must be nondecreasing")
            self.values = vals

    @property
    def finite(self) -> bool:
        return self.values is not None

    def L(self, k: int) -> float:
        """L_k, inf where the rule leaves float range."""
        if k < 1:
            raise IndexError("gap index is 1-based")
        if self.finite:
            if k > len(self.values):
                raise IndexError(f"index {k} beyond the {len(self.values)} stored gaps")
            return self.values[k - 1]
        try:
            return float(self.rule(k))
        except OverflowError:
            return math.inf


def sep(L: SeparationSequence, eta: float) -> float:
    """Separation sum  sum_k exp(-eta * L_k)  with a certified tail.

    For rule sequences the tail is bounded geometrically using the last
    observed increment, valid under the declared convex-increment property;
    the sum is truncated once the bound drops below 1e-15 of the partial sum.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    if L.finite:
        return sum(math.exp(-eta * v) for v in L.values)
    if not L.convex_increments:
        raise NonSummableError(
            "rule sequence lacks the convex-increment declaration; tail cannot be certified"
        )
    total = 0.0
    prev = None
    k = 1
    cap = 2 * 10**5
    while k <= cap:
        lk = L.L(k)
        if lk == math.inf:
            raise NonSummableError(
                f"gap {k} is beyond float range before the tail is certified "
                f"(partial sum {total:.6g})"
            )
        if prev is not None and lk < prev:
            raise ValueError(f"sequence decreases at index {k}")
        total += math.exp(-eta * lk)
        if prev is not None:
            inc = lk - prev
            r = math.exp(-eta * inc)
            gap = -math.expm1(-eta * inc)  # 1 - r, which stays exact where r rounds to 1
            if gap > 0:
                tail = math.exp(-eta * lk) * r / gap
                if tail <= 1e-15 * max(total, 1e-300):
                    return total
        prev = lk
        k += 1
    raise NonSummableError(
        f"no certified convergence after {cap} terms (first partial sum {total:.6g}); "
        "the sequence may be bounded"
    )


def h_L(L: SeparationSequence, s: float) -> int:
    """Count of gaps with eta0 * L_k <= 1/s (distribution function)."""
    if not s > 0:
        raise ValueError("s must be positive")
    threshold = (1.0 / s) / L.eta0  # s*eta0 may underflow to 0
    if L.finite:
        return sum(1 for v in L.values if v <= threshold)
    if L.L(1) > threshold:
        return 0
    # gallop then bisect on the monotone rule
    hi = 1
    while L.L(hi) <= threshold:
        hi *= 2
        if hi > 10**18:
            raise NonSummableError("h_L count exceeds 1e18; sequence may be bounded")
    lo = hi // 2  # L(lo) <= threshold < L(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if L.L(mid) <= threshold:
            lo = mid
        else:
            hi = mid
    return lo


def strong_separation_check(L: SeparationSequence, lambda_grid, s_grid) -> bool:
    """Finite-sample verdict on  limsup_{s->0} h_L(lambda*s) / (e*h_L(s)) < 1.

    True iff some lambda in the grid keeps the ratio below 1 - 0.05 on the
    tail (smallest third) of the descending s grid.  Heuristic by nature.
    """
    lambdas = [float(v) for v in lambda_grid]
    svals = [float(v) for v in s_grid]
    if not lambdas or not svals:
        raise ValueError("grids must be nonempty")
    if any(not 0 < lam < 1 for lam in lambdas):
        raise ValueError("lambda grid must lie in (0, 1)")
    if any(b >= a for a, b in zip(svals[:-1], svals[1:])):
        raise ValueError("s grid must be strictly descending")
    tail = svals[-max(3, len(svals) // 3):]
    for lam in lambdas:
        ok = True
        for s in tail:
            try:
                denom = h_L(L, s)
                if denom < 1:
                    ok = False
                    break
                ratio = h_L(L, lam * s) / (math.e * denom)
            except NonSummableError:
                # count not even representable: ratio certainly not < 1
                ok = False
                break
            if ratio >= 1.0 - _SEPARATION_MARGIN:
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# Envelope functions
# ---------------------------------------------------------------------------

def omega_q(z: complex, d: int, q: float) -> float:
    """Birman-Schwinger envelope weight: |z|^(d/2q-1) below q_d, distance-
    weighted |z|^(-1/2q) * d(z, R+)^(q_d/q - 1) above, inf where that leaves
    float range."""
    z = complex(z)
    if z.imag == 0 and z.real >= 0:
        raise ValueError("omega_q is undefined on [0, inf)")
    q_d = (d + 1) / 2.0
    if q <= q_d:
        return abs(z) ** (d / (2.0 * q) - 1.0)
    try:
        return abs(z) ** (-1.0 / (2.0 * q)) * _dist_to_ray(z) ** (q_d / q - 1.0)
    except OverflowError:  # d(z, R+) subnormal, q large
        return math.inf


def s_of_L_z(L: SeparationSequence, z: complex, d: int) -> float:
    """Separation sum at the spectral scale: sep(L, Im sqrt(z) / (d+1))."""
    eta = sqrt_upper(z).imag / (d + 1)
    if not eta > 0:
        raise ValueError(f"Im sqrt(z) must be positive, got z = {z!r}")
    return sep(L, eta)


def sequence_condition_value(t: TargetSequence, params: EnvelopeParams) -> float:
    """q-th root of  sum |zeta|^(d/2) |Im zeta|^(q-d) |log|Im zeta/zeta||^d."""
    d, q = params.d, params.q
    total = 0.0
    for z in t.zetas:
        ratio = abs(z.imag / z)
        total += abs(z) ** (d / 2.0) * abs(z.imag) ** (q - d) * abs(math.log(ratio)) ** d
    return total ** (1.0 / q)


def _neg_part(x: float) -> float:
    return max(-x, 0.0)


def M_pq(z: complex, params: EnvelopeParams, vnorm: float = 1.0) -> float:
    """Resolvent-envelope exponent (<z>/|Im z|)(<z>/|z|)^(5p(q_d/q-1)_- + 8) <omega>^p,
    inf where it leaves float range or Im z = 0."""
    z = complex(z)
    br_z = _bracket(abs(z))
    expo = 5.0 * params.p * _neg_part(params.q_d / params.q - 1.0) + 8.0
    omega = omega_q(z, params.d, params.q) * vnorm
    try:
        return (br_z / abs(z.imag)) * (br_z / abs(z)) ** expo * _bracket(omega) ** params.p
    except (OverflowError, ZeroDivisionError):
        return math.inf


def M_pq_L(z: complex, L: SeparationSequence, params: EnvelopeParams, vnorm: float = 1.0) -> float:
    """M_pq with the separation factor <s(L, (|z|/<z>)^5 z)>^(2p), inf where it leaves
    float range."""
    z = complex(z)
    m = M_pq(z, params, vnorm)
    if m == math.inf:
        return m  # the factor is at least 1, and its argument may underflow to 0
    shrunk = (abs(z) / _bracket(abs(z))) ** 5 * z
    try:
        return m * _bracket(s_of_L_z(L, shrunk, params.d)) ** (2.0 * params.p)
    except OverflowError:
        return math.inf


def kappa_alpha(params: EnvelopeParams) -> float:
    """Polynomial-rate exponent entering the gap power law."""
    d, q, p, alpha = params.d, params.q, params.p, params.alpha
    if not q > d:
        raise ValueError("kappa_alpha needs q > d")
    q_d = params.q_d
    return (
        1.0
        + 2.0 * (q - d) / d
        + 5.0 * p * (q_d / d - 1.0)
        + 8.0
        - p * ((q - d) / (d * q) + q_d / q - 1.0)
        + (2.0 * p / alpha) * (3.5 + (q - d) / d)
    )


def kappa_tilde(params: EnvelopeParams) -> float:
    """Gap power law exponent: max of the rate branch and the growth branch."""
    first = kappa_alpha(params) + params.gamma + 2.0 + (params.q - params.d) / params.d
    second = params.alpha * (params.d / 2.0 + params.q - 1.0)
    return max(first, second)


# ---------------------------------------------------------------------------
# Gap selection and assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapChoice:
    """Per-target chosen gap, carried in natural-log space."""

    log_L: float
    rule_rhs_log_L: float
    log10_delta: float

    @property
    def log10_L(self) -> float:
        return self.log_L / math.log(10.0)


@dataclass
class ChosenSeparation:
    gaps: list
    kappa_tilde: float
    resorted: bool = False

    @property
    def lengths(self) -> list:
        """The gap lengths L_n, inf where beyond float range."""
        return [math.exp(g.log_L) if g.log_L < 700.0 else math.inf for g in self.gaps]


def _log_delta(zeta: complex, gamma: float, mode: str) -> float:
    """log delta_n with the printed floor exp(-|Im zeta|^-gamma), -inf where its
    exponent leaves float range; desk mode additionally floors at DESK_DELTA_FLOOR."""
    try:
        faithful = -abs(zeta.imag) ** (-gamma)
    except OverflowError:
        faithful = -math.inf
    if mode == "desk":
        return max(faithful, math.log(DESK_DELTA_FLOOR))
    return faithful


def _a_term_log(zeta: complex) -> float:
    # eigenfunction-amplitude factor; the d = 1 exponent of the gap ratio
    # vanishes, leaving the |zeta|^(1/4) prefactor
    return 0.25 * math.log(abs(zeta))


def choose_L(t: TargetSequence, params: EnvelopeParams, mode: str = "desk") -> ChosenSeparation:
    """Gap sequence: power law C_L |Im zeta_n|^(-kappa_tilde) (faithful), then
    raised where the quasimode-separation rule demands more.

    The rule requires eta_n * L_n >= C * log(n log^2<n> * sup_j eps_j^-1 a_j
    * sup_i |V_i|); faithful mode takes log eps_j^-1 = O(1) M_pq(L, zeta_j)
    log(1/delta_j) evaluated with the pre-adjustment power-law gaps, desk
    mode replaces the M factor by the practical big-O constant.  All lengths
    live in natural-log space.  The power law needs q > d (:func:`kappa_alpha`).
    """
    if mode not in ("desk", "faithful"):
        raise ValueError(f"mode must be 'desk' or 'faithful', got {mode!r}")
    kt = kappa_tilde(params)
    n_targets = len(t)
    if n_targets == 0:
        return ChosenSeparation(gaps=[], kappa_tilde=kt)

    # envelope |V0| ~ 3 Im zeta from the bump construction
    sup_vnorm = 3.0 * max(z.imag for z in t.zetas)
    log_sup_vnorm = math.log(sup_vnorm)

    power_logs = []
    for z in t.zetas:
        val = math.log(params.C_L) + kt * math.log(1.0 / z.imag)
        if not math.isfinite(val):
            raise UnsupportedDomainError(f"log-space gap overflowed for target {z!r}")
        power_logs.append(val)
    prelim = None
    if mode == "faithful":
        # pre-adjustment gaps for the M_pq(L, .) factor, kept inside float range both ways
        prelim = SeparationSequence(
            values=sorted(math.exp(min(700.0, max(-700.0, v))) for v in power_logs))

    per_target = []  # (log separation needed by target n, log delta_n)
    running_log_eps_a = -math.inf
    for idx, z in enumerate(t.zetas, start=1):
        log_delta = _log_delta(z, params.gamma, mode)
        if mode == "faithful":
            m_val = M_pq_L(z, prelim, params, vnorm=sup_vnorm)
            log_eps_inv = params.big_o_constant * m_val * (-log_delta)
        else:
            log_eps_inv = params.big_o_constant * (-log_delta)
        running_log_eps_a = max(running_log_eps_a, log_eps_inv + _a_term_log(z))
        eta = sqrt_upper(z).imag
        rule_log_arg = (
            math.log(idx)
            + 2.0 * math.log(math.log(_bracket(idx)))
            + running_log_eps_a
            + log_sup_vnorm
        )
        rule_l = params.C_L * rule_log_arg / eta
        log_rule_l = math.log(rule_l) if rule_l > 0 else -math.inf
        if mode == "faithful":
            log_rule_l = max(power_logs[idx - 1], log_rule_l)
        if log_rule_l == math.inf:
            raise UnsupportedDomainError(f"gap rule overflowed in log space at target {idx}")
        if not math.isfinite(log_rule_l):
            # the log's argument is below 1, as for a tiny target's |V| and eps^-1 a
            raise UnsupportedDomainError(
                f"gap rule asks for no positive gap at target {idx}: its "
                f"log(n log^2<n> eps^-1 a |V|) = {rule_log_arg:.6g} is not positive")
        per_target.append((log_rule_l, log_delta))

    # gap n sits between bumps n and n+1 and must respect both neighbors'
    # separation demands: d(bump n, rest) = min(gap n-1, gap n) >= rule_n
    gaps = []
    for idx, (own, log_delta) in enumerate(per_target, start=1):
        neighbor = per_target[idx][0] if idx < n_targets else -math.inf
        gaps.append(GapChoice(log_L=max(own, neighbor), rule_rhs_log_L=own,
                              log10_delta=log_delta / math.log(10.0)))

    resorted = False
    for i in range(1, len(gaps)):
        if gaps[i].log_L < gaps[i - 1].log_L:
            resorted = True
            gaps[i] = replace(gaps[i], log_L=gaps[i - 1].log_L)
    return ChosenSeparation(gaps=gaps, kappa_tilde=kt, resorted=resorted)


@dataclass
class AssemblyResult:
    potential: PiecewisePotential
    bumps: list
    reports: list
    gaps: list
    sep_table: list
    sparsity_ratios: list
    decay_report: list
    norms: dict
    condition_value: float

    def to_dict(self) -> dict:
        return {
            "targets": [[r.achieved_eigenvalue.real, r.achieved_eigenvalue.imag] for r in self.reports],
            "per_target": [
                {
                    "zeta_re": r.achieved_eigenvalue.real,
                    "zeta_im": r.achieved_eigenvalue.imag,
                    "L_log10": (math.log10(g) if g > 0 else None),
                    "R": b.half_width,
                    "v0_re": b.v0.real,
                    "v0_im": b.v0.imag,
                    "x": b.center,
                    "residual": r.residual,
                }
                for r, b, g in zip(self.reports, self.bumps, self.gaps + [float("nan")])
            ],
            "norms": self.norms,
            "sep_table": self.sep_table,
            "sparsity_ratios": self.sparsity_ratios,
            "decay_report": self.decay_report,
            "condition_value": self.condition_value,
        }


def assemble_sparse(t: TargetSequence, params: EnvelopeParams, gaps) -> AssemblyResult:
    """Place the bumps left to right, the gap lengths ``gaps`` apart.

    x_1 = 0 and x_{n+1} = x_n + R_n + L_n + R_{n+1}, so consecutive supports
    are separated by exactly L_n = gaps[n-1]; lengths past the last bump
    (``ChosenSeparation.lengths`` has one per target) are unused.  Only
    meaningful in one dimension.
    """
    if params.d != 1:
        raise ValueError("assembly is one-dimensional; use d = 1")
    n_targets = len(t)
    gaps = [float(g) for g in gaps[: n_targets - 1]]  # gap k separates bump k and k+1
    if len(gaps) < n_targets - 1 or not all(0.0 < g < math.inf for g in gaps):
        raise ValueError(f"need {n_targets - 1} positive finite gap lengths, got {gaps}")

    reports: list[BumpReport] = []
    for idx, z in enumerate(t.zetas, start=1):
        try:
            reports.append(construct_bump(z, sector_aperture=t.sector_aperture))
        except StepSpectraError as exc:
            raise type(exc)(f"bump construction failed at target {idx} ({z!r}): {exc}") from exc

    bumps = []
    x = 0.0
    for idx, rep in enumerate(reports):
        if idx > 0:
            x = x + reports[idx - 1].bump.half_width + gaps[idx - 1] + rep.bump.half_width
        bumps.append(rep.bump.shifted(x))

    potential = PiecewisePotential.from_bumps(bumps)

    sep_table = []
    for z in t.zetas:
        eta = sqrt_upper(z).imag
        sep_table.append(
            {
                "zeta_re": z.real,
                "zeta_im": z.imag,
                "eta": eta,
                "sep": sum((math.exp(-eta * g) for g in gaps), 0.0),
            }
        )
    sparsity_ratios = [
        2.0 * bumps[k].half_width / gaps[k] for k in range(len(gaps))
    ]
    kt = kappa_tilde(params)
    decay_report = []
    for b in bumps:
        envelope = _bracket(b.center) ** (-1.0 / kt)
        decay_report.append(
            {
                "x": b.center,
                "abs_v": abs(b.v0),
                "envelope": envelope,
                "ratio": abs(b.v0) / envelope,
            }
        )
    norms = {f"L{q:g}": ell_p_lq_norm(bumps, q, q) for q in (1.0, 2.0, params.q, math.inf)}
    norms[f"l{params.p:g}L{params.q:g}"] = ell_p_lq_norm(bumps, params.p, params.q)
    return AssemblyResult(
        potential=potential,
        bumps=bumps,
        reports=reports,
        gaps=gaps,
        sep_table=sep_table,
        sparsity_ratios=sparsity_ratios,
        decay_report=decay_report,
        norms=norms,
        condition_value=sequence_condition_value(t, params),
    )


def ell_p_lq_norm(bumps, p: float, q: float) -> float:
    """Mixed norm (sum_j ||V_j||_q^p)^(1/p)."""
    norms = [bump_norm_lq(b, q) for b in bumps]
    top = max(norms, default=0.0)
    if p == math.inf:
        return top
    try:
        return sum(v ** p for v in norms) ** (1.0 / p)
    except OverflowError:  # a power leaves float range where the norm need not
        return top * sum((v / top) ** p for v in norms) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Magnitude bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MagnitudeRow:
    eigenvalue: complex
    lhs: float
    rhs: float
    ratio: float
    flagged: bool


def magnitude_check(eigs, pot: PiecewisePotential, q: float, ceiling: float | None = None):
    """Per-eigenvalue magnitude-bound ratios for separating potentials on the line.

    The pieces V_j of ``pot`` are intervals, so d = 1: the bound is
    omega_q(z, 1, q)^(-q) <= C sup_j ||V_j||_q^q for a finite q >= 1, the left side
    |z|^(1/2) d(z, R+)^(q - 1) and the right side the largest |v|^q * (b - a) of a piece.
    Rows whose ratio exceeds the ceiling are flagged.
    """
    if not 1.0 <= q < math.inf:
        raise ValueError(f"q must be finite and >= 1, got {q}")
    # both sides and the ratio in log space: beyond float range they read inf or 0
    log_rhs = max((q * math.log(abs(v)) + math.log(b - a) for a, b, v in pot.pieces if v),
                  default=None)
    if log_rhs is None:
        raise ValueError("the potential has no nonzero piece")

    def exp(x):
        return math.exp(x) if x < _LOG_MAX else math.inf

    rhs = exp(log_rhs)
    rows = []
    for z in map(complex, eigs):
        log_lhs = -q * math.log(omega_q(z, 1, q))
        ratio = exp(log_lhs - log_rhs)
        rows.append(MagnitudeRow(eigenvalue=z, lhs=exp(log_lhs), rhs=rhs, ratio=ratio,
                                 flagged=(ceiling is not None and ratio > ceiling)))
    return rows
