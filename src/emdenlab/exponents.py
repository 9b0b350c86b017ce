"""Exponent landscape, reaction terms and the Liouville classifier.

The critical exponent for  -lap_p u = u^alpha  on an n-manifold is

    p_s = ((n+1) p - n) / (n - p)^+      (= +inf when p >= n),

below which no positive entire solution exists on nonnegative Ricci;
at p_s the explicit Emden bubble solves the equation on R^n.  This
module encodes p_s together with the subsidiary thresholds from the
surrounding literature, the subcriticality conditions on a reaction
term f, a decision procedure reproducing the Liouville theorems'
hypotheses, and the bubble with its pointwise residual.

The conditions on f are sampled, not proved: each is judged on the
fixed grid of 1200 geometric points in [1e-6, 1e6], and a reaction term
whose f or f' is not finite somewhere on that grid is rejected.

Infinite thresholds are genuine IEEE infinities (math.inf), never
sentinel magnitudes; comparisons against them are total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, PreconditionError, require_domain

__all__ = [
    "critical_exponent",
    "ExponentRecord",
    "threshold_table",
    "ReactionTerm",
    "is_subcritical",
    "satisfies_f2",
    "minimal_delta0",
    "GradientEstimateParams",
    "HarnackConfig",
    "classify_liouville",
    "LiouvilleVerdict",
    "emden_bubble",
    "emden_residual",
    "bubble_coefficient_audit",
]


def critical_exponent(n: int, p: float):
    """p_s = ((n+1)p - n)/(n-p)^+, +inf for p >= n."""
    require_domain((n,), (p,))
    if p >= n:
        return math.inf
    return ((n + 1) * p - n) / (n - p)


@dataclass(frozen=True)
class ExponentRecord:
    """One threshold: closed-form value plus its validity constraints."""

    name: str
    value: float
    validity: str
    valid: bool


def _pos_part_div(num: float, den: float) -> float:
    return num / den if den > 0 else math.inf


def threshold_table(n: int, p: float):
    """The six thresholds of the exponent landscape at (n, p).

    ps              ((n+1)p-n)/(n-p)^+          optimal nonexistence range
    wang_wei        (n+3)(p-1)/(n-1)            gradient-estimate range
    serrin_zou_ineq n(p-1)/(n-p)^+              differential-inequality range
    cheng_yau_li    (n+1)/(n-1)+2/sqrt(n(n-2))  semilinear (p=2) predecessor
    main3_ii        2((n+1)p-n)(p-1)/((n+1)p-2n)^+   growth-condition branch
    main2_C         2(p-1)^2(3p-2)/((4-3p)^+(2-p))   two-dimensional branch
    """
    require_domain((n,), (p,))
    records = [
        ExponentRecord("ps", critical_exponent(n, p), "n >= 2, p > 1", True),
        ExponentRecord(
            "wang_wei", (n + 3) * (p - 1) / (n - 1), "n >= 2, p > 1", True
        ),
        ExponentRecord(
            "serrin_zou_ineq",
            _pos_part_div(n * (p - 1), n - p),
            "differential inequality, p-1 < alpha",
            True,
        ),
        ExponentRecord(
            "cheng_yau_li",
            (n + 1) / (n - 1) + 2.0 / math.sqrt(n * (n - 2)) if n > 2 else math.inf,
            "p = 2, n > 2",
            p == 2 and n > 2,
        ),
        ExponentRecord(
            "main3_ii",
            _pos_part_div(2 * ((n + 1) * p - n) * (p - 1), (n + 1) * p - 2 * n),
            "p > n/2",
            p > n / 2,
        ),
        ExponentRecord(
            "main2_C",
            _pos_part_div(2 * (p - 1) ** 2 * (3 * p - 2), (4 - 3 * p) * (2 - p))
            if p < 2
            else math.inf,
            "n = 2, 1 < p < 2",
            n == 2 and 1 < p < 2,
        ),
    ]
    return records


# ----------------------------------------------------------------------
# reaction terms
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReactionTerm:
    """The nonlinearity f with its derivative f' and sign class.

    ``sign_class`` is one of nonnegative / positive / nonpositive /
    mixed.  The conditions on f below read only ``f`` and ``fprime``,
    sampled on one fixed grid.

    The constructors' ``f`` and ``fprime`` take an ndarray or a positive
    Python float.  Powers are written with ``**``, which is the
    ``np.power`` ufunc on an array and libm ``pow`` on a float, and the
    parameters are Python floats, so a float argument stays a float (the
    radial integrator calls f once per stage).
    """

    f: Callable
    fprime: Callable
    sign_class: str

    # -- constructors ---------------------------------------------------

    @staticmethod
    def pure_power(alpha: float) -> "ReactionTerm":
        alpha = float(alpha)
        return ReactionTerm(
            lambda t: t**alpha,
            lambda t: alpha * t ** (alpha - 1.0),
            "nonnegative" if alpha <= 0 else "positive",
        )

    @staticmethod
    def power_log(alpha: float, beta: float) -> "ReactionTerm":
        alpha, beta = float(alpha), float(beta)

        def f(t):
            return t**alpha * np.log1p(t) ** beta

        def fp(t):
            lg = np.log1p(t)
            return t ** (alpha - 1.0) * lg ** (beta - 1.0) * (
                alpha * lg + beta * t / (1.0 + t)
            )

        return ReactionTerm(
            f, fp, "nonnegative" if beta <= 0 or alpha > 0 else "mixed"
        )

    @staticmethod
    def two_power(alpha: float, a_coef: float, beta: float) -> "ReactionTerm":
        alpha, a_coef, beta = float(alpha), float(a_coef), float(beta)

        def f(t):
            return t**alpha + a_coef * t**beta

        def fp(t):
            return alpha * t ** (alpha - 1.0) + a_coef * beta * t ** (beta - 1.0)

        sign = "positive" if a_coef >= 0 and alpha > 0 and beta > 0 else "mixed"
        return ReactionTerm(f, fp, sign)

    @staticmethod
    def rational(alpha: float, beta: float) -> "ReactionTerm":
        alpha, beta = float(alpha), float(beta)

        def f(t):
            return t**alpha / (1.0 + t**beta)

        def fp(t):
            tb = t**beta
            return t ** (alpha - 1.0) * (alpha + (alpha - beta) * tb) / (
                1.0 + tb
            ) ** 2

        return ReactionTerm(f, fp, "positive" if alpha > 0 else "nonnegative")

    @staticmethod
    def linear_minus_power(q: float, lam: float) -> "ReactionTerm":
        """f(t) = t^q - lam t (the closed-manifold scan nonlinearity)."""
        q, lam = float(q), float(lam)
        return ReactionTerm(
            lambda t: t**q - lam * t,
            lambda t: q * t ** (q - 1.0) - lam,
            "mixed",
        )

    @staticmethod
    def zero() -> "ReactionTerm":
        z = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        return ReactionTerm(z, z, "nonnegative")

    # -- evaluation helpers ----------------------------------------------

    def __call__(self, t):
        return self.f(np.asarray(t, dtype=float))

    def deriv(self, t):
        return self.fprime(np.asarray(t, dtype=float))


# ----------------------------------------------------------------------
# subcriticality conditions
# ----------------------------------------------------------------------

#: every condition on f is judged on these t > 0 (read-only: the
#: reaction term's own closures receive this array)
_GRID = np.geomspace(1e-6, 1e6, 1200)
_GRID.setflags(write=False)
#: minimal_delta0 bisects on [_DELTA0_FLOOR, 1) down to this width
_DELTA0_FLOOR = -8.0
_DELTA0_TOL = 1e-9


def _on_grid(term: ReactionTerm):
    """f and f' on the grid, each evaluated once; non-finite values fail."""
    with np.errstate(all="ignore"):
        ft = term(_GRID)
        fpt = term.deriv(_GRID)
    if not (np.all(np.isfinite(ft)) and np.all(np.isfinite(fpt))):
        raise InputError("reaction term evaluator returned non-finite values")
    return ft, fpt


def _verdict(m, scale):
    """(ok, witness): a grid point fails where m < -1e-12 * scale, and
    the witness is the first failing t (None when ok)."""
    bad = m < -1e-12 * scale
    if np.any(bad):
        return False, float(_GRID[np.argmax(bad)])
    return True, None


def is_subcritical(term: ReactionTerm, alpha: float):
    """Grid verdict of  alpha f(t) - t f'(t) >= 0  for all t > 0.

    Returns (ok, witness) as _verdict does, with the margin measured
    against |alpha f| + |t f'|.  Raises InputError when f or f' is not
    finite somewhere on the grid.
    """
    ft, fpt = _on_grid(term)
    return _verdict(alpha * ft - _GRID * fpt, np.abs(alpha * ft) + np.abs(_GRID * fpt))


def _f2_verdict(ft, fpt, delta0: float, n: int, p: float):
    """The delta0-condition on the grid values of f and f'."""
    m = (p - 1.0) / (n - 1.0) * ((n + 1) * ft + 2.0 * delta0 * np.abs(ft)) - _GRID * fpt
    scale = np.abs(ft) * (n + 3) * (p - 1) / (n - 1) + np.abs(_GRID * fpt)
    return _verdict(m, scale)


def satisfies_f2(term: ReactionTerm, delta0: float, n: int, p: float):
    """Grid verdict of the delta0-condition; returns (ok, witness).
    delta0 and p are checked as GradientEstimateParams checks them."""
    GradientEstimateParams(delta0, p)
    return _f2_verdict(*_on_grid(term), delta0, n, p)


def minimal_delta0(term: ReactionTerm, n: int, p: float):
    """Least delta0 on a bisection grid making the condition hold.

    The condition is monotone in delta0 (the +2 delta0 |f| term), so
    bisection on [-8, 1) applies.  Returns the floor value when the
    condition already holds there, or None when it fails for every
    delta0 < 1.
    """
    ft, fpt = _on_grid(term)

    def holds(delta0):
        return _f2_verdict(ft, fpt, delta0, n, p)[0]

    hi = 1.0 - 1e-12
    if not holds(hi):
        return None
    lo = _DELTA0_FLOOR
    if holds(lo):
        return lo
    while hi - lo > _DELTA0_TOL:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class GradientEstimateParams:
    """delta0 < 1 plus the derived positive part and lambda floor."""

    delta0: float
    p: float

    def __post_init__(self):
        if self.delta0 >= 1:
            raise PreconditionError("delta0 must be < 1")
        if self.p <= 1:
            raise PreconditionError("p must exceed 1")

    @property
    def delta0_plus(self) -> float:
        return max(0.0, self.delta0)

    @property
    def lambda0(self) -> float:
        return self.p / (1.0 - self.delta0_plus)


@dataclass(frozen=True)
class HarnackConfig:
    """The admissible L^q window (0, (p-1) chi); chi is derived: the
    Sobolev exponent n/(n-p), or 2 when p >= n."""

    n: int
    p: float
    q: float = 1.0

    @property
    def chi(self) -> float:
        return self.n / (self.n - self.p) if self.p < self.n else 2.0

    def __post_init__(self):
        if not (0 < self.q < (self.p - 1.0) * self.chi):
            raise PreconditionError(
                f"q must lie in (0, {(self.p - 1.0) * self.chi}); got {self.q}"
            )


# ----------------------------------------------------------------------
# Liouville classifier
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LiouvilleVerdict:
    verdict: str  # no_positive_solution | constant_forced | out_of_range
    theorems: tuple  # every hypothesis set that fires, in precedence order
    notes: tuple = ()

    @property
    def theorem_tag(self):
        return self.theorems[0] if self.theorems else None


def classify_liouville(
    n: int,
    p: float,
    alpha: float,
    sign: str = "positive",
    pure_power: bool = False,
    negated_power: bool = False,
    has_liminf_growth: bool = False,
    compact: bool = False,
) -> LiouvilleVerdict:
    """Decision procedure over the Liouville theorems (nonnegative Ricci).

    Inputs describe f: its sign class, whether it is (minus) a pure
    power, and whether |f| grows at least like t^{p0-1} for some p0 > p.
    alpha is the declared subcritical exponent.  Returns the strongest
    conclusion plus every theorem tag whose hypotheses hold; theorems
    are tried in fixed precedence (pure-power nonexistence, then the
    positive-f cases, then growth cases, then the gradient-estimate
    window) and all firing tags are reported.
    """
    require_domain((n,), (p,))
    if sign not in ("nonnegative", "positive", "nonpositive", "mixed"):
        raise InputError(f"unknown sign class {sign!r}")
    if pure_power and negated_power:
        raise InputError("f cannot be both a pure power and its negation")
    if pure_power and sign == "nonpositive":
        raise InputError("a pure power t^alpha is not nonpositive")
    if pure_power and sign == "mixed":
        raise InputError("a pure power t^alpha is not of mixed sign")
    if negated_power and sign in ("positive", "nonnegative"):
        raise InputError("-t^alpha is not nonnegative")
    if negated_power and sign == "mixed":
        raise InputError("-t^alpha is not of mixed sign")

    ps = critical_exponent(n, p)
    tbl = {rec.name: rec for rec in threshold_table(n, p)}
    fired = []
    notes = []

    # pure-power nonexistence
    if pure_power and alpha < ps:
        fired.append(("2.1", "no_positive_solution"))
    if negated_power and alpha > p - 1 > 0:
        fired.append(("2.2", "no_positive_solution"))

    nonneg = sign in ("nonnegative", "positive")
    window = 0 < alpha < ps

    # positive f with structural dimension cases
    if sign == "positive" and window:
        if p >= n:
            fired.append(("2.6A", "constant_forced"))
        if 3 <= n < 2 * p < 2 * n:
            fired.append(("2.6B", "constant_forced"))
        if n == 2 and 1 < p < n and alpha < tbl["main2_C"].value:
            fired.append(("2.6C", "constant_forced"))

    # nonnegative f (noncompact statement)
    if nonneg and window and not compact:
        if p >= n:
            fired.append(("2.9I", "constant_forced"))
        if 3 <= n < 2 * p:
            fired.append(("2.9II", "constant_forced"))
        if n == 2 and p >= (1.0 + math.sqrt(17.0)) / 4.0:
            fired.append(("2.9III", "constant_forced"))
            if p >= 4.0 / 3.0:
                notes.append(
                    "n=2, p>=4/3: also inside the two-dimensional positive-f "
                    "case via the (4-3p)^+ = 0 convention"
                )
        if has_liminf_growth:
            fired.append(("2.9IV", "constant_forced"))

    # growth condition cases (any sign for (ii))
    if window and has_liminf_growth:
        if nonneg:
            fired.append(("2.8i", "constant_forced"))
        if p > n / 2 and alpha <= tbl["main3_ii"].value:
            fired.append(("2.8ii", "constant_forced"))

    # gradient-estimate window
    if p - 1 < alpha < tbl["wang_wei"].value:
        fired.append(("2.3", "constant_forced"))
    if nonneg and alpha < tbl["wang_wei"].value:
        fired.append(("cor2.1a", "constant_forced"))
    if sign == "nonpositive" and alpha > p - 1:
        fired.append(("cor2.1b", "constant_forced"))

    if not fired:
        if pure_power and alpha >= ps:
            notes.append("at or above the critical exponent: the bubble family exists")
        return LiouvilleVerdict("out_of_range", (), tuple(notes))
    verdict = (
        "no_positive_solution"
        if any(v == "no_positive_solution" for _, v in fired)
        else "constant_forced"
    )
    return LiouvilleVerdict(verdict, tuple(t for t, _ in fired), tuple(notes))


# ----------------------------------------------------------------------
# the Emden bubble
# ----------------------------------------------------------------------


def _bubble_constants(n: int, p: float, lam: float):
    if not (1 < p < n):
        raise PreconditionError("bubble requires 1 < p < n")
    if lam <= 0:
        raise PreconditionError("bubble scale must be positive")
    q = p / (p - 1.0)
    s = (n - p) / p
    top = (
        lam ** (1.0 / (p - 1.0))
        * n ** (1.0 / p)
        * ((n - p) / (p - 1.0)) ** ((p - 1.0) / p)
    )
    return q, s, top


def emden_bubble(n: int, p: float, lam: float = 1.0):
    """The explicit entire solution of -lap_p u = u^{p_s} on R^n.

    Returns a callable u(r) of the distance from the center.
    """
    q, s, top = _bubble_constants(n, p, lam)

    def u(r):
        r = np.asarray(r, dtype=float)
        return (top / (lam**q + r**q)) ** s

    return u


def emden_plaplacian(n: int, p: float, lam: float, r):
    """Radial p-Laplacian of the bubble; r = 0 via the analytic limit.

    With v = lam^q + r^q, (p-1) u'' + (n-1) u'/r is
    s q top^s v^{-s-2} r^{q-2} [(p-1)((s+1) q r^q - (q-1) v) - (n-1) v],
    and (p-1)(q-1) = 1, (s+1) p = n reduce the bracket to -n lam^q.  The
    closed form avoids subtracting the two large terms.
    """
    q, s, top = _bubble_constants(n, p, lam)
    r = np.asarray(r, dtype=float)
    v = lam**q + r**q
    with np.errstate(divide="ignore", invalid="ignore"):
        du = -s * top**s * v ** (-s - 1.0) * q * r ** (q - 1.0)
        radial = -n * lam**q * s * q * top**s * v ** (-s - 2.0) * r ** (q - 2.0)
        out = np.abs(du) ** (p - 2.0) * radial
    # r -> 0: u' ~ -C r^{q-1} with C = s q top^s lam^{-q(s+1)} and
    # lap_p u -> -n C^{p-1}
    C = s * q * top**s * lam ** (-q * (s + 1.0))
    limit = -n * C ** (p - 1.0)
    return np.where(r > 0, out, limit)


def _residual_record(identity_id: str, r, value, ref, tol: float, **case) -> dict:
    """A bubble check's record of value against ref on the radii r: the
    worst |value - ref| / |ref| with its radius (and ``case``), the worst
    |value - ref|, the tolerance and the pass flag."""
    diff = np.abs(value - ref)
    rel = diff / np.abs(ref)
    worst = int(np.argmax(rel))
    return {
        "identity_id": identity_id,
        "samples": int(r.size),
        "max_rel_residual": float(rel.max()),
        "max_abs_residual": float(diff.max()),
        "worst_case": {"r": float(r[worst]), **case},
        "tol": tol,
        "pass": bool(rel.max() <= tol),
    }


def emden_residual(n: int, p: float, lam: float, r_grid) -> dict:
    """Pointwise |lap_p u + u^{p_s}| / u^{p_s} of the bubble on a grid."""
    ps = critical_exponent(n, p)
    r = np.asarray(r_grid, dtype=float)
    return _residual_record("emden_bubble_residual", r, emden_plaplacian(n, p, lam, r),
                            -emden_bubble(n, p, lam)(r) ** ps, 1e-8, n=n, p=p, lam=lam)


def bubble_coefficient_audit(n: int, p) -> dict:
    """Exact algebraic check that the gradient-power coefficient vanishes
    at alpha = p_s.

    Uses rational arithmetic, so the zero is exact, not sampled: with
    a = (n-1) p alpha / ((n+1)p - n) the |grad u|^{2p} coefficient carries
    the factor 1 - (n-p) alpha / ((n+1)p - n), which vanishes iff
    alpha = ((n+1)p - n)/(n-p).
    """
    from fractions import Fraction  # loads decimal: kept off the module import

    pf = Fraction(p).limit_denominator(10**9) if not isinstance(p, Fraction) else p
    nf = Fraction(n)
    if pf >= nf:
        raise PreconditionError("exact audit needs p < n")
    big_q = (nf + 1) * pf - nf
    alpha = big_q / (nf - pf)
    factor = 1 - (nf - pf) * alpha / big_q
    special_a = (nf - 1) * pf * alpha / big_q
    special_b = -nf * (pf - 1) * alpha / big_q
    mixed = nf * (pf - 1) * special_a + (nf - 1) * pf * special_b
    return {
        "alpha_critical": alpha,
        "grad2p_factor": factor,
        "grad2p_factor_is_zero": factor == 0,
        "mixed_divergence_coefficient": mixed,
        "mixed_vanishes": mixed == 0,
    }
