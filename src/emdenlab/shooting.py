"""Radial shooting for -lap_p u = f(u) on model manifolds.

The radial equation is integrated in flux form with state (u, m),

    m = psi^{n-1} |u'|^{p-2} u',      m' = -psi^{n-1} f(u),
    u' = sign(m) |m / psi^{n-1}|^{1/(p-1)},

which keeps the degenerate operator integrable across u' = 0 and avoids
dividing by psi^{n-1} = 0 at the center.  Integration starts from a
series expansion on [0, r0], r0 = 1e-4:

    u(r)  ~ u0 - sign(f0) ((p-1)/p) (|f0|/n)^{1/(p-1)} r^{p/(p-1)}
    m(r)  ~ -f0 (r^n/n) (1 + model curvature correction),   f0 = f(u0),

then hands off to ``solve_ivp``, the DOP853 stepper of ``dop853``, at
the fixed tolerances RTOL = 1e-10 and ATOL = 1e-12 (the sphere scan's
atol is 1e-13).  The right-hand side is float arithmetic, one Python
frame that hands the reaction term's f the positive float |u| (the odd
extension inline), so a step makes no numpy call.  The solve stops at
the first downward zero crossing of u and fails closed; its dense
output is built only for the steps a radius is read in (the crossing
step, ``shoot``'s tail fit, ``RadialSolution`` queries).

The setup lives in one place, ``_integrate``: it checks u0 > 0 and
p > 1, clips the horizon to the model's domain and takes the series
start, and it judges that start (``_start_error``): a large u0 with a
fast-growing f squeezes the solution toward the center, and a solve
whose start passes on a relative error above START_ERROR_BOUND ends
with status -1.  So does a solve from u0 < atol / RTOL, whose error
control on u is absolute.  Its one result, ``_Solve``, holds the
accepted radii with their (u, m), the status with its reason, nfev and
the dense output; at status 1 the last radius is the crossing.  Its
callers only choose the horizon and read that result: ``solve_dense``
wraps the dense positive segment, and ``shoot`` and every cell of both
scans judge it with ``_classify``, whose outcome ``_cell`` turns into
the cell record both scans share (``_bv_single`` adds the pole flux).

``liouville_scan`` makes one solve per alpha row where it can, from the
row's largest u0.  On R^n with f = u^alpha the equation is invariant
under u(r) -> a u(a^c r), c = (alpha - p + 1)/p, so ``_read_off``
scales that solve to each smaller u0 (r / s, a u, s^{1-n} (a s)^{p-1} m
with s = a^c) and ``_classify`` judges the result at the cell's own
horizon, as ``shoot`` would.  A cell that solve does not cover, or whose
series start it would carry too coarsely, is solved directly; see
``_scan_row``.  Each cell's outcome, trajectory included, goes to an
optional per-cell hook.

Every scan report records that radial shooting witnesses nonexistence
only within the radial class; see ``RADIAL_WITNESS_NOTE``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dop853 import _Solve, solve_ivp
from .errors import DomainError, NumericalError, PreconditionError
from .exponents import ReactionTerm, critical_exponent, emden_bubble
from .geometry import ManifoldModel, euclidean, line_fit, sphere, unit_sphere_area
from .taylor import Grad, grad_abs_pow

__all__ = [
    "ShootOutcome",
    "RadialSolution",
    "shoot",
    "solve_dense",
    "liouville_scan",
    "bubble_match",
    "bv_sphere_scan",
    "RADIAL_WITNESS_NOTE",
]

RADIAL_WITNESS_NOTE = (
    "radial shooting witnesses existence/nonexistence within the radial "
    "class only; the theorems concern all positive solutions"
)

SERIES_RADIUS = 1e-4
#: the largest relative error a solve, or a scan cell read off one, may
#: take over from its series start (see _start_error)
START_ERROR_BOUND = 1e-8
#: the integrator's tolerances (the sphere scan's atol is _BV_ATOL)
RTOL, ATOL = 1e-10, 1e-12


def _warp_weight(model: ManifoldModel, n: int):
    """Scalar-fast psi(r)^{n-1} closure for the integrator hot loop."""
    if model.user_profile is not None:
        def generic(r):
            psi, _, _ = model.warping_jet(r)
            return psi ** (n - 1)

        return generic
    c = model.warp_c
    if c == 0:
        return lambda r: r ** (n - 1)
    sq = math.sqrt(abs(c))
    if c < 0:
        return lambda r: (math.sin(sq * r) / sq) ** (n - 1)
    return lambda r: (math.sinh(sq * r) / sq) ** (n - 1)


def _uprime(m, psi, n: int, p: float):
    """u' = sign(m) |m / psi^{n-1}|^{1/(p-1)} on arrays."""
    return np.sign(m) * np.abs(m / psi ** (n - 1)) ** (1.0 / (p - 1.0))


@dataclass(frozen=True)
class ShootOutcome:
    """Result of one shooting run.

    kind: "crossed_zero" | "stayed_positive" | "inconclusive"
    """

    kind: str
    r_cross: Optional[float] = None
    tail_exponent: Optional[float] = None
    reason: Optional[str] = None
    trajectory: dict = field(default_factory=dict, repr=False)
    stats: dict = field(default_factory=dict, repr=False)


class RadialSolution:
    """Dense radial solution with derivatives up to third order.

    u and m come from the integrator's dense output; u'' is recovered
    from the equation and u''' by analytically differentiating it (the
    dual tower does the differentiation; no finite differences).  Both
    are read only on the solved segment [r_lo, r_hi]: a radius outside
    it (or NaN) raises PreconditionError, where the dense output would
    extrapolate its end steps' interpolants.
    """

    def __init__(self, model: ManifoldModel, p: float, term: ReactionTerm,
                 sol, r_lo: float, r_hi: float):
        self.model = model
        self.p = p
        self.term = term
        self._sol = sol
        self.r_lo = r_lo
        self.r_hi = r_hi

    def state(self, r):
        """(u, m) at radii r in [r_lo, r_hi]."""
        r = np.asarray(r, dtype=float)
        if not np.all((r >= self.r_lo) & (r <= self.r_hi)):
            raise PreconditionError(
                f"radii must lie in the solved segment [{self.r_lo:g}, {self.r_hi:g}]")
        y = self._sol(r)
        return y[0], y[1]

    def jets(self, r):
        """(u, u', u'', u''') at radii r in [r_lo, r_hi]; requires
        |u'| > 0 there."""
        r = np.asarray(r, dtype=float)
        u, m = self.state(r)
        n, p = self.model.dim, self.p
        psi, dpsi, ddpsi = self.model.warping_jet(r)
        u1 = _uprime(m, psi, n, p)
        if np.any(u1 == 0):
            raise PreconditionError("solution jets need |u'| > 0 at the sample radii")
        # u'' from the equation, then u''' by seeding the dual tower
        ug = Grad(u, u1[:, None])
        cot = Grad(dpsi, ddpsi[:, None]) / Grad(psi, dpsi[:, None])
        fg = Grad(self.term(u), (self.term.deriv(u) * u1)[:, None])

        def u2_expr(u1g):
            return (-fg * grad_abs_pow(u1g, 2.0 - p) - (n - 1) * cot * u1g) / (
                p - 1.0
            )

        u2 = u2_expr(Grad(u1, np.zeros_like(u1)[:, None])).v
        u1g = Grad(u1, u2[:, None])
        u2g = u2_expr(u1g)
        return u, u1, u2g.v, u2g.d[:, 0]


def _series_start(model: ManifoldModel, p: float, term: ReactionTerm, u0: float,
                  r0: float):
    n = model.dim
    with np.errstate(all="ignore"):  # f(u0) past the floats: a non-finite start
        f0 = float(term(u0))
    c = model.warp_c
    try:
        drop = (p - 1.0) / p * (abs(f0) / n) ** (1.0 / (p - 1.0)) * r0 ** (p / (p - 1.0))
    except OverflowError:  # p < 2 and a huge f(u0): a non-finite start
        drop = math.inf
    u_r0 = u0 - math.copysign(drop, f0) if f0 != 0 else u0
    warp_integral = r0**n / n + (n - 1) * c * r0 ** (n + 2) / (6.0 * (n + 2))
    m_r0 = -f0 * warp_integral
    return u_r0, m_r0


def _radial_rhs(model: ManifoldModel, p: float, term: ReactionTerm):
    """(u', m') of the flux form at radius r, on plain floats."""
    n = model.dim
    warp = _warp_weight(model, n)
    f = term.f
    expo = 1.0 / (float(p) - 1.0)

    def rhs(r, u, m):
        try:
            w = warp(r)
            du = math.copysign(abs(m / w) ** expo, m) if m != 0 else 0.0
            # f on the odd extension, handed a positive Python float
            fu = float(f(u)) if u > 0 else -float(f(-u)) if u < 0 else 0.0
            return du, -w * fu
        except (OverflowError, ZeroDivisionError):  # float ** and / raise
            return math.nan, math.nan

    return rhs


def _integrate(model: ManifoldModel, p: float, term: ReactionTerm, u0: float,
               horizon: float, atol: Optional[float] = None) -> _Solve:
    """The one radial setup: check u0 > 0 and p > 1, then the series
    start at SERIES_RADIUS and solve_ivp on the flux form up to the
    horizon (clipped to the model's domain).  The tolerances are RTOL and
    ATOL, read at each call; the sphere scan passes its own atol.
    solve_ivp is looked up in this module's globals, so wrapping
    ``shooting.solve_ivp`` sees every radial solve (the tests and the
    benchmark's tracer count solves that way).  Every
    failure past these checks, the series start's included, is a solve
    with status -1 and a reason.  So is a solve from u0 < atol / RTOL,
    where the error control on u is absolute and its outcome is set by
    atol rather than by the equation, and a solve whose start error over
    the whole run (_start_error) exceeds START_ERROR_BOUND.
    """
    if u0 <= 0:
        raise PreconditionError("u0 must be positive")
    if p <= 1:
        raise PreconditionError("p must exceed 1")
    r_end = min(horizon, model.r_max - SERIES_RADIUS)
    if r_end <= SERIES_RADIUS:
        raise DomainError("horizon does not exceed the series start")
    atol = ATOL if atol is None else atol
    sol = solve_ivp(_radial_rhs(model, p, term), SERIES_RADIUS, r_end,
                    _series_start(model, p, term, u0, SERIES_RADIUS), RTOL, atol)
    if sol.status < 0:
        return sol
    if u0 * RTOL < atol:
        sol.status, sol.reason = -1, (
            f"u0 {u0:.3g} below atol/rtol {atol / RTOL:.3g}: "
            f"the error control on u is absolute")
        return sol
    error = _start_error(sol, u0, term, sol.r.size)
    if not error <= START_ERROR_BOUND:
        sol.status, sol.reason = -1, (
            f"series start error {error:.3g} exceeds {START_ERROR_BOUND:g}")
    return sol


def shoot(model: ManifoldModel, p: float, term: ReactionTerm, u0: float,
          horizon: float = 100.0) -> ShootOutcome:
    """Integrate the radial problem from the center and classify the run."""
    return _classify(model, p, term, _integrate(model, p, term, u0, horizon))


def _classify(model: ManifoldModel, p: float, term: ReactionTerm,
              sol: _Solve) -> ShootOutcome:
    """The outcome of a solve, direct or read off a row's solve: its flux
    flags, and on a positive end in R^n the tail exponent, the slope of
    ``line_fit`` through (ln r, ln u) at 48 radii of the dense output
    over the last decade of radii.  The tail is None where u is not
    positive on them, and where the solve ends by 2 SERIES_RADIUS, with
    no tail radii past the series start."""
    stats = {"nfev": int(sol.nfev), "status": int(sol.status)}
    traj = {"r": sol.r, "u": sol.u, "m": sol.m}
    with np.errstate(all="ignore"):
        psi_t, _, _ = model.warping_jet(sol.r)
        traj["uprime"] = _uprime(sol.m, psi_t, model.dim, p)

    if term.sign_class in ("nonnegative", "positive"):
        m_traj = traj["m"]
        m_pos = m_traj[traj["u"] > 0]
        tol = 1e-9 * (np.abs(m_traj).max() + 1e-30)
        seen = m_pos.size > 0  # with no point u > 0 neither invariant is observed
        stats["flux_nonincreasing"] = bool(np.all(np.diff(m_pos) <= tol)) if seen else None
        stats["flux_nonpositive"] = bool(np.all(m_pos <= tol)) if seen else None

    outcome = functools.partial(ShootOutcome, trajectory=traj, stats=stats)
    if sol.status == 1:
        return outcome("crossed_zero", r_cross=float(sol.r[-1]))
    if sol.status < 0:
        return outcome("inconclusive", reason=sol.reason)
    if float(sol.u[-1]) <= 0:
        return outcome("inconclusive",
                       reason="endpoint not positive without a located event")
    tail = None
    r_end = float(sol.r[-1])
    if model.r_max == math.inf and r_end > 2 * SERIES_RADIUS:
        r_tail = np.geomspace(max(r_end / 10.0, 2 * SERIES_RADIUS), r_end, 48)
        u_tail = sol.dense(r_tail)[0]
        if np.all(u_tail > 0):
            tail, _ = line_fit(np.log(r_tail), np.log(u_tail))
    return outcome("stayed_positive", tail_exponent=tail)


def solve_dense(model: ManifoldModel, p: float, term: ReactionTerm, u0: float,
                horizon: float) -> RadialSolution:
    """Shoot and wrap the dense positive segment, up to the crossing or
    the horizon, as a RadialSolution."""
    sol = _integrate(model, p, term, u0, horizon)
    if sol.status < 0:
        raise NumericalError(f"dense solve failed: {sol.reason}")
    return RadialSolution(model, p, term, sol.dense, SERIES_RADIUS, float(sol.r[-1]))


# ----------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------


def _start_error(sol: _Solve, u0: float, term: ReactionTerm, i: int) -> float:
    """The relative error that the series start of the solve ``sol`` from
    u0 passes on to its points before index i:
    |alpha| drop max(drop, |m(r0) / m(r_{i-1})|), where drop =
    1 - u(r0)/u0 is the start's drop in u, r0 = SERIES_RADIUS and
    alpha = u0 f'(u0) / f(u0) is f's local exponent at u0 (alpha itself
    for f = u^alpha).  The series holds f at f(u0) over [0, r0], and f
    changes there by about alpha drop relative to f(u0): so the error is
    about |alpha| drop^2 in u and |alpha| drop in m(r0), an error in m
    that the flux integral outgrows.  Where f(u0) = 0 the start is exact
    and the error is 0.  It is inf where m(r_{i-1}) = 0 and NaN where
    the state or alpha is.
    """
    with np.errstate(all="ignore"):  # an alpha past the floats: a NaN error
        f0 = float(term(u0))
        if f0 == 0.0:
            return 0.0
        alpha = u0 * float(term.deriv(u0)) / f0
    drop = 1.0 - float(sol.u[0]) / u0
    m_start, m_seen = abs(float(sol.m[0])), abs(float(sol.m[i - 1]))
    if m_seen == 0.0:
        return math.inf
    # a NaN ratio goes first: max keeps its first argument on a NaN
    return abs(alpha) * drop * max(m_start / m_seen, drop)


def _read_off(base: _Solve, u0_b: float, u0: float, n: int, p: float,
              alpha: float, term: ReactionTerm, r_end: float) -> Optional[_Solve]:
    """The solve from u0 = a u0_b on R^n, f = u^alpha (``term``), up to
    r_end, read off the solve ``base`` from u0_b, or None where it cannot
    be.

    u_a(r) = a u_b(s r) with s = a^c, c = (alpha - p + 1)/p, solves the
    same equation, and its flux is m_a(r) = s^{1-n} (a s)^{p-1} m_b(s r).
    So the cell's horizon r_end sits at the base radius cut = s r_end.
    The cell is read off only where cut lies past 2 SERIES_RADIUS and the
    base solve covers it: it crossed zero at or before cut (status 1, the
    crossing scaled) or its accepted radii reach cut (status 0, the base
    points up to cut and one interpolated point at cut, which becomes
    r_end).  So a read-off solve never fails; its nfev is the base's.
    A scale past the floats (a at 0, or a flux scale that is not a
    finite positive float) gives None too.

    The cell also takes over the base's series start, which sits at its
    radius SERIES_RADIUS / s.  So the cell is read off only where the
    base's start error up to cut (_start_error) is at most
    START_ERROR_BOUND, which the base met only over its whole run.
    """
    a = u0 / u0_b
    try:
        s = a ** ((alpha - p + 1.0) / p)
        k = s ** (1 - n) * (a * s) ** (p - 1.0)
    except (OverflowError, ZeroDivisionError):  # s past the floats, or a = 0
        return None
    cut = s * r_end
    crossed = base.status == 1 and base.r[-1] <= cut
    if not (cut > 2 * SERIES_RADIUS and (crossed or cut <= base.r[-1])):
        return None
    if not 0.0 < k < math.inf:  # a flux scale past the floats
        return None
    i = base.r.size if crossed else int(np.searchsorted(base.r, cut, side="right"))
    if not _start_error(base, u0_b, term, i) <= START_ERROR_BOUND:
        return None
    r, u, m = base.r[:i] / s, a * base.u[:i], k * base.m[:i]

    def dense(radii):  # the base's dense output, scaled the same way
        u_b, m_b = base.dense(np.asarray(radii, dtype=float) * s)
        return np.stack((a * u_b, k * m_b))

    if not crossed:
        if base.r[i - 1] < cut:
            u_cut, m_cut = dense(r_end)
            r, u, m = np.append(r, 0.0), np.append(u, u_cut), np.append(m, m_cut)
        r[-1] = r_end
    return _Solve(r=r, u=u, m=m, status=1 if crossed else 0, reason=None,
                  nfev=base.nfev, dense=dense)


def _cell(u0: float, run: Callable, **keys) -> tuple:
    """A cell of either radial scan: u0, outcome, reason, nfev and status
    from the ShootOutcome that ``run()`` returns, then the per-kind
    ``keys`` updated by the dict run returns with it.  An exception from
    run() is recorded as an ``error`` cell, its text under reason, with
    no outcome (None).  Returns the cell and the outcome."""
    try:
        out, read = run()
    except Exception as exc:  # record and continue, per cell
        return {"u0": u0, "outcome": "error", "reason": str(exc), "nfev": None,
                "status": None, **keys}, None
    return {"u0": u0, "outcome": out.kind, "reason": out.reason,
            "nfev": out.stats.get("nfev"), "status": out.stats.get("status"),
            **keys, **read}, out


def _scan_row(model, p, alpha, u0s, horizon):
    """One alpha row of the scan: per u0, in the order given, its table
    cell (see _cell) and its ShootOutcome (None for an error cell).

    The row solves its largest u0 and reads each smaller one off that
    solve (see _read_off), so the row's solve has the most digits above
    ATOL.  When alpha >= p - 1 a cell's horizon lies at a base radius
    s r_end <= r_end; when alpha < p - 1 it lies past r_end, so only a
    base that crossed zero covers it.  A cell that cannot be read off is
    solved directly and becomes the row's solve for the smaller u0 after
    it, unless it failed; cells with u0 not > 0 are solved directly
    (their error is _integrate's).  So every directly solved cell is
    shoot's own result.
    """
    term = ReactionTerm.pure_power(alpha)
    # the positive u0 from the largest down, then the rest in order
    order = sorted(range(len(u0s)), key=lambda i: -u0s[i] if u0s[i] > 0 else math.inf)
    row, base, base_u0 = [None] * len(u0s), None, None
    for i in order:
        u0 = u0s[i]
        sol = None
        if base is not None and u0 > 0:
            sol = _read_off(base, base_u0, u0, model.dim, p, alpha, term, horizon)
        source = None if sol is None else base_u0

        def run(u0=u0, sol=sol):
            nonlocal base, base_u0
            if sol is None:
                sol = _integrate(model, p, term, u0, horizon)
                if sol.status >= 0:
                    base, base_u0 = sol, u0
            out = _classify(model, p, term, sol)
            return out, {"r_cross": out.r_cross, "tail_exponent": out.tail_exponent}

        cell, out = _cell(u0, run, alpha=alpha, r_cross=None, tail_exponent=None)
        if source is not None:
            cell["from_u0"] = source
        row[i] = (cell, out)
    return row


def liouville_scan(n, p, alphas, u0s, horizon=100.0, on_cell=None):
    """Shooting table for pure powers across an (alpha, u0) grid on R^n.

    The expected dichotomy: every alpha below the critical exponent
    crosses zero at finite radius; at the critical exponent the run
    stays positive (the bubble family).  The table passes iff it has
    cells and each reads crossed_zero when alpha < p_s and
    stayed_positive otherwise; a cell adds alpha, r_cross and
    tail_exponent to _cell's keys.

    Each alpha row makes one solve where it can (see _scan_row): a cell
    read off another cell's solve by the scaling law names that cell's
    u0 as ``from_u0`` and reports that solve's nfev; a directly solved
    cell has no ``from_u0``.  Every cell is judged at its own horizon.

    ``on_cell(alpha, u0, outcome)``, if given, receives the ShootOutcome
    of every cell whose solve returned, in cell order.  It runs outside
    the per-cell error capture, so a failing hook propagates instead of
    being recorded as an error cell.
    """
    model = euclidean(n)
    ps = critical_exponent(n, p)
    u0s = [float(u0) for u0 in u0s]
    cells = []
    for alpha in map(float, alphas):
        for cell, out in _scan_row(model, p, alpha, u0s, horizon):
            cells.append(cell)
            if out is not None and on_cell is not None:
                on_cell(alpha, cell["u0"], out)
    return {
        "note": RADIAL_WITNESS_NOTE,
        "n": n,
        "p": p,
        "critical_exponent": ps,
        "horizon": horizon,
        "rtol": RTOL,
        "atol": ATOL,
        "cells": cells,
        "pass": bool(cells) and all(
            c["outcome"] == ("crossed_zero" if c["alpha"] < ps else "stayed_positive")
            for c in cells
        ),
    }


def bubble_match(n, p, lam, horizon=20.0) -> dict:
    """Shoot from the bubble's center value and compare with the closed form."""
    ps = critical_exponent(n, p)
    bubble = emden_bubble(n, p, lam)
    u0 = float(bubble(0.0))
    term = ReactionTerm.pure_power(ps)
    sol = solve_dense(euclidean(n), p, term, u0, horizon)
    r = np.linspace(SERIES_RADIUS, min(horizon, sol.r_hi), 600)
    u_num, _ = sol.state(r)
    u_ref = bubble(r)
    rel = np.abs(u_num - u_ref) / np.abs(u_ref)
    worst = int(np.argmax(rel))
    return {
        "identity_id": "bubble_trajectory_match",
        "samples": int(r.size),
        "max_rel_residual": float(rel.max()),
        "max_abs_residual": float(np.abs(u_num - u_ref).max()),
        "worst_case": {"r": float(r[worst]), "n": n, "p": p, "lam": lam},
        "tol": 1e-6,
        "pass": bool(rel.max() <= 1e-6),
    }


# ----------------------------------------------------------------------
# closed-manifold scan
# ----------------------------------------------------------------------

_ANTIPODAL_GAP = 1e-3
#: the sphere scan's absolute tolerance (its relative one is RTOL)
_BV_ATOL = 1e-13


def _bv_single(model, q, lam, u0) -> dict:
    """One pole-to-pole run as a sphere-scan cell (_cell), with the pole
    flux residual and min_u of a run that stayed positive, else None."""
    n = model.dim
    term = ReactionTerm.linear_minus_power(q, lam)

    def run():
        sol = _integrate(model, 2.0, term, u0, model.r_max - _ANTIPODAL_GAP,
                         atol=_BV_ATOL)
        out = _classify(model, 2.0, term, sol)
        if out.kind != "stayed_positive":
            return out, {}
        u_end, m_end = float(sol.u[-1]), float(sol.m[-1])
        # analytic tail correction: m(pi) ~ m_end - f(u_end) * gap^n / n
        m_pole = m_end - float(term(u_end)) * _ANTIPODAL_GAP**n / n
        # normalize by a flux scale that does not vanish at the constant
        # solution (the linear-term flux over the whole sphere), so the
        # normalized defect is continuous in u0 and changes sign there
        m_ref = lam * u0 * _sphere_warp_mass(n)
        return out, {"residual": m_pole / m_ref, "min_u": float(sol.u.min())}

    return _cell(u0, run, residual=None, min_u=None)[0]


def _sphere_warp_mass(n: int) -> float:
    """int_0^pi sin^{n-1} r dr, the scan's reference flux scale:
    |S^n| / |S^{n-1}|."""
    return unit_sphere_area(n + 1) / unit_sphere_area(n)


#: outside the theorem's hypotheses, a cell that stayed positive with a
#: pole flux residual within this is regular
_BV_RESIDUAL_TOL = 1e-6


def _sign_change(solve: Callable, grade: Callable, pos: float, neg: float) -> tuple:
    """Bisect u0 between pos and neg, whose cells ``solve(u0)`` have a
    positive and a negative ``grade(cell)``, until a midpoint grades
    exactly 0 or None or the bracket is narrower than 1e-10 max(1, |pos|).
    Returns (root, cell, grade, steps): the last midpoint, its cell and
    grade, and the number of midpoints solved."""
    for steps in itertools.count(1):
        root = 0.5 * (pos + neg)
        cell = solve(root)
        g = grade(cell)
        if g is None or g == 0:
            break
        pos, neg = (root, neg) if g > 0 else (pos, root)
        if abs(pos - neg) < 1e-10 * max(1.0, abs(pos)):
            break
    return root, cell, g, steps


def bv_sphere_scan(n, q, lam, u0_grid) -> dict:
    """Scan  lap u - lam u + u^q = 0  on the round unit sphere.

    Integrates from the north pole with the regular start u'(0) = 0 and
    tests antipodal regularity via the pole flux residual.  Sign changes
    of the residual between grid values of u(0) are bisected
    (_sign_change; ``bisection_roots`` gives each root, grade and steps);
    the hypothesis bounds (Ricci vs (n-1)(q-1) lam / n, and q vs the
    Sobolev bound) are evaluated and reported, and a run outside them is
    flagged but still performed (exploration mode).  Within the
    hypotheses a cell is regular only at residual exactly 0, so is every
    graded search root, and the scan passes iff the constant
    lam^{1/(q-1)} is the only regular value; outside them a cell within
    _BV_RESIDUAL_TOL is regular, and the scan is flagged and passes iff
    it has cells.  A cell without a grade (error or inconclusive), on the
    grid or at a search's root, fails the scan either way.
    """
    if q <= 1 or lam <= 0:
        raise PreconditionError("need q > 1 and lam > 0")
    model = sphere(n, 1.0)
    ric = model.ricci_min
    ric_needed = (n - 1) / n * (q - 1) * lam
    sobolev_bound = (n + 2) / (n - 2) if n > 2 else math.inf
    hyp = {
        "ricci_ok": ric >= ric_needed - 1e-12,
        "ricci_strict": ric > ric_needed + 1e-12,
        "exponent_ok": q <= sobolev_bound + 1e-12,
        "exponent_strict": q < sobolev_bound - 1e-12,
    }
    within = hyp["within_theorem"] = bool(
        hyp["ricci_ok"] and hyp["exponent_ok"]
        and (hyp["ricci_strict"] or hyp["exponent_strict"])
    )

    constant_value = lam ** (1.0 / (q - 1.0))
    cells = [_bv_single(model, q, lam, float(u0)) for u0 in u0_grid]

    # The normalized pole defect changes sign exactly at a regular
    # solution (crossed cells sit on the negative side: the trajectory
    # dove to zero), so bisection on the sign isolates it.
    def grade(cell):  # None on a cell that neither stayed positive nor crossed
        return {"stayed_positive": cell["residual"], "crossed_zero": -1.0}.get(
            cell["outcome"])

    # Nonconstant regular families (outside the hypotheses) leave the pole
    # flux at integrator noise, so there a small residual marks a cell as
    # regular.  Inside them only an exact zero or a search's graded root
    # does: near the constant the residual moves only about 0.27 per unit
    # of u0, so a residual of 1e-6 can lie 4e-6 from the root.
    residual_tol = 0.0 if within else _BV_RESIDUAL_TOL

    def regular(cell):
        return (cell["outcome"] == "stayed_positive" and cell["min_u"] > 0
                and abs(cell["residual"]) <= residual_tol)

    roots, searched = [], []  # each search's report and its root's cell
    for left, right in zip(cells, cells[1:]):
        ga, gb = grade(left), grade(right)
        if (ga is None or gb is None or (ga > 0) == (gb > 0)
                or min(abs(ga), abs(gb)) <= residual_tol):  # an end already regular
            continue
        pos, neg = (left, right) if ga > 0 else (right, left)
        root, cell, g, steps = _sign_change(
            lambda u0: _bv_single(model, q, lam, u0), grade, pos["u0"], neg["u0"])
        roots.append({"u0": root, "grade": g, "steps": steps})
        searched.append(cell)
    graded = None not in map(grade, cells + searched)

    found = [r["u0"] for r in roots if within and r["grade"] is not None]
    regular_all = []
    for val in sorted(found + [c["u0"] for c in cells + searched if regular(c)]):
        if not regular_all or abs(val - regular_all[-1]) > 1e-5 * (1.0 + abs(val)):
            regular_all.append(float(val))
    if within:
        unique = len(regular_all) == 1 and bool(
            abs(regular_all[0] - constant_value) <= 1e-6 * (1.0 + constant_value))
        verdict = {"pass": unique and graded}
    else:
        verdict = {"flag": "outside theorem hypotheses (exploration mode)",
                   "pass": bool(cells) and graded}
    return {
        "note": RADIAL_WITNESS_NOTE,
        "n": n,
        "q": q,
        "lam": lam,
        "hypotheses": hyp,
        "constant_value": constant_value,
        "cells": cells,
        "bisection_roots": roots,
        "regular_u0": [float(v) for v in regular_all],
        "nonconstant_regular_found": any(
            abs(v - constant_value) > 1e-4 * (1.0 + constant_value) for v in regular_all),
        "residual_tol": residual_tol,
        "rtol": RTOL,
        "atol": _BV_ATOL,
        **verdict,
    }
