"""Radial shooting for -lap_p u = f(u) on model manifolds.

The radial equation is integrated in flux form with state (u, m),

    m = psi^{n-1} |u'|^{p-2} u',      m' = -psi^{n-1} f(u),
    u' = sign(m) |m / psi^{n-1}|^{1/(p-1)},

which keeps the degenerate operator integrable across u' = 0 and avoids
dividing by psi^{n-1} = 0 at the center.  Integration starts from a
series expansion on [0, r0], r0 = 1e-4:

    u(r)  ~ u0 - sign(f0) ((p-1)/p) (|f0|/n)^{1/(p-1)} r^{p/(p-1)}
    m(r)  ~ -f0 (r^n/n) (1 + model curvature correction),   f0 = f(u0),

then hands off to DOP853, the adaptive embedded Runge-Kutta method of
order 8, in ``solve_ivp``, at the fixed tolerances RTOL = 1e-10 and
ATOL = 1e-12 (the sphere scan's atol is 1e-13).  That stepper is
scipy's algorithm (its initial step, error norm and step-size control)
written for the two-component state on plain Python floats.  Its
tableau is a committed literal, the coefficients of Hairer, Norsett &
Wanner's dop853.f (Solving ODEs I, 1993), the same doubles scipy uses.
The stages are compiled once from that tableau, at the first solve:
``_compiled`` writes a step (its 11 stages and weight sums) and a
step's dense row as two straight-line functions, each sum in the
tableau's order, so a step reads no coefficient table.  The right-hand
side is float arithmetic too, one Python frame that hands the reaction
term's f the positive float |u| (the odd extension inline), so a step
makes no numpy call.  It stops
at the first downward zero crossing of u, located on that step's
interpolant by ``_brent``, a line-for-line port of scipy's C brentq,
and it fails closed: a non-finite start or state, a crossing that
cannot be located, a collapsed step and a fixed budget of steps each
end the solve with status -1 and a reason.  No scipy module is
imported.  The dense output is built lazily: a step's three extra
stages and interpolant rows are computed only when a radius in that
step is read (the crossing step, ``shoot``'s tail fit,
``RadialSolution`` queries).

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
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

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
    dual tower does the differentiation; no finite differences).
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
        r = np.asarray(r, dtype=float)
        y = self._sol(r)
        return y[0], y[1]

    def jets(self, r):
        """(u, u', u'', u''') at radii r; requires |u'| > 0 there."""
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


# ----------------------------------------------------------------------
# the DOP853 stepper
# ----------------------------------------------------------------------

# scipy.integrate's DOP853 step control and its too-small-step text
_EPS = sys.float_info.epsilon
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order 7 + 1)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
#: accepted steps before a solve ends with status -1; each step keeps its
#: stages for the dense output (about 1 kB), so this also bounds memory
_MAX_STEPS = 20_000


def _tableau():
    """DOP853's coefficients as literals, in the layout _compiled reads.

    The values are those of Hairer, Norsett & Wanner's dop853.f
    (Solving Ordinary Differential Equations I, 2nd ed., 1993), each
    written as the double nearest the 30-digit decimal there; an order-3
    error weight e3_j is b_j - bhh_j (dop853.f's bhh) rounded once, as
    scipy forms it.  They equal scipy's dop853_coefficients bit for bit
    (an oracle test checks this).  Returns (stages, weights, extra, dense);
    every row lists only its nonzero entries as (j, coefficient) over the
    stages K_j:
      stages  (c_s, row) for stages 1..11 of a step;
      weights (j, b_j, e5_j, e3_j): the new state and the two error
              estimates;
      extra   (c_s, row) for dense stages 13..15 (K_12 is f at the step's
              end);
      dense   the four rows of D that give the interpolant's F[3:].
    """
    return (
        (  # stages: (c_s, row)
            (0.05260015195876773, (
                (0, 0.05260015195876773),
            )),
            (0.0789002279381516, (
                (0, 0.0197250569845379), (1, 0.0591751709536137),
            )),
            (0.1183503419072274, (
                (0, 0.02958758547680685), (2, 0.08876275643042054),
            )),
            (0.2816496580927726, (
                (0, 0.2413651341592667), (2, -0.8845494793282861),
                (3, 0.924834003261792),
            )),
            (0.3333333333333333, (
                (0, 0.037037037037037035), (3, 0.17082860872947386),
                (4, 0.12546768756682242),
            )),
            (0.25, (
                (0, 0.037109375), (3, 0.17025221101954405),
                (4, 0.06021653898045596), (5, -0.017578125),
            )),
            (0.3076923076923077, (
                (0, 0.03709200011850479), (3, 0.17038392571223998),
                (4, 0.10726203044637328), (5, -0.015319437748624402),
                (6, 0.008273789163814023),
            )),
            (0.6512820512820513, (
                (0, 0.6241109587160757), (3, -3.3608926294469414),
                (4, -0.868219346841726), (5, 27.59209969944671),
                (6, 20.154067550477894), (7, -43.48988418106996),
            )),
            (0.6, (
                (0, 0.47766253643826434), (3, -2.4881146199716677),
                (4, -0.590290826836843), (5, 21.230051448181193),
                (6, 15.279233632882423), (7, -33.28821096898486),
                (8, -0.020331201708508627),
            )),
            (0.8571428571428571, (
                (0, -0.9371424300859873), (3, 5.186372428844064),
                (4, 1.0914373489967295), (5, -8.149787010746927),
                (6, -18.52006565999696), (7, 22.739487099350505),
                (8, 2.4936055526796523), (9, -3.0467644718982196),
            )),
            (1.0, (
                (0, 2.273310147516538), (3, -10.53449546673725),
                (4, -2.0008720582248625), (5, -17.9589318631188),
                (6, 27.94888452941996), (7, -2.8589982771350235),
                (8, -8.87285693353063), (9, 12.360567175794303),
                (10, 0.6433927460157636),
            )),
        ),
        (  # weights: (j, b_j, e5_j, e3_j)
            (0, 0.054293734116568765, 0.01312004499419488, -0.18980075407240762),
            (5, 4.450312892752409, -1.2251564463762044, 4.450312892752409),
            (6, 1.8915178993145003, -0.4957589496572502, 1.8915178993145003),
            (7, -5.801203960010585, 1.6643771824549864, -5.801203960010585),
            (8, 0.3111643669578199, -0.35032884874997366, -0.4226823213237919),
            (9, -0.1521609496625161, 0.3341791187130175, -0.1521609496625161),
            (10, 0.20136540080403034, 0.08192320648511571, 0.20136540080403034),
            (11, 0.04471061572777259, -0.022355307863886294, 0.02265179219836082),
        ),
        (  # extra: (c_s, row)
            (0.1, (
                (0, 0.056167502283047954), (6, 0.25350021021662483),
                (7, -0.2462390374708025), (8, -0.12419142326381637),
                (9, 0.15329179827876568), (10, 0.00820105229563469),
                (11, 0.007567897660545699), (12, -0.008298),
            )),
            (0.2, (
                (0, 0.03183464816350214), (5, 0.028300909672366776),
                (6, 0.053541988307438566), (7, -0.05492374857139099),
                (10, -0.00010834732869724932), (11, 0.0003825710908356584),
                (12, -0.00034046500868740456), (13, 0.1413124436746325),
            )),
            (0.7777777777777778, (
                (0, -0.42889630158379194), (5, -4.697621415361164),
                (6, 7.683421196062599), (7, 4.06898981839711),
                (8, 0.3567271874552811), (12, -0.0013990241651590145),
                (13, 2.9475147891527724), (14, -9.15095847217987),
            )),
        ),
        (  # dense: rows of D
            (
                (0, -8.428938276109013), (5, 0.5667149535193777),
                (6, -3.0689499459498917), (7, 2.38466765651207),
                (8, 2.117034582445028), (9, -0.871391583777973),
                (10, 2.2404374302607883), (11, 0.6315787787694688),
                (12, -0.08899033645133331), (13, 18.148505520854727),
                (14, -9.194632392478356), (15, -4.436036387594894),
            ),
            (
                (0, 10.427508642579134), (5, 242.28349177525817),
                (6, 165.20045171727028), (7, -374.5467547226902),
                (8, -22.113666853125306), (9, 7.733432668472264),
                (10, -30.674084731089398), (11, -9.332130526430229),
                (12, 15.697238121770845), (13, -31.139403219565178),
                (14, -9.35292435884448), (15, 35.81684148639408),
            ),
            (
                (0, 19.985053242002433), (5, -387.0373087493518),
                (6, -189.17813819516758), (7, 527.8081592054236),
                (8, -11.57390253995963), (9, 6.8812326946963),
                (10, -1.0006050966910838), (11, 0.7777137798053443),
                (12, -2.778205752353508), (13, -60.19669523126412),
                (14, 84.32040550667716), (15, 11.99229113618279),
            ),
            (
                (0, -25.69393346270375), (5, -154.18974869023643),
                (6, -231.5293791760455), (7, 357.6391179106141),
                (8, 93.40532418362432), (9, -37.45832313645163),
                (10, 104.0996495089623), (11, 29.8402934266605),
                (12, -43.53345659001114), (13, 96.32455395918828),
                (14, -39.17726167561544), (15, -149.72683625798564),
            ),
        ),
    )


@functools.cache
def _compiled():
    """The tableau compiled into two straight-line functions, at the first
    solve (not at import): (step, dense_row).

    step(rhs, t, h, u, m, ku0, km0) takes one step from (t, u, m) with
    K_0 = (ku0, km0): it returns the stages (ku0..ku11), (km0..km11) and
    the weight sums bu, bm, e5u, e5m, e3u, e3m.
    dense_row(rhs, t, h, u, m, u_new, m_new, ku, km) takes an accepted
    step's stages K_0..K_12 and returns its interpolant's seven F rows as
    (u, m) pairs, after the three extra stages K_13..K_15.

    Every sum is written ``0.0 + a_j * K_j + ...`` with j ascending, each
    coefficient as its repr, so it rounds exactly as a loop over the
    tableau's rows accumulating from 0.0 does.
    """
    stages, weights, extra, dense = _tableau()

    def total(row, k):
        return " + ".join(["0.0", *(f"{a!r} * {k}{j}" for j, a in row)])

    def stage(s, c, row):
        return (f"    ku{s}, km{s} = rhs(t + {c!r} * h, "
                f"u + ({total(row, 'ku')}) * h, m + ({total(row, 'km')}) * h)")

    def names(k, count):
        return ", ".join(f"{k}{j}" for j in range(count))

    sums = [f"    {w}{x} = {total([(j, ws[i]) for j, *ws in weights], 'k' + x)}"
            for i, w in enumerate(("b", "e5", "e3")) for x in "um"]
    source = [
        "def step(rhs, t, h, u, m, ku0, km0):",
        *(stage(s, c, row) for s, (c, row) in enumerate(stages, 1)),
        *sums,
        f"    return ({names('ku', 12)}), ({names('km', 12)}), "
        "bu, bm, e5u, e5m, e3u, e3m",
        "def dense_row(rhs, t, h, u, m, u_new, m_new, ku, km):",
        f"    {names('ku', 13)} = ku",
        f"    {names('km', 13)} = km",
        *(stage(s, c, row) for s, (c, row) in enumerate(extra, 13)),
        "    dyu, dym = u_new - u, m_new - m",
        "    return ((dyu, dym), (h * ku0 - dyu, h * km0 - dym),",
        "            (2 * dyu - h * (ku12 + ku0), 2 * dym - h * (km12 + km0)),",
        *(f"            (h * ({total(row, 'ku')}), h * ({total(row, 'km')})),"
          for row in dense),
        "            )",
    ]
    namespace = {}
    exec(compile("\n".join(source), "<DOP853 tableau>", "exec"), namespace)
    return namespace["step"], namespace["dense_row"]


def _rms(a, b):
    """scipy's RMS norm of a two-component vector."""
    return math.sqrt(a * a + b * b) / 2**0.5


def _initial_step(rhs, t, u, m, fu, fm, r_end, rtol, atol):
    """scipy's select_initial_step for order-7 error control."""
    su, sm = atol + abs(u) * rtol, atol + abs(m) * rtol
    d0, d1 = _rms(u / su, m / sm), _rms(fu / su, fm / sm)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, r_end - t)
    gu, gm = rhs(t + h0, u + h0 * fu, m + h0 * fm)
    d2 = _rms((gu - fu) / su, (gm - fm) / sm) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, r_end - t)


class _DenseOutput:
    """DOP853's interpolant over the accepted steps (scipy's
    Dop853DenseOutput), built for a step only when a radius in it is read:
    its three extra stages and seven F rows cost three evaluations of the
    right-hand side.  Called with radii it returns (u, m) as scipy's
    OdeSolution does: the step holding each radius is the first whose end
    is not below it, and radii outside the solve use the end steps.
    """

    def __init__(self, rhs, steps):
        self._rhs = rhs
        self._steps = steps  # (t, h, u, m, u_new, m_new, ku, km) per step
        self._rows = {}
        self.ts = None  # the step boundaries, set when the solve ends

    @property
    def built(self) -> int:
        return len(self._rows)

    def _row(self, i):
        """(t, h, u, m, F) of step i, F as seven (u, m) rows."""
        row = self._rows.get(i)
        if row is not None:
            return row
        t, h, u, m, u_new, m_new, ku, km = self._steps[i]
        with np.errstate(all="ignore"):
            F = _compiled()[1](self._rhs, t, h, u, m, u_new, m_new, ku, km)
        row = self._rows[i] = (t, h, u, m, F)
        return row

    def at(self, i, r):
        """(u, m) at the scalar radius r from step i's interpolant."""
        t, h, u, m, F = self._row(i)
        x = (r - t) / h
        yu = ym = 0.0
        for k, (fu, fm) in enumerate(reversed(F)):
            w = x if k % 2 == 0 else 1 - x
            yu = (yu + fu) * w
            ym = (ym + fm) * w
        return yu + u, ym + m

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        seg = np.clip(np.searchsorted(self.ts, r, side="left") - 1,
                      0, len(self._steps) - 1)
        read, where = np.unique(seg, return_inverse=True)
        rows = np.array([(t, h, u, m, *(v for pair in F for v in pair))
                         for t, h, u, m, F in map(self._row, read.tolist())])
        rows = rows[where.reshape(seg.shape)]
        x = (r - rows[..., 0]) / rows[..., 1]
        yu, ym = np.zeros_like(x), np.zeros_like(x)
        for k in range(7):
            w = x if k % 2 == 0 else 1 - x
            yu += rows[..., 16 - 2 * k]
            ym += rows[..., 17 - 2 * k]
            yu *= w
            ym *= w
        yu += rows[..., 2]
        ym += rows[..., 3]
        return np.stack((yu, ym))


def _brent(f, xa: float, xb: float) -> float:
    """A root of f in [xa, xb]: scipy's brentq, its C ``brentq`` ported
    line for line, at brentq's xtol = rtol = 4 eps and 100 iterations.

    So it makes the same calls to f and returns the same float.  As
    brentq does, it raises ValueError when f(xa) and f(xb) have one sign
    or f returns nan; it also raises ValueError (brentq: RuntimeError)
    when 100 iterations do not converge.  A division by zero, which the
    C code carries as inf or nan into a rejected interpolation step,
    bisects.
    """
    xtol = rtol = 4 * _EPS

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x:f} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise ValueError(f"Failed to converge after 100 iterations, value is {xcur}")


@dataclass
class _Solve:
    """A radial solve: the accepted radii r with the state (u, m) there,
    the status (0 reached the end, 1 u crossed zero downward at r[-1],
    -1 failed), the failure's reason (None unless the status is -1), the
    right-hand side evaluations and the dense output, radii -> (u, m) (a
    _DenseOutput, or a scan row's one scaled by _read_off)."""

    r: np.ndarray
    u: np.ndarray
    m: np.ndarray
    status: int
    reason: Optional[str]
    nfev: int
    dense: Callable


def solve_ivp(rhs, r_start: float, r_end: float, y0, atol: float) -> _Solve:
    """The DOP853 solve of (u, m) from r_start to r_end at RTOL (read at
    each call) and atol, with a terminal downward zero crossing of u, on
    plain floats.

    ``rhs(r, u, m)`` returns (u', m').  The steps are scipy's: its
    tableau (the literal _tableau, Hairer, Norsett & Wanner's
    coefficients), initial step, error norm and step-size control.  The
    status is 0 when the solve reaches r_end, 1 when u crosses zero
    downward (the root, found on the step's interpolant by _brent,
    scipy's brentq ported line for line, is the last accepted radius) and
    -1 on a failure, whose reason is one of:
      "step-size collapse: ..."   a step below 10 ulp of r (scipy's text);
      "step budget of N steps exhausted at r=..."   _MAX_STEPS steps taken;
      "non-finite state at r=..."   a stage or accepted state that is not
          finite, the start state included (failing closed where scipy
          would shrink the step until it collapses);
      "crossing not located: ..."   _brent's ValueError on the crossing
          step.
    The interpolant is built lazily (see _DenseOutput), so nfev counts
    dense stages only for the crossing step, and a rejected step does not
    evaluate f at its end.

    A module-level name that runs every solve, so a caller can wrap it to
    count solves (the tests and the benchmark's tracer do).
    """
    step, _ = _compiled()
    rtol = RTOL
    isfinite, inf = math.isfinite, math.inf
    t = float(r_start)
    u, m = map(float, y0)
    steps = []
    ts, us, ms = [t], [u], [m]
    dense = _DenseOutput(rhs, steps)
    status = reason = None
    with np.errstate(all="ignore"):
        fu, fm = rhs(t, u, m)
        t_new, nfev = t, 1
        if all(map(isfinite, (u, m, fu, fm))):
            h_abs = _initial_step(rhs, t, u, m, fu, fm, r_end, rtol, atol)
            nfev = 2
        else:
            status = -1
        while status is None:
            if len(steps) == _MAX_STEPS:
                status = -1
                reason = (f"step budget of {_MAX_STEPS} steps exhausted "
                          f"at r={t:.6g}")
                break
            min_step = 10 * abs(math.nextafter(t, inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    status = -1
                    reason = f"step-size collapse: {_TOO_SMALL_STEP}"
                    break
                t_new = min(t + h_abs, r_end)
                h = t_new - t
                h_abs = abs(h)
                ku, km, bu, bm, e5u, e5m, e3u, e3m = step(rhs, t, h, u, m, fu, fm)
                nfev += len(ku) - 1  # the stages K_1..K_11
                if not (all(map(isfinite, ku)) and all(map(isfinite, km))):
                    status = -1
                    break
                u_new, m_new = u + h * bu, m + h * bm
                su = atol + max(abs(u), abs(u_new)) * rtol
                sm = atol + max(abs(m), abs(m_new)) * rtol
                e5u, e5m, e3u, e3m = e5u / su, e5m / sm, e3u / su, e3m / sm
                e5 = math.sqrt(e5u * e5u + e5m * e5m) ** 2
                e3 = math.sqrt(e3u * e3u + e3m * e3m) ** 2
                if e5 == 0 and e3 == 0:
                    err = 0.0
                else:
                    err = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * 2)
                if err < 1:
                    if err == 0:
                        factor = _MAX_FACTOR
                    else:
                        factor = min(_MAX_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
                    if rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
                rejected = True
            if status is not None:
                break
            fu, fm = rhs(t_new, u_new, m_new)
            nfev += 1
            if not (isfinite(u_new) and isfinite(m_new)
                    and isfinite(fu) and isfinite(fm)):
                status = -1
                break
            steps.append((t, h, u, m, u_new, m_new, ku + (fu,), km + (fm,)))
            crossed = u >= 0 and u_new <= 0
            t, u, m = t_new, u_new, m_new
            if crossed:
                i = len(steps) - 1
                try:
                    t = _brent(lambda r: dense.at(i, r)[0], steps[i][0], t_new)
                except ValueError as exc:
                    status, reason = -1, f"crossing not located: {exc}"
                else:
                    u, m = dense.at(i, t)
                    status = 1
            elif t_new >= r_end:
                status = 0
            if status == 1 and len(ts) > 1 and ts[-1] == t:
                steps.pop()  # the root is the last step's start
            else:
                ts.append(t)
                us.append(u)
                ms.append(m)
    if status == -1 and reason is None:
        reason = f"non-finite state at r={t_new:.6g}"
    dense.ts = np.array(ts)
    return _Solve(r=dense.ts, u=np.array(us), m=np.array(ms), status=status,
                  reason=reason, nfev=nfev + 3 * dense.built, dense=dense)


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
    ATOL, read at each call; the sphere scan passes its own atol.  Every
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
                    _series_start(model, p, term, u0, SERIES_RADIUS), atol)
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
