"""DOP853 for the two-component radial state (u, m), on plain floats.

``solve_ivp`` is the adaptive embedded Runge-Kutta method of order 8,
scipy's algorithm (its initial step, error norm and step-size control)
written for a right-hand side ``rhs(r, u, m) -> (u', m')`` on plain
Python floats, at the tolerances its caller passes.  Its tableau is a
committed literal, the coefficients of Hairer, Norsett & Wanner's
dop853.f (Solving ODEs I, 1993), the same doubles scipy uses.  The
stages are compiled once from that tableau, at the first solve:
``_compiled`` writes a step (its 11 stages and weight sums) and a
step's dense row as two straight-line functions, each sum in the
tableau's order, so a step reads no coefficient table and makes no
numpy call.  A solve stops at the first downward zero crossing of u,
located on that step's interpolant by ``_brent``, a line-for-line port
of scipy's C brentq, and it fails closed: a non-finite start or state,
a crossing that cannot be located, a collapsed step and a fixed budget
of steps each end the solve with status -1 and a reason.  No scipy
module is imported.  The dense output is built lazily: a step's three
extra stages and interpolant rows are computed only when a radius in
that step is read, and the steps the radii fall in are found without
sorting them, so no solve loads numpy's sort kernels.

The module imports no other emdenlab module and holds no tolerance:
the radial setup (``shooting._integrate``) passes its own.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["solve_ivp"]

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
        # the steps read, ascending, and each radius's row among them,
        # found by marking the steps: a sort would load numpy's sort kernels
        present = np.zeros(len(self._steps), dtype=bool)
        present[seg] = True
        read = np.flatnonzero(present)
        rows = np.array([(t, h, u, m, *(v for pair in F for v in pair))
                         for t, h, u, m, F in map(self._row, read.tolist())])
        # (t, h, u, m) and F's seven (u, m) rows: 18 columns, also if no step is read
        rows = rows.reshape(-1, 18)[(np.cumsum(present) - 1)[seg]]
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
    _DenseOutput, or a caller's rescaling of one)."""

    r: np.ndarray
    u: np.ndarray
    m: np.ndarray
    status: int
    reason: Optional[str]
    nfev: int
    dense: Callable


def solve_ivp(rhs, r_start: float, r_end: float, y0, rtol: float,
              atol: float) -> _Solve:
    """The DOP853 solve of (u, m) from r_start to r_end at rtol and atol,
    with a terminal downward zero crossing of u, on plain floats.

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
    """
    step, _ = _compiled()
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
