"""The DOP853 stepper: scipy's steps, the loop oracle, the literal
tableau, the brentq port, the sort-free dense output and the module
boundary."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from emdenlab import dop853
from emdenlab import shooting as S
from emdenlab.exponents import ReactionTerm, critical_exponent
from emdenlab.geometry import euclidean, hyperbolic, sphere


class TestStepperAgainstScipy:
    """The in-house DOP853 takes scipy's steps: same status and accepted
    steps, and the same solution up to rounding (scalar sums in place of
    BLAS dot products)."""

    CASES = [  # model, p, term, u0, r_end, atol
        (euclidean(3), 2.0, ReactionTerm.pure_power(2.5), 1.0, 50.0, 1e-12),
        (euclidean(3), 2.0, ReactionTerm.pure_power(5.0), 1.0, 2000.0, 1e-12),
        # past r ~ 20 the p < 2 tail amplifies rounding differences (the
        # conditioning of that tail, not the stepper), so stop there
        (euclidean(4), 1.5, ReactionTerm.pure_power(critical_exponent(4, 1.5)),
         1.0, 20.0, 1e-12),
        (hyperbolic(3), 2.0, ReactionTerm.pure_power(4.0), 10.0, 60.0, 1e-12),
        (sphere(3), 2.0, ReactionTerm.linear_minus_power(3.0, 1.0), 0.8,
         math.pi - 1e-3, 1e-13),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_same_steps_as_scipy(self, case):
        from scipy.integrate import solve_ivp

        model, p, term, u0, r_end, atol = self.CASES[case]
        rhs = S._radial_rhs(model, p, term)
        r0 = S.SERIES_RADIUS
        y0 = S._series_start(model, p, term, u0, r0)

        def crossing(r, y):
            return y[0]

        crossing.terminal, crossing.direction = True, -1
        ref = solve_ivp(lambda r, y: rhs(r, *y), (r0, r_end), y0, method="DOP853",
                        rtol=S.RTOL, atol=atol, dense_output=True, events=crossing)
        sol = dop853.solve_ivp(rhs, r0, r_end, y0, S.RTOL, atol)
        assert sol.status == ref.status
        assert sol.reason == (f"step-size collapse: {ref.message}"
                              if ref.status < 0 else None)
        assert len(sol.r) == len(ref.t)
        assert (sol.status == 1) == bool(len(ref.t_events[0]))
        if len(ref.t_events[0]):
            assert sol.r[-1] == pytest.approx(ref.t_events[0][0], rel=1e-10)
        assert sol.r[-1] == pytest.approx(ref.t[-1], rel=1e-10)
        # relative to each component's size over the run: u is ~0 at a
        # crossing and m is ~0 at the center
        r = np.linspace(r0, ref.t[-1], 50)
        dense = ref.sol(r)
        scale = np.abs(dense).max(axis=1)
        end = np.array([sol.u[-1:], sol.m[-1:]])
        for got, want in ((sol.dense(r), dense), (end, ref.y[:, -1:]),
                          (sol.dense(r[7])[:, None], ref.sol(r[7])[:, None])):
            assert np.all(np.abs(got - want) <= 1e-10 * scale[:, None])
        assert sol.nfev < ref.nfev


def _combine(coefs, ku, km):
    """sum_j a_j K_j over one tableau row, j ascending from 0.0."""
    su = sm = 0.0
    for j, a in coefs:
        su += a * ku[j]
        sm += a * km[j]
    return su, sm


class _LoopDense(dop853._DenseOutput):
    """The interpolant with each step's row built by loops over the rows
    of _tableau()."""

    def _row(self, i):
        row = self._rows.get(i)
        if row is not None:
            return row
        t, h, u, m, u_new, m_new, ku, km = self._steps[i]
        _, _, extra, dense = dop853._tableau()
        ku, km = list(ku), list(km)
        with np.errstate(all="ignore"):
            for c, coefs in extra:
                su, sm = _combine(coefs, ku, km)
                du, dm = self._rhs(t + c * h, u + su * h, m + sm * h)
                ku.append(du)
                km.append(dm)
        dyu, dym = u_new - u, m_new - m
        F = [(dyu, dym), (h * ku[0] - dyu, h * km[0] - dym),
             (2 * dyu - h * (ku[12] + ku[0]), 2 * dym - h * (km[12] + km[0]))]
        for coefs in dense:
            su, sm = _combine(coefs, ku, km)
            F.append((h * su, h * sm))
        row = self._rows[i] = (t, h, u, m, tuple(F))
        return row


def _loop_solve_ivp(rhs, r_start, r_end, y0, atol):
    """dop853.solve_ivp at S.RTOL with its stages and weight sums taken by
    loops over the rows of _tableau(): the oracle the compiled step must
    match bit for bit."""
    stages, weights, _, _ = dop853._tableau()
    rtol = S.RTOL
    isfinite, inf = math.isfinite, math.inf
    t = float(r_start)
    u, m = map(float, y0)
    steps = []
    ts, us, ms = [t], [u], [m]
    dense = _LoopDense(rhs, steps)
    status = reason = None
    with np.errstate(all="ignore"):
        fu, fm = rhs(t, u, m)
        t_new, nfev = t, 1
        if all(map(isfinite, (u, m, fu, fm))):
            h_abs = dop853._initial_step(rhs, t, u, m, fu, fm, r_end, rtol, atol)
            nfev = 2
        else:
            status = -1
        while status is None:
            if len(steps) == dop853._MAX_STEPS:
                status = -1
                reason = f"step budget of {dop853._MAX_STEPS} steps exhausted at r={t:.6g}"
                break
            min_step = 10 * abs(math.nextafter(t, inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    status = -1
                    reason = f"step-size collapse: {dop853._TOO_SMALL_STEP}"
                    break
                t_new = min(t + h_abs, r_end)
                h = t_new - t
                h_abs = abs(h)
                ku, km = [fu], [fm]
                for c, coefs in stages:
                    su, sm = _combine(coefs, ku, km)
                    du, dm = rhs(t + c * h, u + su * h, m + sm * h)
                    ku.append(du)
                    km.append(dm)
                nfev += len(stages)
                if not (all(map(isfinite, ku)) and all(map(isfinite, km))):
                    status = -1
                    break
                bu = bm = e5u = e5m = e3u = e3m = 0.0
                for j, b, e5, e3 in weights:
                    bu += b * ku[j]
                    bm += b * km[j]
                    e5u += e5 * ku[j]
                    e5m += e5 * km[j]
                    e3u += e3 * ku[j]
                    e3m += e3 * km[j]
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
                        factor = dop853._MAX_FACTOR
                    else:
                        factor = min(dop853._MAX_FACTOR,
                                     dop853._SAFETY * err**dop853._ERROR_EXPONENT)
                    if rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                h_abs *= max(dop853._MIN_FACTOR, dop853._SAFETY * err**dop853._ERROR_EXPONENT)
                rejected = True
            if status is not None:
                break
            fu, fm = rhs(t_new, u_new, m_new)
            nfev += 1
            if not (isfinite(u_new) and isfinite(m_new)
                    and isfinite(fu) and isfinite(fm)):
                status = -1
                break
            ku.append(fu)
            km.append(fm)
            steps.append((t, h, u, m, u_new, m_new, ku, km))
            crossed = u >= 0 and u_new <= 0
            t, u, m = t_new, u_new, m_new
            if crossed:
                i = len(steps) - 1
                try:
                    t = dop853._brent(lambda r: dense.at(i, r)[0], steps[i][0], t_new)
                except ValueError as exc:
                    status, reason = -1, f"crossing not located: {exc}"
                else:
                    u, m = dense.at(i, t)
                    status = 1
            elif t_new >= r_end:
                status = 0
            if status == 1 and len(ts) > 1 and ts[-1] == t:
                steps.pop()
            else:
                ts.append(t)
                us.append(u)
                ms.append(m)
    if status == -1 and reason is None:
        reason = f"non-finite state at r={t_new:.6g}"
    dense.ts = np.array(ts)
    return dop853._Solve(r=dense.ts, u=np.array(us), m=np.array(ms), status=status,
                    reason=reason, nfev=nfev + 3 * dense.built, dense=dense)


class TestCompiledStepper:
    """The stages compiled from the tableau give the loop stepper's floats:
    the same accepted radii, states, dense values, nfev and status."""

    CASES = [
        *TestStepperAgainstScipy.CASES,
        # a scan cell that crosses zero: the crossing step's dense row and
        # the Brent root on it
        (euclidean(3), 2.0, ReactionTerm.pure_power(3.0), 1.0, 100.0, 1e-12),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_bit_identical_to_the_loop_stepper(self, case):
        model, p, term, u0, r_end, atol = self.CASES[case]
        rhs = S._radial_rhs(model, p, term)
        r0 = S.SERIES_RADIUS
        y0 = S._series_start(model, p, term, u0, r0)
        ref = _loop_solve_ivp(rhs, r0, r_end, y0, atol)
        sol = dop853.solve_ivp(rhs, r0, r_end, y0, S.RTOL, atol)
        assert (sol.status, sol.reason) == (ref.status, ref.reason)
        if case == len(self.CASES) - 1:
            assert sol.status == 1
        for got, want in ((sol.r, ref.r), (sol.u, ref.u), (sol.m, ref.m)):
            assert np.array_equal(got, want)
        r = np.linspace(r0, ref.r[-1], 200)
        assert np.array_equal(sol.dense(r), ref.dense(r))
        assert sol.nfev == ref.nfev


class TestTableauAgainstScipy:
    def test_literal_tableau_is_scipys(self):
        # the literal rows rebuilt into scipy's arrays, compared bit for bit
        from scipy.integrate._ivp import dop853_coefficients as co

        stages, weights, extra, dense = dop853._tableau()
        C, A = np.zeros(16), np.zeros((16, 16))
        B, E3, E5, D = np.zeros(12), np.zeros(13), np.zeros(13), np.zeros((4, 16))
        C[12] = 1.0  # K_12 is f at the step's end, whose row is the weights
        for s, (c, row) in [*enumerate(stages, 1), *enumerate(extra, 13)]:
            C[s] = c
            for j, a in row:
                A[s, j] = a
        for j, b, e5, e3 in weights:
            A[12, j] = B[j] = b
            E5[j], E3[j] = e5, e3
        for k, row in enumerate(dense):
            for j, d in row:
                D[k, j] = d
        for ours, theirs in ((C, co.C), (A, co.A), (B, co.B), (E3, co.E3),
                             (E5, co.E5), (D, co.D)):
            assert ours.tobytes() == theirs.tobytes()


class TestBrentAgainstScipy:
    def test_same_calls_and_roots_as_brentq(self, monkeypatch):
        # every crossing bracket of a small scan, the sphere's included:
        # the port calls f at the same radii and returns the same float.
        # A scan row brackets once, in its one solve (u0 = 2), so the
        # three R^3 rows, the R^4 cell and the two sphere cells give 6
        from scipy.optimize import brentq

        brent, brackets = dop853._brent, []

        def record(f, xa, xb):
            brackets.append((f, xa, xb))
            return brent(f, xa, xb)

        monkeypatch.setattr(dop853, "_brent", record)
        S.liouville_scan(3, 2.0, [1.0, 3.0, 4.9], [0.5, 2.0], horizon=100.0)
        S.liouville_scan(4, 1.5, [1.0], [1.0], horizon=100.0)
        S.bv_sphere_scan(3, 3.0, 1.0, [1.2, 1.6])
        assert len(brackets) == 6
        for f, xa, xb in brackets:
            ours, theirs = [], []
            root = brent(lambda r: ours.append(r) or f(r), xa, xb)
            ref = brentq(lambda r: theirs.append(r) or f(r), xa, xb,
                         xtol=4 * dop853._EPS, rtol=4 * dop853._EPS)
            assert root == ref and ours == theirs

    def test_brentq_errors(self):
        with pytest.raises(ValueError, match="different signs"):
            dop853._brent(lambda r: r + 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            dop853._brent(lambda r: math.nan if r > 0.5 else 0.5 - r, 0.0, 1.0)


class _UniqueDense(dop853._DenseOutput):
    """The interpolant with the steps the radii fall in found by np.unique,
    the lookup _DenseOutput.__call__ used before it marked them over the
    steps: the oracle the sort-free lookup must match bit for bit."""

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


class TestSortFreeLookup:
    """_DenseOutput.__call__ finds each radius's step without sorting:
    the same floats as the np.unique lookup and as the scalar
    interpolant ``at`` on that step, for any shape and order of radii,
    the solve's end steps serving radii past either end (scipy's
    OdeSolution semantics).  About 0.05 s."""

    @staticmethod
    def critical_solve():
        # the critical R^3 run: it stays positive to r_end over ~100 steps
        model, term = euclidean(3), ReactionTerm.pure_power(5.0)
        r0 = S.SERIES_RADIUS
        y0 = S._series_start(model, 2.0, term, 1.0, r0)
        sol = dop853.solve_ivp(S._radial_rhs(model, 2.0, term), r0, 200.0, y0,
                               S.RTOL, S.ATOL)
        assert sol.status == 0 and len(sol.r) > 50
        return sol

    @pytest.fixture(scope="class")
    def solve(self):
        return self.critical_solve()

    @staticmethod
    def radii(ts):
        # step midpoints and step boundaries (a boundary belongs to the
        # step it ends), shuffled, with repeats and both ends overshot
        mids = (ts[:-1] + ts[1:]) / 2
        picks = np.concatenate([mids[::3], ts[::7], mids[::5], ts[:1], ts[-1:],
                                [ts[0] / 2, ts[0] - 1e-9, ts[-1] * 1.5, ts[-1] + 1e-9]])
        return np.random.default_rng(0).permutation(picks)

    @pytest.mark.parametrize("shape", ["flat", "2-d", "0-d"])
    def test_same_floats_as_unique_and_at(self, solve, shape):
        r = self.radii(solve.r)
        if shape == "2-d":
            r = r[: r.size // 4 * 4].reshape(4, -1)
        elif shape == "0-d":
            r = np.asarray(r[0])
        dense = solve.dense
        got = dense(r)
        ref = _UniqueDense(dense._rhs, dense._steps)
        ref.ts = dense.ts
        want = ref(r)
        assert got.shape == want.shape == (2, *r.shape)
        assert got.tobytes() == want.tobytes()
        seg = np.clip(np.searchsorted(dense.ts, r, side="left") - 1,
                      0, len(dense._steps) - 1)
        scalar = [dense.at(i, x) for i, x in zip(seg.ravel().tolist(), r.ravel().tolist())]
        assert got.reshape(2, -1).T.tobytes() == np.array(scalar).tobytes()

    def test_builds_only_the_steps_read(self):
        # a fresh solve's lookup builds one row per step a radius falls in
        sol = self.critical_solve()
        r = self.radii(sol.r)
        sol.dense(r)
        seg = np.clip(np.searchsorted(sol.r, r, side="left") - 1, 0, len(sol.r) - 2)
        assert sol.dense.built == len(set(seg.tolist()))


class TestModuleBoundary:
    def test_imports_no_other_emdenlab_module(self):
        # the stepper reads no tolerance, term or model of the lab
        tree = ast.parse(Path(dop853.__file__).read_text())
        imported = [(node.level, node.module or "") for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)]
        imported += [(0, alias.name) for node in ast.walk(tree)
                     if isinstance(node, ast.Import) for alias in node.names]
        assert [(level, name) for level, name in imported
                if level > 0 or name.split(".")[0] == "emdenlab"] == []

    def test_shooting_solves_through_the_one_stepper(self):
        # shooting.solve_ivp, the name every radial solve is looked up by
        # (and the tests and the benchmark's tracer wrap), is the stepper
        assert S.solve_ivp is dop853.solve_ivp
        assert S._Solve is dop853._Solve
