"""Radial shooting: dichotomy, bubble matching, sphere scan."""

import math
import warnings

import numpy as np
import pytest

from emdenlab import shooting as S
from emdenlab.errors import NumericalError, PreconditionError
from emdenlab.exponents import ReactionTerm, critical_exponent, emden_bubble
from emdenlab.geometry import euclidean, hyperbolic, sphere
from emdenlab.reports import RunReport


class TestShoot:
    def test_subcritical_crossing(self):
        out = S.shoot(euclidean(3), 2.0, ReactionTerm.pure_power(3.0), 1.0,
                      horizon=100.0)
        assert out.kind == "crossed_zero"
        assert 5.0 < out.r_cross < 10.0
        assert out.stats["flux_nonincreasing"] and out.stats["flux_nonpositive"]

    def test_overflowing_start_observes_no_flux_invariant(self):
        # from u0 = 1e200 the only trajectory point has u = -inf, so no
        # point with u > 0 supports either flux flag
        out = S.shoot(euclidean(3), 2.0, ReactionTerm.pure_power(3.0), 1e200)
        assert out.kind == "inconclusive"
        assert not np.any(out.trajectory["u"] > 0)
        assert out.stats["flux_nonincreasing"] is None
        assert out.stats["flux_nonpositive"] is None

    def test_crossing_linear_reaction_reference(self):
        # -lap u = u on R^3: u = u0 sin(r)/r crosses at pi
        out = S.shoot(euclidean(3), 2.0, ReactionTerm.pure_power(1.0), 1.0,
                      horizon=10.0)
        assert out.kind == "crossed_zero"
        assert out.r_cross == pytest.approx(math.pi, rel=1e-8)
        sol = S.solve_dense(euclidean(3), 2.0, ReactionTerm.pure_power(1.0), 1.0,
                            horizon=10.0)
        assert sol.r_hi == out.r_cross

    def test_zero_reaction_constant(self):
        out = S.shoot(euclidean(3), 2.0, ReactionTerm.zero(), 0.7, horizon=50.0)
        assert out.kind == "stayed_positive"
        np.testing.assert_allclose(out.trajectory["u"], 0.7, rtol=1e-12)
        np.testing.assert_allclose(out.trajectory["m"], 0.0, atol=1e-15)

    def test_critical_stays_positive_with_tail(self):
        out = S.shoot(euclidean(3), 2.0, ReactionTerm.pure_power(5.0),
                      3.0**0.25, horizon=2000.0)
        assert out.kind == "stayed_positive"
        assert out.tail_exponent == pytest.approx(-1.0, abs=0.01)

    def test_degenerate_p_above_dimension(self):
        # p >= n: the critical exponent is infinite, every power crosses
        out = S.shoot(euclidean(4), 4.0, ReactionTerm.pure_power(10.0), 1.0,
                      horizon=100.0)
        assert out.kind == "crossed_zero"

    def test_non_finite_state_is_inconclusive(self):
        # H^4: psi^{n-1} = sinh(r)^3 overflows near r = 237 before the
        # horizon; and a term that is infinite above u = 3 on a run that
        # grows past it
        blowup = ReactionTerm(lambda t: np.where(t < 3.0, -t * t, -np.inf),
                              lambda t: -2.0 * t, "nonpositive")
        runs = [
            (hyperbolic(4), 3.0, ReactionTerm.pure_power(0.8 * critical_exponent(4, 3.0)),
             300.0),
            (euclidean(3), 2.0, blowup, 100.0),
        ]
        for model, p, term, horizon in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = S.shoot(model, p, term, 1.0, horizon=horizon)
            assert out.kind == "inconclusive"
            assert out.reason.startswith("non-finite state at r=")
            assert out.stats["status"] == -1
            assert np.all(np.isfinite(out.trajectory["u"]))
            assert float(out.reason.split("=")[1]) > out.trajectory["r"][-1]

    def test_overflowing_start_is_inconclusive(self):
        # f(1e200) = 1e600 overflows, and at p = 1.5 the series start's
        # (f(1e100)/n)^2 does: the solve ends at its start radius with no
        # numpy warning (warnings are errors here)
        for model, p, term, u0 in (
            (euclidean(3), 2.0, ReactionTerm.pure_power(3.0), 1e200),
            (sphere(3), 2.0, ReactionTerm.linear_minus_power(3.0, 1.0), 1e200),
            (euclidean(4), 1.5, ReactionTerm.pure_power(3.0), 1e100),
        ):
            out = S.shoot(model, p, term, u0, horizon=3.0)
            assert out.kind == "inconclusive"
            assert out.reason == f"non-finite state at r={S.SERIES_RADIUS:.6g}"
            assert out.stats["status"] == -1
            with pytest.raises(NumericalError, match=out.reason):
                S.solve_dense(model, p, term, u0, horizon=3.0)

    def test_step_budget_ends_the_solve(self, monkeypatch):
        # a normal scan cell (25 steps to its crossing) against a budget of 5
        monkeypatch.setattr(S, "_MAX_STEPS", 5)
        term = ReactionTerm.pure_power(3.0)
        out = S.shoot(euclidean(3), 2.0, term, 1.0, horizon=100.0)
        assert out.kind == "inconclusive"
        assert out.reason.startswith("step budget of 5 steps exhausted at r=")
        assert out.stats["status"] == -1
        assert len(out.trajectory["r"]) == 6
        assert float(out.reason.split("=")[1]) == pytest.approx(out.trajectory["r"][-1],
                                                                rel=1e-5)
        with pytest.raises(NumericalError, match="step budget of 5 steps"):
            S.solve_dense(euclidean(3), 2.0, term, 1.0, horizon=100.0)

    @pytest.mark.parametrize("term", [ReactionTerm.pure_power(np.float64(3.0)),
                                      ReactionTerm.linear_minus_power(np.float64(3.0),
                                                                      np.float64(1.0))])
    @pytest.mark.parametrize("model", [euclidean(3), sphere(3)])
    def test_rhs_stays_on_python_floats(self, term, model):
        rhs = S._radial_rhs(model, np.float64(2.0), term)
        for u in (0.8, -0.3):
            du, dm = rhs(0.7, u, -0.2)
            assert type(du) is float and type(dm) is float

    def test_input_guards(self):
        with pytest.raises(PreconditionError):
            S.shoot(euclidean(3), 2.0, ReactionTerm.pure_power(2.0), -1.0)
        with pytest.raises(PreconditionError):
            S.shoot(euclidean(3), 0.5, ReactionTerm.pure_power(2.0), 1.0)


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
        sol = S.solve_ivp(rhs, r0, r_end, y0, atol)
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


class TestTableauAgainstScipy:
    def test_literal_tableau_is_scipys(self):
        # the literal rows rebuilt into scipy's arrays, compared bit for bit
        from scipy.integrate._ivp import dop853_coefficients as co

        stages, weights, extra, dense = S._tableau()
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
        # the port calls f at the same radii and returns the same float
        from scipy.optimize import brentq

        brent, brackets = S._brent, []

        def record(f, xa, xb):
            brackets.append((f, xa, xb))
            return brent(f, xa, xb)

        monkeypatch.setattr(S, "_brent", record)
        S.liouville_scan(3, 2.0, [1.0, 3.0, 4.9], [0.5, 2.0], horizon=100.0)
        S.liouville_scan(4, 1.5, [1.0], [1.0], horizon=100.0)
        S.bv_sphere_scan(3, 3.0, 1.0, [1.2, 1.6])
        assert len(brackets) == 8
        for f, xa, xb in brackets:
            ours, theirs = [], []
            root = brent(lambda r: ours.append(r) or f(r), xa, xb)
            ref = brentq(lambda r: theirs.append(r) or f(r), xa, xb,
                         xtol=4 * S._EPS, rtol=4 * S._EPS)
            assert root == ref and ours == theirs

    def test_brentq_errors(self):
        with pytest.raises(ValueError, match="different signs"):
            S._brent(lambda r: r + 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            S._brent(lambda r: math.nan if r > 0.5 else 0.5 - r, 0.0, 1.0)


class TestLiouvilleScan:
    def test_dichotomy_pattern(self):
        table = S.liouville_scan(3, 2.0, [1.0, 3.0, 4.9], [0.5, 1.0],
                                 horizon=2000.0)
        ps = table["critical_exponent"]
        assert ps == 5.0
        for cell in table["cells"]:
            assert cell["outcome"] == "crossed_zero"
        assert "radial" in table["note"]

    def test_critical_row(self):
        table = S.liouville_scan(3, 2.0, [5.0], [0.5, 1.0, 2.0], horizon=2000.0)
        for cell in table["cells"]:
            assert cell["outcome"] == "stayed_positive"
            assert abs(cell["tail_exponent"] + 1.0) <= 0.05

    def test_cells_report_solver_work(self):
        table = S.liouville_scan(3, 2.0, [3.0, 5.0], [0.5, 1.0], horizon=200.0)
        assert [c["status"] for c in table["cells"]] == [1, 1, 0, 0]
        assert [c["reason"] for c in table["cells"]] == [None] * 4
        for cell in table["cells"]:
            assert isinstance(cell["nfev"], int) and cell["nfev"] > 0


class TestScanVerdicts:
    """Each scan sets its own pass flag, so a library caller's RunReport
    reads the same verdict as the CLI."""

    @staticmethod
    def passed(result):
        return RunReport(config={}, results=[result]).passed

    def test_clean_dichotomy_passes(self):
        assert self.passed(S.liouville_scan(3, 2.0, [1.0, 3.0], [0.5, 1.0],
                                            horizon=200.0))

    def test_error_cell_fails(self):
        table = S.liouville_scan(3, 2.0, [3.0], [-1.0, 1.0], horizon=50.0)
        assert [c["outcome"] for c in table["cells"]] == ["error", "crossed_zero"]
        assert not self.passed(table)

    def test_empty_table_fails(self):
        assert not self.passed(S.liouville_scan(3, 2.0, [3.0], [], horizon=50.0))

    def test_broken_dichotomy_fails(self, monkeypatch):
        stays = S.ShootOutcome("stayed_positive")
        monkeypatch.setattr(S, "shoot", lambda *args, **kwargs: stays)
        assert not self.passed(S.liouville_scan(3, 2.0, [3.0], [1.0]))

    def test_inconclusive_cell_fails(self, monkeypatch):
        # at alpha >= p_s only a definite stayed_positive matches; the
        # cell carries the outcome's reason
        unsure = S.ShootOutcome("inconclusive", reason="non-finite state")
        monkeypatch.setattr(S, "shoot", lambda *args, **kwargs: unsure)
        table = S.liouville_scan(3, 2.0, [5.0], [1.0])
        assert table["cells"][0]["reason"] == "non-finite state"
        assert not self.passed(table)

    def test_sphere_unique_constant_passes(self):
        rep = S.bv_sphere_scan(3, 3.0, 1.0, [0.7, 1.3])
        assert rep["regular_u0"] == [pytest.approx(1.0, abs=1e-6)]
        assert self.passed(rep) and "flag" not in rep

    def test_sphere_without_the_constant_fails(self):
        rep = S.bv_sphere_scan(3, 3.0, 1.0, [1.5, 2.0])
        assert rep["hypotheses"]["within_theorem"] and rep["regular_u0"] == []
        assert not self.passed(rep)
        assert not self.passed(S.bv_sphere_scan(3, 3.0, 1.0, []))

    @pytest.mark.parametrize("q,lam,u0", [(3.0, 1.0, 1.0), (5.0, 0.75, 0.5)])
    def test_sphere_error_cell_fails(self, q, lam, u0):
        # inside the hypotheses (where 1.0 is the constant) and outside
        rep = S.bv_sphere_scan(3, q, lam, [u0, 1e200])
        assert [c["status"] for c in rep["cells"]][1] == "error"
        assert rep["cells"][0]["status"] != "error"
        assert not self.passed(rep)

    def test_sphere_exploration_is_flagged(self):
        rep = S.bv_sphere_scan(3, 5.0, 0.75, [0.5, 0.8])
        assert not rep["hypotheses"]["within_theorem"]
        assert rep["flag"] == "outside theorem hypotheses (exploration mode)"
        assert self.passed(rep)
        assert not self.passed(S.bv_sphere_scan(3, 5.0, 0.75, []))


class TestBubbleMatch:
    @pytest.mark.parametrize("n,p,lam", [(3, 2.0, 1.0), (4, 2.0, 1.0), (3, 2.0, 0.5)])
    def test_trajectory_matches_closed_form(self, n, p, lam):
        rep = S.bubble_match(n, p, lam, horizon=20.0)
        assert rep["pass"] and rep["max_rel_residual"] <= 1e-6

    def test_tolerance_scaling(self, monkeypatch):
        # tightening the integrator tolerance must improve the match
        def match(rtol, atol):
            monkeypatch.setattr(S, "RTOL", rtol)
            monkeypatch.setattr(S, "ATOL", atol)
            return S.bubble_match(3, 2.0, 1.0, horizon=20.0)

        coarse, fine = match(1e-6, 1e-9), match(1e-9, 1e-12)
        assert fine["max_rel_residual"] <= coarse["max_rel_residual"] / 10.0

    def test_scale_invariance_of_trajectories(self):
        # the run at scale lam coincides with the rescaled run at scale 1
        n, p, lam = 3, 2.0, 2.0
        s = (n - p) / p
        sol_lam = S.solve_dense(euclidean(n), p,
                                ReactionTerm.pure_power(5.0),
                                float(emden_bubble(n, p, lam)(0.0)), horizon=20.0)
        sol_one = S.solve_dense(euclidean(n), p,
                                ReactionTerm.pure_power(5.0),
                                float(emden_bubble(n, p, 1.0)(0.0)), horizon=20.0)
        r = np.linspace(0.01, 15.0, 200)
        u_lam, _ = sol_lam.state(r)
        u_one, _ = sol_one.state(r / lam)
        np.testing.assert_allclose(u_lam, lam ** (-s) * u_one, rtol=1e-6)

    def test_determinism(self):
        a = S.bubble_match(3, 2.0, 1.0, horizon=10.0)
        b = S.bubble_match(3, 2.0, 1.0, horizon=10.0)
        assert a["max_rel_residual"] == b["max_rel_residual"]


class TestRadialSolutionJets:
    def test_third_derivative_consistency(self):
        # u''' from the dual tower must match differencing u'' along r
        sol = S.solve_dense(euclidean(3), 2.0, ReactionTerm.pure_power(3.0),
                            1.0, horizon=20.0)
        r = np.linspace(0.5, 4.0, 7)
        _, _, u2, u3 = sol.jets(r)
        h = 1e-5
        _, _, u2p, _ = sol.jets(r + h)
        _, _, u2m, _ = sol.jets(r - h)
        fd = (u2p - u2m) / (2 * h)
        np.testing.assert_allclose(u3, fd, rtol=1e-5, atol=1e-8)

    def test_equation_satisfied_along_trajectory(self):
        sol = S.solve_dense(euclidean(3), 2.0, ReactionTerm.pure_power(3.0),
                            1.0, horizon=20.0)
        r = np.linspace(0.3, 5.0, 30)
        u, u1, u2, _ = sol.jets(r)
        lap = u2 + 2.0 / r * u1
        np.testing.assert_allclose(-lap, u**3, rtol=1e-8)


class TestSphereScan:
    def test_constant_exact_start(self):
        rep = S.bv_sphere_scan(3, 3.0, 1.0, [1.0])
        cell = rep["cells"][0]
        assert cell["status"] == "regular_candidate"
        assert abs(cell["residual"]) <= 1e-12

    def test_unique_constant_found_off_grid(self):
        rep = S.bv_sphere_scan(3, 3.0, 1.0, np.arange(0.25, 3.0, 0.3))
        assert rep["hypotheses"]["within_theorem"]
        assert len(rep["regular_u0"]) == 1
        assert abs(rep["regular_u0"][0] - 1.0) <= 1e-6
        assert not rep["nonconstant_regular_found"]

    def test_critical_boundary_exploration(self):
        rep = S.bv_sphere_scan(3, 5.0, 0.75, np.round(np.arange(0.2, 1.4, 0.3), 10))
        hyp = rep["hypotheses"]
        assert hyp["ricci_ok"] and hyp["exponent_ok"]
        assert not hyp["within_theorem"]  # both bounds are equalities
        assert rep["nonconstant_regular_found"]
        assert len(rep["regular_u0"]) > 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_warp_mass_closed_form(self, n):
        from scipy.integrate import quad

        ref, _ = quad(lambda s: math.sin(s) ** (n - 1), 0.0, math.pi,
                      epsabs=0.0, epsrel=1e-13)
        assert S._sphere_warp_mass(n) == pytest.approx(ref, rel=1e-14)

    def test_parameter_guards(self):
        with pytest.raises(PreconditionError):
            S.bv_sphere_scan(3, 1.0, 1.0, [1.0])
        with pytest.raises(PreconditionError):
            S.bv_sphere_scan(3, 3.0, -1.0, [1.0])
