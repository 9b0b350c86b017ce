"""Radial shooting: dichotomy, bubble matching, sphere scan."""

import math

import numpy as np
import pytest

from emdenlab import shooting as S
from emdenlab.errors import PreconditionError
from emdenlab.exponents import ReactionTerm, critical_exponent, emden_bubble
from emdenlab.geometry import euclidean
from emdenlab.reports import RunReport


class TestShoot:
    def test_subcritical_crossing(self):
        out = S.shoot(euclidean(3), 2.0, ReactionTerm.pure_power(3.0), 1.0,
                      horizon=100.0)
        assert out.kind == "crossed_zero"
        assert 5.0 < out.r_cross < 10.0
        assert out.stats["flux_nonincreasing"] and out.stats["flux_nonpositive"]

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

    def test_input_guards(self):
        with pytest.raises(PreconditionError):
            S.shoot(euclidean(3), 2.0, ReactionTerm.pure_power(2.0), -1.0)
        with pytest.raises(PreconditionError):
            S.shoot(euclidean(3), 0.5, ReactionTerm.pure_power(2.0), 1.0)


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

    def test_sphere_unique_constant_passes(self):
        rep = S.bv_sphere_scan(3, 3.0, 1.0, [0.7, 1.3])
        assert rep["regular_u0"] == [pytest.approx(1.0, abs=1e-6)]
        assert self.passed(rep) and "flag" not in rep

    def test_sphere_without_the_constant_fails(self):
        rep = S.bv_sphere_scan(3, 3.0, 1.0, [1.5, 2.0])
        assert rep["hypotheses"]["within_theorem"] and rep["regular_u0"] == []
        assert not self.passed(rep)
        assert not self.passed(S.bv_sphere_scan(3, 3.0, 1.0, []))

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

    def test_tolerance_scaling(self):
        # tightening the integrator tolerance must improve the match
        coarse = S.bubble_match(3, 2.0, 1.0, horizon=20.0, rtol=1e-6, atol=1e-9)
        fine = S.bubble_match(3, 2.0, 1.0, horizon=20.0, rtol=1e-9, atol=1e-12)
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

    def test_parameter_guards(self):
        with pytest.raises(PreconditionError):
            S.bv_sphere_scan(3, 1.0, 1.0, [1.0])
        with pytest.raises(PreconditionError):
            S.bv_sphere_scan(3, 3.0, -1.0, [1.0])
