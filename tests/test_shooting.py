"""Radial shooting: dichotomy, bubble matching, sphere scan."""

import math
import warnings

import numpy as np
import pytest

from emdenlab import dop853
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

    @pytest.mark.parametrize("horizon", [1.5e-4, 2e-4])
    def test_no_tail_by_twice_the_series_radius(self, horizon):
        # the tail radii start at 2 SERIES_RADIUS: a solve that ends there
        # has no tail to fit (a fit read 48 copies of one radius, or radii
        # past the solve's end)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = S.shoot(euclidean(3), 2.0, ReactionTerm.pure_power(3.0), 1.0,
                          horizon=horizon)
        assert out.kind == "stayed_positive" and out.tail_exponent is None

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
        monkeypatch.setattr(dop853, "_MAX_STEPS", 5)
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
        # m' = -psi^{n-1} f(u) on the odd extension of f: odd in u, 0 at u = 0
        rhs = S._radial_rhs(model, np.float64(2.0), term)
        for u in (0.8, -0.3, 0.0):
            du, dm = rhs(0.7, u, -0.2)
            assert type(du) is float and type(dm) is float
            assert rhs(0.7, -u, -0.2)[1] == -dm
        assert rhs(0.7, 0.0, -0.2)[1] == 0.0

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

    def test_cells_report_solver_work(self):
        table = S.liouville_scan(3, 2.0, [3.0, 5.0], [0.5, 1.0], horizon=200.0)
        assert [c["status"] for c in table["cells"]] == [1, 1, 0, 0]
        assert [c["reason"] for c in table["cells"]] == [None] * 4
        for cell in table["cells"]:
            assert isinstance(cell["nfev"], int) and cell["nfev"] > 0


class TestScanRowReadOff:
    """A scan row makes one solve; every other cell is read off it by the
    R^n scaling law u_a(r) = a u_b(a^c r), c = (alpha - p + 1)/p, and must
    agree with a direct shoot at its own u0."""

    # the benchmark's grid (0.5, 1, 2) widened by a decade each way
    U0S = (0.1, 0.5, 1.0, 2.0, 10.0)
    # criterion 5's rows (its critical one, 5.0, is the benchmark's
    # 1.0 p_s), the benchmark's four grids at 0.5..1 p_s, and one row
    # each with alpha < p - 1 and alpha = p - 1
    ROWS = [(3, 2.0, (1.0, 2.0, 3.0, 4.0, 4.5, 4.9))] + [
        (n, p, tuple(f * critical_exponent(n, p) for f in (0.5, 0.8, 0.9, 0.98, 1.0)))
        for n, p in ((3, 2.0), (4, 3.0), (3, 2.5), (4, 1.5))
    ] + [(3, 3.0, (1.5, 2.0))]

    def test_read_off_cells_match_direct_shoots(self):
        for n, p, alphas in self.ROWS:
            model, outs = euclidean(n), {}
            table = S.liouville_scan(n, p, alphas, self.U0S, horizon=2000.0,
                                     on_cell=lambda a, u0, out: outs.setdefault((a, u0), out))
            ps, bubble_tail = table["critical_exponent"], -(n - p) / (p - 1.0)
            cells = {(c["alpha"], c["u0"]): c for c in table["cells"]}
            for cell in table["cells"]:
                alpha, u0 = cell["alpha"], cell["u0"]
                term = ReactionTerm.pure_power(alpha)
                sol = S._integrate(model, p, term, u0, 2000.0)
                ours, direct = outs[alpha, u0], S._classify(model, p, term, sol)
                if "from_u0" not in cell:  # solved directly: shoot's own result
                    assert (ours.kind, ours.r_cross, ours.tail_exponent, ours.reason,
                            ours.stats) == (direct.kind, direct.r_cross,
                                            direct.tail_exponent, direct.reason,
                                            direct.stats)
                    continue
                source = cells[alpha, cell["from_u0"]]  # a larger, direct solve
                assert cell["from_u0"] > u0 and "from_u0" not in source
                assert cell["nfev"] == source["nfev"]
                assert cell["status"] in (0, 1) and cell["reason"] is None
                assert ours.kind == direct.kind, (n, p, alpha, u0)
                if ours.kind == "stayed_positive":
                    assert ours.trajectory["r"][-1] == 2000.0
                if (n, p) == (4, 1.5) and alpha == ps:
                    continue  # its tails fail either way (p < 2 conditioning)
                if direct.r_cross is not None:
                    assert ours.r_cross == pytest.approx(direct.r_cross, rel=1e-8)
                for flag in ("flux_nonincreasing", "flux_nonpositive"):
                    assert ours.stats[flag] == direct.stats[flag]
                # u along the trajectory where the direct solve has it, and
                # the end flux
                r = ours.trajectory["r"]
                inside = r >= S.SERIES_RADIUS
                u_direct, _ = sol.dense(r[inside])
                assert np.abs(ours.trajectory["u"][inside] - u_direct).max() <= 1e-8 * u0
                assert ours.trajectory["m"][-1] == pytest.approx(
                    direct.trajectory["m"][-1], rel=1e-7)
                if alpha == ps and abs(direct.tail_exponent - bubble_tail) <= 0.05:
                    assert abs(ours.tail_exponent - direct.tail_exponent) <= 1e-3
            # the benchmark's u0 = 0.5 and 1 cells are read off in every row
            assert all("from_u0" in c for c in table["cells"] if c["u0"] in (0.5, 1.0))

    def test_row_solves_its_largest_u0(self):
        # alpha < p - 1: u0 = 1e-20 is ATOL-limited, so the row solves
        # u0 = 1 (byte-identical to shoot) and reads u0 = 1e-20 off it, at
        # r_cross / s with s = a^c > 1
        n, p, alpha = 3, 3.0, 1.98
        table = S.liouville_scan(n, p, [alpha], [1e-20, 1.0], horizon=100.0)
        small, one = table["cells"]
        direct = S.shoot(euclidean(n), p, ReactionTerm.pure_power(alpha), 1.0,
                         horizon=100.0)
        assert "from_u0" not in one
        assert one == S.liouville_scan(n, p, [alpha], [1.0], horizon=100.0)["cells"][0]
        assert one["r_cross"] == direct.r_cross
        s = 1e-20 ** ((alpha - p + 1.0) / p)
        assert small["from_u0"] == 1.0 and small["outcome"] == "crossed_zero"
        assert small["r_cross"] == pytest.approx(direct.r_cross / s, rel=1e-15)

    def test_coarse_series_start_is_not_passed_on(self):
        # at (3, 2.5) alpha = p_s = 14 the u0 = 10 solution lives within
        # r ~ 1e-5, so its series start at SERIES_RADIUS drops u by 13 u0
        # (u(1e-4) = -123.9, a start error of about 2.5e3); the solve
        # reaches zero at r = 1.0000003e-4, yet shoot and the scan cell
        # read inconclusive.  u0 = 1, which read off it would start its
        # series at r = 10, is solved directly.
        outs = {}
        table = S.liouville_scan(3, 2.5, [14.0], [1.0, 10.0], horizon=2000.0,
                                 on_cell=lambda a, u0, out: outs.setdefault(u0, out))
        one, ten = table["cells"]
        direct = S.shoot(euclidean(3), 2.5, ReactionTerm.pure_power(14.0), 10.0,
                         horizon=2000.0)
        reason = "series start error 2.51e+03 exceeds 1e-08"
        assert direct.kind == "inconclusive" and direct.reason == reason
        assert direct.stats["status"] == -1 and direct.r_cross is None
        assert direct.trajectory["r"][-1] < 1.0001e-4
        assert outs[10.0].trajectory["u"][0] == direct.trajectory["u"][0] < 0
        assert ten["outcome"] == "inconclusive" and ten["status"] == -1
        assert ten["reason"] == reason
        assert ten["r_cross"] is None and ten["nfev"] == direct.stats["nfev"]
        assert "from_u0" not in one and "from_u0" not in ten
        assert one == S.liouville_scan(3, 2.5, [14.0], [1.0], horizon=2000.0)["cells"][0]
        assert one["outcome"] == "stayed_positive"
        assert not table["pass"]

    def test_start_error_fails_closed(self):
        # a NaN or zero flux where the cell ends never passes the rule
        def solve(m_end):
            return S._Solve(r=np.array([S.SERIES_RADIUS, 1.0]), u=np.array([1.0, 0.5]),
                            m=np.array([-1e-9, m_end]), status=0, reason=None, nfev=0,
                            dense=None)

        cube = ReactionTerm.pure_power(3.0)
        assert S._start_error(solve(-1.0), 1.0, cube, 2) == 0.0
        assert math.isnan(S._start_error(solve(np.nan), 1.0 + 1e-9, cube, 2))
        assert S._start_error(solve(0.0), 1.0 + 1e-9, cube, 2) == math.inf

    def test_failed_solve_poisons_no_other_cell(self):
        # the row would read u0 = 1 off u0 = 1e200, whose start overflows:
        # u0 = 1 is solved directly instead, byte-identical to shoot
        outs = {}
        table = S.liouville_scan(3, 2.0, [3.0], [1.0, 1e200], horizon=100.0,
                                 on_cell=lambda a, u0, out: outs.setdefault(u0, out))
        one, huge = table["cells"]
        direct = S.shoot(euclidean(3), 2.0, ReactionTerm.pure_power(3.0), 1.0,
                         horizon=100.0)
        assert "from_u0" not in one and one["outcome"] == "crossed_zero"
        assert outs[1.0].r_cross == direct.r_cross and outs[1.0].stats == direct.stats
        for key, values in direct.trajectory.items():
            assert np.array_equal(outs[1.0].trajectory[key], values)
        assert one == S.liouville_scan(3, 2.0, [3.0], [1.0], horizon=100.0)["cells"][0]
        assert huge["outcome"] == "inconclusive" and "from_u0" not in huge
        assert huge["reason"].startswith("non-finite state")
        assert not table["pass"]

    @pytest.mark.parametrize("small", [1e-100, 1e-300])
    def test_scale_past_the_floats_is_solved_directly(self, small):
        # alpha just below p - 1 reads u0 = small off u0 = 1e100: at 1e-100
        # the flux scale, about (1e-200)^2, underflows to 0, and at 1e-300
        # the ratio a = 1e-400 does; either cell is solved directly
        table = S.liouville_scan(3, 3.0, [1.98], [small, 1e100], horizon=100.0)
        alone = S.liouville_scan(3, 3.0, [1.98], [small], horizon=100.0)
        assert table["cells"][0] == alone["cells"][0]

    def test_nonpositive_u0_stays_an_error_cell(self):
        order = []
        table = S.liouville_scan(3, 2.0, [3.0], [-1.0, 2.0, 0.0, 1.0], horizon=100.0,
                                 on_cell=lambda a, u0, out: order.append(u0))
        assert [c["outcome"] for c in table["cells"]] == [
            "error", "crossed_zero", "error", "crossed_zero"]
        assert [c["reason"] for c in table["cells"][::2]] == ["u0 must be positive"] * 2
        assert table["cells"][3]["from_u0"] == 2.0
        assert order == [2.0, 1.0]


class TestSeriesStartRule:
    """_integrate judges the series start of every solve (_start_error),
    so shoot, solve_dense, the sphere scan and the dichotomy scan refuse
    a coarse start alike, and an exact or fine start keeps its outcome."""

    def test_solve_dense_refuses_a_coarse_start(self):
        # the u0 = 10 cell of test_coarse_series_start_is_not_passed_on
        with pytest.raises(NumericalError,
                           match=r"series start error 2\.51e\+03 exceeds 1e-08"):
            S.solve_dense(euclidean(3), 2.5, ReactionTerm.pure_power(14.0), 10.0,
                          horizon=2000.0)

    def test_bubble_match_refuses_a_coarse_start(self):
        # lam = 0.01 puts the bubble's center value at 13.2 (R^3, p = 2,
        # alpha = 5): its start error, 1.25e-8, is just over the bound
        with pytest.raises(NumericalError,
                           match=r"series start error 1\.25e-08 exceeds 1e-08"):
            S.bubble_match(3, 2.0, 0.01)

    def test_sphere_scan_error_cell(self):
        # from u0 = 1e3, f = u^3 - u is 1e9 at the pole: the start error
        # is 8.33e-6, so the cell is inconclusive and the scan fails
        table = S.bv_sphere_scan(3, 3.0, 1.0, [1.0, 1e3])
        one, big = table["cells"]
        assert one == {"u0": 1.0, "outcome": "stayed_positive", "reason": None,
                       "nfev": 98, "status": 0, "residual": 0.0, "min_u": 1.0}
        assert big == {"u0": 1e3, "outcome": "inconclusive",
                       "reason": "series start error 8.33e-06 exceeds 1e-08",
                       "nfev": 337, "status": -1, "residual": None, "min_u": None}
        assert not table["pass"]

    def test_exact_and_fine_starts_keep_their_outcomes(self):
        # f(u0) = 0 makes the start exact: the zero term and the sphere's
        # constant solution u = 1 of u^3 - u
        zero = S.shoot(euclidean(3), 2.0, ReactionTerm.zero(), 1.0, horizon=10.0)
        assert (zero.kind, zero.reason, zero.stats["status"]) == (
            "stayed_positive", None, 0)
        term = ReactionTerm.linear_minus_power(3.0, 1.0)
        sol = S._integrate(sphere(3, 1.0), 2.0, term, 1.0, 3.0)
        assert sol.status == 0 and S._start_error(sol, 1.0, term, sol.r.size) == 0.0
        assert S._bv_single(sphere(3, 1.0), 3.0, 1.0, 1.0) == {
            "u0": 1.0, "outcome": "stayed_positive", "reason": None, "nfev": 98,
            "status": 0, "residual": 0.0, "min_u": 1.0}
        # u^3 + u^2 has the local exponent u0 f'(u0) / f(u0) = 5/2 at u0 = 1
        two = ReactionTerm.two_power(3.0, 1.0, 2.0)
        out = S.shoot(euclidean(3), 2.0, two, 1.0, horizon=100.0)
        assert (out.kind, out.reason, out.stats["status"]) == ("crossed_zero", None, 1)
        assert out.r_cross == pytest.approx(3.606561251851751, rel=1e-12)
        sol = S._integrate(euclidean(3), 2.0, two, 1.0, 100.0)
        drop = 1.0 - sol.u[0]
        assert S._start_error(sol, 1.0, two, sol.r.size) == pytest.approx(
            2.5 * drop * max(abs(sol.m[0] / sol.m[-1]), drop), rel=1e-12, abs=0.0)


class TestAbsoluteToleranceRule:
    """A solve from u0 < atol / RTOL is controlled in absolute terms on u,
    so its outcome is set by atol: _integrate ends it with status -1 and
    a reason, on the solve's own atol."""

    SUB = (euclidean(3), 3.0, ReactionTerm.pure_power(1.98))

    def test_tiny_u0_is_inconclusive(self):
        # this solve used to read crossed_zero at r = 11.11, where the
        # scaling law from u0 = 1 puts the crossing at 1.963
        out = S.shoot(*self.SUB, 1e-20, horizon=100.0)
        assert (out.kind, out.stats["status"], out.r_cross) == ("inconclusive", -1, None)
        assert out.reason == "u0 1e-20 below atol/rtol 0.01: the error control on u is absolute"
        assert out.trajectory["r"].size > 1  # the failed solve keeps its points
        with pytest.raises(NumericalError, match="error control on u is absolute"):
            S.solve_dense(*self.SUB, 1e-20, horizon=100.0)

    def test_u0_at_the_bound_follows_the_scaling_law(self):
        # u_a(r) = a u_1(s r), s = a^c, c = (alpha - p + 1)/p
        one = S.shoot(*self.SUB, 1.0, horizon=100.0)
        small = S.shoot(*self.SUB, 0.02, horizon=100.0)
        s = 0.02 ** ((1.98 - 3.0 + 1.0) / 3.0)
        assert small.kind == "crossed_zero"
        assert small.r_cross == pytest.approx(one.r_cross / s, rel=1e-9)

    def test_the_solves_own_atol_sets_the_bound(self):
        # 5e-3 lies below ATOL / RTOL = 1e-2 but above the sphere scan's
        # _BV_ATOL / RTOL = 1e-3
        args = (sphere(3, 1.0), 3.0, ReactionTerm.linear_minus_power(3.0, 1.0), 5e-3, 1.0)
        assert S._integrate(*args).status == -1
        assert S._integrate(*args, atol=S._BV_ATOL).status == 0

    def test_a_row_of_tiny_u0_fails_the_scan(self):
        table = S.liouville_scan(3, 3.0, [1.98], [1e-20], horizon=100.0)
        cell, = table["cells"]
        assert cell["outcome"] == "inconclusive" and cell["status"] == -1
        assert "error control on u is absolute" in cell["reason"]
        assert not table["pass"]


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
        monkeypatch.setattr(S, "_classify", lambda *args, **kwargs: stays)
        assert not self.passed(S.liouville_scan(3, 2.0, [3.0], [1.0]))

    def test_inconclusive_cell_fails(self, monkeypatch):
        # at alpha >= p_s only a definite stayed_positive matches; the
        # cell carries the outcome's reason
        unsure = S.ShootOutcome("inconclusive", reason="non-finite state")
        monkeypatch.setattr(S, "_classify", lambda *args, **kwargs: unsure)
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
        assert [(c["outcome"], c["status"]) for c in rep["cells"]] == [
            ("stayed_positive", 0), ("inconclusive", -1)]
        assert rep["cells"][1]["reason"].startswith("non-finite state")
        assert rep["cells"][0]["reason"] is None
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

    @pytest.mark.parametrize("shape", [(), (1, 6), (6, 1), (2, 3)])
    def test_any_radius_shape_reads_the_flat_values(self, shape):
        # a 0-d radius raised IndexError, and a (1, k) batch was read with
        # its second axis as the dual tower's derivative direction, so
        # [[2, 3]] gave u''' -0.1358 at r = 3 against -0.0205 without error
        sol = S.solve_dense(euclidean(3), 2.0, ReactionTerm.pure_power(3.0),
                            1.0, horizon=20.0)
        flat = np.linspace(0.5, 4.0, 6)[:math.prod(shape)]
        for got, want in zip(sol.jets(flat.reshape(shape)), sol.jets(flat)):
            assert got.shape == shape
            assert got.tobytes() == want.tobytes()


class TestRadialSolutionDomain:
    """state and jets read only the solved segment [r_lo, r_hi]: past it
    the dense output would extrapolate its end steps' degree-7
    interpolants."""

    @pytest.fixture(scope="class")
    def sol(self):
        # crosses zero at r_hi ~ 6.9, before the horizon
        return S.solve_dense(euclidean(3), 2.0, ReactionTerm.pure_power(3.0), 1.0,
                             horizon=20.0)

    def test_both_ends_are_read(self, sol):
        ends = np.array([sol.r_lo, sol.r_hi])
        u, m = sol.state(ends)
        assert np.stack((u, m)).tobytes() == sol._sol(ends).tobytes()
        assert np.all(np.isfinite(sol.jets(ends[:1])[3]))

    @pytest.mark.parametrize("end", ["below-r_lo", "past-r_hi", "nan"])
    def test_outside_fails_closed(self, sol, end):
        outside = {"below-r_lo": np.nextafter(sol.r_lo, 0.0),
                   "past-r_hi": np.nextafter(sol.r_hi, np.inf), "nan": np.nan}[end]
        radii = np.array([[1.0, 2.0], [outside, 3.0]])
        for read in (sol.state, sol.jets):
            with pytest.raises(PreconditionError, match="solved segment"):
                read(radii)
            with pytest.raises(PreconditionError, match="solved segment"):
                read(outside)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_radii_read_empty_arrays(self, sol, shape):
        # no radius reads no step: each output is empty and shaped like r
        radii = [] if shape == (0,) else np.zeros(shape)
        for read in (sol.state, sol.jets):
            out = read(radii)
            assert [(a.shape, a.dtype) for a in out] == [(shape, np.float64)] * len(out)


class TestSphereScan:
    def test_constant_exact_start(self):
        rep = S.bv_sphere_scan(3, 3.0, 1.0, [1.0])
        cell = rep["cells"][0]
        assert cell["outcome"] == "stayed_positive"
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


class TestSphereSearch:
    """The sphere scan bisects u0 until its bracket closes; a pole
    residual within the regularity tolerance never stops it early (near
    the constant the residual moves about 0.27 per unit of u0, so such a
    stop could land 3.6e-6 away, past the 2e-6 uniqueness gate)."""

    @pytest.mark.parametrize("grid", [[0.5, 1.7], [0.9, 1.05]])
    def test_off_midpoint_root_is_the_constant(self, grid):
        # about 35 solves each, about 40 ms
        rep = S.bv_sphere_scan(3, 3.0, 1.0, grid)
        assert rep["pass"]
        [found] = rep["regular_u0"]
        assert abs(found - 1.0) <= 1e-9
        [root] = rep["bisection_roots"]
        assert root["u0"] == found and root["steps"] <= 40

    def test_small_residual_is_not_a_root_inside_the_hypotheses(self):
        # 0.999997 stays positive with residual 8.2e-7, 3e-6 from the
        # constant: it is not regular, and its bracket is searched
        rep = S.bv_sphere_scan(3, 3.0, 1.0, [0.999997, 1.3])
        assert rep["hypotheses"]["within_theorem"]
        assert 0 < rep["cells"][0]["residual"] <= S._BV_RESIDUAL_TOL
        [root] = rep["bisection_roots"]
        assert rep["regular_u0"] == [root["u0"]]
        assert abs(root["u0"] - 1.0) <= 1e-9
        assert rep["pass"]
        alone = S.bv_sphere_scan(3, 3.0, 1.0, [0.999997])
        assert alone["regular_u0"] == [] and not alone["pass"]

    def test_midpoint_constant_takes_one_step(self):
        # 0.7 and 1.3 bracket the constant at their midpoint: 3 solves
        rep = S.bv_sphere_scan(3, 3.0, 1.0, [0.7, 1.3])
        assert rep["bisection_roots"] == [{"u0": 1.0, "grade": 0.0, "steps": 1}]

    def test_search_stops_on_the_bracket_only(self):
        # a grade of about 1e-12 near the root does not stop the search;
        # the bracket width 1e-10 max(1, |pos|) does (no solves)
        root, cell, g, steps = S._sign_change(
            lambda u0: {"u0": u0}, lambda c: 1e-12 * (0.3 - c["u0"]), 0.0, 1.0)
        assert abs(root - 0.3) < 1e-10 and cell == {"u0": root}
        assert g == 1e-12 * (0.3 - root) and steps == 34
        # an exact zero and an ungraded midpoint end it at once
        assert S._sign_change(lambda u0: u0, lambda c: 0.0, 0.0, 1.0) == (0.5, 0.5, 0.0, 1)
        assert S._sign_change(lambda u0: u0, lambda c: None, 0.0, 1.0) == (0.5, 0.5, None, 1)

    def test_ungraded_root_fails_the_scan(self, monkeypatch):
        # a search midpoint whose solve failed leaves its sign change
        # unresolved, so the scan fails closed (3 solves)
        solve = S._bv_single

        def failing_midpoints(model, q, lam, u0):
            cell = solve(model, q, lam, u0)
            if u0 not in (0.7, 1.3):
                cell.update(outcome="inconclusive", reason="forced", status=-1)
            return cell

        monkeypatch.setattr(S, "_bv_single", failing_midpoints)
        rep = S.bv_sphere_scan(3, 3.0, 1.0, [0.7, 1.3])
        assert rep["bisection_roots"] == [{"u0": 1.0, "grade": None, "steps": 1}]
        assert rep["regular_u0"] == [] and rep["pass"] is False


class TestSharedCellVocabulary:
    """Both radial scans build their cells from one record: the common
    keys below, then alpha, r_cross and tail_exponent (and from_u0 on a
    read-off cell) in the dichotomy scan, residual and min_u in the
    sphere scan.  Each test makes at most four solves."""

    COMMON = ("u0", "outcome", "reason", "nfev", "status")

    @staticmethod
    def cells(scan_u0, sphere_u0):
        scan = S.liouville_scan(3, 2.0, [5.0], [scan_u0], horizon=100.0)["cells"][0]
        sphere_cell = S.bv_sphere_scan(3, 3.0, 1.0, [sphere_u0])["cells"][0]
        return scan, sphere_cell

    def test_common_keys_carry_the_same_types(self):
        scan, sphere_cell = self.cells(1.0, 1.0)
        for cell in (scan, sphere_cell):
            assert [type(cell[k]) for k in self.COMMON] == [
                float, str, type(None), int, int]
        assert set(scan) - set(self.COMMON) == {"alpha", "r_cross", "tail_exponent"}
        assert set(sphere_cell) - set(self.COMMON) == {"residual", "min_u"}

    @pytest.mark.parametrize("u0,reasons", [
        (1e200, ["non-finite state at r=0.0001"] * 2),
        (1e3, ["series start error 1.39e+07 exceeds 1e-08",
               "series start error 8.33e-06 exceeds 1e-08"]),
    ])
    def test_failed_solve_is_inconclusive_in_both(self, u0, reasons):
        # a status -1 solve, from overflow or from a coarse series start
        cells = self.cells(u0, u0)
        assert [(c["outcome"], c["status"], c["reason"]) for c in cells] == [
            ("inconclusive", -1, reason) for reason in reasons]

    def test_nonpositive_u0_is_an_error_cell_in_both(self):
        for cell in self.cells(0.0, 0.0):
            assert {k: cell[k] for k in self.COMMON} == {
                "u0": 0.0, "outcome": "error", "reason": "u0 must be positive",
                "nfev": None, "status": None}


class TestSphereScanTolerance:
    def test_reports_the_residual_bound_it_applied(self):
        # exactly 0 inside the hypotheses, where only an exact zero or a
        # graded root is regular; 1e-6 outside them
        inside = S.bv_sphere_scan(3, 3.0, 1.0, [1.0])
        outside = S.bv_sphere_scan(3, 5.0, 0.75, [1.0])
        assert inside["hypotheses"]["within_theorem"]
        assert not outside["hypotheses"]["within_theorem"]
        assert (inside["residual_tol"], outside["residual_tol"]) == (0.0, 1e-6)


class TestKnownFailures:
    """The 14 wrong verdicts of the benchmark's radial-solves workload,
    pinned at its own grid so that a change to any of them shows without
    running the benchmark: each is a defect the lab reports but has not
    mended.  About 0.04 s in all."""

    U0 = (0.5, 1.0, 2.0)

    def row(self, n, p, factor):
        alpha = factor * critical_exponent(n, p)
        cells = S.liouville_scan(n, p, [alpha], self.U0, horizon=2000.0)["cells"]
        return {c["u0"]: (c["outcome"], c["tail_exponent"]) for c in cells}

    @pytest.mark.parametrize("n,p,factor,pinned", [
        (4, 3.0, 0.98, {0.5: -0.5588431995011198, 1.0: -0.7130486203444376}),
        (3, 2.5, 0.8, {0.5: -0.8036330741421343}),
        (3, 2.5, 0.9, {0.5: -0.44193842864181077, 1.0: -1.3620171692947847}),
        (3, 2.5, 0.98, {0.5: -0.346781804098055, 1.0: -0.38569384586463085,
                        2.0: -0.5825046710786934}),
    ])
    def test_horizon_mislabels(self, n, p, factor, pinned):
        # ROADMAP items 1(a) and 11: subcritical cells read stayed_positive
        # at the horizon 2000, where the true solution crosses zero later
        row = self.row(n, p, factor)
        assert {u0: row[u0] for u0 in pinned} == {
            u0: ("stayed_positive", tail) for u0, tail in pinned.items()}
        assert all(row[u0][0] == "crossed_zero" for u0 in self.U0 if u0 not in pinned)

    def test_critical_tails(self):
        # ROADMAP items 1(b) and 11: at alpha = p_s on R^4, p = 1.5 the
        # p < 2 tail misses its exponent -(n-p)/(p-1) = -5
        assert self.row(4, 1.5, 1.0) == {
            0.5: ("stayed_positive", -4.607194685298331),
            1.0: ("stayed_positive", -3.8357202467775275),
            2.0: ("stayed_positive", -2.718674608822269),
        }

    @pytest.mark.parametrize("n,p,residual", [
        (4, 1.5, 1.2222851632756933e-06),
        (3, 1.3, 8.149136365646261e-06),
        (6, 1.2, 3.852923617436016e+18),
    ])
    def test_p_below_2_bubble_match(self, n, p, residual):
        # ROADMAP items 1 and 11: the p < 2 bubbles miss the 1e-6
        # trajectory tolerance
        rep = S.bubble_match(n, p, 1.0, horizon=20.0)
        assert rep["max_rel_residual"] == residual
        assert rep["tol"] == 1e-6 and not rep["pass"]


class TestSphereScanStartError:
    """ROADMAP items 1 and 23: the sphere scan at (n, q) = (3, 3) and
    1.5 lam* (lam = 2.25) reads ``pass`` False.  Its bisection between
    u0 = 4.05 (stayed positive) and 4.2 (crossed) converges on a
    near-regular solution whose flux vanishes at the antipode, and the
    series-start rule divides by |m| at the run's last point.  Pinned as
    a known defect, not mended: measured against the run's largest |m|
    the start error would be about 2e-15.  About 0.15 s."""

    def test_bisection_root_reads_inconclusive(self):
        scan = S.bv_sphere_scan(3, 3.0, 2.25, np.linspace(0.3, 4.5, 29))
        below, above = scan["cells"][-4:-2]
        assert (below["u0"], below["outcome"]) == (4.05, "stayed_positive")
        assert below["residual"] == pytest.approx(6.58e-3, rel=1e-3)
        assert (above["u0"], above["outcome"]) == (4.2, "crossed_zero")
        root = 4.125759972352535
        assert scan["bisection_roots"] == [{"u0": root, "grade": None, "steps": 29}]
        assert scan["pass"] is False
        model, term = sphere(3, 1.0), ReactionTerm.linear_minus_power(3.0, 2.25)
        cell = S._bv_single(model, 3.0, 2.25, root)
        assert (cell["outcome"], cell["reason"]) == (
            "inconclusive", "series start error 3.26e-08 exceeds 1e-08")
        sol = S._integrate(model, 2.0, term, root, model.r_max - S._ANTIPODAL_GAP,
                           atol=S._BV_ATOL)
        m = np.abs(sol.m)
        assert m[-1] < 1e-10 and m.max() > 1.0
