"""Exponent landscape, subcriticality conditions, classifier, bubble."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdenlab import exponents as E
from emdenlab.errors import InputError, PreconditionError


class TestCriticalExponent:
    def test_semilinear_agreement(self):
        # p = 2 reduces to (n+2)/(n-2), exactly as rationals of floats
        for n in range(3, 11):
            assert E.critical_exponent(n, 2.0) == (n + 2) / (n - 2)

    def test_reference_values(self):
        assert E.critical_exponent(3, 2.0) == 5.0
        assert E.critical_exponent(4, 4.0) == math.inf
        assert E.critical_exponent(5, 2.0) == pytest.approx(7.0 / 3.0, rel=1e-15)

    def test_infinite_exactly_when_positive_part_vanishes(self):
        for n in (2, 3, 5):
            for p in (float(n), n + 0.5, n + 2.0):
                assert E.critical_exponent(n, p) == math.inf
            assert E.critical_exponent(n, n - 1e-9) < math.inf


class TestThresholdTable:
    def test_values_at_3_2(self):
        tbl = {r.name: r for r in E.threshold_table(3, 2.0)}
        assert tbl["ps"].value == 5.0
        assert tbl["wang_wei"].value == 3.0
        assert tbl["serrin_zou_ineq"].value == 3.0
        assert tbl["cheng_yau_li"].value == pytest.approx(
            2.0 + 2.0 / math.sqrt(3.0), rel=1e-15
        )
        assert tbl["cheng_yau_li"].valid

    def test_two_dimensional_branch(self):
        tbl = {r.name: r for r in E.threshold_table(2, 1.3)}
        expected = 2 * 0.3**2 * 1.9 / (0.1 * 0.7)
        assert tbl["main2_C"].value == pytest.approx(expected, rel=1e-12)
        assert tbl["main2_C"].valid

    def test_positive_part_convention(self):
        tbl = {r.name: r for r in E.threshold_table(3, 3.0)}
        assert tbl["serrin_zou_ineq"].value == math.inf
        assert tbl["ps"].value == math.inf

    def test_infinities_are_real_infinities(self):
        for rec in E.threshold_table(4, 4.0):
            if rec.value == math.inf:
                assert rec.value > 1e300 and math.isinf(rec.value)


class TestSubcriticality:
    def test_pure_power_zero_margin(self):
        term = E.ReactionTerm.pure_power(2.5)
        assert E.is_subcritical(term, 2.5)[0]

    def test_power_log_family(self):
        term = E.ReactionTerm.power_log(2.0, -1.0)
        assert E.is_subcritical(term, 2.0)[0]
        bad = E.ReactionTerm.power_log(2.0, 0.5)
        ok, witness = E.is_subcritical(bad, 2.0)
        assert not ok and witness is not None

    def test_two_power_family_sign_condition(self):
        # t^3 + t^2 tested at exponent 2: coefficient 1*(2-3) < 0 fails
        term = E.ReactionTerm.two_power(3.0, 1.0, 2.0)
        ok, witness = E.is_subcritical(term, 2.0)
        assert not ok and witness > 0
        assert E.is_subcritical(term, 3.0)[0]

    def test_rational_family(self):
        term = E.ReactionTerm.rational(3.0, 2.0)
        assert E.is_subcritical(term, 3.0)[0]

    @settings(max_examples=80, deadline=None)
    @given(
        alpha=st.floats(min_value=-2.0, max_value=6.0, allow_subnormal=False),
        alpha_test=st.floats(min_value=-2.0, max_value=6.0, allow_subnormal=False),
    )
    def test_pure_power_threshold_property(self, alpha, alpha_test):
        # margin (a' - a) t^a tested against the documented relative slack
        term = E.ReactionTerm.pure_power(alpha)
        ok, _ = E.is_subcritical(term, alpha_test)
        slack = 1e-12 * (abs(alpha) + abs(alpha_test))
        if abs(alpha_test - alpha) <= slack:
            return  # inside the tolerance strip either verdict is honest
        assert ok == (alpha_test >= alpha)

    def test_nan_evaluator_rejected(self):
        term = E.ReactionTerm(
            lambda t: np.where(t > 1, np.nan, t), lambda t: np.ones_like(t), "mixed"
        )
        with pytest.raises(InputError):
            E.is_subcritical(term, 1.0)

    def test_overflow_rejected(self):
        # t^60 overflows on the top of the grid [1e-6, 1e6]
        term = E.ReactionTerm.pure_power(60.0)
        with pytest.raises(InputError):
            E.is_subcritical(term, 60.0)
        with pytest.raises(InputError):
            E.satisfies_f2(term, 0.0, 3, 2.0)
        with pytest.raises(InputError):
            E.minimal_delta0(term, 3, 2.0)


#: every constructor with a hand-written f', at one or two parameter points
KEPT_TERMS = {
    "pure_power(2.5)": E.ReactionTerm.pure_power(2.5),
    "pure_power(-1)": E.ReactionTerm.pure_power(-1.0),
    "power_log(2,-1)": E.ReactionTerm.power_log(2.0, -1.0),
    "power_log(2,0.5)": E.ReactionTerm.power_log(2.0, 0.5),
    "two_power(3,1,2)": E.ReactionTerm.two_power(3.0, 1.0, 2.0),
    "two_power(2,-1,1.5)": E.ReactionTerm.two_power(2.0, -1.0, 1.5),
    "rational(3,2)": E.ReactionTerm.rational(3.0, 2.0),
    "rational(1,3)": E.ReactionTerm.rational(1.0, 3.0),
    "linear_minus_power(5,1)": E.ReactionTerm.linear_minus_power(5.0, 1.0),
    "zero": E.ReactionTerm.zero(),
}


@pytest.mark.parametrize("name", sorted(KEPT_TERMS))
def test_fprime_matches_central_difference(name):
    term = KEPT_TERMS[name]
    t = np.geomspace(1e-3, 1e3, 61)
    h = 1e-5 * t
    fd = (term(t + h) - term(t - h)) / (2.0 * h)
    scale = np.abs(term.deriv(t)) + np.abs(term(t)) / t
    np.testing.assert_array_less(np.abs(fd - term.deriv(t)), 1e-6 * scale + 1e-300)


#: each constructor's f and f' in the np.power form that ``**`` replaced;
#: the exponents cover numpy's scalar-power fast paths (2, 0.5, -1, 1)
NP_POWER_FORMS = {
    "pure_power(2)": (E.ReactionTerm.pure_power(2.0),
                      lambda t: np.power(t, 2.0), lambda t: 2.0 * np.power(t, 1.0)),
    "pure_power(0.5)": (E.ReactionTerm.pure_power(0.5),
                        lambda t: np.power(t, 0.5), lambda t: 0.5 * np.power(t, -0.5)),
    "pure_power(-1)": (E.ReactionTerm.pure_power(-1.0),
                       lambda t: np.power(t, -1.0), lambda t: -np.power(t, -2.0)),
    "pure_power(1.5)": (E.ReactionTerm.pure_power(1.5),
                        lambda t: np.power(t, 1.5), lambda t: 1.5 * np.power(t, 0.5)),
    "pure_power(3)": (E.ReactionTerm.pure_power(3.0),
                      lambda t: np.power(t, 3.0), lambda t: 3.0 * np.power(t, 2.0)),
    "power_log(2,-1)": (
        E.ReactionTerm.power_log(2.0, -1.0),
        lambda t: np.power(t, 2.0) * np.log1p(t) ** -1.0,
        lambda t: np.power(t, 1.0) * np.log1p(t) ** -2.0 * (
            2.0 * np.log1p(t) + -1.0 * t / (1.0 + t))),
    "two_power(2,-1,1.5)": (
        E.ReactionTerm.two_power(2.0, -1.0, 1.5),
        lambda t: np.power(t, 2.0) + -1.0 * np.power(t, 1.5),
        lambda t: 2.0 * np.power(t, 1.0) + -1.0 * 1.5 * np.power(t, 0.5)),
    "rational(3,2)": (
        E.ReactionTerm.rational(3.0, 2.0),
        lambda t: np.power(t, 3.0) / (1.0 + np.power(t, 2.0)),
        lambda t: np.power(t, 2.0) * (3.0 + 1.0 * np.power(t, 2.0)) / (
            1.0 + np.power(t, 2.0)) ** 2),
    "linear_minus_power(5,1)": (
        E.ReactionTerm.linear_minus_power(5.0, 1.0),
        lambda t: np.power(t, 5.0) - 1.0 * t,
        lambda t: 5.0 * np.power(t, 4.0) - 1.0),
    "zero": (E.ReactionTerm.zero(), np.zeros_like, np.zeros_like),
}


@pytest.mark.parametrize("name", sorted(NP_POWER_FORMS))
def test_array_values_are_the_np_power_bits(name):
    term, f_ref, fp_ref = NP_POWER_FORMS[name]
    t = np.concatenate([np.geomspace(1e-6, 1e6, 1201),
                        np.random.default_rng(0).uniform(0.0, 10.0, 1000)[1:]])
    assert np.array_equal(term(t), f_ref(t))
    assert np.array_equal(term.deriv(t), fp_ref(t))


@pytest.mark.parametrize("term", [E.ReactionTerm.pure_power(np.float64(3.0)),
                                  E.ReactionTerm.linear_minus_power(np.float64(3.0),
                                                                    np.float64(0.5))])
def test_float_argument_stays_a_float(term):
    # numpy parameters are coerced, so a Python float never becomes a
    # numpy scalar; the value is the array path's up to libm rounding
    for t in (0.5, 1.0, 7.25):
        for fun in (term.f, term.fprime):
            got = fun(t)
            assert type(got) is float
            assert got == pytest.approx(float(fun(np.array([t]))[0]), rel=1e-15)
    g = term.extended_scalar()
    assert type(g(0.5)) is float and g(-0.5) == -g(0.5) and g(0.0) == 0.0


def _counting(term):
    calls = {"f": 0, "fprime": 0}

    def f(t):
        calls["f"] += 1
        return term.f(t)

    def fprime(t):
        calls["fprime"] += 1
        return term.fprime(t)

    return E.ReactionTerm(f, fprime, term.sign_class), calls


class TestOneGridPass:
    def test_satisfies_f2_evaluates_once(self):
        term, calls = _counting(E.ReactionTerm.pure_power(2.5))
        E.satisfies_f2(term, 0.0, 3, 2.0)
        assert calls == {"f": 1, "fprime": 1}

    def test_minimal_delta0_evaluates_once(self):
        # 2.5 at (3, 2) needs the full bisection (answer 0.5)
        term, calls = _counting(E.ReactionTerm.pure_power(2.5))
        assert E.minimal_delta0(term, 3, 2.0) == pytest.approx(0.5, abs=1e-8)
        assert calls == {"f": 1, "fprime": 1}


class TestDelta0Condition:
    def test_quadratic_boundary_zero(self):
        # t^2 at (n, p) = (3, 2): the condition holds exactly at delta0 = 0
        term = E.ReactionTerm.pure_power(2.0)
        assert E.satisfies_f2(term, 0.0, 3, 2.0)[0]
        d0 = E.minimal_delta0(term, 3, 2.0)
        assert abs(d0) <= 1e-8

    def test_zero_term_any_delta0(self):
        term = E.ReactionTerm.zero()
        assert E.satisfies_f2(term, -5.0, 3, 2.0)[0]
        assert E.satisfies_f2(term, 0.999, 3, 2.0)[0]
        assert E.minimal_delta0(term, 3, 2.0) == -8.0  # search floor

    def test_gradient_range_endpoint_fails(self):
        # alpha = (n+3)(p-1)/(n-1) = 3 at (3, 2): no delta0 < 1 works
        term = E.ReactionTerm.pure_power(3.0)
        d0 = E.minimal_delta0(term, 3, 2.0)
        assert d0 is None or d0 > 1.0 - 1e-6

    def test_linear_inequality_solution(self):
        # for nonnegative powers: minimal delta0 = ((n-1)a/(p-1)-(n+1))/2
        for n, p, alpha in [(3, 2.0, 2.5), (4, 3.0, 5.0)]:
            term = E.ReactionTerm.pure_power(alpha)
            expected = ((n - 1) * alpha / (p - 1) - (n + 1)) / 2.0
            d0 = E.minimal_delta0(term, n, p)
            if expected < -8.0:
                assert d0 == -8.0
            elif expected >= 1.0:
                assert d0 is None or d0 > 1 - 1e-6
            else:
                assert d0 == pytest.approx(expected, abs=1e-7)

    def test_params_validation(self):
        with pytest.raises(PreconditionError):
            E.GradientEstimateParams(delta0=1.0, p=2.0)
        params = E.GradientEstimateParams(delta0=-3.0, p=2.0)
        assert params.delta0_plus == 0.0 and params.lambda0 == 2.0
        with pytest.raises(PreconditionError):
            E.HarnackConfig(n=3, p=2.0, q=3.5)
        cfg = E.HarnackConfig(n=3, p=2.0, q=1.0)
        assert cfg.chi == 3.0


class TestClassifier:
    def test_subcritical_pure_power_nonexistence(self):
        v = E.classify_liouville(3, 2.0, 4.9, sign="positive", pure_power=True)
        assert v.verdict == "no_positive_solution"
        assert v.theorem_tag == "2.1"

    def test_critical_bubble_out_of_range(self):
        v = E.classify_liouville(3, 2.0, 5.0, sign="positive", pure_power=True)
        assert v.verdict == "out_of_range"
        assert any("bubble" in note for note in v.notes)

    def test_negated_power(self):
        v = E.classify_liouville(3, 2.0, 1.5, sign="nonpositive",
                                 pure_power=False, negated_power=True)
        assert v.verdict == "no_positive_solution"
        assert "2.2" in v.theorems

    def test_two_dimensional_small_p(self):
        v = E.classify_liouville(2, 1.1, 0.02, sign="positive")
        assert v.verdict == "constant_forced"
        assert "2.6C" in v.theorems

    def test_supercritical_declared_exponent_out_of_range(self):
        # alpha above p_s: no hypothesis matches (entire solutions exist)
        v = E.classify_liouville(2, 1.3, 3.0, sign="positive")
        assert v.verdict == "out_of_range"

    def test_growth_cases(self):
        v = E.classify_liouville(3, 2.0, 4.0, sign="nonnegative",
                                 has_liminf_growth=True)
        assert "2.8i" in v.theorems and "2.9IV" in v.theorems
        v2 = E.classify_liouville(3, 2.0, 4.0, sign="mixed",
                                  has_liminf_growth=True)
        assert "2.8ii" in v2.theorems  # p > n/2 and alpha below the branch bound

    def test_gradient_window(self):
        v = E.classify_liouville(3, 2.0, 2.0, sign="mixed")
        assert "2.3" in v.theorems and v.verdict == "constant_forced"
        v2 = E.classify_liouville(3, 2.0, 1.5, sign="nonpositive")
        assert "cor2.1b" in v2.theorems

    def test_contradictory_flags(self):
        with pytest.raises(InputError):
            E.classify_liouville(3, 2.0, 2.0, sign="nonpositive", pure_power=True)
        with pytest.raises(InputError):
            E.classify_liouville(3, 2.0, 2.0, pure_power=True, negated_power=True)

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(min_value=0.1, max_value=4.89))
    def test_monotone_in_alpha_for_pure_powers(self, alpha):
        # nonexistence at alpha implies nonexistence at every smaller
        # positive alpha (same validity window)
        v_hi = E.classify_liouville(3, 2.0, 4.9, sign="positive", pure_power=True)
        v = E.classify_liouville(3, 2.0, alpha, sign="positive", pure_power=True)
        assert v_hi.verdict == "no_positive_solution"
        assert v.verdict == "no_positive_solution"


class TestEmdenBubble:
    def test_center_values(self):
        assert E.emden_bubble(3, 2.0, 1.0)(0.0) == pytest.approx(
            3.0**0.25, abs=1e-9
        )
        assert E.emden_bubble(3, 2.0, 2.0)(0.0) == pytest.approx(
            (math.sqrt(3.0) / 2.0) ** 0.5, abs=1e-9
        )

    def test_center_value_high_precision(self):
        # closed form evaluated with mpmath as the oracle
        with mpmath.workdps(40):
            lam, n, p = mpmath.mpf(2), 3, 2
            top = lam * mpmath.sqrt(3)
            ref = float((top / lam**2) ** mpmath.mpf("0.5"))
        assert E.emden_bubble(3, 2.0, 2.0)(0.0) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("n,p,lam", [
        (3, 2.0, 1.0), (3, 2.0, 2.0), (4, 2.0, 1.0), (5, 3.0, 1.0),
        (6, 1.2, 1.0), (3, 1.3, 1.0), (4, 1.5, 1.0),
    ])
    def test_residual_on_acceptance_grid(self, n, p, lam):
        grid = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 300)])
        rep = E.emden_residual(n, p, lam, grid)
        assert rep["pass"] and rep["max_rel_residual"] <= 1e-8

    def test_scaling_coherence(self):
        # every member of the scale family solves the equation
        grid = np.geomspace(1e-2, 20.0, 200)
        for lam in (0.5, 1.0, 2.0):
            assert E.emden_residual(3, 2.0, lam, grid)["pass"]

    def test_scale_map_between_members(self):
        # u_lam(r) = lam^{-s} u_1(r/lam), s = (n-p)/p
        n, p, lam = 3, 2.0, 2.0
        s = (n - p) / p
        r = np.linspace(0.0, 8.0, 50)
        u_lam = E.emden_bubble(n, p, lam)(r)
        u_one = E.emden_bubble(n, p, 1.0)(r / lam)
        np.testing.assert_allclose(u_lam, lam ** (-s) * u_one, rtol=1e-12)

    def test_domain_guard(self):
        with pytest.raises(PreconditionError):
            E.emden_bubble(3, 3.0, 1.0)
        with pytest.raises(PreconditionError):
            E.emden_bubble(3, 2.0, -1.0)

    def test_exact_coefficient_audit(self):
        aud = E.bubble_coefficient_audit(3, 2)
        assert aud["alpha_critical"] == Fraction(5, 1)
        assert aud["grad2p_factor"] == 0 and aud["grad2p_factor_is_zero"]
        assert aud["mixed_vanishes"]
        for n, p in [(4, Fraction(3, 2)), (5, Fraction(7, 3)), (7, 2)]:
            aud = E.bubble_coefficient_audit(n, p)
            assert aud["grad2p_factor_is_zero"] and aud["mixed_vanishes"]
