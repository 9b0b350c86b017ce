"""Gradient-bound sharpness, scaling structure, Harnack-type ratios."""

import math

import mpmath
import numpy as np
import pytest

from emdenlab import estimates as E
from emdenlab.errors import InputError, NumericalError, PreconditionError


def _extremal_oracle(n, p, kappa, radii):
    """int_r^inf sinh(sqrt(kappa) s)^{-beta} ds at 30 digits.  mpmath's
    quadrature error is absolute, so the integrand is scaled by
    e^{beta sqrt(kappa) r}, its size at r, and the result scaled back."""
    with mpmath.workdps(30):
        beta = mpmath.mpf(n - 1) / (mpmath.mpf(p) - 1)
        sq = mpmath.sqrt(kappa)
        out = []
        for r in map(mpmath.mpf, radii):
            scale = mpmath.exp(beta * sq * r)
            val = mpmath.quad(lambda s: scale * mpmath.sinh(sq * s) ** -beta,
                              [r, r + 1, mpmath.inf])
            out.append(float(val / scale))
        return np.array(out)


class TestHyperbolicExtremal:
    def test_log_gradient_approaches_bound(self):
        prof = E.hn_p_harmonic_profile(3, 2.0, 1.0)
        assert prof.certified
        # bound (n-1) sqrt(kappa) / (p-1) = 2
        assert prof.limit_estimate == pytest.approx(2.0, rel=1e-6)
        assert prof.sup_g == pytest.approx(2.0, rel=1e-5)

    def test_monotone_toward_limit(self):
        # the log-gradient decreases to the bound along the tail grid
        prof = E.hn_p_harmonic_profile(4, 3.0, 0.25)
        assert np.all(np.diff(prof.g) <= 1e-12 * prof.sup_g)
        assert prof.g[-1] >= prof.limit_estimate - 1e-9

    def test_p3_example(self):
        prof = E.hn_p_harmonic_profile(3, 3.0, 1.0)
        # g at radius 20 within one percent of the bound 1
        k = int(np.argmin(np.abs(prof.grid - 20.0)))
        assert abs(prof.g[k] - 1.0) <= 0.01

    def test_flux_constancy_certificate(self):
        prof = E.hn_p_harmonic_profile(2, 1.5, 4.0)
        assert prof.residual_max <= 1e-9

    @pytest.mark.parametrize("n,p,kappa", [(2, 1.5, 0.25), (2, 3.0, 4.0), (4, 1.5, 4.0),
                                           (4, 3.0, 0.25), (3, 2.0, 1.0)])
    def test_series_against_mpmath_on_criterion_7_corners(self, n, p, kappa):
        prof = E.hn_p_harmonic_profile(n, p, kappa)
        idx = np.r_[0:160:53, 159]
        ref = _extremal_oracle(n, p, kappa, prof.grid[idx])
        np.testing.assert_allclose(prof.u[idx], ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n,p", [(3, 2.0), (2, 3.0), (4, 1.5)])
    def test_series_against_mpmath_near_the_pole(self, n, p):
        grid = np.geomspace(0.05, 2.0, 40)
        prof = E.hn_p_harmonic_profile(n, p, 1.0, grid=grid)
        idx = np.r_[0:40:13, 39]
        ref = _extremal_oracle(n, p, 1.0, grid[idx])
        np.testing.assert_allclose(prof.u[idx], ref, rtol=1e-13, atol=0.0)

    def test_series_term_cap_fails_closed(self):
        # sqrt(kappa) r = 1e-4 needs about 2e5 terms, past the cap
        grid = np.array([1e-4, 0.5, 1.0])
        with pytest.raises(NumericalError, match=r"terms at r=0\.0001$"):
            E.hn_p_harmonic_profile(3, 2.0, 1.0, grid=grid)

    def test_series_underflow_fails_closed(self):
        # e^{-2 * 400} underflows: u would read 0 at the last radius
        with pytest.raises(NumericalError, match="not finite and positive"):
            E.hn_p_harmonic_profile(3, 2.0, 1.0, grid=np.array([10.0, 400.0]))

    @pytest.mark.parametrize("kappa,r_tail", [(1.0, 9.0), (1.0, 5.0), (4.0, 4.5)])
    def test_tail_radius_must_pass_the_grid_start(self, kappa, r_tail):
        # at the start the grid is 160 copies of one radius, below it the
        # grid decreases: either way the tail fit reads nothing
        with pytest.raises(PreconditionError, match="grid start"):
            E.hn_p_harmonic_profile(3, 2.0, kappa, r_tail=r_tail)

    @pytest.mark.parametrize("size", [3, 5, 7])
    def test_short_grid_fails_closed(self, size):
        # a grid of 5 radii fitted its tail through one point and read
        # limit_estimate 1.0000000000007 against the bound 2 (sharp False);
        # one of 3 fitted the whole grid; both need 8 radii now.  About 1 ms
        with pytest.raises(PreconditionError, match="at least 8 radii"):
            E.hn_p_harmonic_profile(3, 2.0, 1.0, grid=np.arange(10.0, 10.0 + size))

    def test_eight_radii_fit_two_points(self):
        prof = E.hn_p_harmonic_profile(3, 2.0, 1.0, grid=np.geomspace(20.0, 30.0, 8))
        assert prof.limit_estimate == pytest.approx(2.0, rel=1e-9)
        assert E.global_bound_check(prof, 3, 2.0, 1.0)["sharp"]

    def test_pole_excess_visible_on_inner_grid(self):
        # near the puncture the profile is not entire and exceeds the bound
        prof = E.hn_p_harmonic_profile(3, 2.0, 1.0, grid=np.geomspace(0.05, 2.0, 40))
        assert prof.sup_g > 2.0 * 1.5


class TestGlobalBound:
    def test_pass_and_sharp(self):
        prof = E.hn_p_harmonic_profile(3, 2.0, 1.0)
        chk = E.global_bound_check(prof, 3, 2.0, 1.0, 0.0)
        assert chk["pass"] and chk["sharp"]
        assert chk["bound"] == pytest.approx(2.0, rel=1e-15)

    def test_delta0_relaxes_bound(self):
        prof = E.hn_p_harmonic_profile(3, 2.0, 1.0)
        chk = E.global_bound_check(prof, 3, 2.0, 1.0, 0.5)
        assert chk["bound"] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
        assert chk["pass"] and not chk["sharp"]

    def test_flat_limit_consistency(self):
        # kappa -> 0: the bound is 0 and constants are the only radial
        # entire profiles; a constant has zero log-gradient
        grid = np.linspace(1.0, 10.0, 20)
        prof = E.LogGradientProfile(
            grid=grid, u=np.ones_like(grid), g=np.zeros_like(grid),
            sup_g=0.0, limit_estimate=0.0, certified=True, residual_max=0.0,
        )
        bound = (3 - 1) / (2 - 1) * math.sqrt(0.0)
        assert prof.sup_g <= bound

    def test_uncertified_rejected(self):
        grid = np.linspace(1.0, 2.0, 5)
        prof = E.LogGradientProfile(
            grid=grid, u=np.ones_like(grid), g=np.zeros_like(grid),
            sup_g=0.0, limit_estimate=0.0, certified=False, residual_max=1.0,
        )
        with pytest.raises(PreconditionError):
            E.global_bound_check(prof, 3, 2.0, 1.0)


class TestLocalScaling:
    def test_affine_quantity_four_thirds(self):
        out = E.local_scaling_check(3, 2.0, radii=(1.0, 2.0))
        affine = next(m for m in out["members"] if m["kind"] == "affine_dilated")
        assert affine["quantities"][0] == pytest.approx(4.0 / 3.0, rel=1e-6)

    def test_dilation_invariance(self):
        out = E.local_scaling_check(3, 2.0)
        assert out["pass"]
        for member in out["members"]:
            assert abs(member["log_slope"]) <= 0.05
            q = member["quantities"]
            np.testing.assert_allclose(q, q[0], rtol=1e-9)

    def test_fundamental_profile_dimension_two(self):
        # |x - x0|^{(p-n)/(p-1)} with p=3, n=2: exponent 1/2
        out = E.local_scaling_check(2, 3.0)
        fund = next(m for m in out["members"] if m["kind"] == "fundamental")
        assert fund["pass"]
        assert fund["quantities"][0] == pytest.approx(0.5 / 2.75, rel=1e-6)

    def test_no_radii_rejected(self):
        with pytest.raises(PreconditionError, match="at least one radius"):
            E.local_scaling_check(3, 2.0, radii=())

    @pytest.mark.parametrize("radii", [(4.0,), (4.0, 4.0)])
    def test_one_distinct_radius_rejected(self, radii):
        # a slope from one radius read 0.0 and passed; it fails closed now
        with pytest.raises(PreconditionError, match="two distinct x"):
            E.local_scaling_check(3, 2.0, radii=radii)

    def test_quantity_past_the_floats_fails_closed(self):
        # at R = 1e-320, 1/R overflows: the quantity is inf and the slope fit
        # raises (it read log_slope nan and pass False)
        with pytest.raises(NumericalError, match="not finite"):
            E.local_scaling_check(3, 2.0, radii=(1e-320, 1.0))


class TestHarnackRatios:
    def test_constant_profile_scale_free(self):
        rep = E.weak_harnack_ratio("constant", 3, 2.0, 1.0)
        assert rep["pass"]
        assert rep["band"] == pytest.approx(1.0, rel=1e-9)

    def test_inverse_sqrt_band(self):
        rep = E.weak_harnack_ratio("inverse_sqrt", 3, 2.0, 1.0)
        assert rep["pass"] and rep["min_rho"] > 0
        assert rep["band"] <= 1e3

    def test_smoothed_cap_band(self):
        rep = E.weak_harnack_ratio("smoothed_cap", 3, 2.0, 2.0)
        assert rep["pass"]

    def test_constant_profile_certifies_below_p2(self):
        # u' = 0 everywhere, so |u'|^{p-2} is infinite at p < 2: the
        # certificate masks those points without a floating-point warning
        cert = E.certify_p_superharmonic(E.named_profile("constant"), 3, 1.5, 10.0)
        assert cert["certified"] and cert["worst_margin"] == 0.0

    def test_q_window_enforced(self):
        with pytest.raises(PreconditionError):
            E.weak_harnack_ratio("constant", 3, 2.0, 3.0)  # (p-1)chi = 3

    def test_subharmonic_profile_rejected(self):
        grow = E.RadialProfileSpec(
            "growing",
            lambda r: (1.0 + r**2) ** 0.5,
            lambda r: r * (1.0 + r**2) ** -0.5,
            lambda r: (1.0 + r**2) ** -1.5,
        )
        with pytest.raises(PreconditionError):
            E.weak_harnack_ratio(grow, 3, 2.0, 1.0)

    def test_local_max_principle_constant_unity(self):
        rep = E.local_max_principle_ratio("constant", 3, 2.0, 1.0)
        for row in rep["rows"]:
            assert row["ratio"] == pytest.approx(1.0, rel=1e-9)

    def test_local_max_principle_volume_is_closed_form(self):
        # V_R = omega_{n-1} R^n / n, within 1e-15 of the quadrature's value
        from emdenlab.geometry import ball_volume, euclidean, unit_sphere_area

        rep = E.local_max_principle_ratio("inverse_sqrt", 3, 2.0, 2.0)
        for row in rep["rows"]:
            vol = unit_sphere_area(3) * row["R"] ** 3 / 3
            assert row["ratio"] == row["sup_inv"] / (vol ** -0.5 * row["norm"])
            assert vol == pytest.approx(ball_volume(euclidean(3), row["R"]), rel=1e-15)

    def test_local_max_principle_decaying(self):
        rep = E.local_max_principle_ratio("inverse_sqrt", 3, 2.0, 1.0)
        assert rep["pass"] and rep["band"] <= 1e3
        rep2 = E.local_max_principle_ratio("smoothed_cap", 3, 2.0, 1.0)
        assert rep2["pass"]

    @pytest.mark.parametrize("profile", ["constant", "inverse_sqrt", "smoothed_cap"])
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_ball_norms_against_scipy(self, profile, q):
        # the (power, radius) pairs of both default sweeps on R^3
        from scipy.integrate import quad

        spec = E.named_profile(profile)
        pairs = [(1.0, 2.0 * R) for R in (1, 2, 4, 8, 16, 32)]
        pairs += [(-1.0, float(R)) for R in (1, 2, 4, 8, 16)]
        for power, radius in pairs:
            ref, _ = quad(lambda s: float(spec.u(s)) ** (power * q) * s**2, 0.0, radius,
                          epsabs=1e-13, epsrel=1e-11, limit=200)
            got = E._ball_lq_norm(spec, power, q, radius, 3)
            assert got == pytest.approx((4.0 * math.pi * ref) ** (1.0 / q), rel=1e-12)

    def test_reports_echo_the_quadrature_tolerance(self):
        rep = E.local_max_principle_ratio("constant", 3, 2.0, 1.0, radii=(1, 2))
        assert rep["quad_epsrel"] == E._QUAD_EPSREL == 1e-11

    def test_unknown_profile(self):
        with pytest.raises(InputError):
            E.named_profile("mystery")
