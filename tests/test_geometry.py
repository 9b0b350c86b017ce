"""Model-manifold geometry: warping jets, curvature, volumes."""

import math

import mpmath
import numpy as np
import pytest

from emdenlab import geometry as geo
from emdenlab.errors import DomainError, InputError, NumericalError, PreconditionError


class TestWarpingJet:
    def test_euclidean_identity_profile(self):
        m = geo.euclidean(3)
        assert m.warping_jet(2.0) == (2.0, 1.0, 0.0)

    def test_sphere_at_quarter_turn(self):
        m = geo.sphere(3, 1.0)
        psi, dpsi, ddpsi = m.warping_jet(math.pi / 2)
        assert psi == pytest.approx(1.0, abs=1e-15)
        assert dpsi == pytest.approx(0.0, abs=1e-15)
        assert ddpsi == pytest.approx(-1.0, abs=1e-15)

    def test_hyperbolic_high_precision_oracle(self):
        # independent high-precision evaluation of the closed form
        m = geo.hyperbolic(3, 1.0)
        psi, dpsi, ddpsi = m.warping_jet(1.0)
        assert psi == pytest.approx(float(mpmath.sinh(1)), rel=1e-15)
        assert dpsi == pytest.approx(float(mpmath.cosh(1)), rel=1e-15)
        assert ddpsi == pytest.approx(float(mpmath.sinh(1)), rel=1e-15)

    @pytest.mark.parametrize("maker,kappa", [
        (geo.sphere, 1.0), (geo.sphere, 4.0),
        (geo.hyperbolic, 0.25), (geo.hyperbolic, 1.0),
        (geo.euclidean, 0.0),
    ])
    def test_defining_ode_on_log_grid(self, maker, kappa):
        model = maker(3, kappa) if kappa else maker(3)
        hi = 2.9 if model.warp_c < 0 else 50.0
        r = np.geomspace(1e-6, hi / max(1.0, math.sqrt(max(kappa, 1e-10))), 60)
        psi, _, ddpsi = model.warping_jet(r)
        lhs = ddpsi - model.warp_c * psi
        scale = np.abs(ddpsi) + abs(model.warp_c) * np.abs(psi) + 1.0
        assert np.max(np.abs(lhs) / scale) <= 1e-12

    @pytest.mark.parametrize("maker,k", [
        (geo.sphere, 1.0), (geo.sphere, 0.25),
        (geo.hyperbolic, 0.25), (geo.hyperbolic, 4.0),
    ])
    def test_small_radius_closed_forms(self, maker, k):
        # near the center the closed forms keep their digits, and
        # psi'' = c psi holds bit for bit
        model = maker(3, k)
        r = np.geomspace(1e-9, 2e-4, 400)
        psi, dpsi, ddpsi = model.warping_jet(r)
        assert np.array_equal(ddpsi, model.warp_c * psi)
        sin, cos = ((mpmath.sin, mpmath.cos) if model.warp_c < 0
                    else (mpmath.sinh, mpmath.cosh))
        with mpmath.workdps(40):
            sq = mpmath.sqrt(mpmath.mpf(k))
            for i in range(0, r.size, 7):
                x = mpmath.mpf(float(r[i]))
                ref = sin(sq * x) / sq
                assert abs(psi[i] - ref) <= 1e-15 * abs(ref)
                assert abs(dpsi[i] - cos(sq * x)) <= 1e-15
                assert abs(ddpsi[i] - model.warp_c * ref) <= 1e-15 * abs(k * ref)

    def test_domain_errors(self):
        m = geo.sphere(2, 1.0)
        with pytest.raises(DomainError):
            m.warping_jet(4.0)
        with pytest.raises(DomainError):
            m.warping_jet(-0.1)


class TestRicci:
    def test_euclidean_flat(self):
        m = geo.euclidean(4)
        assert m.ricci_radial(1.7) == 0.0
        assert m.ricci_radial(1.7, "tangential") == 0.0

    def test_hyperbolic_radial_value(self):
        # -(n-1) psi''/psi with psi = sinh
        m = geo.hyperbolic(3, 1.0)
        assert m.ricci_radial(1.0) == pytest.approx(-2.0, rel=1e-14)

    def test_sphere_radial_value(self):
        m = geo.sphere(3, 1.0)
        assert m.ricci_radial(1.0) == pytest.approx(2.0, rel=1e-14)

    def test_space_form_isotropy(self):
        m = geo.sphere(4, 2.0)
        assert m.ricci_radial(0.5) == pytest.approx(
            m.ricci_radial(0.5, "tangential"), rel=1e-13
        )

    def test_origin_limit_via_series(self):
        m = geo.hyperbolic(3, 1.0)
        assert m.ricci_radial(0.0) == pytest.approx(-2.0, rel=1e-12)

    def test_signed_constant_values(self):
        # -(n-1) c on R^n is -(n-1) * 0.0 = -0.0
        assert math.copysign(1.0, geo.euclidean(3).ricci_radial(1.0)) == -1.0
        assert geo.sphere(4, 0.25).ricci_radial(0.0, "tangential") == 0.75
        assert geo.hyperbolic(3, 4.0).ricci_radial(2.0) == -8.0

    @pytest.mark.parametrize("r,dtype", [
        ([1, 2], np.float64), (np.arange(1, 3), np.float64),
        (np.array([1.0, 2.0], np.longdouble), np.longdouble),
    ], ids=["list", "int", "longdouble"])
    @pytest.mark.parametrize("model", [geo.euclidean(3), geo.sphere(3, 0.25),
                                       geo.hyperbolic(3, 1.0)], ids=lambda m: m.name)
    def test_dtype_follows_the_radii(self, model, r, dtype):
        # int and list radii give float64; a floating batch keeps its dtype
        for out in (*model.warping_jet(r), model.ricci_radial(r),
                    model.ricci_radial(r, "tangential")):
            assert out.dtype == dtype

    def test_user_origin_is_a_domain_error(self):
        m = geo.user_warped(3, np.sinh, np.cosh, np.sinh)
        with pytest.raises(DomainError):
            m.ricci_radial(0.0)


class TestBallVolume:
    def test_unit_ball_r3(self):
        assert geo.ball_volume(geo.euclidean(3), 1.0) == pytest.approx(
            4 * math.pi / 3, rel=1e-12
        )

    def test_full_sphere_area(self):
        assert geo.ball_volume(geo.sphere(2, 1.0), math.pi) == pytest.approx(
            4 * math.pi, rel=1e-12
        )

    def test_hyperbolic_disc_closed_form(self):
        got = geo.ball_volume(geo.hyperbolic(2, 1.0), 1.0)
        assert got == pytest.approx(2 * math.pi * (math.cosh(1.0) - 1.0), rel=1e-12)

    def test_hyperbolic_quadrature_vs_mpmath(self):
        model = geo.hyperbolic(3, 1.0)
        got = geo.ball_volume(model, 2.0)
        ref = 4 * mpmath.pi * mpmath.quad(lambda s: mpmath.sinh(s) ** 2, [0, 2])
        assert got == pytest.approx(float(ref), rel=1e-11)

    def test_strictly_increasing(self):
        model = geo.sphere(3, 1.0)
        vols = [geo.ball_volume(model, r) for r in (0.5, 1.0, 2.0, 3.0)]
        assert np.all(np.diff(vols) > 0)


class TestQuadratureAgainstScipy:
    @pytest.mark.parametrize("model", [
        geo.euclidean(3), geo.sphere(2), geo.sphere(4, 2.0), geo.hyperbolic(3),
        geo.hyperbolic(4, 0.25),
        geo.warped_from_config({"model": "user", "dim": 3, "r_max": 3.0, "profile": {
            "kind": "odd_polynomial", "coefficients": [-1.0 / 6.0, 1.0 / 120.0]}}),
    ], ids=lambda m: f"{m.name}{m.dim}")
    def test_ball_volume(self, model):
        from scipy.integrate import quad

        for radius in (0.3, 1.0, min(3.0, model.r_max), min(8.0, model.r_max)):
            ref, _ = quad(lambda s: model.warping_jet(s)[0] ** (model.dim - 1), 0.0,
                          radius, epsabs=1e-14, epsrel=1e-11, limit=200)
            got = geo.ball_volume(model, radius)
            assert got == pytest.approx(geo.unit_sphere_area(model.dim) * ref, rel=1e-12)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(NumericalError, match="not finite"):
            geo.quad(lambda s: np.where(s > 0.7, np.nan, s), 0.0, 1.0, 1e-14, 1e-11)
        with pytest.raises(NumericalError, match="not finite"):
            geo.ball_volume(geo.hyperbolic(3), 800.0)  # sinh overflows

    def test_panel_budget_raises(self):
        with pytest.raises(NumericalError, match="200 panels"):
            geo.quad(lambda s: np.sin(1e4 * s), 0.0, 1.0, 1e-14, 1e-11)


class TestBishopGromov:
    def test_euclidean_constant_ratio(self):
        rep = geo.bishop_gromov_check(geo.euclidean(3), [1.0, 2.0, 4.0])
        assert rep["non_increasing"]
        for ratio in rep["ratios"]:
            assert ratio == pytest.approx(4 * math.pi / 3, rel=1e-11)

    def test_sphere_strictly_decreasing(self):
        rep = geo.bishop_gromov_check(geo.sphere(3, 1.0), [0.5, 1.0, 2.0])
        assert rep["non_increasing"]
        assert np.all(np.diff(rep["ratios"]) < 0)

    def test_sphere_surface_closed_form(self):
        rep = geo.bishop_gromov_check(geo.sphere(2, 1.0), [math.pi / 2, math.pi])
        assert rep["ratios"][0] == pytest.approx(
            2 * math.pi / (math.pi / 2) ** 2, rel=1e-11
        )
        assert rep["ratios"][1] == pytest.approx(4 * math.pi / math.pi**2, rel=1e-11)
        assert rep["non_increasing"]

    def test_hyperbolic_rejected(self):
        with pytest.raises(PreconditionError):
            geo.bishop_gromov_check(geo.hyperbolic(3, 1.0), [1.0, 2.0])


def _atan_profile(dim):
    """psi = (r + atan r)/2: psi'' <= 0 and psi' in (1/2, 1]."""
    return geo.user_warped(
        dim,
        psi=lambda r: (r + np.arctan(r)) / 2.0,
        dpsi=lambda r: (1.0 + 1.0 / (1.0 + r * r)) / 2.0,
        ddpsi=lambda r: -r / (1.0 + r * r) ** 2,
    )


def _asinh_profile(dim):
    """psi = asinh r: psi'' <= 0 and psi' in (0, 1]."""
    return geo.user_warped(
        dim,
        psi=np.arcsinh,
        dpsi=lambda r: 1.0 / np.sqrt(1.0 + r * r),
        ddpsi=lambda r: -r / (1.0 + r * r) ** 1.5,
    )


class TestNonnegativeRicci:
    def test_named_models(self):
        assert geo.euclidean(3).has_nonnegative_ricci
        assert geo.sphere(3, 2.0).has_nonnegative_ricci
        assert not geo.hyperbolic(3, 0.25).has_nonnegative_ricci

    def test_named_ricci_min(self):
        # -(n-1) c, the same floats as the radial Ricci value
        flat = geo.euclidean(3).ricci_min
        assert flat == 0.0 and math.copysign(1.0, flat) == -1.0
        assert geo.sphere(4, 0.25).ricci_min == 0.75
        assert geo.hyperbolic(3, 4.0).ricci_min == -8.0
        for model in (geo.euclidean(5), geo.sphere(3, 2.0), geo.hyperbolic(4, 0.1)):
            assert model.ricci_min == model.ricci_radial(0.5)

    @pytest.mark.parametrize("maker", [_atan_profile, _asinh_profile])
    def test_user_models_with_nonnegative_ricci(self, maker):
        model = maker(3)
        r = np.geomspace(1e-3, 1e3, 121)
        assert np.all(model.ricci_radial(r) >= 0)
        assert np.all(model.ricci_radial(r, "tangential") >= 0)
        assert model.ricci_min > 0
        assert model.has_nonnegative_ricci
        rep = geo.bishop_gromov_check(model, [0.5, 1.0, 2.0, 4.0])
        assert rep["non_increasing"]

    def test_user_sinh_profile(self):
        # sinh overflows on the sampled radii: the least Ricci value is
        # not finite, so it reads nan and Ric >= 0 reads False
        model = geo.user_warped(3, np.sinh, np.cosh, np.sinh)
        assert math.isnan(model.ricci_min)
        assert not model.has_nonnegative_ricci
        with pytest.raises(PreconditionError):
            geo.bishop_gromov_check(model, [1.0, 2.0])

    def test_sin_like_polynomial_turns_negative(self):
        # psi = r - r^3/6 + r^5/120 on [0, 3): Ric ~ n-1 near the center,
        # but psi'' = -r + r^3/6 > 0 near r = 3
        model = geo.warped_from_config({
            "model": "user", "dim": 3, "r_max": 3.0,
            "profile": {"kind": "odd_polynomial",
                        "coefficients": [-1.0 / 6.0, 1.0 / 120.0]},
        })
        assert model.ricci_radial(1e-3) == pytest.approx(2.0, rel=1e-5)
        assert model.ricci_min < 0
        assert not model.has_nonnegative_ricci


class TestUserProfile:
    def test_euclidean_clone(self):
        m = geo.user_warped(
            3,
            psi=lambda r: np.asarray(r, dtype=float),
            dpsi=lambda r: np.ones_like(np.asarray(r, dtype=float)),
            ddpsi=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        )
        assert m.warping_jet(1.5) == (1.5, 1.0, 0.0)
        assert m.ricci_radial(1.5) == 0.0

    def test_bad_profile_rejected(self):
        with pytest.raises(PreconditionError):
            geo.user_warped(
                3,
                psi=lambda r: r + 0.5,
                dpsi=lambda r: np.ones_like(np.asarray(r, dtype=float)),
                ddpsi=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            )


class TestConfigLoading:
    def test_named_model(self):
        m = geo.warped_from_config({"model": "hyperbolic", "dim": 3, "kappa": 4.0})
        assert m.name == "hyperbolic" and m.warp_c == 4.0

    @pytest.mark.parametrize("name,kappa", [("hyperbolic", -1.0), ("hyperbolic", 0.0),
                                            ("sphere", 0.0)])
    def test_nonpositive_curvature_rejected(self, name, kappa):
        # kappa is the sphere's K or H^n's kappa; no value is replaced
        with pytest.raises(DomainError, match="positive"):
            geo.warped_from_config({"model": name, "dim": 3, "kappa": kappa})

    def test_odd_polynomial_profile(self):
        m = geo.warped_from_config({
            "model": "user", "dim": 3, "r_max": 1.0,
            "profile": {"kind": "odd_polynomial", "coefficients": [-1.0 / 6.0]},
        })
        psi, dpsi, ddpsi = m.warping_jet(0.4)
        assert psi == pytest.approx(0.4 - 0.4**3 / 6.0, rel=1e-15)
        assert dpsi == pytest.approx(1.0 - 0.4**2 / 2.0, rel=1e-15)
        assert ddpsi == pytest.approx(-0.4, rel=1e-15)

    def test_unknown_primitive_rejected(self):
        with pytest.raises(DomainError):
            geo.warped_from_config({
                "model": "user", "dim": 3,
                "profile": {"kind": "spline"},
            })

    def test_unknown_keys_rejected(self):
        # a user entry with a named model's "kappa" and a misspelt "r_max"
        # was read as a flat model on [0, inf)
        with pytest.raises(InputError, match=r"\['kappa', 'rmax'\]"):
            geo.warped_from_config({
                "model": "user", "dim": 3, "kappa": 2.0, "rmax": 1.0,
                "profile": {"kind": "odd_polynomial", "coefficients": [-1.0 / 6.0]},
            })
        with pytest.raises(InputError, match=r"\['r_max'\]"):
            geo.warped_from_config({"model": "sphere", "dim": 3, "r_max": 1.0})
        with pytest.raises(InputError, match=r"\['coeffs'\]"):
            geo.warped_from_config({"model": "user", "dim": 3, "profile": {
                "kind": "odd_polynomial", "coeffs": [1.0]}})

    def test_unknown_model_rejected(self):
        with pytest.raises(DomainError, match="unknown model name 'torus'"):
            geo.warped_from_config({"model": "torus", "dim": 3})
