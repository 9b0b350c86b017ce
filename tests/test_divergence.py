"""Divergence engine: enumeration wrappers and backend cross-agreement."""

import math

import numpy as np
import pytest
import sympy as sp

from emdenlab.divergence import (
    VECTOR_FIELD_SPECS,
    EuclideanEngine,
    RadialEngine,
    divergence_at,
    radial_divergence_at,
)
from emdenlab.errors import CapabilityError
from emdenlab.fields import FieldTerm, RadialProfile, ScalarField
from emdenlab.geometry import euclidean, hyperbolic

RNG = lambda seed: np.random.default_rng(np.random.Philox(seed))


def _paraboloid(dim):
    terms = tuple(
        FieldTerm("poly", 0.5, (tuple(2 * (i == j) for j in range(dim)),))
        for i in range(dim)
    )
    return ScalarField(dim, 0.0, terms)


class TestEnumeration:
    def test_flux_of_paraboloid(self):
        # u = |x|^2/2, p = 2: div grad u = n
        field = _paraboloid(3)
        out = divergence_at(field, [[1.0, 0.2, -0.4]], "flux", 2.0)
        assert out[0] == pytest.approx(3.0, rel=1e-13)

    def test_unknown_spec_rejected(self):
        field = _paraboloid(2)
        with pytest.raises(CapabilityError):
            divergence_at(field, [[1.0, 0.0]], "mystery", 2.0)
        with pytest.raises(CapabilityError):
            divergence_at(field, [[1.0, 0.0]], "log_power_flux", 2.0)  # lam missing

    def test_radial_flux_hyperbolic_oracle(self):
        # u = e^{-r} on H^3 at r=1, p=2: u'' + 2 coth(r) u'
        prof = RadialProfile(ScalarField(1, 0.0, (FieldTerm("rexp", 1.0, ((0.0,), 1.0, 0.0)),)))
        model = hyperbolic(3, 1.0)
        out = radial_divergence_at(model, prof, [1.0], "flux", 2.0)
        expected = math.exp(-1.0) * (1.0 - 2.0 / math.tanh(1.0))
        assert out[0] == pytest.approx(expected, rel=1e-12)

    def test_weighted_flux_symbolic_oracle(self):
        # u = 2 + x1^2 on R^2 at (0.5, 0), p=2, b=1: div(u grad u)
        field = ScalarField(2, 2.0, (FieldTerm("poly", 1.0, ((2, 0),)),))
        out = divergence_at(field, [[0.5, 0.0]], "weighted_flux", 2.0, b=1.0)
        x, y = sp.symbols("x y")
        u = 2 + x**2
        vec = [u * sp.diff(u, x), u * sp.diff(u, y)]
        div = sp.diff(vec[0], x) + sp.diff(vec[1], y)
        expected = float(div.subs({x: 0.5, y: 0.0}))
        assert out[0] == pytest.approx(expected, rel=1e-13)


def _power_flux_div(w, xs, point, p, lam):
    """Symbolic div of (1/lam)|grad w|^{p-2} A_w(grad |grad w|^lam)."""
    grad = [sp.diff(w, x) for x in xs]
    hw = sum(g**2 for g in grad)
    grad_f = [sp.diff(hw ** (lam / 2), x) for x in xs]
    along = sum(a * g for a, g in zip(grad_f, grad))
    vec = [
        hw ** ((p - 2) / 2) * (a + (p - 2) * along * g / hw) / lam
        for a, g in zip(grad_f, grad)
    ]
    div = sum(sp.diff(v, x) for v, x in zip(vec, xs))
    return float(div.evalf(30, subs={x: sp.Rational(str(c)) for x, c in zip(xs, point)}))


class TestPowerFluxOracles:
    """The two power-flux specs on a non-radial field at an off-axis
    point, where no radial cross-check reaches."""

    field = ScalarField(2, 2.0, (
        FieldTerm("poly", 1.0, ((2, 0),)),
        FieldTerm("poly", 0.5, ((1, 2),)),
    ))
    xs = sp.symbols("x0:2")
    u = 2 + xs[0] ** 2 + sp.Rational(1, 2) * xs[0] * xs[1] ** 2
    point = (0.7, -0.4)

    def test_grad_power_flux(self):
        out = divergence_at(self.field, [self.point], "grad_power_flux", 3.0)
        expected = _power_flux_div(self.u, self.xs, self.point, sp.Integer(3), sp.Integer(3))
        assert out[0] == pytest.approx(expected, rel=1e-12)

    def test_log_power_flux(self):
        out = divergence_at(self.field, [self.point], "log_power_flux", 1.5, lam=2.5)
        expected = _power_flux_div(
            sp.log(self.u), self.xs, self.point, sp.Rational(3, 2), sp.Rational(5, 2)
        )
        assert out[0] == pytest.approx(expected, rel=1e-12)


class TestBackendCrossAgreement:
    """A rotationally symmetric Euclidean field evaluated on the axis must
    give the same divergences through the general-field engine and the
    radial reduction; the two code paths share nothing past the seeds."""

    @pytest.mark.parametrize("spec,kwargs", [
        ("flux", {}),
        ("weighted_flux", {"b": -1.0}),
        ("self_advection", {"b": 1.0}),
        ("advection_balance", {"b": 0.5}),
        ("weighted_balance", {"a": 1.5, "b": -0.5}),
        ("traceless_combo", {"a": 2.0, "b": 1.0, "combo_coef": 0.3}),
        ("grad_power_flux", {}),
        ("log_power_flux", {"lam": 2.5}),
    ])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_axis_agreement(self, spec, kwargs, p):
        dim = 3
        bump = FieldTerm("bubble", 0.8, ((0.0,) * dim, 1.3, 1.2))
        field = ScalarField(dim, 1.5, (bump,))
        prof = RadialProfile(
            ScalarField(1, 1.5, (FieldTerm("bubble", 0.8, ((0.0,), 1.3, 1.2)),))
        )
        r = np.array([0.4, 0.9, 1.7])
        pts = np.zeros((r.size, dim))
        pts[:, 0] = r
        general = divergence_at(field, pts, spec, p, **kwargs)
        radial = radial_divergence_at(euclidean(dim), prof, r, spec, p, **kwargs)
        np.testing.assert_allclose(general, radial, rtol=1e-10, atol=1e-12)

    def test_every_spec_listed(self):
        assert set(VECTOR_FIELD_SPECS) == {
            "flux", "weighted_flux", "self_advection", "advection_balance",
            "weighted_balance", "traceless_combo", "grad_power_flux",
            "log_power_flux",
        }


class TestViewReuse:
    """A view keeps the blocks it builds; a kept block must give the same
    bits as a fresh build, so no operation may write into one."""

    B_ORDER = (-1.0, 1.0, 0.0, -1.0)  # 1 and 0 meet kept p blocks, -1 recurs
    PARAMS = {"a": 0.5, "lam": 2.5, "combo_coef": 0.3}

    @staticmethod
    def _engines():
        dim = 3
        field = ScalarField(dim, 1.5, (
            FieldTerm("bubble", 0.8, ((0.1, -0.2, 0.0), 1.3, 1.2)),
            FieldTerm("poly", 0.3, ((1, 1, 0),)),
        ))
        pts = RNG(5).uniform(-1.0, 1.0, size=(40, dim))
        prof = RadialProfile(
            ScalarField(1, 1.5, (FieldTerm("bubble", 0.8, ((0.0,), 1.3, 1.2)),))
        )
        model = hyperbolic(dim, 1.0)
        r = np.linspace(0.3, 2.5, 40)
        u, u1, u2, u3 = prof.jet(r)
        psi, dpsi, ddpsi = model.warping_jet(r)
        return {
            "euclidean": EuclideanEngine(field.jet3(pts)),
            "radial": RadialEngine(dim, u, u1, u2, u3, psi, dpsi, ddpsi,
                                   model.warping_third(r)),
        }

    @pytest.mark.parametrize("backend", ["euclidean", "radial"])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_reuse_equals_fresh_build(self, backend, p):
        eng = self._engines()[backend]
        view = eng.at(p)
        for b in self.B_ORDER:
            for spec in VECTOR_FIELD_SPECS:
                kept = view.divergence(spec, b=b, **self.PARAMS)
                fresh = eng.at(p).divergence(spec, b=b, **self.PARAMS)
                assert np.array_equal(kept, fresh), (spec, b)
            a_values = (-1.0, 2.0)
            kept = view.weighted_balance_divergences(b, a_values)
            fresh = eng.at(p).weighted_balance_divergences(b, a_values)
            assert all(map(np.array_equal, kept, fresh))
            _assert_same_dual(view.weighted_divergence_dual(b),
                              eng.at(p).weighted_divergence_dual(b))
        _assert_same_dual(view.p_laplacian_dual(), eng.at(p).p_laplacian_dual())


def _assert_same_dual(kept, fresh):
    assert np.array_equal(kept.v, fresh.v) and np.array_equal(kept.d, fresh.d)
