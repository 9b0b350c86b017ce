"""Divergence engine: one view method per field, and backend cross-agreement."""

import inspect
import math

import numpy as np
import pytest
import sympy as sp

from emdenlab.divergence import EuclideanEngine, RadialEngine, View
from emdenlab.fields import FieldTerm, RadialProfile, ScalarField
from emdenlab.geometry import euclidean, hyperbolic, sphere

RNG = lambda seed: np.random.default_rng(np.random.Philox(seed))

#: every field of the view, with the parameters its method takes
FIELDS = {
    "flux": (),
    "self_advection": ("b",),
    "weighted_balance": ("a", "b"),
    "traceless_combo": ("a", "b", "c"),
    "grad_power_flux": (),
    "log_power_flux": ("lam",),
}


#: the oracles' cases: the view's fields, and two fields of X = u^b F
#: read off them (see _divergence)
CASES = [*FIELDS, "weighted_flux", "advection_balance"]


def _weighted_flux(view, b):
    """div X = u^b div F + b u^{b-1} |grad u|^p over the view's flux,
    the product rule the jets route reads div X by."""
    E = view.engine
    u = E.u.v
    return u**b * view.flux() + b * u ** (b - 1.0) * E.h.v ** (view.p / 2.0)


def _divergence(engine, name, p, **params):
    """div of the named case at p; a view method is passed only its own
    parameters out of params.  weighted_flux, X itself, goes by the
    product rule over the flux, and advection_balance, grad_X X -
    (div X) X, is weighted_balance at a = 0."""
    view = View(engine, p)
    if name == "weighted_flux":
        return _weighted_flux(view, params["b"])
    if name == "advection_balance":
        return view.weighted_balance(a=0.0, b=params["b"])
    return getattr(view, name)(**{k: params[k] for k in FIELDS[name]})


def _euclidean(field, points):
    return EuclideanEngine(field.jet3(np.atleast_2d(np.asarray(points, float))))


def _radial(model, profile, r):
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return RadialEngine(model, r, *profile.jet(r))


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
        out = View(_euclidean(field, [[1.0, 0.2, -0.4]]), 2.0).flux()
        assert out[0] == pytest.approx(3.0, rel=1e-13)

    def test_radial_flux_hyperbolic_oracle(self):
        # u = e^{-r} on H^3 at r=1, p=2: u'' + 2 coth(r) u'
        prof = RadialProfile(ScalarField(1, 0.0, (FieldTerm("rexp", 1.0, ((0.0,), 1.0, 0.0)),)))
        model = hyperbolic(3, 1.0)
        out = View(_radial(model, prof, [1.0]), 2.0).flux()
        expected = math.exp(-1.0) * (1.0 - 2.0 / math.tanh(1.0))
        assert out[0] == pytest.approx(expected, rel=1e-12)

    def test_weighted_flux_symbolic_oracle(self):
        # u = 2 + x1^2 on R^2 at (0.5, 0), p=2, b=1: div(u grad u)
        field = ScalarField(2, 2.0, (FieldTerm("poly", 1.0, ((2, 0),)),))
        out = _divergence(_euclidean(field, [[0.5, 0.0]]), "weighted_flux", 2.0, b=1.0)
        x, y = sp.symbols("x y")
        u = 2 + x**2
        vec = [u * sp.diff(u, x), u * sp.diff(u, y)]
        div = sp.diff(vec[0], x) + sp.diff(vec[1], y)
        expected = float(div.subs({x: 0.5, y: 0.0}))
        assert out[0] == pytest.approx(expected, rel=1e-13)


def _value_at(expr, xs, point):
    """expr at a point given by decimal coordinates, to 30 digits."""
    exact = expr.xreplace({x: sp.Rational(str(c)) for x, c in zip(xs, point)})
    return float(exact.evalf(30))


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
    return _value_at(sum(sp.diff(v, x) for v, x in zip(vec, xs)), xs, point)


class TestPowerFluxOracles:
    """The two power-flux fields on a non-radial field at an off-axis
    point, where no radial cross-check reaches."""

    field = ScalarField(2, 2.0, (
        FieldTerm("poly", 1.0, ((2, 0),)),
        FieldTerm("poly", 0.5, ((1, 2),)),
    ))
    xs = sp.symbols("x0:2")
    u = 2 + xs[0] ** 2 + sp.Rational(1, 2) * xs[0] * xs[1] ** 2
    point = (0.7, -0.4)

    def test_grad_power_flux(self):
        out = View(_euclidean(self.field, [self.point]), 3.0).grad_power_flux()
        expected = _power_flux_div(self.u, self.xs, self.point, sp.Integer(3), sp.Integer(3))
        assert out[0] == pytest.approx(expected, rel=1e-12)

    def test_log_power_flux(self):
        out = View(_euclidean(self.field, [self.point]), 1.5).log_power_flux(lam=2.5)
        expected = _power_flux_div(
            sp.log(self.u), self.xs, self.point, sp.Rational(3, 2), sp.Rational(5, 2)
        )
        assert out[0] == pytest.approx(expected, rel=1e-12)


def _weighted_field_div(u, xs, point, spec, p, a, b, combo_coef):
    """Symbolic div of an advection field, X = u^b |grad u|^{p-2} grad u."""
    grad = [sp.diff(u, x) for x in xs]
    hu = sum(g**2 for g in grad)
    X = [u**b * hu ** ((p - 2) / 2) * g for g in grad]
    adv = [sum(sp.diff(Xi, x) * Xj for x, Xj in zip(xs, X)) for Xi in X]
    divx = sum(sp.diff(Xi, x) for Xi, x in zip(X, xs))
    n = len(xs)
    if spec == "self_advection":
        vec = adv
    elif spec == "advection_balance":
        vec = [A - divx * Xi for A, Xi in zip(adv, X)]
    elif spec == "weighted_balance":
        inner = sum(Xi * sp.diff(u**a, x) for Xi, x in zip(X, xs))
        vec = [u**a * (A - divx * Xi) - (p - 1) / p * inner * Xi
               for A, Xi in zip(adv, X)]
    else:  # traceless_combo
        inner = sum(Xi * g for Xi, g in zip(X, grad))
        vec = [u**a * (A - divx / n * Xi) - combo_coef * u ** (a - 1) * inner * Xi
               for A, Xi in zip(adv, X)]
    return _value_at(sum(sp.diff(v, x) for v, x in zip(vec, xs)), xs, point)


#: (a, b) with a + 2b neither an integer nor positive
FRACTIONAL_WEIGHTS = [("-3/2", "1/2"), ("1/2", "-3/2")]


class TestWeightedFieldOracles:
    """The four advection fields on the same non-radial field and off-axis
    point as the power-flux oracles, where X is not radial and grad_X X
    has its b u^{-1} |grad u|^p F part in a direction of its own."""

    field = TestPowerFluxOracles.field
    xs = TestPowerFluxOracles.xs
    u = TestPowerFluxOracles.u
    point = TestPowerFluxOracles.point

    @pytest.mark.parametrize("spec", ["self_advection", "advection_balance",
                                      "weighted_balance", "traceless_combo"])
    @pytest.mark.parametrize("p", ["3/2", "3"])
    @pytest.mark.parametrize("b", [-1, 1])
    def test_against_sympy(self, spec, p, b):
        a, combo_coef = 2, sp.Rational(3, 10)
        p = sp.Rational(p)
        out = _divergence(_euclidean(self.field, [self.point]), spec, float(p),
                          a=float(a), b=float(b), c=float(combo_coef))
        expected = _weighted_field_div(self.u, self.xs, self.point, spec, p,
                                       sp.Integer(a), sp.Integer(b), combo_coef)
        assert out[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("spec", ["self_advection", "advection_balance",
                                      "weighted_balance", "traceless_combo"])
    @pytest.mark.parametrize("p", ["3/2", "3"])
    @pytest.mark.parametrize("a,b", FRACTIONAL_WEIGHTS)
    def test_fractional_weights(self, spec, p, a, b):
        # a + 2b is neither an integer nor positive
        combo_coef = sp.Rational(3, 10)
        p, a, b = sp.Rational(p), sp.Rational(a), sp.Rational(b)
        out = _divergence(_euclidean(self.field, [self.point]), spec, float(p),
                          a=float(a), b=float(b), c=float(combo_coef))
        expected = _weighted_field_div(self.u, self.xs, self.point, spec, p,
                                       a, b, combo_coef)
        assert out[0] == pytest.approx(expected, rel=1e-12)


class _SympyProfile:
    """A radial profile whose jet is a sympy expression's exact tower."""

    def __init__(self, u, r):
        self.tower = [u] + [sp.diff(u, r, k) for k in (1, 2, 3)]
        self.r = r

    def jet(self, radii):
        exact = [sp.Rational(str(x)) for x in radii]
        return tuple(
            np.array([float(d.subs(self.r, x).evalf(30)) for x in exact])
            for d in self.tower
        )


def _radial_field_div(u, psi, r, n, r0, spec, p, a, b, lam, combo_coef):
    """Symbolic div of a field v(r) d/dr on dr^2 + psi^2 g_S,
    written from the definitions for radial fields: grad f = f' d/dr,
    grad_V W = v w' d/dr, A_w V = (p-1) V and
    div(v d/dr) = psi^{1-n} (psi^{n-1} v)'.  u must decrease at r0."""

    def div(v):
        return sp.diff(psi ** (n - 1) * v, r) / psi ** (n - 1)

    u1 = sp.diff(u, r)
    X = u**b * (-u1) ** (p - 2) * u1
    adv = X * sp.diff(X, r)
    if spec == "flux":
        v = (-u1) ** (p - 2) * u1
    elif spec == "weighted_flux":
        v = X
    elif spec == "self_advection":
        v = adv
    elif spec == "advection_balance":
        v = adv - div(X) * X
    elif spec == "weighted_balance":
        v = u**a * (adv - div(X) * X) - (p - 1) / p * X * sp.diff(u**a, r) * X
    elif spec == "traceless_combo":
        v = u**a * (adv - div(X) / n * X) - combo_coef * u ** (a - 1) * X * u1 * X
    else:
        w1 = sp.diff(sp.log(u) if spec == "log_power_flux" else u, r)
        power = lam if spec == "log_power_flux" else p
        # |w'|^power with w' < 0 at r0
        v = (-w1) ** (p - 2) * (p - 1) * sp.diff((-w1) ** power, r) / power
    return float(div(v).subs(r, r0).evalf(30))


class TestRadialOracles:
    """Every field through the radial engine on the two curved models,
    against sympy.  This is the radial path's reference for the warping
    terms: on R^n (psi = r) psi'' vanishes, so the cross-agreement with
    the n-dimensional engine cannot see it."""

    r = sp.Symbol("r", positive=True)
    u = 1 + 1 / (1 + r**2)
    r0 = sp.Rational(11, 10)
    MODELS = {"hyperbolic": (hyperbolic(3, 1.0), sp.sinh(r)),
              "sphere": (sphere(3, 1.0), sp.sin(r))}

    @pytest.mark.parametrize("spec", CASES)
    @pytest.mark.parametrize("model", ["hyperbolic", "sphere"])
    @pytest.mark.parametrize("p", ["3/2", "3"])
    def test_against_sympy(self, spec, model, p):
        a, b = sp.Integer(2), sp.Integer(-1)
        lam, combo_coef = sp.Rational(5, 2), sp.Rational(3, 10)
        p = sp.Rational(p)
        geo, psi = self.MODELS[model]
        out = _divergence(
            _radial(geo, _SympyProfile(self.u, self.r), [float(self.r0)]), spec,
            float(p), a=float(a), b=float(b), lam=float(lam), c=float(combo_coef),
        )
        expected = _radial_field_div(self.u, psi, self.r, 3, self.r0, spec, p,
                                     a, b, lam, combo_coef)
        assert out[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("spec", ["weighted_flux", "self_advection",
                                      "advection_balance", "weighted_balance",
                                      "traceless_combo"])
    @pytest.mark.parametrize("model", ["hyperbolic", "sphere"])
    @pytest.mark.parametrize("p", ["3/2", "3"])
    @pytest.mark.parametrize("a,b", FRACTIONAL_WEIGHTS)
    def test_fractional_weights(self, spec, model, p, a, b):
        combo_coef = sp.Rational(3, 10)
        p, a, b = sp.Rational(p), sp.Rational(a), sp.Rational(b)
        geo, psi = self.MODELS[model]
        out = _divergence(
            _radial(geo, _SympyProfile(self.u, self.r), [float(self.r0)]), spec,
            float(p), a=float(a), b=float(b), c=float(combo_coef),
        )
        expected = _radial_field_div(self.u, psi, self.r, 3, self.r0, spec, p,
                                     a, b, None, combo_coef)
        assert out[0] == pytest.approx(expected, rel=1e-12)


class TestBackendCrossAgreement:
    """A rotationally symmetric Euclidean field evaluated on the axis must
    give the same divergences through the n-dimensional engine and the
    radial engine.  The view is shared, so this checks the radial
    seeding and the radial div against the n-dimensional engine."""

    @pytest.mark.parametrize("spec,kwargs", [
        ("flux", {}),
        ("weighted_flux", {"b": -1.0}),
        ("self_advection", {"b": 1.0}),
        ("advection_balance", {"b": 0.5}),
        ("weighted_balance", {"a": 1.5, "b": -0.5}),
        ("traceless_combo", {"a": 2.0, "b": 1.0, "c": 0.3}),
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
        general = _divergence(_euclidean(field, pts), spec, p, **kwargs)
        radial = _divergence(_radial(euclidean(dim), prof, r), spec, p, **kwargs)
        np.testing.assert_allclose(general, radial, rtol=1e-10, atol=1e-12)

    def test_every_spec_listed(self):
        # FIELDS names every public view method but the p-Laplacian dual,
        # and each method takes exactly the parameters listed for it
        methods = {name for name in vars(View) if not name.startswith("_")}
        assert set(FIELDS) == methods - {"p_laplacian_dual"}
        for name, params in FIELDS.items():
            signature = inspect.signature(getattr(View, name))
            assert tuple(signature.parameters)[1:] == params, name


class TestViewReuse:
    """A view keeps the blocks it builds; a kept block must give the same
    bits as a fresh build, so no operation may write into one."""

    B_ORDER = (-1.0, 1.0, 0.0, -1.0)  # 1 and 0 meet kept p blocks, -1 recurs
    PARAMS = {"a": 0.5, "lam": 2.5, "c": 0.3}

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
        return {
            "euclidean": EuclideanEngine(field.jet3(pts)),
            "radial": RadialEngine(model, r, *prof.jet(r)),
        }

    @pytest.mark.parametrize("backend", ["euclidean", "radial"])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_reuse_equals_fresh_build(self, backend, p):
        eng = self._engines()[backend]
        view = View(eng, p)
        for b in self.B_ORDER:
            params = dict(self.PARAMS, b=b)
            for spec, names in FIELDS.items():
                own = {k: params[k] for k in names}
                kept = getattr(view, spec)(**own)
                fresh = getattr(View(eng, p), spec)(**own)
                assert np.array_equal(kept, fresh), (spec, b)
            a_col = np.array([[-1.0], [2.0]])
            kept = view.weighted_balance(a=a_col, b=b)
            fresh = View(eng, p).weighted_balance(a=a_col, b=b)
            assert np.array_equal(kept, fresh)
        _assert_same_dual(view._grad_pow, View(eng, p)._grad_pow)
        _assert_same_dual(view.p_laplacian_dual, View(eng, p).p_laplacian_dual)


def _assert_same_dual(kept, fresh):
    assert np.array_equal(kept.v, fresh.v) and np.array_equal(kept.d, fresh.d)
