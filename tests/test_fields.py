"""Taylor-jet engine and the test-field library."""

import numpy as np
import pytest
import sympy as sp

from emdenlab.errors import InputError
from emdenlab.fields import (
    FieldTerm,
    ScalarField,
    random_field,
    random_radial_profile,
)
from emdenlab.fields import _shifted_square
from emdenlab.taylor import jet3_coords

RNG = lambda seed: np.random.default_rng(np.random.Philox(seed))


def value(field: ScalarField, points):
    """The field at an (N, dim) batch of points, off its jet."""
    return field.jet3(points).v


def term_bound(term: FieldTerm, box: float) -> float:
    """Crude sup of |term| over the box  max|x_i| <= box."""
    if term.kind == "poly":
        (exps,) = term.params
        return abs(term.amp) * float(np.prod([box**k for k in exps]))
    if term.kind in ("gauss", "rexp", "bubble"):
        return abs(term.amp)
    raise AssertionError(term.kind)


def lower_bound(field: ScalarField, box: float) -> float:
    """Guaranteed lower bound of the field on the box (crude).

    Bump terms with positive amplitude are nonnegative; polynomials
    and negative-amplitude bumps contribute their sup bound.  A
    product of two bumps is negative only when the amplitudes have
    opposite signs.
    """
    neg = sum(
        term_bound(t, box) for t in field.terms if t.amp < 0 or t.kind == "poly"
    )
    negp = sum(
        term_bound(ta, box) * term_bound(tb, box)
        for ta, tb in field.products
        if (ta.amp < 0) != (tb.amp < 0)
    )
    return field.shift - neg - negp


#: fourth-order central stencils (offsets, weights) per derivative order
FD_STENCILS = {
    1: ([-2, -1, 1, 2], [1.0 / 12, -8.0 / 12, 8.0 / 12, -1.0 / 12]),
    2: ([-2, -1, 0, 1, 2], [-1.0 / 12, 16.0 / 12, -30.0 / 12, 16.0 / 12, -1.0 / 12]),
    3: (
        [-3, -2, -1, 1, 2, 3],
        [1.0 / 8, -1.0, 13.0 / 8, -13.0 / 8, 1.0, -1.0 / 8],
    ),
}


def fd_directional(field: ScalarField, x, v, order: int, h: float) -> float:
    """Fourth-order central finite difference of the directional derivative.

    Approximates d^order/dt^order field(x + t v) at t=0.  Cross-check
    only; the jets are the source of record.
    """
    offsets, coeffs = FD_STENCILS[order]
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    pts = np.stack([x + (k * h) * v for k in offsets])
    return float(np.dot(coeffs, value(field, pts)) / h**order)


def jet_directional(field: ScalarField, x, v, order: int) -> float:
    """d^order/dt^order field(x + t v) at t = 0 from the field's Taylor jet."""
    j = field.jet3(np.asarray(x, dtype=float).reshape(1, -1))
    v = np.asarray(v, dtype=float)
    if order == 1:
        return float(j.g[0] @ v)
    if order == 2:
        return float(v @ j.h[0] @ v)
    return float(np.einsum("ijk,i,j,k->", j.t[0], v, v, v))


def _sympy_reference(field: ScalarField, x0):
    """Symbolic derivatives of a field instance as an independent oracle."""
    xs = sp.symbols(f"x0:{field.dim}")
    expr = sp.Float(field.shift)

    def term_expr(term):
        if term.kind == "poly":
            (exps,) = term.params
            e = sp.Float(term.amp)
            for x, k in zip(xs, exps):
                e *= x**k
            return e
        if term.kind == "gauss":
            center, width = term.params
            q = sum((x - c) ** 2 for x, c in zip(xs, center))
            return term.amp * sp.exp(-q / (2 * width**2))
        if term.kind == "rexp":
            center, rate, smooth = term.params
            q = sum((x - c) ** 2 for x, c in zip(xs, center)) + smooth**2
            return term.amp * sp.exp(-rate * sp.sqrt(q))
        if term.kind == "bubble":
            center, width, power = term.params
            q = sum((x - c) ** 2 for x, c in zip(xs, center)) / width**2 + 1
            return term.amp * q ** (-power)
        raise AssertionError(term.kind)

    for term in field.terms:
        expr += term_expr(term)
    for ta, tb in field.products:
        expr += term_expr(ta) * term_expr(tb)
    subs = dict(zip(xs, x0))
    val = float(expr.subs(subs))
    grad = np.array([float(sp.diff(expr, x).subs(subs)) for x in xs])
    hess = np.array(
        [[float(sp.diff(expr, xi, xj).subs(subs)) for xj in xs] for xi in xs]
    )
    third = np.array(
        [
            [
                [float(sp.diff(expr, xi, xj, xk).subs(subs)) for xk in xs]
                for xj in xs
            ]
            for xi in xs
        ]
    )
    return val, grad, hess, third


class TestJetsAgainstSympy:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_jet_matches_symbolic(self, seed):
        rng = RNG(seed)
        field = random_field(rng, 2)
        x0 = rng.uniform(-1.0, 1.0, size=2)
        jet = field.jet3(x0.reshape(1, -1))
        val, grad, hess, third = _sympy_reference(field, x0)
        assert jet.v[0] == pytest.approx(val, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(jet.g[0], grad, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(jet.h[0], hess, rtol=1e-10, atol=1e-11)
        np.testing.assert_allclose(jet.t[0], third, rtol=1e-9, atol=1e-10)


class TestFiniteDifferenceCrossCheck:
    """The jets are the source of record; fourth-order central
    differences cross-check them.  At the finer step the stencils for
    orders >= 2 sit on their float64 roundoff floor, so the convergence
    rate assertion carries a floor-escape clause."""

    _FLOOR_COEFF = {1: 18.0 / 12.0, 2: 64.0 / 12.0, 3: 6.0}

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_rate_or_floor(self, dim, order):
        rng = RNG(100 + dim)
        field = random_field(rng, dim)
        x = rng.uniform(-1.0, 1.0, size=dim)
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        scale = abs(value(field, x.reshape(1, -1))[0]) + 1.0
        errs = {}
        for h in (1e-2, 1e-3):
            ad = jet_directional(field, x, v, order)
            fd = fd_directional(field, x, v, order, h)
            errs[h] = abs(ad - fd)
        floor = 50 * np.finfo(float).eps * scale * self._FLOOR_COEFF[order] / 1e-3**order
        rate = np.log10((errs[1e-2] + 1e-300) / (errs[1e-3] + 1e-300))
        assert rate >= 3.5 or errs[1e-3] <= floor, (errs, floor)
        # agreement itself, at the coarse step where truncation dominates
        assert errs[1e-2] <= 1e-5 * scale

    def test_stencils_exact_on_polynomials(self):
        # degree <= 4 must be differentiated exactly (up to roundoff)
        field = ScalarField(1, 0.0, (FieldTerm("poly", 1.0, ((3,),)),))
        x = np.array([0.7])
        v = np.array([1.0])
        assert fd_directional(field, x, v, 1, 1e-2) == pytest.approx(3 * 0.7**2, rel=1e-9)
        assert fd_directional(field, x, v, 2, 1e-2) == pytest.approx(6 * 0.7, rel=1e-9)
        assert fd_directional(field, x, v, 3, 1e-2) == pytest.approx(6.0, rel=1e-9)


class TestRandomFields:
    @pytest.mark.parametrize("seed", range(6))
    def test_positivity_budget(self, seed):
        rng = RNG(seed)
        for dim in (2, 3, 4):
            field = random_field(rng, dim)
            assert lower_bound(field, 1.6) > 0
            pts = rng.uniform(-1.6, 1.6, size=(200, dim))
            assert value(field, pts).min() > 0

    @pytest.mark.parametrize("shape", [(5, 2), (5, 4), (2, 5, 3)])
    def test_points_of_another_shape_are_rejected(self, shape):
        field = random_field(RNG(5), 3)
        with pytest.raises(InputError, match=r"need \(N, 3\)"):
            field.jet3(np.ones(shape))

    def test_determinism(self):
        f1 = random_field(RNG(5), 3)
        f2 = random_field(RNG(5), 3)
        pts = RNG(6).uniform(-1, 1, size=(10, 3))
        np.testing.assert_array_equal(value(f1, pts), value(f2, pts))


class TestShiftedSquare:
    @pytest.mark.parametrize("dim", (2, 3, 4, 6))
    def test_closed_form_is_the_product_form(self, dim):
        rng = RNG(dim)
        coords = jet3_coords(rng.uniform(-1.6, 1.6, size=(50, dim)))
        center = tuple(rng.uniform(-1.0, 1.0, size=dim))
        ref = None
        for x, c in zip(coords, center):
            s = (x - c) * (x - c)
            ref = s if ref is None else ref + s
        out = _shifted_square(coords, center)
        for part in ("v", "g", "h", "t"):
            assert np.array_equal(getattr(out, part), getattr(ref, part)), part

    def test_keeps_the_coords_dtype(self):
        coords = jet3_coords(np.ones((4, 3), np.longdouble))
        out = _shifted_square(coords, (0.5, 0.0, -0.5))
        assert [a.dtype for a in (out.v, out.g, out.h, out.t)] == [np.longdouble] * 4


class TestRadialProfiles:
    def test_jets_match_symbolic(self):
        prof = random_radial_profile(RNG(3), 2.5)
        r = sp.symbols("r")
        val, grad, hess, third = _sympy_reference(prof.field, [0.8])
        u, u1, u2, u3 = prof.jet(np.array([0.8]))
        assert u[0] == pytest.approx(val, rel=1e-12)
        assert u1[0] == pytest.approx(grad[0], rel=1e-11, abs=1e-12)
        assert u2[0] == pytest.approx(hess[0, 0], rel=1e-10, abs=1e-11)
        assert u3[0] == pytest.approx(third[0, 0, 0], rel=1e-9, abs=1e-10)

    @pytest.mark.parametrize("r,dtype", [
        ([1, 2], np.float64), (np.arange(1, 3), np.float64),
        (np.array([1.0, 2.0], np.longdouble), np.longdouble),
    ], ids=["list", "int", "longdouble"])
    def test_dtype_follows_the_radii(self, r, dtype):
        prof = random_radial_profile(RNG(3), 2.5)
        assert [a.dtype for a in prof.jet(r)] == [dtype] * 4

    def test_positive_on_range(self):
        for seed in range(5):
            prof = random_radial_profile(RNG(seed), 3.0)
            r = np.linspace(0.01, 3.0, 100)
            assert prof.jet(r)[0].min() > 0
