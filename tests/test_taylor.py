"""Rank-generic Grad duals against explicit product-rule contractions,
and the in-place Jet3 ring against its out-of-place form."""

import numpy as np
import pytest

from emdenlab import taylor
from emdenlab.fields import SAMPLING_BOX, ScalarField, random_field
from emdenlab.taylor import Grad, Jet3, jet3_const, jet3_coords

N, DIM, M = 5, 3, 4


def _dual(rng, *shape):
    """Random dual: value (N, *shape), derivative (N, *shape, M)."""
    return Grad(rng.normal(size=(N, *shape)), rng.normal(size=(N, *shape, M)))


def _assert_same(out: Grad, v, d):
    np.testing.assert_array_equal(out.v, v)
    np.testing.assert_array_equal(out.d, d)


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.Philox(11))


class TestPrecisionRule:
    """A floating input keeps its dtype; anything else becomes float64."""

    @pytest.mark.parametrize("x,dtype", [
        (np.ones(3, np.longdouble), np.longdouble),
        (np.ones(3, np.float32), np.float32),
        (np.arange(3), np.float64),
        ([1, 2, 3], np.float64),
        (2, np.float64),
        (True, np.float64),
    ])
    def test_real(self, x, dtype):
        assert taylor.real(x).dtype == dtype

    @pytest.mark.parametrize("points", [[[0, 1, 2], [1, 2, 3]], np.arange(6).reshape(2, 3)],
                             ids=["list", "int"])
    def test_int_and_list_coords_are_float64(self, points):
        coords = jet3_coords(points)
        for x in (*coords, jet3_const(2, coords)):
            assert [a.dtype for a in (x.v, x.g, x.h, x.t)] == [np.float64] * 4

    def test_longdouble_coords_and_const(self):
        coords = jet3_coords(np.ones((4, 2), np.longdouble))
        const = jet3_const(1.5, coords)
        for x in (*coords, const):
            assert [a.dtype for a in (x.v, x.g, x.h, x.t)] == [np.longdouble] * 4
        assert const.v.shape == (4,) and const.t.shape == (4, 2, 2, 2)
        assert (const.v == 1.5).all()

    @pytest.mark.parametrize("v,d,dtype", [
        ([1, 2], [[0], [1]], np.float64),
        (np.ones(2, np.longdouble), np.zeros((2, 1), np.longdouble), np.longdouble),
    ])
    def test_grad_keeps_the_rule(self, v, d, dtype):
        out = Grad(v, d)
        assert (out.v.dtype, out.d.dtype) == (dtype, dtype)


class TestRankGenericGrad:
    def test_scalar_times_vector(self, rng):
        s, x = _dual(rng), _dual(rng, DIM)
        v = s.v[:, None] * x.v
        d = s.d[:, None, :] * x.v[:, :, None] + s.v[:, None, None] * x.d
        _assert_same(s * x, v, d)
        _assert_same(x * s, v, d)

    def test_scalar_times_matrix(self, rng):
        s, a = _dual(rng), _dual(rng, DIM, DIM)
        v = s.v[:, None, None] * a.v
        d = s.d[:, None, None, :] * a.v[..., None] + s.v[:, None, None, None] * a.d
        _assert_same(s * a, v, d)
        _assert_same(a * s, v, d)

    def test_vector_dot_vector(self, rng):
        x, y = _dual(rng, DIM), _dual(rng, DIM)
        _assert_same(
            x @ y,
            np.einsum("ni,ni->n", x.v, y.v),
            np.einsum("nim,ni->nm", x.d, y.v) + np.einsum("ni,nim->nm", x.v, y.d),
        )

    def test_matrix_times_vector(self, rng):
        a, x = _dual(rng, DIM, DIM), _dual(rng, DIM)
        _assert_same(
            a @ x,
            np.einsum("nij,nj->ni", a.v, x.v),
            np.einsum("nijm,nj->nim", a.d, x.v) + np.einsum("nij,njm->nim", a.v, x.d),
        )

    def test_trace(self, rng):
        a = _dual(rng, DIM, DIM)
        _assert_same(a.trace(), np.einsum("nii->n", a.v), np.einsum("niim->nm", a.d))

    def test_matrix_at_matrix_rejected(self, rng):
        a, b = _dual(rng, DIM, DIM), _dual(rng, DIM, DIM)
        with pytest.raises(ValueError):
            a @ b

    def test_product_rule_is_the_derivative(self, rng):
        # along x(t) = x0 + t x1, y(t) = y0 + t y1 the dual of
        # <x, y> carries d/dt <x, y> = <x1, y0> + <x0, y1>
        x0, x1, y0, y1 = rng.normal(size=(4, N, DIM))
        out = Grad(x0, x1[..., None]) @ Grad(y0, y1[..., None])
        expected = np.einsum("ni,ni->n", x1, y0) + np.einsum("ni,ni->n", x0, y1)
        np.testing.assert_allclose(out.d[:, 0], expected, rtol=1e-14)


# ----------------------------------------------------------------------
# the out-of-place Jet3 ring: the oracle of the in-place one
# ----------------------------------------------------------------------


def _sym_vh_oop(g, h):
    return (
        np.einsum("...i,...jk->...ijk", g, h)
        + np.einsum("...j,...ik->...ijk", g, h)
        + np.einsum("...k,...ij->...ijk", g, h)
    )


def _mul_oop(a, b):
    if not isinstance(b, Jet3):
        return Jet3(a.v * b, a.g * b, a.h * b, a.t * b)
    v = a.v * b.v
    g = a.g * b.v[..., None] + b.g * a.v[..., None]
    outer_ab = np.einsum("...i,...j->...ij", a.g, b.g)
    h = (
        a.h * b.v[..., None, None]
        + b.h * a.v[..., None, None]
        + outer_ab
        + np.swapaxes(outer_ab, -1, -2)
    )
    t = (
        a.t * b.v[..., None, None, None]
        + b.t * a.v[..., None, None, None]
        + _sym_vh_oop(b.g, a.h)
        + _sym_vh_oop(a.g, b.h)
    )
    return Jet3(v, g, h, t)


def _compose_oop(x, f0, f1, f2, f3):
    g = f1[..., None] * x.g
    gg = np.einsum("...i,...j->...ij", x.g, x.g)
    h = f1[..., None, None] * x.h + f2[..., None, None] * gg
    t = (
        f1[..., None, None, None] * x.t
        + f2[..., None, None, None] * _sym_vh_oop(x.g, x.h)
        + f3[..., None, None, None] * np.einsum("...i,...j,...k->...ijk", x.g, x.g, x.g)
    )
    return Jet3(f0, g, h, t)


def _field_jet3_oop(field, points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    coords = jet3_coords(points)
    out = jet3_const(field.shift, coords)
    for term in field.terms:
        out = out + term.eval_jet(coords)
    for ta, tb in field.products:
        out = out + ta.eval_jet(coords) * tb.eval_jet(coords)
    return out


def _random_jet(rng, n, count=40):
    """A jet with positive values and some exact zeros in its derivatives."""
    parts = [rng.normal(size=(count,) + (n,) * k) for k in (1, 2, 3)]
    for part in parts:
        part[rng.uniform(size=part.shape) < 0.1] = 0.0
    return Jet3(np.exp(rng.uniform(-1.0, 1.0, size=count)), *parts)


class TestInPlaceJet3Ring:
    """The ring accumulates its h and t sums in place, in the order the
    out-of-place formulas add them, so every array is bit-equal.  Criterion
    1 cannot see a third-order error on R^n, so this and test_fields'
    sympy reference guard the t path."""

    OPS = {
        "product": lambda a, b, c: a * b,
        "triple product": lambda a, b, c: (a * b) * c,
        "scalar product": lambda a, b, c: 2.5 * a,
        "exp": lambda a, b, c: a.exp(),
        "log": lambda a, b, c: a.log(),
        "sqrt": lambda a, b, c: a.sqrt(),
        "compose_power": lambda a, b, c: a.compose_power(-1.7),
        "chain": lambda a, b, c: ((a * b).sqrt() * c.log()).exp(),
    }

    @staticmethod
    def _both(monkeypatch, fn):
        ours = fn()
        with monkeypatch.context() as m:
            m.setattr(Jet3, "__mul__", _mul_oop)
            m.setattr(Jet3, "__rmul__", _mul_oop)
            m.setattr(Jet3, "compose", _compose_oop)
            m.setattr(ScalarField, "jet3", _field_jet3_oop)
            old = fn()
        for name in ("v", "g", "h", "t"):
            x, y = np.asarray(getattr(ours, name)), np.asarray(getattr(old, name))
            assert x.shape == y.shape and np.array_equal(x, y), name

    def test_sym_vh(self):
        rng = np.random.default_rng(np.random.Philox(5))
        for n in (2, 3, 4, 6):
            jet = _random_jet(rng, n)
            assert np.array_equal(taylor._sym_vh(jet.g, jet.h), _sym_vh_oop(jet.g, jet.h))

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_ring_operation(self, monkeypatch, n, op):
        rng = np.random.default_rng(np.random.Philox(n))
        a, b, c = (_random_jet(rng, n) for _ in range(3))
        self._both(monkeypatch, lambda: self.OPS[op](a, b, c))

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_random_field_jet(self, monkeypatch, n):
        rng = np.random.default_rng(np.random.Philox(20 + n))
        for _ in range(4):
            field = random_field(rng, n)
            points = rng.uniform(-SAMPLING_BOX, SAMPLING_BOX, size=(60, n))
            self._both(monkeypatch, lambda: field.jet3(points))
