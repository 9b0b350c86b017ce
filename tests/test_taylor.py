"""Rank-generic Grad duals against explicit product-rule contractions,
and the in-place, order-skipping Jet3 ring against its dense
out-of-place form."""

import contextlib
import itertools

import numpy as np
import pytest

from emdenlab import identities, taylor
from emdenlab.fields import (
    SAMPLING_BOX,
    FieldTerm,
    ScalarField,
    _shifted_square,
    random_field,
)
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


POOL = ("const", "coord", "square", "full")


def _low_order_pool(n, count=40):
    """One jet of each order at the same positive points: a constant, a
    coordinate, a shifted square plus 0.5 and a full random jet."""
    rng = np.random.default_rng(np.random.Philox(30 + n))
    coords = jet3_coords(rng.uniform(0.5, 1.5, size=(count, n)))
    center = tuple(rng.uniform(-1.0, 1.0, size=n))
    return dict(zip(POOL, (
        jet3_const(1.7, coords),
        coords[-1],
        _shifted_square(coords, center) + 0.5,
        _random_jet(rng, n, count),
    )))


@contextlib.contextmanager
def _dense_ring(monkeypatch):
    """The out-of-place ring, which computes every term of every part."""
    with monkeypatch.context() as m:
        m.setattr(Jet3, "__mul__", _mul_oop)
        m.setattr(Jet3, "__rmul__", _mul_oop)
        m.setattr(Jet3, "compose", _compose_oop)
        m.setattr(ScalarField, "jet3", _field_jet3_oop)
        yield


def _log(jet):
    """ln of a jet, by the chain rule with the outer derivatives of ln."""
    v = jet.v
    return jet.compose(np.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3)


def _assert_zero_above_order(jet):
    assert jet.order in (0, 1, 2, 3)
    for k, part in enumerate((jet.g, jet.h, jet.t), 1):
        assert k <= jet.order or not np.asarray(part).any(), (jet.order, k)


class TestInPlaceJet3Ring:
    """The ring accumulates its h and t sums in place, in the order the
    out-of-place formulas add them, and skips every term with a part
    above its operand's order as a factor, so every array equals the
    dense one (a zero may differ in sign).  Criterion 1 cannot see a
    third-order error on R^n, so this and test_fields' sympy reference
    guard the t path."""

    OPS = {
        "product": lambda a, b, c: a * b,
        "triple product": lambda a, b, c: (a * b) * c,
        "scalar product": lambda a, b, c: 2.5 * a,
        "exp": lambda a, b, c: a.exp(),
        "log": lambda a, b, c: _log(a),
        "sqrt": lambda a, b, c: a.sqrt(),
        "compose_power": lambda a, b, c: a.compose_power(-1.7),
        "chain": lambda a, b, c: ((a * b).sqrt() * _log(c)).exp(),
    }

    UNARY = {
        "scalar product": lambda a: -2.5 * a,
        "exp": lambda a: a.exp(),
        "log": lambda a: _log(a),
        "sqrt": lambda a: a.sqrt(),
        "compose_power": lambda a: a.compose_power(-1.7),
    }

    @staticmethod
    def _both(monkeypatch, fn):
        ours = fn()
        with _dense_ring(monkeypatch):
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

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a,b", itertools.product(POOL, repeat=2))
    def test_mixed_order_product(self, monkeypatch, n, a, b):
        pool = _low_order_pool(n)
        self._both(monkeypatch, lambda: pool[a] * pool[b])
        self._both(monkeypatch, lambda: ((pool[a] * pool[b]).sqrt() * _log(pool[b])).exp())

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a", POOL)
    @pytest.mark.parametrize("op", sorted(UNARY))
    def test_low_order_composition(self, monkeypatch, n, a, op):
        pool = _low_order_pool(n)
        self._both(monkeypatch, lambda: self.UNARY[op](pool[a]))

    def test_orders_of_the_leaves(self):
        coords = jet3_coords(np.ones((3, 2)))
        assert [x.order for x in coords] == [1, 1]
        assert jet3_const(2.0, coords).order == 0
        assert _shifted_square(coords, (0.5, -0.5)).order == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_parts_above_the_order_are_zero(self, n):
        pool = _low_order_pool(n)
        jets = [*pool.values(), *jet3_coords(np.ones((3, n)))]
        for a, b in itertools.product(pool.values(), repeat=2):
            prod = a * b
            assert prod.order == min(3, a.order + b.order)
            jets += [prod, a + b, a - b, -a, a + 1.0]
        jets += [op(a) for a in pool.values() for op in self.UNARY.values()]
        rng = np.random.default_rng(np.random.Philox(40 + n))
        for _ in range(4):
            field = random_field(rng, n)
            points = rng.uniform(-SAMPLING_BOX, SAMPLING_BOX, size=(20, n))
            coords = jet3_coords(points)
            jets += [term.eval_jet(coords) for term in field.terms]
            jets += [term.eval_jet(coords) for pair in field.products for term in pair]
            out = field.jet3(points)
            assert out.order == 3
            jets.append(out)
        for jet in jets:
            _assert_zero_above_order(jet)


# ----------------------------------------------------------------------
# the skip, counted: each skipped _sym_vh is an (N, n, n, n) term
# ----------------------------------------------------------------------


class TestSymVhCount:
    """Calls of taylor._sym_vh per field term at n = 3.  The dense ring
    makes two per Jet3 product, so a poly of degree k made 2k."""

    TERMS = {
        "x1": (FieldTerm("poly", 0.7, ((1, 0, 0),)), 0),
        "x1 x2": (FieldTerm("poly", 0.7, ((1, 1, 0),)), 0),
        "x1^2": (FieldTerm("poly", 0.7, ((2, 0, 0),)), 0),
        "x1 x2 x3": (FieldTerm("poly", 0.7, ((1, 1, 1),)), 1),
        "gauss": (FieldTerm("gauss", 0.7, ((0.1, 0.2, 0.3), 0.9)), 1),
        "bubble": (FieldTerm("bubble", 0.7, ((0.1, 0.2, 0.3), 0.9, 1.3)), 1),
        "rexp": (FieldTerm("rexp", 0.7, ((0.1, 0.2, 0.3), 0.8, 0.5)), 2),
    }

    @staticmethod
    def _count(monkeypatch, field):
        calls = []

        def counted(g, h):
            calls.append(1)
            return _sym_vh_oop(g, h)

        monkeypatch.setattr(taylor, "_sym_vh", counted)
        field.jet3(np.full((4, 3), 0.3))
        return len(calls)

    @pytest.mark.parametrize("name", sorted(TERMS))
    def test_term(self, monkeypatch, name):
        term, calls = self.TERMS[name]
        assert self._count(monkeypatch, ScalarField(3, 2.0, (term,))) == calls

    @pytest.mark.parametrize("a,b,more", [
        ("x1 x2", "gauss", 2), ("rexp", "bubble", 2), ("x1 x2 x3", "gauss", 2),
        ("x1", "gauss", 1),  # x1 has no Hessian for the gauss gradient to meet
    ])
    def test_product_term(self, monkeypatch, a, b, more):
        (ta, ca), (tb, cb) = self.TERMS[a], self.TERMS[b]
        field = ScalarField(3, 2.0, products=((ta, tb),))
        assert self._count(monkeypatch, field) == ca + cb + more


# ----------------------------------------------------------------------
# the campaign draw, byte for byte against the dense ring
# ----------------------------------------------------------------------


def _draw_arrays(monkeypatch, camp):
    """The arrays a campaign's draw yields: u, the frame jets, and on R^n
    the drawn t, read from the kept draw columns since the engine keeps
    no t, or, on the curved models, the engine's radial tower (u and its
    first three r-derivatives) and psi'/psi."""
    kept = []
    first_kept = identities._first_kept
    with monkeypatch.context() as m:
        m.setattr(identities, "_first_kept",
                  lambda *args: kept.append(first_kept(*args)) or kept[-1])
        batch = identities._draw(camp)
    out = [batch.u, batch.jets.g, batch.jets.h]
    eng = batch.engine
    if camp.is_radial:
        out += [eng.u.v, eng.u.d, eng.G.d, eng.H.d, eng.cot]
    else:
        out.append(np.concatenate([cols[3] for cols in kept]))
    return [(a.shape, a.dtype.str, a.tobytes()) for a in out]


class TestDrawAgainstDenseRing:
    """The nine criterion-1 campaigns draw the same bytes with the
    order-skipping ring as with the dense one (about 0.1 s a seed)."""

    @pytest.mark.parametrize("seed", [42, 146])
    def test_criterion_1_draws(self, monkeypatch, seed):
        camps = [
            identities.Campaign(model_name=model, dim=dim, p_values=(1.5, 2.0, 3.0),
                                samples=1000, seed=seed)
            for dim in (2, 3, 4)
            for model in ("euclidean", "sphere", "hyperbolic")
        ]
        ours = [_draw_arrays(monkeypatch, camp) for camp in camps]
        with _dense_ring(monkeypatch):
            dense = [_draw_arrays(monkeypatch, camp) for camp in camps]
        for camp, x, y in zip(camps, ours, dense):
            assert x == y, (camp.model_name, camp.dim)
