"""Rank-generic Grad duals against explicit product-rule contractions."""

import numpy as np
import pytest

from emdenlab.taylor import Grad

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
