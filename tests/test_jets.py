"""Pointwise jet calculus: degenerate Laplacians, anisotropy, flux fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdenlab import jets as J
from emdenlab.errors import SingularJetError

RNG = lambda seed: np.random.default_rng(np.random.Philox(seed))


def _random_jet(rng, n, count=1):
    u = rng.uniform(0.5, 3.0, size=count)
    g = rng.normal(size=(count, n))
    h = rng.normal(size=(count, n, n))
    h = 0.5 * (h + np.swapaxes(h, 1, 2))
    return u, g, h


def _block(g, h, p):
    return J.FluxBlock(J.JetBlock(g, h), p)


# ----------------------------------------------------------------------
# reference spellings, one free function per quantity: every block must
# reproduce them bit for bit, so the reports stay byte-identical
# ----------------------------------------------------------------------


def _ref_grad_norm_sq(g):
    return np.einsum("...i,...i->...", g, g)


def _ref_laplacian(h):
    return np.einsum("...ii->...", h)


def _ref_inf_laplacian(g, h):
    return np.einsum("...i,...ij,...j->...", g, h, g)


def _ref_p_laplacian(g, h, p):
    if p == 2.0:
        return _ref_laplacian(h)
    gn2 = _ref_grad_norm_sq(g)
    gn = np.sqrt(gn2)
    if p >= 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = gn ** (p - 2.0) * _ref_laplacian(h) + (p - 2.0) * gn ** (
                p - 4.0
            ) * _ref_inf_laplacian(g, h)
        return np.where(gn2 > 0, out, 0.0)
    if np.any(gn2 == 0):
        raise SingularJetError("p < 2 at a critical point")
    return gn ** (p - 2.0) * _ref_laplacian(h) + (p - 2.0) * gn ** (
        p - 4.0
    ) * _ref_inf_laplacian(g, h)


def _ref_anisotropy_apply(g, p, v):
    coef = (p - 2.0) * np.einsum("...i,...i->...", v, g) / _ref_grad_norm_sq(g)
    return v + coef[..., None] * g


def _ref_flux(g, p):
    gn = np.sqrt(_ref_grad_norm_sq(g))
    return gn[..., None] ** (p - 2.0) * g


def _ref_hg(g, h):
    return np.einsum("...ij,...j->...i", h, g)


def _ref_outer(g, h):
    return np.einsum("...i,...j->...ij", g, _ref_hg(g, h)) / _ref_grad_norm_sq(g)[
        ..., None, None
    ]


def _ref_flux_jacobian(g, h, p):
    gn = np.sqrt(_ref_grad_norm_sq(g))
    return gn[..., None, None] ** (p - 2.0) * (h + (p - 2.0) * _ref_outer(g, h))


def _euclidean_jets():
    from emdenlab.fields import random_field

    rng = np.random.Generator(np.random.Philox(20))
    jet = random_field(rng, 3).jet3(rng.uniform(-1.0, 1.0, size=(300, 3)))
    return jet.g, jet.h


def _radial_frame_jets():
    from emdenlab.divergence import RadialEngine
    from emdenlab.fields import random_radial_profile
    from emdenlab.geometry import sphere

    rng = np.random.Generator(np.random.Philox(21))
    r = rng.uniform(0.15, 2.5, size=300)
    eng = RadialEngine(sphere(4), r, *random_radial_profile(rng, 2.5).jet(r))
    return eng.frame_jets()[1:]


def _random_jets():
    from emdenlab.identities import random_jets

    return random_jets(np.random.Generator(np.random.Philox(22)), 4, 300)[1:]


JET_SOURCES = {"euclidean": _euclidean_jets, "radial_frame": _radial_frame_jets,
               "random_jets": _random_jets}


class TestJetBlock:
    @pytest.mark.parametrize("source", JET_SOURCES)
    def test_blocks_match_the_ref_spelling(self, source):
        g, h = JET_SOURCES[source]()
        jets = J.JetBlock(g, h)
        gn2 = _ref_grad_norm_sq(g)
        expected = {"gn2": gn2, "gn": np.sqrt(gn2), "hg": _ref_hg(g, h),
                    "ghg": _ref_inf_laplacian(g, h), "lap": _ref_laplacian(h),
                    "outer": _ref_outer(g, h)}
        for name, want in expected.items():
            assert np.array_equal(getattr(jets, name), want), name

    @pytest.mark.parametrize("source", JET_SOURCES)
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 5.0])
    def test_flux_blocks_match_the_ref_spelling(self, source, p):
        g, h = JET_SOURCES[source]()
        block = _block(g, h, p)
        v = np.random.Generator(np.random.Philox(23)).normal(size=g.shape)
        assert np.array_equal(block.flux, _ref_flux(g, p))
        assert np.array_equal(block.jacobian, _ref_flux_jacobian(g, h, p))
        # the reductions the block keeps of J, which it does not keep
        jac = _ref_flux_jacobian(g, h, p)
        assert np.array_equal(block.jacobian_sq_trace, J.trace_product(jac))
        assert np.array_equal(block.jacobian_flux,
                              np.einsum("nij,nj->ni", jac, _ref_flux(g, p)))
        assert np.array_equal(block.plap, _ref_p_laplacian(g, h, p))
        assert np.array_equal(block.aniso(v), _ref_anisotropy_apply(g, p, v))
        assert np.array_equal(
            block.grad_power, p * block.norm_p2[..., None] * _ref_hg(g, h)
        )


class TestPLaplacian:
    def test_p2_is_trace_exactly(self):
        u, g, h = _random_jet(RNG(0), 4, 50)
        np.testing.assert_array_equal(
            _block(g, h, 2.0).plap, np.einsum("nii->n", h)
        )

    def test_hand_evaluated_decomposition(self):
        # u = |x|^2/2 at (1,0,0): grad e1, hess identity, p=3:
        # |grad|(lap) + |grad|^{-1} lap_inf = 3 + 1
        g = np.array([[1.0, 0.0, 0.0]])
        h = np.eye(3)[None]
        assert _block(g, h, 3.0).plap[0] == pytest.approx(4.0, rel=1e-14)

    def test_radial_exponential_oracle(self):
        # u = e^{-r} on R^3 at r=1, p=2: u'' + (2/r) u' = e^{-1}(1 - 2)
        r = 1.0
        u1, u2 = -np.exp(-r), np.exp(-r)
        g = np.array([[u1, 0.0, 0.0]])
        h = np.diag([u2, u1 / r, u1 / r])[None]
        assert _block(g, h, 2.0).plap[0] == pytest.approx(-np.exp(-1.0), rel=1e-14)

    def test_critical_point_conventions(self):
        g = np.zeros((1, 3))
        h = np.eye(3)[None]
        assert _block(g, h, 3.0).plap[0] == 0.0  # continuous extension
        with pytest.raises(SingularJetError):
            _block(g, h, 1.5).plap


class TestInfLaplacian:
    def test_axis_examples(self):
        g = np.array([[1.0, 0.0]])
        assert J.JetBlock(g, np.eye(2)[None]).ghg[0] == 1.0
        g2 = np.array([[2.0, 2.0]]) / np.sqrt(2)
        h2 = np.diag([1.0, -1.0])[None]
        assert J.JetBlock(g2, h2).ghg[0] == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_form_oracle(self):
        u, g, h = _random_jet(RNG(1), 3, 20)
        expected = np.array([gi @ hi @ gi for gi, hi in zip(g, h)])
        np.testing.assert_allclose(J.JetBlock(g, h).ghg, expected, rtol=1e-14)


class TestAnisotropy:
    @staticmethod
    def _aniso(g, p, v):
        return _block(g, None, p).aniso(v)

    def test_orthogonal_vector_unchanged(self):
        g = np.array([[2.0, 0.0, 0.0]])
        v = np.array([[0.0, 3.0, -1.0]])
        np.testing.assert_allclose(self._aniso(g, 3.0, v), v, rtol=1e-15)

    def test_gradient_direction_scales(self):
        # A(grad) = (p-1) grad
        g = np.array([[0.3, -1.2, 0.5]])
        out = self._aniso(g, 2.7, g)
        np.testing.assert_allclose(out, (2.7 - 1.0) * g, rtol=1e-14)

    def test_p2_identity_exact(self):
        rng = RNG(2)
        g = rng.normal(size=(10, 3))
        v = rng.normal(size=(10, 3))
        np.testing.assert_array_equal(self._aniso(g, 2.0, v), v)

    @settings(max_examples=120, deadline=None)
    @given(
        p=st.sampled_from([1.5, 2.0, 3.0]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_quadratic_form_eigenvalue_bounds(self, p, seed):
        rng = RNG(seed)
        g = rng.normal(size=(8, 3))
        g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-3)
        g *= rng.uniform(0.1, 2.0, size=(8, 1))
        v = rng.normal(size=(8, 3))
        quad = np.einsum("ni,ni->n", self._aniso(g, p, v), v)
        vv = np.einsum("ni,ni->n", v, v)
        lo, hi = min(1.0, p - 1.0), max(1.0, p - 1.0)
        assert np.all(quad >= lo * vv - 1e-10 * vv)
        assert np.all(quad <= hi * vv + 1e-10 * vv)


class TestFluxFields:
    def test_b0_p2_jacobian_is_hessian(self):
        u, g, h = _random_jet(RNG(3), 3, 5)
        np.testing.assert_allclose(
            J.weighted_flux_jacobian(u, g, h, 2.0, 0.0), h, rtol=1e-13
        )

    def test_trace_matches_closed_divergence(self):
        u, g, h = _random_jet(RNG(4), 4, 200)
        gn = np.linalg.norm(g, axis=-1)
        for p, b in [(1.5, -2.0), (2.0, 1.0), (3.0, 0.5)]:
            _, jac = _block(g, h, p).weighted(u, b)  # asserts internally
            tr = np.einsum("nii->n", jac)
            # div(u^b |g|^{p-2} g) = b u^{b-1} |g|^p + u^b lap_p u
            closed = b * u ** (b - 1.0) * gn**p + u**b * _block(g, h, p).plap
            np.testing.assert_allclose(tr, closed, rtol=1e-11, atol=1e-13)

    def test_radial_hand_oracle(self):
        # u = 2 + r^2 on R^2 at r=1, p=2, b=1: X = u grad u, |X| = 6,
        # div X = |grad u|^2 + u lap u = 4 + 3*4 = 16
        u = np.array([3.0])
        g = np.array([[2.0, 0.0]])
        h = 2.0 * np.eye(2)[None]
        X, jac = _block(g, h, 2.0).weighted(u, 1.0)
        assert np.linalg.norm(X[0]) == pytest.approx(6.0, rel=1e-14)
        assert np.trace(jac[0]) == pytest.approx(16.0, rel=1e-14)


class TestFluxBlock:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_jacobian_square_is_anisotropic_hessian_square(self, n, p):
        # J = |g|^{p-2} A hess u, so tr(J^2) = |g|^{2p-4} tr((A hess u)^2),
        # with A = id + (p-2) ghat (x) ghat built here as a matrix
        _, g, h = _random_jet(RNG(10 + n), n, 200)
        gn2 = np.einsum("ni,ni->n", g, g)
        A = np.eye(n) + (p - 2.0) * np.einsum("ni,nj->nij", g, g) / gn2[:, None, None]
        AH = np.einsum("nij,njk->nik", A, h)
        expected = gn2 ** (p - 2.0) * np.einsum("nij,nji->n", AH, AH)
        got = J.trace_product(_block(g, h, p).jacobian)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_grad_power_hand_oracle(self, p):
        # u = |x|^2/2: grad u = x, hess u = id, grad |grad u|^p = p |x|^{p-2} x
        x = _random_jet(RNG(11), 3, 50)[1]
        block = _block(x, np.broadcast_to(np.eye(3), (50, 3, 3)), p)
        r = np.linalg.norm(x, axis=-1)
        np.testing.assert_allclose(
            block.grad_power, p * r[:, None] ** (p - 2.0) * x, rtol=1e-13
        )


class TestWeightedTraces:
    """The traces of the weighted flux Jacobian, read affine in the
    weights (b u^{b-1}, u^b) off p-level traces, against the assembled
    matrix."""

    def test_affine_traces_match_matrix_route(self):
        from emdenlab.identities import AB_GRID, random_jets

        rng = RNG(12)
        for n in (2, 3, 4, 6):
            u, g, h = random_jets(rng, n, 100)
            for p in (1.2, 1.5, 2.0, 3.0, 5.0):
                block = _block(g, h, p)
                gf = np.linalg.norm(block.flux, axis=-1) * np.linalg.norm(g, axis=-1)
                jac_norm = np.sqrt(J.frobenius_sq(block.jacobian))
                for b in AB_GRID:
                    alpha, beta = np.abs(b * u ** (b - 1.0)), u**b
                    jac = block.weighted(u, b)[1]
                    tr, tr_sq, _ = block.weighted_traces(b, u**b, u ** (b - 1.0))
                    # each term is bounded by (|alpha| |F||g| + beta |J|)^k
                    scale = alpha * gf + beta * jac_norm
                    err = np.abs(tr - np.einsum("nii->n", jac)) / scale
                    assert err.max() <= 1e-12, (n, p, b)
                    err = np.abs(tr_sq - J.trace_product(jac)) / scale**2
                    assert err.max() <= 1e-12, (n, p, b)


class TestTraceless:
    def test_identity_killed(self):
        out = J.traceless(np.eye(3)[None])
        np.testing.assert_array_equal(out, np.zeros((1, 3, 3)))

    def test_rank_one_diagonal(self):
        out = J.traceless(np.diag([1.0, 0.0, 0.0])[None])
        np.testing.assert_allclose(
            out[0], np.diag([2 / 3, -1 / 3, -1 / 3]), rtol=1e-15
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_trace_vanishes_and_complement(self, seed):
        rng = RNG(seed)
        mat = rng.normal(size=(4, 4))[None]
        out = J.traceless(mat)
        norm = np.abs(mat).max()
        assert abs(np.einsum("nii->n", out)[0]) <= 1e-13 * max(norm, 1.0)
        np.testing.assert_allclose(
            mat - out, (np.einsum("nii->n", mat) / 4.0)[:, None, None] * np.eye(4),
            rtol=1e-13, atol=1e-14,
        )
