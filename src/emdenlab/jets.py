"""Pointwise calculus on second-order jets in an orthonormal frame.

A jet is the local data (u, grad u, hess u) of a positive scalar field.
Everything here is plain batched numpy on arrays shaped
u (...,), grad (..., n), hess (..., n, n); the same code serves random
jet campaigns, Euclidean field samples and radial samples materialized
in the frame (e1 radial).

The degenerate operators are the p-Laplacian

    lap_p u = |grad u|^{p-2} lap u + (p-2) |grad u|^{p-4} lap_inf u,

the infinity-Laplacian  lap_inf u = <hess u . grad u, grad u>,  and the
anisotropy map  A(v) = v + (p-2) <v, grad u> grad u / |grad u|^2  with
eigenvalues 1 (orthogonal to grad u) and p-1 (along grad u).

Derived objects: the flux |grad u|^{p-2} grad u, the power-weighted flux
u^b * flux, their Jacobian endomorphisms, and traceless parts.  The work
is split by what it depends on.  A :class:`JetBlock` holds the p-free
contractions of a batch, |grad u|^2, |grad u|, hess u . grad u,
lap_inf u, lap u and grad u (x) (hess u . grad u) / |grad u|^2, each
built once per batch.  A :class:`FluxBlock` over it holds the p-level
ones, lap_p u, grad |grad u|^p and A among them, each built on first
use; the identity campaigns build one per (batch, p) and share it across
their checks.  Its b-dependent readings take the powers of u they use
from the caller, which evaluates each power once per batch.  Near the
critical set several of these are singular for p < 2; identity
sampling excludes |grad u| < EPS_GRAD_FACTOR times the sample scale,
mirroring the almost-everywhere scope of the identities being verified.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import cached_property

import numpy as np

from .errors import SingularJetError

__all__ = [
    "EPS_GRAD_FACTOR",
    "grad_norm_sq",
    "JetBlock",
    "FluxBlock",
    "weighted_flux_jacobian",
    "traceless",
    "trace_product",
    "frobenius_sq",
]

#: identity sampling excludes jets with |grad u| < EPS_GRAD_FACTOR * scale
EPS_GRAD_FACTOR = 1e-3


# ----------------------------------------------------------------------
# scalar invariants
# ----------------------------------------------------------------------


def grad_norm_sq(g):
    return np.einsum("...i,...i->...", g, g)


# ----------------------------------------------------------------------
# the p-free and p-level blocks
# ----------------------------------------------------------------------


class JetBlock:
    """The p-free contractions of a batch of jets (g, h) = (grad u,
    hess u), each built on first use and then kept.

    The jets-side twin of the divergence engine's p-free duals: every
    :class:`FluxBlock` over the batch reads these instead of contracting
    (g, h) again.
    """

    def __init__(self, g, h):
        self.g, self.h = g, h

    @cached_property
    def gn2(self):
        """|g|^2."""
        return grad_norm_sq(self.g)

    @cached_property
    def gn(self):
        """|g|."""
        return np.sqrt(self.gn2)

    @cached_property
    def hg(self):
        """hess u . g."""
        return np.einsum("...ij,...j->...i", self.h, self.g)

    @cached_property
    def ghg(self):
        """lap_inf u = <g, hess u . g>, contracted in one pass over (i, j)
        (no singularity for any jet)."""
        return np.einsum("...i,...ij,...j->...", self.g, self.h, self.g)

    @cached_property
    def lap(self):
        """lap u = tr hess u."""
        return np.einsum("...ii->...", self.h)

    @cached_property
    def outer(self):
        """g (x) (hess u . g) / |g|^2, the p-free part of the flux
        Jacobian's anisotropic correction."""
        return np.einsum("...i,...j->...ij", self.g, self.hg) / self.gn2[..., None, None]


class FluxBlock:
    """The jets route at one p: every quantity the right sides read that
    does not depend on u or b, each built on first use and then kept.
    It reads the p-free contractions of its :class:`JetBlock` and never
    contracts (g, h) itself.

    ``weighted_traces`` and ``weighted_grad_div_pairing`` read one b
    as powers of u over p-level blocks, with no (N, n, n) array per b;
    they take the powers u^b, u^{b-1} and u^{b-2} they use from the
    caller and form none.  ``weighted`` assembles X = u^b F and its
    Jacobian from u.
    """

    def __init__(self, jets: JetBlock, p):
        self.jets, self.p = jets, p

    @cached_property
    def norm_p2(self):
        """|g|^{p-2}, the one spelling every block reads."""
        return self.jets.gn ** (self.p - 2.0)

    @cached_property
    def flux(self):
        """F = |g|^{p-2} g."""
        return self.norm_p2[..., None] * self.jets.g

    @cached_property
    def jacobian(self):
        """The flux Jacobian |g|^{p-2} (id + (p-2) ghat (x) ghat) hess u;
        entry [i, j] is the j-derivative of flux component i."""
        jets = self.jets
        return self.norm_p2[..., None, None] * (jets.h + (self.p - 2.0) * jets.outer)

    @cached_property
    def _flux_outer(self):
        return np.einsum("...i,...j->...ij", self.flux, self.jets.g)

    @cached_property
    def flux_sq(self):
        """|F|^2."""
        return grad_norm_sq(self.flux)

    @cached_property
    def jacobian_sq_trace(self):
        """tr J^2, J the flux Jacobian."""
        return trace_product(self.jacobian)

    @cached_property
    def _traces(self):
        """tr O = <F, g>, tr J, tr J^2 and tr(OJ) = <g, J F>, with
        O = F (x) g and J the flux Jacobian."""
        jac, g = self.jacobian, self.jets.g
        return (
            np.einsum("...i,...i->...", self.flux, g),
            np.einsum("...ii->...", jac),
            self.jacobian_sq_trace,
            np.einsum("...i,...ij,...j->...", g, jac, self.flux),
        )

    @cached_property
    def plap(self):
        """lap_p u = |g|^{p-2} lap u + (p-2) |g|^{p-4} lap_inf u.

        p = 2 returns tr hess u exactly.  For p >= 2 jets with a
        vanishing gradient take the continuous extension 0; for p < 2
        such jets raise (the |g|^{p-4} factor is genuinely singular
        there).
        """
        jets, p = self.jets, self.p
        if p == 2.0:
            return jets.lap
        if p < 2 and np.any(jets.gn2 == 0):
            raise SingularJetError("p < 2 at a critical point")
        quiet = np.errstate(divide="ignore", invalid="ignore") if p > 2 else nullcontext()
        with quiet:
            out = self.norm_p2 * jets.lap + (p - 2.0) * jets.gn ** (p - 4.0) * jets.ghg
        return np.where(jets.gn2 > 0, out, 0.0) if p > 2 else out

    @cached_property
    def power(self):
        """|g|^p."""
        return self.jets.gn**self.p

    @cached_property
    def grad_power(self):
        """grad |grad u|^p = p |g|^{p-2} hess u . g."""
        return self.p * self.norm_p2[..., None] * self.jets.hg

    @cached_property
    def _grad_power_flux(self):
        """<grad |grad u|^p, F>."""
        return np.einsum("...i,...i->...", self.grad_power, self.flux)

    def aniso(self, v):
        """A(v) = v + (p-2) <v, g> g / |g|^2: linear in v, with
        eigenvalue 1 on g-perp and p-1 along g."""
        g = self.jets.g
        coef = (self.p - 2.0) * np.einsum("...i,...i->...", v, g) / self.jets.gn2
        return v + coef[..., None] * g

    @cached_property
    def _check_scale(self):
        """|g|^{p-2} (|lap u| + |p-2| |lap_inf u| / |g|^2), the gradient
        factor of the trace check's scale."""
        jets, p = self.jets, self.p
        return self.norm_p2 * (
            np.abs(jets.lap) + np.abs(p - 2.0) * np.abs(jets.ghg) / jets.gn**2
        )

    def _check_trace(self, tr, b, ub, ub1):
        """Assert that tr jac of X = u^b F reproduces the closed-form
        divergence b u^{b-1}|g|^p + u^b lap_p u (relative 1e-11), and
        return the closed form."""
        gnp = self.power
        closed = b * ub1 * gnp + ub * self.plap
        # normalize by the constituent-term size: the divergence itself
        # legitimately cancels to roundoff on p-harmonic profiles
        scale = np.abs(b) * ub1 * gnp + ub * self._check_scale + 1e-30
        worst = np.max(np.abs(tr - closed) / scale)
        if worst > 1e-11:
            raise AssertionError(
                "flux Jacobian trace disagrees with closed-form divergence: "
                f"{worst:g}"
            )
        return closed

    def weighted(self, u, b, check=True):
        """X = u^b flux and its Jacobian endomorphism.

        The Jacobian is assembled as  b u^{b-1} flux (x) du  +  u^b *
        jacobian.  Its trace must reproduce the closed-form
        divergence b u^{b-1}|g|^p + u^b lap_p u; the agreement is
        asserted (relative 1e-11) unless check=False.
        """
        ub, ub1 = u**b, u ** (b - 1.0)
        X = ub[..., None] * self.flux
        jac = (
            (b * ub1)[..., None, None] * self._flux_outer
            + ub[..., None, None] * self.jacobian
        )
        if check:
            self._check_trace(np.einsum("...ii->...", jac), b, ub, ub1)
        return X, jac

    def weighted_traces(self, b, ub, ub1):
        """tr jac, tr(jac^2) and the closed-form div X of X = u^b F, given
        ub = u^b and ub1 = u^{b-1}.  jac = alpha O + beta J with
        alpha = b u^{b-1} and beta = u^b (see _traces), so

            tr jac     = alpha tr O + beta tr J,
            tr(jac^2)  = alpha^2 (tr O)^2 + 2 alpha beta tr(OJ)
                         + beta^2 tr J^2.

        The trace is asserted against the closed form as ``weighted``
        asserts it.
        """
        alpha = b * ub1
        tr_o, tr_j, tr_j2, tr_oj = self._traces
        tr = alpha * tr_o + ub * tr_j
        closed = self._check_trace(tr, b, ub, ub1)
        tr_sq = alpha * (alpha * tr_o**2 + 2.0 * ub * tr_oj) + ub**2 * tr_j2
        return tr, tr_sq, closed

    def weighted_grad_div_pairing(self, b, ub, ub1, ub2, grad_plap_flux):
        """<grad div X, X> of X = u^b F, by the product rule on
        div X = b u^{b-1} |g|^p + u^b lap_p u, given ub, ub1 and ub2 =
        u^b, u^{b-1} and u^{b-2}:

            u^b [b(b-1) u^{b-2} |g|^p <g, F>
                 + b u^{b-1} (<grad |g|^p, F> + lap_p u <g, F>)
                 + u^b <grad lap_p u, F>].

        ``grad_plap_flux`` is <grad lap_p u, F>, which needs third-order
        data the block does not hold; the caller supplies it.
        """
        tr_o = self._traces[0]
        return ub * (
            b * (b - 1.0) * ub2 * self.power * tr_o
            + b * ub1 * (self._grad_power_flux + self.plap * tr_o)
            + ub * grad_plap_flux
        )


def weighted_flux_jacobian(u, g, h, p, b, check=True):
    """Jacobian endomorphism of the weighted flux (see FluxBlock.weighted)."""
    return FluxBlock(JetBlock(g, h), p).weighted(u, b, check)[1]


# ----------------------------------------------------------------------
# endomorphism helpers
# ----------------------------------------------------------------------


def traceless(mat):
    """M - (tr M / n) id for n x n M; its trace vanishes to roundoff."""
    n = mat.shape[-1]
    tr = np.einsum("...ii->...", mat)
    return mat - (tr / n)[..., None, None] * np.eye(n)


def trace_product(a):
    """tr(A^2) (matrix product, not entrywise)."""
    return np.einsum("...ij,...ji->...", a, a)


def frobenius_sq(mat):
    """Entrywise square sum |M|^2 (independent route from trace_product)."""
    return np.einsum("...ij,...ij->...", mat, mat)
