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
u^b * flux, their Jacobian endomorphisms, and traceless parts.  The
identity checks read every p-level one of these, with lap_p u,
grad |grad u|^p and A, from one :class:`FluxBlock` per p.  Near the
critical set several of these are singular for p < 2; identity
sampling excludes |grad u| < EPS_GRAD_FACTOR times the sample scale,
mirroring the almost-everywhere scope of the identities being verified.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import SingularJetError

__all__ = [
    "EPS_GRAD_FACTOR",
    "grad_norm_sq",
    "laplacian",
    "inf_laplacian",
    "p_laplacian",
    "anisotropy_apply",
    "flux",
    "flux_jacobian",
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


def laplacian(h):
    return np.einsum("...ii->...", h)


def inf_laplacian(g, h):
    """<hess . grad, grad>; no singularity for any jet."""
    return np.einsum("...i,...ij,...j->...", g, h, g)


def p_laplacian(g, h, p):
    """Pointwise p-Laplacian of a jet.

    p = 2 returns trace(hess) exactly.  For p >= 2 jets with a vanishing
    gradient take the continuous extension 0; for p < 2 such jets raise
    (the |grad|^{p-4} factor is genuinely singular there).
    """
    if p == 2.0:
        return laplacian(h)
    gn2 = grad_norm_sq(g)
    gn = np.sqrt(gn2)
    if p >= 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = gn ** (p - 2.0) * laplacian(h) + (p - 2.0) * gn ** (
                p - 4.0
            ) * inf_laplacian(g, h)
        return np.where(gn2 > 0, out, 0.0)
    if np.any(gn2 == 0):
        raise SingularJetError("p < 2 at a critical point")
    return gn ** (p - 2.0) * laplacian(h) + (p - 2.0) * gn ** (p - 4.0) * inf_laplacian(g, h)


def _radial_p_laplacian(p, du, ddu, drift):
    """Radial p-Laplacian |u'|^{p-2} ((p-1) u'' + drift) and its scale.

    ``drift`` is the first-order part (n-1) (psi'/psi) u', in whatever
    form the caller holds it; the scale |u'|^{p-2} (|(p-1) u''| + |drift|)
    is what a residual is measured against.  Where u' = 0 and p < 2 both
    are non-finite (computed without warnings); callers mask or reject
    those points.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        gn = np.abs(du) ** (p - 2.0)
        lead = (p - 1.0) * ddu
        return gn * (lead + drift), gn * (np.abs(lead) + np.abs(drift))


# ----------------------------------------------------------------------
# anisotropy operator
# ----------------------------------------------------------------------


def anisotropy_apply(g, p, v):
    """A(v) = v + (p-2) <v, g> g / |g|^2.

    Linear in v with eigenvalue 1 on g-perp and p-1 along g.
    """
    coef = (p - 2.0) * np.einsum("...i,...i->...", v, g) / grad_norm_sq(g)
    return v + coef[..., None] * g


# ----------------------------------------------------------------------
# flux fields and their Jacobians
# ----------------------------------------------------------------------


def flux(g, p):
    """|g|^{p-2} g."""
    gn = np.sqrt(grad_norm_sq(g))
    return gn[..., None] ** (p - 2.0) * g


def flux_jacobian(g, h, p):
    """Jacobian of the flux: |g|^{p-2} (id + (p-2) ghat (x) ghat) hess.

    Entry [i, j] is the j-derivative of flux component i.  Needs only
    second-order jet data.
    """
    gn2 = grad_norm_sq(g)
    gn = np.sqrt(gn2)
    hg = np.einsum("...ij,...j->...i", h, g)
    correction = np.einsum("...i,...j->...ij", g, hg) / gn2[..., None, None]
    return gn[..., None, None] ** (p - 2.0) * (h + (p - 2.0) * correction)


class FluxBlock:
    """The jets route at one p: every quantity the right sides read that
    does not depend on u or b, each built on first use and then kept.

    weighted(u, b) adds only the u^b factors to the flux and its
    Jacobian, so a grid of b costs one flux Jacobian.
    """

    def __init__(self, g, h, p):
        self.g, self.h, self.p = g, h, p

    @cached_property
    def flux(self):
        """|g|^{p-2} g."""
        return flux(self.g, self.p)

    @cached_property
    def jacobian(self):
        """The flux Jacobian |g|^{p-2} A hess u."""
        return flux_jacobian(self.g, self.h, self.p)

    @cached_property
    def _outer(self):
        return np.einsum("...i,...j->...ij", self.flux, self.g)

    @cached_property
    def plap(self):
        """lap_p u."""
        return p_laplacian(self.g, self.h, self.p)

    @cached_property
    def _gn(self):
        return np.sqrt(grad_norm_sq(self.g))

    @cached_property
    def norm_p2(self):
        """|g|^{p-2}, spelled as flux and flux_jacobian spell it."""
        return self._gn ** (self.p - 2.0)

    @cached_property
    def power(self):
        """|g|^p."""
        return self._gn**self.p

    @cached_property
    def grad_power(self):
        """grad |grad u|^p = p |g|^{p-2} hess u . g."""
        return self.p * self.norm_p2[..., None] * np.einsum(
            "...ij,...j->...i", self.h, self.g
        )

    def aniso(self, v):
        """A(v) = v + (p-2) <v, g> g / |g|^2."""
        return anisotropy_apply(self.g, self.p, v)

    @cached_property
    def _check_scale(self):
        """|g|^{p-2} (|lap u| + |p-2| |lap_inf u| / |g|^2), the gradient
        factor of the trace check's scale."""
        g, h, p = self.g, self.h, self.p
        return self.norm_p2 * (
            np.abs(laplacian(h))
            + np.abs(p - 2.0) * np.abs(inf_laplacian(g, h)) / self._gn**2
        )

    def weighted(self, u, b, check=True):
        """X = u^b flux and its Jacobian endomorphism.

        The Jacobian is assembled as  b u^{b-1} flux (x) du  +  u^b *
        flux_jacobian.  Its trace must reproduce the closed-form
        divergence b u^{b-1}|g|^p + u^b lap_p u; the agreement is
        asserted (relative 1e-11) unless check=False.
        """
        ub, ub1 = u**b, u ** (b - 1.0)
        X = ub[..., None] * self.flux
        jac = (
            (b * ub1)[..., None, None] * self._outer
            + ub[..., None, None] * self.jacobian
        )
        if check:
            gnp = self.power
            tr = np.einsum("...ii->...", jac)
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
        return X, jac


def weighted_flux_jacobian(u, g, h, p, b, check=True):
    """Jacobian endomorphism of the weighted flux (see FluxBlock.weighted)."""
    return FluxBlock(g, h, p).weighted(u, b, check)[1]


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
