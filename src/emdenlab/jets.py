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
u^b * flux, their Jacobian endomorphisms, and traceless parts.  Near the
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
    "anisotropy_matrix",
    "flux",
    "flux_jacobian",
    "weighted_flux",
    "FluxBlock",
    "weighted_flux_jacobian",
    "weighted_flux_divergence",
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


def anisotropy_matrix(g, p):
    """A as a matrix: id + (p-2) ghat (x) ghat."""
    gn2 = grad_norm_sq(g)
    n = g.shape[-1]
    eye = np.eye(n)
    gg = np.einsum("...i,...j->...ij", g, g)
    return eye + (p - 2.0) * gg / gn2[..., None, None]


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


def weighted_flux(u, g, p, b):
    """u^b |g|^{p-2} g."""
    return u[..., None] ** b * flux(g, p)


class FluxBlock:
    """The b-free half of the weighted flux u^b |g|^{p-2} g at one p.

    The flux, its Jacobian and flux (x) g are built once; weighted(u, b)
    adds only the u^b factors, so a grid of b costs one flux Jacobian.
    The parts that only the trace check reads (|g|^p, lap_p u and the
    gradient factor of the check's scale) are built on first use.
    """

    def __init__(self, g, h, p):
        self.g, self.h, self.p = g, h, p
        self.flux = flux(g, p)
        self.jacobian = flux_jacobian(g, h, p)
        self._outer = np.einsum("...i,...j->...ij", self.flux, g)

    @cached_property
    def plap(self):
        """lap_p u."""
        return p_laplacian(self.g, self.h, self.p)

    @cached_property
    def _check_parts(self):
        """|g|^p and |g|^{p-2} (|lap u| + |p-2| |lap_inf u| / |g|^2)."""
        g, h, p = self.g, self.h, self.p
        gn = np.sqrt(grad_norm_sq(g))
        factor = gn ** (p - 2.0) * (
            np.abs(laplacian(h))
            + np.abs(p - 2.0) * np.abs(inf_laplacian(g, h)) / gn**2
        )
        return gn**p, factor

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
            gnp, factor = self._check_parts
            tr = np.einsum("...ii->...", jac)
            closed = b * ub1 * gnp + ub * self.plap
            # normalize by the constituent-term size: the divergence itself
            # legitimately cancels to roundoff on p-harmonic profiles
            scale = np.abs(b) * ub1 * gnp + ub * factor + 1e-30
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


def weighted_flux_divergence(u, g, h, p, b):
    """Closed form div(u^b |g|^{p-2} g) = b u^{b-1}|g|^p + u^b lap_p u."""
    gn = np.sqrt(grad_norm_sq(g))
    return b * u ** (b - 1.0) * gn**p + u**b * p_laplacian(g, h, p)


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
