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

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SingularJetError

__all__ = [
    "Jet2",
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
    "weighted_flux_jacobian",
    "weighted_flux_divergence",
    "traceless",
    "trace_product",
    "frobenius_sq",
]

#: identity sampling excludes jets with |grad u| < EPS_GRAD_FACTOR * scale
EPS_GRAD_FACTOR = 1e-3


@dataclass(frozen=True)
class Jet2:
    """Second-order jet of a positive field at a point (or point batch)."""

    u: np.ndarray
    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        g = np.asarray(self.grad, dtype=float)
        h = np.asarray(self.hess, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "grad", g)
        object.__setattr__(self, "hess", h)
        if np.any(u <= 0):
            raise PreconditionError("jet requires a positive field value")
        hnorm = np.abs(h).max() if h.size else 0.0
        if np.abs(h - np.swapaxes(h, -1, -2)).max() > 1e-14 * max(hnorm, 1.0):
            raise PreconditionError("hessian must be symmetric")

    @property
    def dim(self) -> int:
        return self.grad.shape[-1]


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


# ----------------------------------------------------------------------
# anisotropy operator
# ----------------------------------------------------------------------


def anisotropy_apply(g, p, v, eps_grad=None):
    """A(v) = v + (p-2) <v, g> g / |g|^2.

    Linear in v with eigenvalue 1 on g-perp and p-1 along g.
    """
    gn2 = grad_norm_sq(g)
    if eps_grad is not None and np.any(np.sqrt(gn2) < eps_grad):
        raise SingularJetError("anisotropy operator at a near-critical jet")
    coef = (p - 2.0) * np.einsum("...i,...i->...", v, g) / gn2
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


def weighted_flux_jacobian(u, g, h, p, b, check=True):
    """Jacobian endomorphism of the weighted flux.

    Assembled as  b u^{b-1} flux (x) du  +  u^b * flux_jacobian.  Its
    trace must reproduce the closed-form divergence
    b u^{b-1}|g|^p + u^b lap_p u; the agreement is asserted (relative
    1e-11) unless check=False.
    """
    gn = np.sqrt(grad_norm_sq(g))
    fl = flux(g, p)
    outer = np.einsum("...i,...j->...ij", fl, g)
    jac = (b * u ** (b - 1.0))[..., None, None] * outer + u[
        ..., None, None
    ] ** b * flux_jacobian(g, h, p)
    if check:
        tr = np.einsum("...ii->...", jac)
        closed = weighted_flux_divergence(u, g, h, p, b)
        # normalize by the constituent-term size: the divergence itself
        # legitimately cancels to roundoff on p-harmonic profiles
        scale = (
            np.abs(b) * u ** (b - 1.0) * gn**p
            + u**b * gn ** (p - 2.0) * (np.abs(laplacian(h)) + np.abs(p - 2.0)
                                        * np.abs(inf_laplacian(g, h)) / gn**2)
            + 1e-30
        )
        worst = np.max(np.abs(tr - closed) / scale)
        if worst > 1e-11:
            raise AssertionError(
                f"flux Jacobian trace disagrees with closed-form divergence: {worst:g}"
            )
    return jac


def weighted_flux_divergence(u, g, h, p, b):
    """Closed form div(u^b |g|^{p-2} g) = b u^{b-1}|g|^p + u^b lap_p u."""
    gn = np.sqrt(grad_norm_sq(g))
    return b * u ** (b - 1.0) * gn**p + u**b * p_laplacian(g, h, p)


# ----------------------------------------------------------------------
# endomorphism helpers
# ----------------------------------------------------------------------


def traceless(mat, n=None):
    """M - (tr M / n) id; trace of the result vanishes to roundoff."""
    if n is None:
        n = mat.shape[-1]
    tr = np.einsum("...ii->...", mat)
    eye = np.eye(mat.shape[-1])
    return mat - (tr / n)[..., None, None] * eye


def trace_product(a, b=None):
    """tr(A B); with one argument, tr(A^2) (matrix product, not entrywise)."""
    if b is None:
        b = a
    return np.einsum("...ij,...ji->...", a, b)


def frobenius_sq(mat):
    """Entrywise square sum |M|^2 (independent route from trace_product)."""
    return np.einsum("...ij,...ij->...", mat, mat)
