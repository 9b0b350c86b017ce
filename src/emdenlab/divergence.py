"""Third-order divergence engine for the derived vector fields.

The identity suite needs exact divergences of a closed enumeration of
vector fields built from a positive field u and parameters (p, a, b):

  "flux"               |grad u|^{p-2} grad u
  "weighted_flux"      u^b |grad u|^{p-2} grad u                  (call it X)
  "self_advection"     grad_X X
  "advection_balance"  grad_X X - (div X) X
  "weighted_balance"   u^a (grad_X X - div X . X) - ((p-1)/p) <X, grad u^a> X
  "traceless_combo"    u^a (grad_X X - (div X / n) X) - c u^{a-1} <X, grad u> X
  "grad_power_flux"    (1/p) |grad u|^{p-2} A(grad |grad u|^p)
  "log_power_flux"     (1/lam) |grad w|^{p-2} A_w(grad |grad w|^lam),  w = ln u

Each backend seeds forward-mode duals so the divergence is an exact
derivative of the assembled expression (no differencing anywhere):

* :class:`EuclideanEngine` seeds (u, grad u, hess u) from a third-order
  Taylor jet of a general field on R^n.  The two power-flux specs push
  the scalar |grad .|^power through a two-level dual so its own Hessian
  (which consumes the third-order jet) is available to the divergence.

* :class:`RadialEngine` seeds (u, u', u'', u''') and the warping profile
  on a rotationally symmetric model; every field in the enumeration is
  radial there and div(v(r) d/dr) = v' + (n-1)(psi'/psi) v, with the
  inner derivatives written out analytically.

Both backends also expose div X and the p-Laplacian as duals, supplying
the gradient-of-divergence terms on the identity right-hand sides, and
``weighted_balance_divergences(p, b, a_values)``, which builds the
a-independent part of "weighted_balance" once for a whole grid of a.
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError
from .taylor import Grad, Jet3, grad_abs_pow, grad_signed_pow

__all__ = [
    "EuclideanEngine",
    "RadialEngine",
    "VECTOR_FIELD_SPECS",
    "divergence_at",
    "radial_divergence_at",
]

VECTOR_FIELD_SPECS = (
    "flux",
    "weighted_flux",
    "self_advection",
    "advection_balance",
    "weighted_balance",
    "traceless_combo",
    "grad_power_flux",
    "log_power_flux",
)


# ----------------------------------------------------------------------
# one-level vector/matrix helpers over Grad duals (derivative axis last)
# ----------------------------------------------------------------------


def _vdot(a: Grad, b: Grad) -> Grad:
    v = np.einsum("ni,ni->n", a.v, b.v)
    d = np.einsum("nim,ni->nm", a.d, b.v) + np.einsum("ni,nim->nm", a.v, b.d)
    return Grad(v, d)


def _vscale(s: Grad, vec: Grad) -> Grad:
    v = s.v[:, None] * vec.v
    d = s.d[:, None, :] * vec.v[:, :, None] + s.v[:, None, None] * vec.d
    return Grad(v, d)


def _vadd(a: Grad, b: Grad) -> Grad:
    return Grad(a.v + b.v, a.d + b.d)


def _vsub(a: Grad, b: Grad) -> Grad:
    return Grad(a.v - b.v, a.d - b.d)


def _matvec(m: Grad, vec: Grad) -> Grad:
    v = np.einsum("nij,nj->ni", m.v, vec.v)
    d = np.einsum("nijm,nj->nim", m.d, vec.v) + np.einsum(
        "nij,njm->nim", m.v, vec.d
    )
    return Grad(v, d)


def _outer(a: Grad, b: Grad) -> Grad:
    v = np.einsum("ni,nj->nij", a.v, b.v)
    d = np.einsum("nim,nj->nijm", a.d, b.v) + np.einsum(
        "ni,njm->nijm", a.v, b.d
    )
    return Grad(v, d)


def _mscale(s: Grad, m: Grad) -> Grad:
    v = s.v[:, None, None] * m.v
    d = (
        s.d[:, None, None, :] * m.v[:, :, :, None]
        + s.v[:, None, None, None] * m.d
    )
    return Grad(v, d)


def _madd(a: Grad, b: Grad) -> Grad:
    return Grad(a.v + b.v, a.d + b.d)


def _trace_m(m: Grad) -> Grad:
    return Grad(np.einsum("nii->n", m.v), np.einsum("niim->nm", m.d))


def _divergence(vec: Grad) -> np.ndarray:
    return np.einsum("nii->n", vec.d)


# ----------------------------------------------------------------------
# two-level scalar/vector duals (value, gradient, hessian)
# ----------------------------------------------------------------------


class Grad2:
    """Scalar with two derivative levels: v (N,), d1 (N,m), d2 (N,m,m)."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1, d2):
        self.v, self.d1, self.d2 = v, d1, d2

    def __mul__(self, other):
        if isinstance(other, Grad2):
            cross = np.einsum("nk,nl->nkl", self.d1, other.d1)
            return Grad2(
                self.v * other.v,
                self.d1 * other.v[:, None] + other.d1 * self.v[:, None],
                self.d2 * other.v[:, None, None]
                + other.d2 * self.v[:, None, None]
                + cross
                + np.swapaxes(cross, -1, -2),
            )
        return Grad2(self.v * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, Grad2):
            return Grad2(self.v + other.v, self.d1 + other.d1, self.d2 + other.d2)
        return Grad2(self.v + other, self.d1, self.d2)

    __radd__ = __add__

    def __pow__(self, c):
        c = float(c)
        f1 = c * self.v ** (c - 1.0)
        f2 = c * (c - 1.0) * self.v ** (c - 2.0)
        gg = np.einsum("nk,nl->nkl", self.d1, self.d1)
        return Grad2(
            self.v**c,
            f1[:, None] * self.d1,
            f1[:, None, None] * self.d2 + f2[:, None, None] * gg,
        )


class Vec2:
    """Vector with two derivative levels: v (N,n), d1 (N,n,m), d2 (N,n,m,m)."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1, d2):
        self.v, self.d1, self.d2 = v, d1, d2


def _vdot2(a: Vec2, b: Vec2) -> Grad2:
    v = np.einsum("ni,ni->n", a.v, b.v)
    d1 = np.einsum("nik,ni->nk", a.d1, b.v) + np.einsum("ni,nik->nk", a.v, b.d1)
    cross = np.einsum("nik,nil->nkl", a.d1, b.d1)
    d2 = (
        np.einsum("nikl,ni->nkl", a.d2, b.v)
        + np.einsum("ni,nikl->nkl", a.v, b.d2)
        + cross
        + np.swapaxes(cross, -1, -2)
    )
    return Grad2(v, d1, d2)


def _vscale2(s: Grad2, vec: Vec2) -> Vec2:
    v = s.v[:, None] * vec.v
    d1 = s.d1[:, None, :] * vec.v[:, :, None] + s.v[:, None, None] * vec.d1
    cross = np.einsum("nk,nil->nikl", s.d1, vec.d1)
    d2 = (
        s.d2[:, None, :, :] * vec.v[:, :, None, None]
        + s.v[:, None, None, None] * vec.d2
        + cross
        + np.swapaxes(cross, -1, -2)
    )
    return Vec2(v, d1, d2)


# ----------------------------------------------------------------------
# Euclidean backend
# ----------------------------------------------------------------------


class EuclideanEngine:
    """Divergences of the derived fields for a general field on R^n."""

    def __init__(self, jet: Jet3):
        self.n = jet.g.shape[-1]
        self.jet = jet
        self.u = Grad(jet.v, jet.g)
        self.G = Grad(jet.g, jet.h)
        self.H = Grad(jet.h, jet.t)
        self.h = _vdot(self.G, self.G)  # |grad u|^2 as a dual

    # -- building blocks -------------------------------------------------

    def _flux(self, p: float) -> Grad:
        return _vscale(self.h ** ((p - 2.0) / 2.0), self.G)

    def _weighted_flux(self, p: float, b: float) -> Grad:
        return _vscale(self.u**b, self._flux(p))

    def p_laplacian_dual(self, p: float) -> Grad:
        lap = _trace_m(self.H)
        if p == 2.0:
            return lap
        ilap = _vdot(self.G, _matvec(self.H, self.G))
        return self.h ** ((p - 2.0) / 2.0) * lap + (p - 2.0) * self.h ** (
            (p - 4.0) / 2.0
        ) * ilap

    def weighted_divergence_dual(self, p: float, b: float) -> Grad:
        return (
            b * self.u ** (b - 1.0) * self.h ** (p / 2.0)
            + self.u**b * self.p_laplacian_dual(p)
        )

    def _flux_jacobian(self, p: float, b: float) -> Grad:
        hg = _matvec(self.H, self.G)
        corr = _mscale((p - 2.0) * self.h**-1.0, _outer(self.G, hg))
        base = _mscale(self.h ** ((p - 2.0) / 2.0), _madd(self.H, corr))
        return _madd(
            _mscale(b * self.u ** (b - 1.0), _outer(self._flux(p), self.G)),
            _mscale(self.u**b, base),
        )

    @staticmethod
    def _anisotropy(vec: Grad, p: float, g: Grad, h: Grad) -> Grad:
        coef = (p - 2.0) * _vdot(vec, g) * h**-1.0
        return _vadd(vec, _vscale(coef, g))

    def _advection_balance(self, p: float, b: float) -> Grad:
        X = self._weighted_flux(p, b)
        adv = _matvec(self._flux_jacobian(p, b), X)
        return _vsub(adv, _vscale(self.weighted_divergence_dual(p, b), X))

    def _grad_of_power(self, power: float, of_log: bool) -> Grad:
        """grad |grad u|^power (or of grad ln u) as a one-level vector dual.

        Runs the scalar through a two-level tower so its Hessian, which
        consumes the third-order jet, becomes the vector's derivative.
        """
        j = self.jet
        G2 = Vec2(j.g, j.h, j.t)
        if of_log:
            u2 = Grad2(j.v, j.g, j.h)
            G2 = _vscale2(u2**-1.0, G2)
        F2 = _vdot2(G2, G2) ** (power / 2.0)
        return Grad(F2.d1, F2.d2)

    # -- the enumeration -------------------------------------------------

    def divergence(
        self,
        spec: str,
        p: float,
        a: float = 0.0,
        b: float = 0.0,
        lam: float = None,
        combo_coef: float = None,
    ) -> np.ndarray:
        """div of the spec'd vector field at every sample."""
        if spec == "flux":
            return _divergence(self._flux(p))
        if spec == "weighted_flux":
            return _divergence(self._weighted_flux(p, b))
        if spec == "self_advection":
            X = self._weighted_flux(p, b)
            return _divergence(_matvec(self._flux_jacobian(p, b), X))
        if spec == "advection_balance":
            return _divergence(self._advection_balance(p, b))
        if spec == "weighted_balance":
            return self.weighted_balance_divergences(p, b, (a,))[0]
        if spec == "traceless_combo":
            X = self._weighted_flux(p, b)
            adv = _matvec(self._flux_jacobian(p, b), X)
            divx = self.weighted_divergence_dual(p, b)
            V1 = _vsub(adv, _vscale(divx * (1.0 / self.n), X))
            coef = 0.0 if combo_coef is None else combo_coef
            inner = _vdot(X, self.G)
            V = _vsub(
                _vscale(self.u**a, V1),
                _vscale(coef * self.u ** (a - 1.0) * inner, X),
            )
            return _divergence(V)
        if spec == "grad_power_flux":
            gradF = self._grad_of_power(p, of_log=False)
            AgF = self._anisotropy(gradF, p, self.G, self.h)
            V = _vscale((1.0 / p) * self.h ** ((p - 2.0) / 2.0), AgF)
            return _divergence(V)
        if spec == "log_power_flux":
            if lam is None:
                raise CapabilityError("log_power_flux needs the exponent lam")
            gw = _vscale(self.u**-1.0, self.G)
            hln = _vdot(gw, gw)
            gradF = self._grad_of_power(lam, of_log=True)
            AgF = self._anisotropy(gradF, p, gw, hln)
            V = _vscale((1.0 / lam) * hln ** ((p - 2.0) / 2.0), AgF)
            return _divergence(V)
        raise CapabilityError(f"unknown vector field spec {spec!r}")

    def weighted_balance_divergences(self, p: float, b: float, a_values) -> list:
        """div of "weighted_balance" at one (p, b), one array per a.

        The balance dual and X do not depend on a: they are built once
        and only the u^a weighting is redone for each a.
        """
        bal = self._advection_balance(p, b)
        X = self._weighted_flux(p, b)
        grad_pow = self.h ** (p / 2.0)
        out = []
        for a in a_values:
            # <X, grad u^a> = a u^{a+b-1} |grad u|^p
            inner = a * self.u ** (a + b - 1.0) * grad_pow
            V = _vsub(
                _vscale(self.u**a, bal), _vscale(((p - 1.0) / p) * inner, X)
            )
            out.append(_divergence(V))
        return out


# ----------------------------------------------------------------------
# radial backend
# ----------------------------------------------------------------------


class RadialEngine:
    """Divergences of the derived (radial) fields on a warped product.

    Seeded with analytic radial derivatives: the field tower
    (u, u', u'', u''') and the warping tower (psi, psi', psi'', psi''').
    A radial vector field v(r) d/dr has div = v' + (n-1)(psi'/psi) v.
    """

    def __init__(self, dim, u, u1, u2, u3, psi, psi1, psi2, psi3):
        def seed(val, der):
            val = np.asarray(val, dtype=float)
            return Grad(val, np.asarray(der, dtype=float)[:, None])

        self.n = dim
        self.u = seed(u, u1)
        self.u1 = seed(u1, u2)
        self.u2 = seed(u2, u3)
        self.psi = seed(psi, psi1)
        self.psi1 = seed(psi1, psi2)
        self.psi2 = seed(psi2, psi3)
        self.cot = self.psi1 / self.psi  # psi'/psi

    def div_radial(self, comp: Grad) -> np.ndarray:
        return comp.d[:, 0] + (self.n - 1) * self.cot.v * comp.v

    # -- building blocks (all explicit in the seeds) ----------------------

    def _flux_comp(self, p: float) -> Grad:
        return grad_signed_pow(self.u1, p - 1.0)

    def _flux_comp_prime(self, p: float) -> Grad:
        return (p - 1.0) * grad_abs_pow(self.u1, p - 2.0) * self.u2

    def _weighted_comp(self, p: float, b: float) -> Grad:
        return self.u**b * self._flux_comp(p)

    def _weighted_comp_prime(self, p: float, b: float) -> Grad:
        return (
            b * self.u ** (b - 1.0) * self.u1 * self._flux_comp(p)
            + self.u**b * self._flux_comp_prime(p)
        )

    def p_laplacian_dual(self, p: float) -> Grad:
        return grad_abs_pow(self.u1, p - 2.0) * (
            (p - 1.0) * self.u2 + (self.n - 1) * self.cot * self.u1
        )

    def weighted_divergence_dual(self, p: float, b: float) -> Grad:
        return self._weighted_comp_prime(p, b) + (self.n - 1) * self.cot * self._weighted_comp(p, b)

    def divergence(
        self,
        spec: str,
        p: float,
        a: float = 0.0,
        b: float = 0.0,
        lam: float = None,
        combo_coef: float = None,
    ) -> np.ndarray:
        if spec == "flux":
            return self.div_radial(self._flux_comp(p))
        if spec == "weighted_flux":
            return self.div_radial(self._weighted_comp(p, b))
        if spec == "self_advection":
            chi = self._weighted_comp(p, b)
            return self.div_radial(chi * self._weighted_comp_prime(p, b))
        if spec == "advection_balance":
            return self.div_radial(self._balance_comp(p, b))
        if spec == "weighted_balance":
            return self.weighted_balance_divergences(p, b, (a,))[0]
        if spec == "traceless_combo":
            chi = self._weighted_comp(p, b)
            divx = self.weighted_divergence_dual(p, b)
            v1 = chi * self._weighted_comp_prime(p, b) - (1.0 / self.n) * divx * chi
            coef = 0.0 if combo_coef is None else combo_coef
            inner = chi * self.u1
            comp = self.u**a * v1 - coef * self.u ** (a - 1.0) * inner * chi
            return self.div_radial(comp)
        if spec == "grad_power_flux":
            fprime = p * grad_signed_pow(self.u1, p - 1.0) * self.u2
            comp = (1.0 / p) * grad_abs_pow(self.u1, p - 2.0) * (p - 1.0) * fprime
            return self.div_radial(comp)
        if spec == "log_power_flux":
            if lam is None:
                raise CapabilityError("log_power_flux needs the exponent lam")
            w1 = self.u1 / self.u
            w2 = self.u2 / self.u - w1 * w1
            fprime = lam * grad_signed_pow(w1, lam - 1.0) * w2
            comp = (1.0 / lam) * grad_abs_pow(w1, p - 2.0) * (p - 1.0) * fprime
            return self.div_radial(comp)
        raise CapabilityError(f"unknown vector field spec {spec!r}")

    def _balance_comp(self, p: float, b: float) -> Grad:
        chi = self._weighted_comp(p, b)
        return chi * self._weighted_comp_prime(p, b) - self.weighted_divergence_dual(p, b) * chi

    def weighted_balance_divergences(self, p: float, b: float, a_values) -> list:
        """div of "weighted_balance" at one (p, b), one array per a.

        The balance component and chi do not depend on a: they are built
        once and only the u^a weighting is redone for each a.
        """
        chi = self._weighted_comp(p, b)
        bal = self._balance_comp(p, b)
        grad_pow = grad_abs_pow(self.u1, p)
        out = []
        for a in a_values:
            inner = a * self.u ** (a + b - 1.0) * grad_pow
            comp = self.u**a * bal - ((p - 1.0) / p) * inner * chi
            out.append(self.div_radial(comp))
        return out

    # -- frame materialization for the right-hand sides -------------------

    def frame_jets(self):
        """(u, grad, hess) arrays in the orthonormal frame (e1 radial).

        grad = (u', 0, ..., 0);  hess = diag(u'', (psi'/psi) u', ...).
        """
        npts = self.u.v.shape[0]
        n = self.n
        g = np.zeros((npts, n))
        g[:, 0] = self.u1.v
        h = np.zeros((npts, n, n))
        h[:, 0, 0] = self.u2.v
        tang = self.cot.v * self.u1.v
        for i in range(1, n):
            h[:, i, i] = tang
        return self.u.v.copy(), g, h


# ----------------------------------------------------------------------
# convenience wrappers over the engines
# ----------------------------------------------------------------------


def divergence_at(field, points, spec: str, p: float, a: float = 0.0,
                  b: float = 0.0, lam: float = None,
                  combo_coef: float = None) -> np.ndarray:
    """Divergence of a spec'd vector field of a Euclidean scalar field.

    ``field`` must expose jet3(points); the spec must belong to the
    closed enumeration (a CapabilityError names it otherwise).
    """
    jet = field.jet3(np.atleast_2d(np.asarray(points, dtype=float)))
    eng = EuclideanEngine(jet)
    return eng.divergence(spec, p, a=a, b=b, lam=lam, combo_coef=combo_coef)


def radial_divergence_at(model, profile, r, spec: str, p: float, a: float = 0.0,
                         b: float = 0.0, lam: float = None,
                         combo_coef: float = None) -> np.ndarray:
    """Same enumeration for a radial profile on a warped-product model.

    ``profile`` must expose jet(r) -> (u, u', u'', u''').  The model must
    supply the warping profile through its third derivative.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    u, u1, u2, u3 = profile.jet(r)
    psi, dpsi, ddpsi = model.warping_jet(r)
    psi3 = model.warping_third(r)
    eng = RadialEngine(model.dim, u, u1, u2, u3, psi, dpsi, ddpsi, psi3)
    return eng.divergence(spec, p, a=a, b=b, lam=lam, combo_coef=combo_coef)
