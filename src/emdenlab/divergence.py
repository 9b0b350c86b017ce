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
  Taylor jet of a general field on R^n as scalar, vector and matrix
  Grad duals and assembles every field with the duals' operators.  The
  two power-flux specs write grad |grad w|^power as
  power |grad w|^{power-2} (hess w . grad w), so one dual level carries
  its Jacobian, the Hessian of |grad w|^power, which consumes the
  third-order jet (w = u, or w = ln u seeded from the log of the jet).

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
        self.h = self.G @ self.G  # |grad u|^2 as a dual

    # -- building blocks -------------------------------------------------

    def _flux(self, p: float) -> Grad:
        return self.h ** ((p - 2.0) / 2.0) * self.G

    def p_laplacian_dual(self, p: float) -> Grad:
        lap = self.H.trace()
        if p == 2.0:
            return lap
        ilap = self.G @ (self.H @ self.G)
        return self.h ** ((p - 2.0) / 2.0) * lap + (p - 2.0) * self.h ** (
            (p - 4.0) / 2.0
        ) * ilap

    def weighted_divergence_dual(self, p: float, b: float) -> Grad:
        return (
            b * self.u ** (b - 1.0) * self.h ** (p / 2.0)
            + self.u**b * self.p_laplacian_dual(p)
        )

    def _advection(self, p: float, b: float):
        """X = u^b |grad u|^{p-2} grad u and grad_X X, from one flux."""
        flux = self._flux(p)
        X = self.u**b * flux
        corr = (p - 2.0) * self.h**-1.0 * self.G.outer(self.H @ self.G)
        base = self.h ** ((p - 2.0) / 2.0) * (self.H + corr)
        jac = b * self.u ** (b - 1.0) * flux.outer(self.G) + self.u**b * base
        return X, jac @ X

    def _advection_balance(self, p: float, b: float):
        """X and grad_X X - (div X) X."""
        X, adv = self._advection(p, b)
        return X, adv - self.weighted_divergence_dual(p, b) * X

    @staticmethod
    def _power_flux(G: Grad, H: Grad, p: float, lam: float) -> Grad:
        """(1/lam) |grad w|^{p-2} A_w(grad |grad w|^lam) from the duals
        of grad w and hess w.

        grad |grad w|^lam = lam |grad w|^{lam-2} (hess w . grad w) is a
        one-level vector dual, so its derivative (the Hessian of
        |grad w|^lam, which consumes the third-order jet) is exact.
        """
        h = G @ G
        grad_f = lam * h ** ((lam - 2.0) / 2.0) * (H @ G)
        coef = (p - 2.0) * (grad_f @ G) * h**-1.0
        return (1.0 / lam) * h ** ((p - 2.0) / 2.0) * (grad_f + coef * G)

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
            return self._flux(p).div()
        if spec == "weighted_flux":
            return (self.u**b * self._flux(p)).div()
        if spec == "self_advection":
            return self._advection(p, b)[1].div()
        if spec == "advection_balance":
            return self._advection_balance(p, b)[1].div()
        if spec == "weighted_balance":
            return self.weighted_balance_divergences(p, b, (a,))[0]
        if spec == "traceless_combo":
            X, adv = self._advection(p, b)
            divx = self.weighted_divergence_dual(p, b)
            V1 = adv - divx * (1.0 / self.n) * X
            coef = 0.0 if combo_coef is None else combo_coef
            inner = X @ self.G
            V = self.u**a * V1 - coef * self.u ** (a - 1.0) * inner * X
            return V.div()
        if spec == "grad_power_flux":
            return self._power_flux(self.G, self.H, p, p).div()
        if spec == "log_power_flux":
            if lam is None:
                raise CapabilityError("log_power_flux needs the exponent lam")
            w = self.jet.log()
            return self._power_flux(Grad(w.g, w.h), Grad(w.h, w.t), p, lam).div()
        raise CapabilityError(f"unknown vector field spec {spec!r}")

    def weighted_balance_divergences(self, p: float, b: float, a_values) -> list:
        """div of "weighted_balance" at one (p, b), one array per a.

        The balance dual and X do not depend on a: they are built once
        and only the u^a weighting is redone for each a.
        """
        X, bal = self._advection_balance(p, b)
        grad_pow = self.h ** (p / 2.0)
        out = []
        for a in a_values:
            # <X, grad u^a> = a u^{a+b-1} |grad u|^p
            inner = a * self.u ** (a + b - 1.0) * grad_pow
            V = self.u**a * bal - ((p - 1.0) / p) * inner * X
            out.append(V.div())
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

    def _weighted_parts(self, p: float, b: float):
        """chi = u^b |u'|^{p-2} u' (the radial component of X), chi' and
        div X, each built once."""
        flux = self._flux_comp(p)
        chi = self.u**b * flux
        chi1 = (
            b * self.u ** (b - 1.0) * self.u1 * flux
            + self.u**b * self._flux_comp_prime(p)
        )
        return chi, chi1, chi1 + (self.n - 1) * self.cot * chi

    def p_laplacian_dual(self, p: float) -> Grad:
        return grad_abs_pow(self.u1, p - 2.0) * (
            (p - 1.0) * self.u2 + (self.n - 1) * self.cot * self.u1
        )

    def weighted_divergence_dual(self, p: float, b: float) -> Grad:
        return self._weighted_parts(p, b)[2]

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
            return self.div_radial(self.u**b * self._flux_comp(p))
        if spec == "self_advection":
            chi, chi1, _ = self._weighted_parts(p, b)
            return self.div_radial(chi * chi1)
        if spec == "advection_balance":
            return self.div_radial(self._balance_comp(p, b)[1])
        if spec == "weighted_balance":
            return self.weighted_balance_divergences(p, b, (a,))[0]
        if spec == "traceless_combo":
            chi, chi1, divx = self._weighted_parts(p, b)
            v1 = chi * chi1 - (1.0 / self.n) * divx * chi
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

    def _balance_comp(self, p: float, b: float):
        """chi and the component of grad_X X - (div X) X."""
        chi, chi1, divx = self._weighted_parts(p, b)
        return chi, chi * chi1 - divx * chi

    def weighted_balance_divergences(self, p: float, b: float, a_values) -> list:
        """div of "weighted_balance" at one (p, b), one array per a.

        The balance component and chi do not depend on a: they are built
        once and only the u^a weighting is redone for each a.
        """
        chi, bal = self._balance_comp(p, b)
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
