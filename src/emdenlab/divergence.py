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

The fields are assembled by a view of the engine at one p,
``engine.at(p)`` (:class:`EuclideanView`, :class:`RadialView`).  A view
builds each block on first use and keeps it for as long as it lives:
the blocks that depend on p only (the flux and its Jacobian, |grad u|^p,
the p-Laplacian as a dual) and, per b, X, grad_X X, div X as a dual and
the balance grad_X X - (div X) X.  A check that visits every (p, b, a)
of a grid takes one view per p and drops it when p moves on, so each
block is built once per check.  ``engine.divergence(spec, p, ...)`` goes
through a fresh view.  Views are not kept on the engine: a campaign's
engine lives as long as the campaign, and every block held for all p at
once would stay in memory with it.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CapabilityError
from .taylor import Grad, Jet3, grad_abs_pow, grad_signed_pow

__all__ = [
    "EuclideanEngine",
    "EuclideanView",
    "RadialEngine",
    "RadialView",
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


def _kept(build):
    """A view method whose result is built on first use and kept on the
    view, keyed by the method's name and arguments."""
    name = build.__name__

    @functools.wraps(build)
    def block(self, *args):
        key = (name,) + args
        if key not in self._blocks:
            self._blocks[key] = build(self, *args)
        return self._blocks[key]

    return block


class _View:
    """An engine at one p; the blocks it builds live as long as it does."""

    def __init__(self, engine, p: float):
        self.engine = engine
        self.p = p
        self._blocks = {}


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

    def at(self, p: float) -> "EuclideanView":
        """The engine at one p; it keeps the blocks it builds."""
        return EuclideanView(self, p)

    def divergence(self, spec: str, p: float, **params) -> np.ndarray:
        """div of the spec'd vector field at every sample, through a fresh
        view at p (params as in :meth:`EuclideanView.divergence`)."""
        return self.at(p).divergence(spec, **params)


def _power_flux(G: Grad, H: Grad, p: float, lam: float) -> Grad:
    """(1/lam) |grad w|^{p-2} A_w(grad |grad w|^lam) from the duals of
    grad w and hess w.

    grad |grad w|^lam = lam |grad w|^{lam-2} (hess w . grad w) is a
    one-level vector dual, so its derivative (the Hessian of
    |grad w|^lam, which consumes the third-order jet) is exact.
    """
    h = G @ G
    grad_f = lam * h ** ((lam - 2.0) / 2.0) * (H @ G)
    coef = (p - 2.0) * (grad_f @ G) * h**-1.0
    return (1.0 / lam) * h ** ((p - 2.0) / 2.0) * (grad_f + coef * G)


class EuclideanView(_View):
    """A :class:`EuclideanEngine` at one p."""

    # -- blocks that depend on p only -------------------------------------

    @_kept
    def _flux(self) -> Grad:
        E = self.engine
        return E.h ** ((self.p - 2.0) / 2.0) * E.G

    @_kept
    def _flux_jacobian(self) -> Grad:
        """h^{(p-2)/2} (H + (p-2) h^{-1} G (x) H G), the flux's Jacobian."""
        E, p = self.engine, self.p
        corr = (p - 2.0) * E.h**-1.0 * E.G.outer(E.H @ E.G)
        return E.h ** ((p - 2.0) / 2.0) * (E.H + corr)

    @_kept
    def _grad_pow(self) -> Grad:
        """|grad u|^p."""
        return self.engine.h ** (self.p / 2.0)

    @_kept
    def p_laplacian_dual(self) -> Grad:
        E, p = self.engine, self.p
        lap = E.H.trace()
        if p == 2.0:
            return lap
        ilap = E.G @ (E.H @ E.G)
        return E.h ** ((p - 2.0) / 2.0) * lap + (p - 2.0) * E.h ** (
            (p - 4.0) / 2.0
        ) * ilap

    # -- blocks at one b ----------------------------------------------------

    @_kept
    def _weighted_flux(self, b: float) -> Grad:
        """X = u^b |grad u|^{p-2} grad u."""
        return self.engine.u**b * self._flux()

    @_kept
    def _advection(self, b: float) -> Grad:
        """grad_X X."""
        E = self.engine
        jac = (
            b * E.u ** (b - 1.0) * self._flux().outer(E.G)
            + E.u**b * self._flux_jacobian()
        )
        return jac @ self._weighted_flux(b)

    @_kept
    def weighted_divergence_dual(self, b: float) -> Grad:
        E = self.engine
        return (
            b * E.u ** (b - 1.0) * self._grad_pow()
            + E.u**b * self.p_laplacian_dual()
        )

    @_kept
    def _advection_balance(self, b: float) -> Grad:
        """grad_X X - (div X) X."""
        X = self._weighted_flux(b)
        return self._advection(b) - self.weighted_divergence_dual(b) * X

    # -- the enumeration -------------------------------------------------

    def divergence(
        self,
        spec: str,
        a: float = 0.0,
        b: float = 0.0,
        lam: float = None,
        combo_coef: float = None,
    ) -> np.ndarray:
        """div of the spec'd vector field at every sample."""
        E, p = self.engine, self.p
        if spec == "flux":
            return self._flux().div()
        if spec == "weighted_flux":
            return self._weighted_flux(b).div()
        if spec == "self_advection":
            return self._advection(b).div()
        if spec == "advection_balance":
            return self._advection_balance(b).div()
        if spec == "weighted_balance":
            return self.weighted_balance_divergences(b, (a,))[0]
        if spec == "traceless_combo":
            X = self._weighted_flux(b)
            divx = self.weighted_divergence_dual(b)
            V1 = self._advection(b) - divx * (1.0 / E.n) * X
            coef = 0.0 if combo_coef is None else combo_coef
            inner = X @ E.G
            V = E.u**a * V1 - coef * E.u ** (a - 1.0) * inner * X
            return V.div()
        if spec == "grad_power_flux":
            return _power_flux(E.G, E.H, p, p).div()
        if spec == "log_power_flux":
            if lam is None:
                raise CapabilityError("log_power_flux needs the exponent lam")
            w = E.jet.log()
            return _power_flux(Grad(w.g, w.h), Grad(w.h, w.t), p, lam).div()
        raise CapabilityError(f"unknown vector field spec {spec!r}")

    def weighted_balance_divergences(self, b: float, a_values) -> list:
        """div of "weighted_balance" at one b, one array per a.

        Only the u^a weighting is built for each a; the balance and X
        are the view's blocks.
        """
        E, p = self.engine, self.p
        X, bal = self._weighted_flux(b), self._advection_balance(b)
        out = []
        for a in a_values:
            # <X, grad u^a> = a u^{a+b-1} |grad u|^p
            inner = a * E.u ** (a + b - 1.0) * self._grad_pow()
            V = E.u**a * bal - ((p - 1.0) / p) * inner * X
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

    def at(self, p: float) -> "RadialView":
        """The engine at one p; it keeps the blocks it builds."""
        return RadialView(self, p)

    def divergence(self, spec: str, p: float, **params) -> np.ndarray:
        """div of the spec'd vector field at every sample, through a fresh
        view at p (params as in :meth:`RadialView.divergence`)."""
        return self.at(p).divergence(spec, **params)

    def div_radial(self, comp: Grad) -> np.ndarray:
        return comp.d[:, 0] + (self.n - 1) * self.cot.v * comp.v

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


class RadialView(_View):
    """A :class:`RadialEngine` at one p; every block is explicit in the
    seeds."""

    # -- blocks that depend on p only -------------------------------------

    @_kept
    def _flux_comp(self) -> Grad:
        return grad_signed_pow(self.engine.u1, self.p - 1.0)

    @_kept
    def _flux_comp_prime(self) -> Grad:
        E, p = self.engine, self.p
        return (p - 1.0) * grad_abs_pow(E.u1, p - 2.0) * E.u2

    @_kept
    def _grad_pow(self) -> Grad:
        """|u'|^p."""
        return grad_abs_pow(self.engine.u1, self.p)

    @_kept
    def p_laplacian_dual(self) -> Grad:
        E, p = self.engine, self.p
        return grad_abs_pow(E.u1, p - 2.0) * (
            (p - 1.0) * E.u2 + (E.n - 1) * E.cot * E.u1
        )

    # -- blocks at one b ----------------------------------------------------

    @_kept
    def _weighted_parts(self, b: float):
        """chi = u^b |u'|^{p-2} u' (the radial component of X), chi' and
        div X."""
        E = self.engine
        flux = self._flux_comp()
        chi = E.u**b * flux
        chi1 = (
            b * E.u ** (b - 1.0) * E.u1 * flux
            + E.u**b * self._flux_comp_prime()
        )
        return chi, chi1, chi1 + (E.n - 1) * E.cot * chi

    def weighted_divergence_dual(self, b: float) -> Grad:
        return self._weighted_parts(b)[2]

    @_kept
    def _balance_comp(self, b: float) -> Grad:
        """The component of grad_X X - (div X) X."""
        chi, chi1, divx = self._weighted_parts(b)
        return chi * chi1 - divx * chi

    # -- the enumeration -------------------------------------------------

    def divergence(
        self,
        spec: str,
        a: float = 0.0,
        b: float = 0.0,
        lam: float = None,
        combo_coef: float = None,
    ) -> np.ndarray:
        E, p = self.engine, self.p
        if spec == "flux":
            return E.div_radial(self._flux_comp())
        if spec == "weighted_flux":
            return E.div_radial(self._weighted_parts(b)[0])
        if spec == "self_advection":
            chi, chi1, _ = self._weighted_parts(b)
            return E.div_radial(chi * chi1)
        if spec == "advection_balance":
            return E.div_radial(self._balance_comp(b))
        if spec == "weighted_balance":
            return self.weighted_balance_divergences(b, (a,))[0]
        if spec == "traceless_combo":
            chi, chi1, divx = self._weighted_parts(b)
            v1 = chi * chi1 - (1.0 / E.n) * divx * chi
            coef = 0.0 if combo_coef is None else combo_coef
            inner = chi * E.u1
            comp = E.u**a * v1 - coef * E.u ** (a - 1.0) * inner * chi
            return E.div_radial(comp)
        if spec == "grad_power_flux":
            fprime = p * self._flux_comp() * E.u2
            comp = (1.0 / p) * grad_abs_pow(E.u1, p - 2.0) * (p - 1.0) * fprime
            return E.div_radial(comp)
        if spec == "log_power_flux":
            if lam is None:
                raise CapabilityError("log_power_flux needs the exponent lam")
            w1 = E.u1 / E.u
            w2 = E.u2 / E.u - w1 * w1
            fprime = lam * grad_signed_pow(w1, lam - 1.0) * w2
            comp = (1.0 / lam) * grad_abs_pow(w1, p - 2.0) * (p - 1.0) * fprime
            return E.div_radial(comp)
        raise CapabilityError(f"unknown vector field spec {spec!r}")

    def weighted_balance_divergences(self, b: float, a_values) -> list:
        """div of "weighted_balance" at one b, one array per a.

        Only the u^a weighting is built for each a; the balance
        component and chi are the view's blocks.
        """
        E, p = self.engine, self.p
        chi, bal = self._weighted_parts(b)[0], self._balance_comp(b)
        out = []
        for a in a_values:
            inner = a * E.u ** (a + b - 1.0) * self._grad_pow()
            comp = E.u**a * bal - ((p - 1.0) / p) * inner * chi
            out.append(E.div_radial(comp))
        return out


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
