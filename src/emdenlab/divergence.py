"""Third-order divergence engine for the derived vector fields.

The identity suite needs exact divergences of a closed enumeration of
vector fields built from a positive field u and parameters (p, a, b, c,
lam).  ``View(engine, p)`` is the engine at one p, and each field is one
view method that takes only the parameters of its field:

  flux()                    |grad u|^{p-2} grad u        (call it F)
  self_advection(b)         grad_X X,  X = u^b F
  weighted_balance(a, b)    u^a (grad_X X - div X . X)
                              - ((p-1)/p) <X, grad u^a> X
  traceless_combo(a, b, c)  u^a (grad_X X - (div X / n) X)
                              - c u^{a-1} <X, grad u> X
  grad_power_flux()         (1/p) |grad u|^{p-2} A(grad |grad u|^p)
  log_power_flux(lam)       (1/lam) |grad w|^{p-2} A_w(grad |grad w|^lam),
                            w = ln u

An engine seeds forward-mode duals of u, G = grad u and H = hess u, so
every divergence is an exact derivative of the assembled expression (no
differencing anywhere).  It contracts them once into the p-free duals
h = |grad u|^2, HG = hess u . grad u and GHG = <grad u, HG>, beside the
Laplacian; of hess u's derivative, the third-order data, it keeps only
what lap and HG read.  The duals (G, h, HG) of w = ln u follow from them: grad w = G/u,
hess w . grad w = HG/u^2 - |grad w|^2 grad w.  Only div V of a vector
dual V depends on the geometry.

* :class:`EuclideanEngine` seeds (u, grad u, hess u) from a third-order
  Taylor jet of a general field on R^n.  div V is the trace of V's
  derivative.  It keeps no third-order tensor.

* :class:`RadialEngine` seeds a radial u(r) on a rotationally symmetric
  model dr^2 + psi(r)^2 g_S as one-component duals along d/dr: G = u'
  and H = u''.  Every field in the enumeration is radial there and
  grad_{d/dr} d/dr = 0, so the R^n block formulas hold on the radial
  component.  Only the Laplacian u'' + (n-1)(psi'/psi) u' and
  div(v d/dr) = v' + (n-1)(psi'/psi) v see the warping.

Both engines are served by one :class:`View`, which assembles the
fields at one p from the engine's duals and keeps each p-level block it
builds for as long as it lives.  <grad u, F> = |grad u|^p gives

  grad_X X      = u^{2b} grad_F F + b u^{2b-1} |grad u|^p F
  (div X) X     = u^{2b} (lap_p u) F + b u^{2b-1} |grad u|^p F
  <X, grad u> X = u^{2b} |grad u|^p F,

so the b terms cancel from the balance grad_X X - (div X) X, and every
field from self_advection to traceless_combo is a sum of terms const u^k W
over four vector duals W at p: F, grad_F F = h^{p-2} (HG + (p-2) h^{-1}
(G . HG) G), (lap_p u) F and |grad u|^p F.  The view keeps each W as the
pair (div W, <grad u, W>) and takes those fields' divergences by the
product rule div(u^k W) = u^k div W + k u^{k-1} <grad u, W>: (a, b, c)
only enter through k and the constants, so no dual is formed per b, and
``a`` may be an (A, 1) array that gives one row per a.  The power
u^{k-2} comes from the view's :class:`PowerTable` of u, which evaluates
each exponent once: the identity campaigns hand every view of a batch
the batch's table, which their right sides read too, and a view built
alone makes its own.  The dual powers h^c of h = |grad u|^2 are kept
per view, so h^{(p-2)/2} and h^{-1} are each formed once at p.  Beside
the fields, a view exposes ``p_laplacian_dual``, whose gradient both
Bochner right sides pair with the flux once per p.  The identity
campaigns take one view per (batch, p) and share it across every check
of the batch; they hold only the views of the batch checked last.  Views
are not kept on the engine: a campaign's engine lives as long as the
campaign, and every block held for all p at once would stay in memory
with it.
"""

from __future__ import annotations

import functools

import numpy as np

from .taylor import Grad, Jet3

__all__ = ["EuclideanEngine", "RadialEngine", "PowerTable", "View"]


class PowerTable:
    """x ** e for one x (an array or a dual), each exponent evaluated on
    first use and then kept.

    A scalar exponent and an array of exponents, such as an (A, 1)
    column, are different keys: numpy's fast paths for a scalar 2, 0.5
    or -1 may round differently from the array path, so the table
    returns exactly what ``x ** e`` returns.
    """

    def __init__(self, x):
        self.x = x
        self._kept = {}

    def __call__(self, e):
        key = (e.shape, e.tobytes()) if isinstance(e, np.ndarray) else e
        if key not in self._kept:
            self._kept[key] = self.x**e
        return self._kept[key]


class _Engine:
    """The duals every view reads: u, G = grad u, the Laplacian, the
    p-free contractions of G and H = hess u (H itself it does not keep)
    and the duals of ln u.  A subclass seeds them and supplies ``div(V)``.
    """

    def __init__(self, n: int, u: Grad, G: Grad, H: Grad, lap: Grad):
        self.n = n
        self.u, self.G, self.lap = u, G, lap
        self.h = G @ G  # |grad u|^2
        self.HG = H @ G  # hess u . grad u
        self.GHG = G @ self.HG  # <grad u, hess u . grad u>

    @functools.cached_property
    def log_duals(self):
        """(G, h, HG) of w = ln u, built on first use: grad w = G/u and
        hess w . grad w = HG/u^2 - |grad w|^2 grad w, exact since HG's
        derivative carries the third-order data."""
        G = self.G * self.u**-1.0
        h = G @ G
        return G, h, self.HG * self.u**-2.0 - h * G


class EuclideanEngine(_Engine):
    """Divergences of the derived fields for a general field on R^n."""

    def __init__(self, jet: Jet3):
        H = Grad(jet.h, jet.t)
        super().__init__(
            jet.g.shape[-1], Grad(jet.v, jet.g), Grad(jet.g, jet.h), H, H.trace()
        )

    @staticmethod
    def div(V: Grad) -> np.ndarray:
        """div V: the trace of the derivative of a vector dual."""
        return np.einsum("nii->n", V.d)


class RadialEngine(_Engine):
    """Divergences of the derived (radial) fields of a radial u on a
    warped-product model.

    Seeded with the analytic tower (u, u', u'', u''') as arrays over
    the radii r; the model supplies (psi, psi', psi'').  G = u' and
    H = u'' are one-component duals whose derivative is d/dr.
    """

    def __init__(self, model, r, u, u1, u2, u3):
        psi, psi1, psi2 = model.warping_jet(r)
        cot = Grad(psi1, psi2[:, None]) / Grad(psi, psi1[:, None])  # psi'/psi
        lap = Grad(u2, u3[:, None]) + (model.dim - 1) * cot * Grad(u1, u2[:, None])
        self.H = Grad(u2[:, None, None], u3[:, None, None, None])  # for frame_jets
        super().__init__(
            model.dim, Grad(u, u1[:, None]), Grad(u1[:, None], u2[:, None, None]),
            self.H, lap,
        )
        self.cot = cot.v

    def div(self, V: Grad) -> np.ndarray:
        """div(v d/dr) = v' + (n-1)(psi'/psi) v."""
        return V.d[:, 0, 0] + (self.n - 1) * self.cot * V.v[:, 0]

    def frame_jets(self):
        """(u, grad, hess) arrays in the orthonormal frame (e1 radial).

        grad = (u', 0, ..., 0);  hess = diag(u'', (psi'/psi) u', ...).
        """
        u1 = self.G.v[:, 0]
        g = np.zeros((u1.shape[0], self.n), u1.dtype)
        g[:, 0] = u1
        h = np.zeros((u1.shape[0], self.n, self.n), u1.dtype)
        h[:, 0, 0] = self.H.v[:, 0, 0]
        tang = self.cot * u1
        for i in range(1, self.n):
            h[:, i, i] = tang
        return self.u.v.copy(), g, h


def _power_flux(G: Grad, h_pow, HG: Grad, p: float, lam: float) -> Grad:
    """(1/lam) |grad w|^{p-2} A_w(grad |grad w|^lam) from the duals of
    G = grad w and HG = hess w . grad w; h_pow(c) is the dual
    |grad w|^{2c}.

    grad |grad w|^lam = lam |grad w|^{lam-2} (hess w . grad w) is a
    one-level vector dual, so its derivative (the Hessian of
    |grad w|^lam, which consumes the third-order jet) is exact.
    """
    grad_f = lam * h_pow((lam - 2.0) / 2.0) * HG
    coef = (p - 2.0) * (grad_f @ G) * h_pow(-1.0)
    return (1.0 / lam) * h_pow((p - 2.0) / 2.0) * (grad_f + coef * G)


class View:
    """An engine at one p, with one method per field of the module's
    table.  Its blocks depend on p only and are cached properties, kept
    as long as the view; a method that takes b, a or c builds no dual.

    ``powers`` is the :class:`PowerTable` of u that the product rule
    reads; a view given none makes its own.  The dual powers of
    h = |grad u|^2 sit in a table of the view's own.
    """

    def __init__(self, engine: _Engine, p: float, powers: PowerTable = None):
        self.engine = engine
        self.p = p
        self.powers = PowerTable(engine.u.v) if powers is None else powers
        self._h_pow = PowerTable(engine.h)

    # -- dual blocks --------------------------------------------------------

    @functools.cached_property
    def _flux(self) -> Grad:
        return self._h_pow((self.p - 2.0) / 2.0) * self.engine.G

    @functools.cached_property
    def _grad_pow(self) -> Grad:
        """|grad u|^p."""
        return self._h_pow(self.p / 2.0)

    @functools.cached_property
    def p_laplacian_dual(self) -> Grad:
        E, p, h_pow = self.engine, self.p, self._h_pow
        if p == 2.0:
            return E.lap
        return h_pow((p - 2.0) / 2.0) * E.lap + (p - 2.0) * h_pow(
            (p - 4.0) / 2.0
        ) * E.GHG

    # -- the four vector duals W, each kept as (div W, <grad u, W>) ---------

    def _pair(self, W: Grad):
        return self.engine.div(W), np.einsum("nm,nm->n", self.engine.G.v, W.v)

    def _flux_times(self, phi: Grad):
        """The pair of phi F for a scalar dual phi, by
        div(phi F) = phi div F + <grad phi, F>."""
        div_f, along_f = self._flux_pair
        grad_phi_f = np.einsum("nm,nm->n", phi.d, self._flux.v)
        return phi.v * div_f + grad_phi_f, phi.v * along_f

    @functools.cached_property
    def _flux_pair(self):
        return self._pair(self._flux)

    @functools.cached_property
    def _advection_pair(self):
        """grad_F F = h^{p-2} (HG + (p-2) h^{-1} (G . HG) G)."""
        E, p, h_pow = self.engine, self.p, self._h_pow
        adv = h_pow(p - 2.0) * (E.HG + (p - 2.0) * E.GHG * h_pow(-1.0) * E.G)
        return self._pair(adv)

    @functools.cached_property
    def _plap_pair(self):
        return self._flux_times(self.p_laplacian_dual)

    @functools.cached_property
    def _power_pair(self):
        return self._flux_times(self._grad_pow)

    def _advection_less(self, s: float):
        """The pair of grad_F F - s (lap_p u) F."""
        (div_a, along_a), (div_l, along_l) = self._advection_pair, self._plap_pair
        return div_a - s * div_l, along_a - s * along_l

    def _product_rule(self, k, W0, c1, W1) -> np.ndarray:
        """div(u^k W0 + c1 u^{k-1} W1) from the pairs of W0 and W1, by
        div(u^k W) = u^k div W + k u^{k-1} <grad u, W>, with u^{k-2}
        read from the power table."""
        u = self.engine.u.v
        (div0, along0), (div1, along1) = W0, W1
        return self.powers(k - 2.0) * (
            u * (u * div0 + k * along0 + c1 * div1) + c1 * (k - 1.0) * along1
        )

    # -- the enumeration: div of each field, one method per field ---------

    def flux(self) -> np.ndarray:
        return self._flux_pair[0]

    def self_advection(self, b) -> np.ndarray:
        return self._product_rule(
            2.0 * b, self._advection_pair, b, self._power_pair
        )

    def weighted_balance(self, a, b) -> np.ndarray:
        """``a`` may be an (A, 1) array; the result then has one row per a."""
        p = self.p
        return self._product_rule(
            a + 2.0 * b, self._advection_less(1.0),
            -((p - 1.0) / p) * a, self._power_pair,
        )

    def traceless_combo(self, a, b, c) -> np.ndarray:
        """``a`` may be an (A, 1) array; the result then has one row per a."""
        n = self.engine.n
        return self._product_rule(
            a + 2.0 * b, self._advection_less(1.0 / n),
            b * (1.0 - 1.0 / n) - c, self._power_pair,
        )

    def grad_power_flux(self) -> np.ndarray:
        E = self.engine
        return E.div(_power_flux(E.G, self._h_pow, E.HG, self.p, self.p))

    def log_power_flux(self, lam) -> np.ndarray:
        E = self.engine
        G, h, HG = E.log_duals
        return E.div(_power_flux(G, PowerTable(h), HG, self.p, lam))
