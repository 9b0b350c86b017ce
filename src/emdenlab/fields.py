"""Smooth positive test fields with exact derivatives to third order.

Two flavours feed the identity campaigns:

* general Euclidean fields: positive-shifted sums (and pairwise products)
  of a fixed primitive library -- polynomials in the coordinates,
  Gaussian bumps, smoothed radial exponentials and bubble-shaped radial
  rationals -- differentiated by the third-order Taylor-jet engine;

* radial profiles u(r) on a warped product, built from the same
  primitive library in the single variable r.

Random instances are drawn from coefficient ranges under a counter-based
seeded generator, with a positivity budget that keeps u bounded away
from zero on the sampling box.  Fourth-order central finite differences
are provided as a cross-check of the jets (never as a source of
derivatives).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import InputError
from .taylor import Jet3, jet3_const, jet3_coords

__all__ = [
    "FieldTerm",
    "ScalarField",
    "RadialProfile",
    "random_field",
    "random_radial_profile",
    "fd_directional",
]


@dataclass(frozen=True)
class FieldTerm:
    """One primitive: kind in {poly, gauss, rexp, bubble}.

    poly    amp * prod_i x_i^{k_i}                params: (exponents,)
    gauss   amp * exp(-|x-c|^2 / (2 w^2))         params: (center, width)
    rexp    amp * exp(-a * sqrt(w^2 + |x-c|^2))   params: (center, rate, smooth)
    bubble  amp / (1 + |x-c|^2 / w^2)^q           params: (center, width, power)
    """

    kind: str
    amp: float
    params: tuple

    def bound(self, box: float, dim: int) -> float:
        """Crude sup of |term| over the box  max|x_i| <= box."""
        if self.kind == "poly":
            (exps,) = self.params
            return abs(self.amp) * float(np.prod([box**k for k in exps]))
        if self.kind == "gauss":
            return abs(self.amp)
        if self.kind == "rexp":
            return abs(self.amp)
        if self.kind == "bubble":
            return abs(self.amp)
        raise InputError(f"unknown field term kind {self.kind!r}")

    def eval_jet(self, coords: Sequence[Jet3]) -> Jet3:
        dim = len(coords)
        batch = coords[0].v.shape
        if self.kind == "poly":
            (exps,) = self.params
            out = jet3_const(self.amp, batch, dim)
            for x, k in zip(coords, exps):
                for _ in range(int(k)):
                    out = out * x
            return out
        if self.kind == "gauss":
            center, width = self.params
            q = _shifted_square(coords, center)
            return self.amp * (q * (-0.5 / width**2)).exp()
        if self.kind == "rexp":
            center, rate, smooth = self.params
            q = _shifted_square(coords, center) + smooth**2
            return self.amp * (q.sqrt() * (-rate)).exp()
        if self.kind == "bubble":
            center, width, power = self.params
            q = _shifted_square(coords, center) * (1.0 / width**2) + 1.0
            return self.amp * q.compose_power(-power)
        raise InputError(f"unknown field term kind {self.kind!r}")


def _shifted_square(coords, center):
    """Jet of |x - c|^2 at the coordinate jets: (|d|^2, 2d, 2I, 0), d = x - c.

    The value is summed in coordinate order, so it is bit-identical to
    the sum of the Jet3 products (x_i - c_i) * (x_i - c_i).
    """
    d = [x.v - c for x, c in zip(coords, center)]
    v = d[0] * d[0]
    for di in d[1:]:
        v = v + di * di
    dim = len(d)
    h = np.zeros(v.shape + (dim, dim))
    h[..., range(dim), range(dim)] = 2.0
    return Jet3(v, 2.0 * np.stack(d, axis=-1), h, np.zeros(v.shape + (dim,) * 3))


@dataclass(frozen=True)
class ScalarField:
    """Positive field on R^dim: shift + sum of terms + sum of term products."""

    dim: int
    shift: float
    terms: tuple = ()
    products: tuple = ()  # pairs of FieldTerm

    def jet3(self, points) -> Jet3:
        """Third-order jet at an (N, dim) batch of points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        coords = jet3_coords(points)
        out = jet3_const(self.shift, points.shape[0], self.dim)
        parts = chain(
            (term.eval_jet(coords) for term in self.terms),
            (ta.eval_jet(coords) * tb.eval_jet(coords) for ta, tb in self.products),
        )
        # out owns its arrays, so the sum accumulates into them, in order
        for part in parts:
            out.v += part.v
            out.g += part.g
            out.h += part.h
            out.t += part.t
        return out

    def value(self, points):
        return self.jet3(points).v

    def lower_bound(self, box: float) -> float:
        """Guaranteed lower bound of the field on the box (crude).

        Bump terms with positive amplitude are nonnegative; polynomials
        and negative-amplitude bumps contribute their sup bound.  A
        product of two bumps is negative only when the amplitudes have
        opposite signs.
        """
        neg = sum(
            t.bound(box, self.dim)
            for t in self.terms
            if t.amp < 0 or t.kind == "poly"
        )
        negp = sum(
            ta.bound(box, self.dim) * tb.bound(box, self.dim)
            for ta, tb in self.products
            if (ta.amp < 0) != (tb.amp < 0)
        )
        return self.shift - neg - negp


class RadialProfile:
    """Radial field u(r) with analytic derivatives to order 3.

    Wraps a one-variable ScalarField; ``jet(r)`` returns the arrays
    (u, u', u'', u''') at a batch of radii.
    """

    def __init__(self, field: ScalarField):
        if field.dim != 1:
            raise InputError("radial profile requires a one-dimensional field")
        self.field = field

    def jet(self, r):
        r = np.asarray(r, dtype=float)
        j = self.field.jet3(r.reshape(-1, 1))
        return (
            j.v,
            j.g[:, 0],
            j.h[:, 0, 0],
            j.t[:, 0, 0, 0],
        )

    def value(self, r):
        return self.jet(r)[0]


# ----------------------------------------------------------------------
# random generation
# ----------------------------------------------------------------------

#: half-width of the Euclidean sampling box used by the identity campaigns
SAMPLING_BOX = 1.6
#: fields are kept above this value on the box by the positivity budget
FIELD_FLOOR = 0.35


def _random_term(rng, dim, box, budget, kinds):
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "poly":
        deg = int(rng.integers(1, 4))
        exps = np.zeros(dim, dtype=int)
        for _ in range(deg):
            exps[int(rng.integers(dim))] += 1
        raw = float(rng.uniform(-1.0, 1.0))
        cap = budget / max(float(np.prod([box**k for k in exps])), 1e-12)
        amp = raw * min(cap, 1.0)
        return FieldTerm("poly", amp, (tuple(int(k) for k in exps),))
    center = tuple(rng.uniform(-1.0, 1.0, size=dim))
    amp = float(rng.uniform(-budget, max(budget, 1.2)))
    if kind == "gauss":
        width = float(rng.uniform(0.5, 1.6))
        return FieldTerm("gauss", amp, (center, width))
    if kind == "rexp":
        rate = float(rng.uniform(0.3, 1.2))
        smooth = float(rng.uniform(0.4, 1.0))
        return FieldTerm("rexp", amp, (center, rate, smooth))
    width = float(rng.uniform(0.6, 1.5))
    power = float(rng.uniform(0.5, 2.0))
    return FieldTerm("bubble", amp, (center, width, power))


_EUCLIDEAN_KINDS = ("poly", "gauss", "rexp", "bubble")
_FIELD_TERMS = 3


def random_field(rng, dim: int) -> ScalarField:
    """Draw a random positive field on the sampling box: three random
    terms plus one product of two.

    The negative excursions of all terms are budgeted against the shift
    so the field stays above FIELD_FLOOR on the box.
    """
    shift = float(rng.uniform(1.2, 2.8))
    budget_total = shift - FIELD_FLOOR
    per_term = budget_total / (_FIELD_TERMS + 1)
    terms = tuple(
        _random_term(rng, dim, SAMPLING_BOX, per_term, _EUCLIDEAN_KINDS)
        for _ in range(_FIELD_TERMS)
    )
    ta = _random_term(rng, dim, SAMPLING_BOX, np.sqrt(per_term), ("gauss", "bubble"))
    tb = _random_term(rng, dim, SAMPLING_BOX, np.sqrt(per_term), ("gauss", "bubble"))
    return ScalarField(dim, shift, terms, ((ta, tb),))


def random_radial_profile(rng, r_hi: float) -> RadialProfile:
    """Draw a random positive radial profile on (0, r_hi]."""
    shift = float(rng.uniform(1.0, 2.5))
    budget = shift - 0.3
    kind = ("gauss", "rexp", "bubble")[int(rng.integers(3))]
    amp = float(rng.uniform(0.3, min(2.0, 0.3 + budget)))
    if rng.uniform() < 0.4:
        amp = -float(rng.uniform(0.2, budget))
    center = (float(rng.uniform(-0.5 * r_hi, 0.25 * r_hi)),)
    if kind == "gauss":
        term = FieldTerm("gauss", amp, (center, float(rng.uniform(0.4 * r_hi, r_hi))))
    elif kind == "rexp":
        term = FieldTerm("rexp", amp, (center, float(rng.uniform(0.3, 1.5)), 0.3))
    else:
        term = FieldTerm(
            "bubble",
            amp,
            (center, float(rng.uniform(0.5 * r_hi, r_hi)), float(rng.uniform(0.5, 1.5))),
        )
    return RadialProfile(ScalarField(1, shift, (term,)))


# ----------------------------------------------------------------------
# finite-difference cross-check
# ----------------------------------------------------------------------

_FD_STENCILS = {
    1: ([-2, -1, 1, 2], [1.0 / 12, -8.0 / 12, 8.0 / 12, -1.0 / 12]),
    2: ([-2, -1, 0, 1, 2], [-1.0 / 12, 16.0 / 12, -30.0 / 12, 16.0 / 12, -1.0 / 12]),
    3: (
        [-3, -2, -1, 1, 2, 3],
        [1.0 / 8, -1.0, 13.0 / 8, -13.0 / 8, 1.0, -1.0 / 8],
    ),
}


def fd_directional(field: ScalarField, x, v, order: int, h: float) -> float:
    """Fourth-order central finite difference of the directional derivative.

    Approximates d^order/dt^order field(x + t v) at t=0.  Cross-check
    only; the jets are the source of record.
    """
    if order not in _FD_STENCILS:
        raise InputError("order must be 1, 2 or 3")
    offsets, coeffs = _FD_STENCILS[order]
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    pts = np.stack([x + (k * h) * v for k in offsets])
    vals = field.value(pts)
    return float(np.dot(coeffs, vals) / h**order)

