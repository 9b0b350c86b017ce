"""Forward-mode automatic differentiation with truncated Taylor jets.

Two engines live here:

* :class:`Jet3` — third-order multivariate Taylor jets (value, gradient,
  Hessian, third-derivative tensor), batched over a leading sample axis.
  This is the source of record for all field derivatives; finite
  differences are used only as a cross-check, never as the source.

* :class:`Grad` — a value-plus-gradient dual of any rank (scalar,
  vector or matrix) used by the divergence engines and the radial
  solution jets.  Seeding Grads from a Jet3, e.g. u = Grad(v, g),
  grad u = Grad(g, h) and hess u = Grad(h, t), or from analytic radial
  derivatives, lets any algebraic expression of (u, grad u, hess u)
  return its own exact first derivatives.

All derivative tensors are stored as raw derivatives (not divided by
factorials) and are symmetric in their derivative indices.

A Jet3 carries its order: the highest derivative order that may be
nonzero.  Constants have order 0, coordinates order 1, |x - c|^2 order
2, and any other jet order 3.  The parts above the order are zero
arrays of the full shape, so every consumer reads the same shapes and
dtypes.  Parts may be shared between jets (a jet plus a number shares
all of them), so only the code that made a jet writes into it.  A
product has order min(3, a.order + b.order) and a sum the larger order.
The ring skips every term that has a part above its order as a factor
and adds the rest in the order of the full formulas.  As x + 0 == x
for x != 0, every nonzero entry is the same float as without the skip;
only a zero's sign may differ, and a field's jet sums its terms into
zeros of +0.0, where +0.0 + -0.0 == +0.0, so its bytes are the same.
A skipped 0 * x is 0 only for a finite x, but values are computed in
full, so a non-finite value still shows in v.

Precision follows one rule, applied by :func:`real` wherever the numeric
core turns input into arrays: a batch stays in the floating dtype it was
drawn in, and anything that is not floating becomes float64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "real",
    "Jet3",
    "jet3_coords",
    "jet3_const",
    "Grad",
    "grad_abs_pow",
]


def real(x):
    """x as an array in its own floating dtype, or as float64 if it is not
    floating (ints, bools, lists of ints)."""
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(float)


def _sym_vh(g, h):
    # (g (x) h) symmetrized over the three derivative slots, summed in
    # slot order: g_i h_jk + g_j h_ik + g_k h_ij, the last two read as
    # permuted views of the one outer product
    gh = np.einsum("...i,...jk->...ijk", g, h)
    ji = gh.swapaxes(-3, -2)  # g_j h_ik
    out = gh + ji
    out += ji.swapaxes(-2, -1)  # g_k h_ij
    return out


def _acc(out, term):
    """out += term in place, None standing for a zero term: term itself
    if out is None, out if term is None.  out must be the caller's own."""
    if term is None:
        return out
    if out is None:
        return term
    out += term
    return out


class Jet3:
    """Third-order Taylor jet of a scalar quantity at a batch of points.

    Shapes: v (N,), g (N,n), h (N,n,n), t (N,n,n,n).  order is the
    highest derivative order that may be nonzero; the parts above it are
    zero arrays (see the module docstring).
    """

    __slots__ = ("v", "g", "h", "t", "order")

    def __init__(self, v, g, h, t, order=3):
        self.v = v
        self.g = g
        self.h = h
        self.t = t
        self.order = order

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet3):
            return Jet3(self.v + other.v, self.g + other.g,
                        self.h + other.h, self.t + other.t,
                        max(self.order, other.order))
        return Jet3(self.v + other, self.g, self.h, self.t, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Jet3(-self.v, -self.g, -self.h, -self.t, self.order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet3) else -np.asarray(other))

    def __mul__(self, other):
        a, b = self, other
        if not isinstance(b, Jet3):
            return Jet3(
                a.v * b,
                a.g * b if a.order > 0 else a.g,
                a.h * b if a.order > 1 else a.h,
                a.t * b if a.order > 2 else a.t,
                a.order,
            )
        av, bv = a.v[..., None], b.v[..., None]
        g = _acc(a.g * bv if a.order else None, b.g * av if b.order else None)
        h = _acc(
            a.h * bv[..., None] if a.order > 1 else None,
            b.h * av[..., None] if b.order > 1 else None,
        )
        if a.order and b.order:
            outer_ab = np.einsum("...i,...j->...ij", a.g, b.g)
            # h never starts as outer_ab, or it would add its own transpose
            h = outer_ab.copy() if h is None else _acc(h, outer_ab)
            h += np.swapaxes(outer_ab, -1, -2)
        t = _acc(
            a.t * bv[..., None, None] if a.order > 2 else None,
            b.t * av[..., None, None] if b.order > 2 else None,
        )
        if b.order and a.order > 1:
            t = _acc(t, _sym_vh(b.g, a.h))
        if a.order and b.order > 1:
            t = _acc(t, _sym_vh(a.g, b.h))
        # a part that no term reaches is above both orders: a's zeros
        return Jet3(
            a.v * b.v,
            a.g if g is None else g,
            a.h if h is None else h,
            a.t if t is None else t,
            min(3, a.order + b.order),
        )

    __rmul__ = __mul__

    # -- composition with univariate outer functions ---------------------

    def compose(self, f0, f1, f2, f3):
        """Chain rule with outer derivatives f0..f3 evaluated at self.v.

        The sums accumulate term by term in the order of the formula,
        skipping the terms of zero parts, and g (x) g (x) g is
        (g (x) g) (x) g, the same products in the same association as
        the three-operand einsum.
        """
        gg = np.einsum("...i,...j->...ij", self.g, self.g)
        h = _acc(
            f1[..., None, None] * self.h if self.order > 1 else None,
            f2[..., None, None] * gg,
        )
        t = f1[..., None, None, None] * self.t if self.order > 2 else None
        if self.order > 1:
            sym = _sym_vh(self.g, self.h)
            sym *= f2[..., None, None, None]
            t = _acc(t, sym)
        ggg = np.einsum("...ij,...k->...ijk", gg, self.g)
        ggg *= f3[..., None, None, None]
        t = _acc(t, ggg)
        return Jet3(f0, f1[..., None] * self.g, h, t)

    def compose_power(self, c):
        v = self.v
        return self.compose(
            v**c,
            c * v ** (c - 1.0),
            c * (c - 1.0) * v ** (c - 2.0),
            c * (c - 1.0) * (c - 2.0) * v ** (c - 3.0),
        )

    def exp(self):
        e = np.exp(self.v)
        return self.compose(e, e, e, e)

    def log(self):
        v = self.v
        return self.compose(np.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3)

    def sqrt(self):
        return self.compose_power(0.5)


def jet3_coords(points):
    """Coordinate jets (order 1) at an (N, n) batch of points, in the
    points' dtype."""
    points = real(points)
    n_pts, dim = points.shape
    out = []
    for i in range(dim):
        g = np.zeros((n_pts, dim), points.dtype)
        g[:, i] = 1.0
        out.append(
            Jet3(
                points[:, i].copy(),
                g,
                np.zeros((n_pts, dim, dim), points.dtype),
                np.zeros((n_pts, dim, dim, dim), points.dtype),
                order=1,
            )
        )
    return out


def jet3_const(value, coords):
    """The constant jet (order 0) of value at the batch of the coordinate
    jets coords, in their dtype."""
    x, dim = coords[0].v, len(coords)
    return Jet3(
        np.full(x.shape, value, x.dtype),
        np.zeros(x.shape + (dim,), x.dtype),
        np.zeros(x.shape + (dim, dim), x.dtype),
        np.zeros(x.shape + (dim, dim, dim), x.dtype),
        order=0,
    )


# ----------------------------------------------------------------------
# value + gradient duals
# ----------------------------------------------------------------------


def _grad_einsum(spec: str, *ops: "Grad") -> "Grad":
    """np.einsum over duals by the product rule.

    spec names the value axes, batch axis first (e.g. "nij,nj->ni"); the
    derivative of each operand in turn takes an extra trailing axis m,
    giving the terms "nijm,nj->nim" and "nij,njm->nim".
    """
    ins, out = spec.split("->")
    ins = ins.split(",")
    terms = [
        np.einsum(
            ",".join(s + "m" if i == k else s for i, s in enumerate(ins))
            + f"->{out}m",
            *(o.d if i == k else o.v for i, o in enumerate(ops)),
        )
        for k in range(len(ops))
    ]
    return Grad(np.einsum(spec, *(o.v for o in ops)), sum(terms[1:], terms[0]))


class Grad:
    """A scalar, vector or matrix quantity with its derivative along m
    directions.

    v has shape (N, *S) and d has shape (N, *S, m): S is () for a
    scalar, (n,) for a vector and (n, n) for a matrix, and m is the
    ambient dimension for Euclidean fields and 1 for radial reductions
    (d/dr).  + and - act entrywise at any rank; * multiplies entrywise
    and lifts a scalar dual against a vector or matrix one by inserting
    broadcast axes after the batch axis.  @ (vector . vector, matrix .
    vector) and trace() are einsum contractions differentiated by the
    product rule.
    """

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = real(v)
        self.d = real(d)

    def _lifted(self, ndim: int) -> "Grad":
        """The dual with broadcast axes after the batch axis, so that its
        value has at least ndim axes."""
        if self.v.ndim >= ndim:
            return self
        extra = (slice(None),) + (None,) * (ndim - self.v.ndim)
        return Grad(self.v[extra], self.d[extra])

    def __add__(self, other):
        if isinstance(other, Grad):
            return Grad(self.v + other.v, self.d + other.d)
        return Grad(self.v + other, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Grad(-self.v, -self.d)

    def __sub__(self, other):
        if isinstance(other, Grad):
            return Grad(self.v - other.v, self.d - other.d)
        return Grad(self.v - other, self.d)

    def __mul__(self, other):
        if isinstance(other, Grad):
            a, b = self._lifted(other.v.ndim), other._lifted(self.v.ndim)
            return Grad(
                a.v * b.v,
                a.d * b.v[..., None] + b.d * a.v[..., None],
            )
        return Grad(self.v * other, self.d * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Grad):
            return self * other**-1.0
        return self * (1.0 / other)

    def __pow__(self, c):
        c = float(c)
        return Grad(
            self.v**c, c * (self.v ** (c - 1.0))[..., None] * self.d
        )

    def __matmul__(self, other):
        if self.v.ndim == 2 and other.v.ndim == 2:
            return _grad_einsum("ni,ni->n", self, other)
        if self.v.ndim == 3 and other.v.ndim == 2:
            return _grad_einsum("nij,nj->ni", self, other)
        raise ValueError("@ takes vector @ vector or matrix @ vector duals")

    def trace(self) -> "Grad":
        """The scalar dual tr M of a matrix dual."""
        return _grad_einsum("nii->n", self)


def grad_abs_pow(x: Grad, q: float) -> Grad:
    """|x|^q with derivative q*sign(x)*|x|^{q-1}; smooth away from x=0."""
    a = np.abs(x.v)
    return Grad(a**q, (q * np.sign(x.v) * a ** (q - 1.0))[..., None] * x.d)

