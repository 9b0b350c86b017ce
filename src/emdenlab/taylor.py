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
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Jet3",
    "jet3_coords",
    "jet3_const",
    "Grad",
    "grad_abs_pow",
]


def _sym_vh(g, h):
    # (g (x) h) symmetrized over the three derivative slots, summed in
    # slot order: g_i h_jk + g_j h_ik + g_k h_ij, the last two read as
    # permuted views of the one outer product
    gh = np.einsum("...i,...jk->...ijk", g, h)
    ji = gh.swapaxes(-3, -2)  # g_j h_ik
    out = gh + ji
    out += ji.swapaxes(-2, -1)  # g_k h_ij
    return out


class Jet3:
    """Third-order Taylor jet of a scalar quantity at a batch of points.

    Shapes: v (N,), g (N,n), h (N,n,n), t (N,n,n,n).
    """

    __slots__ = ("v", "g", "h", "t")

    def __init__(self, v, g, h, t):
        self.v = v
        self.g = g
        self.h = h
        self.t = t

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet3):
            return Jet3(self.v + other.v, self.g + other.g,
                        self.h + other.h, self.t + other.t)
        return Jet3(self.v + other, self.g, self.h, self.t)

    __radd__ = __add__

    def __neg__(self):
        return Jet3(-self.v, -self.g, -self.h, -self.t)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet3) else -np.asarray(other))

    def __mul__(self, other):
        if not isinstance(other, Jet3):
            return Jet3(self.v * other, self.g * other, self.h * other, self.t * other)
        a, b = self, other
        av, bv = a.v[..., None], b.v[..., None]
        g = a.g * bv
        g += b.g * av
        outer_ab = np.einsum("...i,...j->...ij", a.g, b.g)
        h = a.h * bv[..., None]
        h += b.h * av[..., None]
        h += outer_ab
        h += np.swapaxes(outer_ab, -1, -2)
        t = a.t * bv[..., None, None]
        t += b.t * av[..., None, None]
        t += _sym_vh(b.g, a.h)
        t += _sym_vh(a.g, b.h)
        return Jet3(a.v * b.v, g, h, t)

    __rmul__ = __mul__

    # -- composition with univariate outer functions ---------------------

    def compose(self, f0, f1, f2, f3):
        """Chain rule with outer derivatives f0..f3 evaluated at self.v.

        The sums accumulate in place, term by term in the order of the
        formula, and g (x) g (x) g is (g (x) g) (x) g, the same products
        in the same association as the three-operand einsum.
        """
        gg = np.einsum("...i,...j->...ij", self.g, self.g)
        h = f1[..., None, None] * self.h
        h += f2[..., None, None] * gg
        t = f1[..., None, None, None] * self.t
        sym = _sym_vh(self.g, self.h)
        sym *= f2[..., None, None, None]
        t += sym
        ggg = np.einsum("...ij,...k->...ijk", gg, self.g)
        ggg *= f3[..., None, None, None]
        t += ggg
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
    """Coordinate jets at an (N, n) batch of points."""
    points = np.asarray(points, dtype=float)
    n_pts, dim = points.shape
    out = []
    for i in range(dim):
        g = np.zeros((n_pts, dim))
        g[:, i] = 1.0
        out.append(
            Jet3(
                points[:, i].copy(),
                g,
                np.zeros((n_pts, dim, dim)),
                np.zeros((n_pts, dim, dim, dim)),
            )
        )
    return out


def jet3_const(value, batch_shape, dim):
    if not isinstance(batch_shape, tuple):
        batch_shape = (int(batch_shape),)
    v = np.full(batch_shape, float(value))
    return Jet3(
        v,
        np.zeros(batch_shape + (dim,)),
        np.zeros(batch_shape + (dim, dim)),
        np.zeros(batch_shape + (dim, dim, dim)),
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
        self.v = np.asarray(v, dtype=float)
        self.d = np.asarray(d, dtype=float)

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

