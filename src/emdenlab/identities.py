"""Seeded verification campaigns for the pointwise identities and inequalities.

Every check evaluates both sides of one identity by two routes: the left
side goes through the forward-AD divergence engine, the right side
through the batched jet algebra (plus curvature data from the model),
and the report carries the worst relative residual

    |LHS - RHS| / (|LHS| + |RHS| + tiny)

over the campaign.  The routes are independent except for one
third-order term, which the jet algebra has no closed form for yet: both
Bochner right sides read <grad lap_p u, F> (F the flux) from the
engine, as the view's ``grad_p_laplacian`` paired with F once per
(batch, p).  check_bochner_vector builds <grad div X, X> from
it by the product rule.  Tolerances follow the derivative depth: 1e-8
when only second-order data enters, 1e-7 when the third-order engine is
involved, 1e-6 on shooting-constrained identities (those inherit the
integrator tolerance).  Inequality margins are normalized by the term
scale with a rounding floor of 1e-10.

A campaign is one batch of samples, drawn once on first use and shared
by every check that reads it.  The p-free parts of both routes are built
once per batch and shared by every check: the engine's duals (h, HG,
GHG, lap, and those of ln u) and the batch's ``jets.JetBlock`` (|grad
u|^2, hess u . grad u, lap_inf u, lap u and the outer product
g (x) Hg / |g|^2).  On R^n the drawn third derivatives enter through HG
and lap only and are not kept: a Euclidean batch holds no array of more
than three axes.  The p-level parts are built once per (batch, p) and
shared by the campaign checks run back to back on it: a level (see
_level) holds the engine view the left sides go through, the
``jets.FluxBlock`` over the batch's JetBlock the right sides go through,
which builds each part on first use, <grad lap_p u, F>, Ric(F, F) and
|grad u|^{2p}.  A level keeps the reductions its checks read, not the
duals and Jacobians they were built from: the view keeps the pairs
(div W, <grad u, W>) of its four vector duals and grad lap_p u, and the
block the traces of the flux Jacobian and J F, so a campaign's level
holds no dual and no array of more than two axes.  The levels of a batch
share one ``divergence.PowerTable`` of u, which evaluates each power u^e
once per batch for both routes, and each level keeps one record per b of
X = u^b F: u^b, u^{b-1}, the closed-form div X, tr(jac^2), whose trace
assertion runs once per (p, b), and Ric(X, X).
Only the table and levels of the batch checked last are held; a check
that reads another batch drops them.  They are not kept on the batch,
which lives as long as the campaign: every campaign's levels would then
stay in memory at once.
The checks on a radial solution read their batch's level the same way.
Both sides are affine in the b-dependent weights, so per b a campaign
check forms only powers of u times p-level blocks, and no Jacobian or
dual (the solution identity and the trace inequality still assemble the
weighted Jacobian per b with ``FluxBlock.weighted``).
Sampling is deterministic: a counter-based generator keyed by the
campaign seed, a non-negative integer, drives all draws, so the worst
case is reproducible from (seed, sample index), the index being the
position among the kept samples in draw order.  The campaigns draw from
``philox.Philox``, which gives numpy's Generator(Philox(seed)) draws bit
for bit and loads at the first draw (see _rng): no campaign loads
numpy's random package, and the checks on a radial solution, the
integrator and every radial command load neither.  Only the jet
inequalities, which draw normals, load numpy.random (see _jet_blocks).
Near-critical jets (|grad u| below the cutoff) are filtered before they
enter any report, and a campaign that keeps fewer samples than it asked
for is an error.
Each field draws 2 per candidates and keeps the first per that pass;
jets are evaluated for the first per only, and for the other per only
when those do not all pass.  The filter's scale is the RMS of |grad u|
over the candidates evaluated, floored at 1.  Whether this cutoff hides
boundary-of-criticality behavior is untestable pointwise and is noted
here rather than decided.

Precision follows the rule of ``taylor.real``: a batch stays in the
floating dtype its candidates were drawn in, through both routes, the
curvature and the residuals.  Campaigns draw float64; a batch drawn in
longdouble is checked in longdouble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import jets as J
from .divergence import EuclideanEngine, PowerTable, RadialEngine, View
from .errors import PreconditionError, require_domain
from .fields import SAMPLING_BOX, RadialProfile, random_field, random_radial_profile
from .geometry import ManifoldModel, model_from_name
from .reports import IdentityReport, InequalityReport
from .taylor import Jet3

if TYPE_CHECKING:  # annotations only: the integrator is not loaded
    from .shooting import RadialSolution

__all__ = [
    "Campaign",
    "SampleBatch",
    "check_decomposition",
    "check_flux_advection",
    "check_bochner_vector",
    "check_bochner_linearized",
    "check_weighted_identity",
    "check_solution_identity",
    "check_solution_identity_special",
    "check_trace_inequality",
    "check_kato",
    "check_log_gradient_pointwise",
    "random_jets",
]

_TINY = np.finfo(float).tiny

#: default (a, b) grid of the arbitrary-field divergence identity
AB_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)


@dataclass(frozen=True)
class Campaign:
    """One sampling campaign: model, field family, p grid, samples, seed.
    Each weighted check takes its own weight grids (AB_GRID by default)."""

    model_name: str = "euclidean"
    dim: int = 3
    p_values: tuple = (1.5, 2.0, 3.0)
    samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        require_domain((self.dim,), self.p_values)
        _require_seed(self.seed)

    @property
    def is_radial(self) -> bool:
        return self.model_name != "euclidean"

    def model(self) -> ManifoldModel:
        return model_from_name(self.model_name, self.dim)

    @cached_property
    def batch(self) -> "SampleBatch":
        """The campaign's samples, drawn on first use and then kept."""
        return _draw(self)


@dataclass(frozen=True)
class SampleBatch:
    """Materialized samples: frame jets + divergence engine + curvature.

    ``jets`` is the batch's one jets.JetBlock over its frame jets (g, h):
    its p-free contractions are built at most once and live exactly as
    long as the batch.  ric_rr is Ric(e1, e1); for every vector field in
    the enumeration the curvature term is ric_rr * |X|^2 (exactly zero on
    Euclidean space, and X is radial on the curved models).  Samples are
    kept in draw order, so a report's worst_case.sample_index is the
    sample's position in the batch.
    """

    u: np.ndarray
    jets: J.JetBlock
    engine: object
    ric_rr: np.ndarray
    meta: dict = field(default_factory=dict)


def _rng(seed: int, words: int = None):
    """The counter-based generator keyed by seed that every campaign draw
    goes through: ``philox.Philox``, numpy's Generator(Philox(seed)) for
    the calls the draw makes, bit for bit, its first refill sized to the
    words the draw expects to take.  It loads here, at the first draw, so
    the solution checks, the integrator and every radial command never
    load it, and no campaign loads numpy.random."""
    from .philox import Philox

    return Philox(seed, words)


def _draw_words(camp: Campaign, n_fields: int, per: int) -> int:
    """The words of the stream that camp's draw takes at most, unless a
    bounded integer draw is rejected, counting each draw as one word: per
    field, 2 per candidates (dim coordinates each on R^n, one radius on a
    curved model) and the field's parameters.  A Euclidean field draws its
    shift and five terms, each of at most dim + 4 draws (kind, center,
    amplitude and two shape parameters; a polynomial term takes at most
    6); a radial profile draws at most 8."""
    if camp.is_radial:
        return n_fields * (2 * per + 8)
    return n_fields * (2 * per * camp.dim + 1 + 5 * (camp.dim + 4))


def _require_seed(seed):
    """A seed is a non-negative integer; a bool or a float is not one."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise PreconditionError(f"seed must be a non-negative integer, got {seed!r}")


def _require_samples(samples: int):
    if samples < 1:
        raise PreconditionError("a campaign needs at least one sample")


def _draw(camp: Campaign) -> SampleBatch:
    """The campaign's samples as one batch, in draw order.

    Euclidean campaigns draw several random positive fields and, per
    field, 2 per candidate points uniform in the box; curved campaigns
    draw radial profiles and 2 per candidate radii, each field's
    candidates as one block.  Each field keeps its first per candidates
    that pass the near-critical filter (they alone enter a report; see
    _first_kept for which candidates get jets), and the fields' samples
    are concatenated.
    """
    _require_samples(camp.samples)
    model = camp.model()
    n_fields = max(1, camp.samples // 250)
    per = -(-camp.samples // n_fields)  # ceil
    rng = _rng(camp.seed, _draw_words(camp, n_fields, per))
    parts = []
    for _ in range(n_fields):
        if not camp.is_radial:
            fld = random_field(rng, camp.dim)
            cands = rng.uniform(-SAMPLING_BOX * 0.9, SAMPLING_BOX * 0.9, size=(2 * per, camp.dim))
        else:
            r_lo = 0.15
            r_hi = 3.0 if model.r_max == math.inf else model.r_max - 0.3
            fld = random_radial_profile(rng, r_hi)
            cands = rng.uniform(r_lo, r_hi, size=2 * per)
        parts.append(_first_kept(fld, cands, per))
    kept = sum(part[0].shape[0] for part in parts)
    if kept < camp.samples:
        raise PreconditionError(
            f"campaign kept {kept} of the {camp.samples} requested samples "
            f"after the near-critical filter"
        )
    cols = [np.concatenate(col) for col in zip(*parts)]
    meta = {"model": camp.model_name, "dim": camp.dim}
    if camp.is_radial:
        return _radial_batch(model, *cols, meta=meta)
    jet = Jet3(*cols)
    return SampleBatch(
        u=jet.v,
        jets=J.JetBlock(jet.g, jet.h),
        engine=EuclideanEngine(jet),
        ric_rr=np.zeros_like(jet.v),
        meta=meta,
    )


def _jet_columns(fld, x):
    """u, |grad u| and the sample columns of a drawn field at candidates
    x: (u, g, h, t) of a Euclidean field at points, (r, u, u', u'', u''')
    of a radial profile at radii r."""
    if isinstance(fld, RadialProfile):
        u, u1, u2, u3 = fld.jet(x)
        return u, np.abs(u1), (x, u, u1, u2, u3)
    jet = fld.jet3(x)
    return jet.v, np.sqrt(J.grad_norm_sq(jet.g)), (jet.v, jet.g, jet.h, jet.t)


def _passes(u, gn):
    """The near-critical filter: u > 0 and |grad u| at least
    EPS_GRAD_FACTOR times the scale, the RMS of |grad u| over the points
    evaluated, floored at 1."""
    scale = max(1.0, float(np.sqrt(np.mean(gn**2))))
    return (gn >= J.EPS_GRAD_FACTOR * scale) & (u > 0)


def _first_kept(fld, cands, per):
    """The sample columns of the first per candidates that pass the
    filter, in draw order.

    Jets are evaluated for the first per candidates only; if all of them
    pass, with the scale taken over them, they are the samples.  Else
    the other per are evaluated too and the filter runs on all 2 per,
    its scale taken over all of them, and the field may keep fewer
    than per.
    """
    u, gn, cols = _jet_columns(fld, cands[:per])
    if _passes(u, gn).all():
        return cols
    u_rest, gn_rest, cols_rest = _jet_columns(fld, cands[per:])
    keep = _passes(np.concatenate((u, u_rest)), np.concatenate((gn, gn_rest)))
    idx = np.nonzero(keep)[0][:per]
    return [np.concatenate(pair)[idx] for pair in zip(cols, cols_rest)]


def _radial_batch(model: ManifoldModel, r, u, u1, u2, u3, meta: dict) -> SampleBatch:
    """The batch of a radial field, given its tower (u, u', u'', u''')
    at radii r: the radial engine, its frame jets and Ric(e1, e1)."""
    eng = RadialEngine(model, r, u, u1, u2, u3)
    uu, g, h = eng.frame_jets()
    return SampleBatch(
        u=uu,
        jets=J.JetBlock(g, h),
        engine=eng,
        ric_rr=model.ricci_radial(r),
        meta=dict(meta, r=r),
    )


#: solution samples start at this radius and stop this share short of
#: the solution segment's end
_SOLUTION_R_MIN = 0.05
_SOLUTION_END_MARGIN = 0.05
#: radii drawn along a radial solution (before the critical-set filter)
_SOLUTION_SAMPLES = 400


def solution_batch(sol: RadialSolution) -> SampleBatch:
    """Sample a radial solution away from the center and crossing.

    The jets take u'' from the equation, so two certificates that do not
    go through it judge the dense state (u, m), m = psi^{n-1} |u'|^{p-2} u'
    the flux, by central differences at eight probe radii: u must
    differentiate to the u' recovered from m, and m' = -psi^{n-1} f(u),
    the equation -lap_p u = f(u), must hold relative to
    |psi^{n-1} f(u)| + |m|/r.  A field that fails either, or gives a
    non-finite value, is rejected rather than sampled.
    """
    r_lo = max(sol.r_lo, _SOLUTION_R_MIN)
    r_hi = sol.r_hi * (1.0 - _SOLUTION_END_MARGIN)
    if r_hi <= r_lo:
        raise PreconditionError("solution segment too short to sample")
    r = np.linspace(r_lo, r_hi, _SOLUTION_SAMPLES)
    u, u1, u2, u3 = sol.jets(r)
    keep = np.abs(u1) >= 1e-12 * max(1.0, float(np.abs(u1).max()))
    r, u, u1, u2, u3 = r[keep], u[keep], u1[keep], u2[keep], u3[keep]
    model = sol.model
    batch = _radial_batch(
        model, r, u, u1, u2, u3,
        meta={"model": model.name, "dim": model.dim},
    )
    stride = max(1, len(r) // 8)
    probe, u_probe, u1_probe = r[::stride], u[::stride], u1[::stride]
    h_fd = 1e-5
    up, mp = sol.state(probe + h_fd)
    um, mm = sol.state(probe - h_fd)
    gap = np.max(np.abs((up - um) / (2.0 * h_fd) - u1_probe)
                 / (np.abs(u1_probe) + 1e-12))
    if not gap <= 1e-5:
        raise PreconditionError(
            f"dense trajectory inconsistent with its flux ({gap:g})"
        )
    source = model.warping_jet(probe)[0] ** (model.dim - 1) * sol.term(u_probe)
    worst = np.max(np.abs((mp - mm) / (2.0 * h_fd) + source)
                   / (np.abs(source) + 0.5 * np.abs(mp + mm) / probe))
    if not worst <= 1e-5:
        raise PreconditionError(
            f"field is not a certified solution (flux residual {worst:g})"
        )
    return batch


# ----------------------------------------------------------------------
# residual bookkeeping
# ----------------------------------------------------------------------


def _worst_index(values, lowest: bool = False) -> int:
    """First non-finite entry if there is one, else the first extreme one,
    in row-major order over a stacked (A, N) block.

    np.argmax/argmin return the first NaN even past an earlier infinity,
    and a NaN loses every comparison, so neither alone finds the sample
    that decides a fail-closed report.
    """
    values = np.ravel(values)
    bad = ~np.isfinite(values)
    if bad.any():
        return int(np.argmax(bad))
    return int(np.argmin(values) if lowest else np.argmax(values))


class _Residuals:
    def __init__(self, identity_id, tol):
        self.identity_id = identity_id
        self.tol = tol
        self.samples = 0
        self.max_rel = 0.0
        self.max_abs = 0.0
        self.worst = {}

    def update(self, lhs, rhs, batch: SampleBatch, params):
        """Fold in one (N,) block taken at params, or a stacked (A, N)
        block whose row i was taken at params[i]; the stacked update
        reports what updating row by row in order would."""
        diff, scale = np.abs(lhs - rhs), np.abs(lhs) + np.abs(rhs)
        self._update_arrays(diff, scale, lhs, rhs, batch, params)

    def update_vectors(self, lhs_vec, rhs_vec, batch: SampleBatch, params: dict):
        diff = np.abs(lhs_vec - rhs_vec).max(axis=-1)
        lhs, rhs = np.abs(lhs_vec).max(axis=-1), np.abs(rhs_vec).max(axis=-1)
        self._update_arrays(diff, lhs + rhs, lhs, rhs, batch, params)

    def _update_arrays(self, diff, scale, lhs, rhs, batch, params):
        # a non-finite residual gives a non-finite rel (inf/inf is nan),
        # which _worst_index then reports as the worst case
        with np.errstate(invalid="ignore"):
            rel = diff / (scale + _TINY)
        self.samples += rel.size
        self.max_abs = float(np.maximum(self.max_abs, diff.max()))
        if not math.isfinite(self.max_rel):
            return  # the first non-finite sample stays the worst case
        # rel.max() is NaN or inf when an entry is not finite, and then
        # compares false; on a tie the earlier worst case stays
        if rel.max() <= self.max_rel:
            return
        k = _worst_index(rel)
        row, sample = divmod(k, rel.shape[-1])
        self.max_rel = float(rel.flat[k])
        self.worst = dict(params[row] if rel.ndim == 2 else params)
        self.worst.update(
            {
                "sample_index": sample,
                "model": batch.meta.get("model"),
                "dim": batch.meta.get("dim"),
                "lhs": float(lhs.flat[k]),
                "rhs": float(rhs.flat[k]),
            }
        )

    def report(self, seed=None) -> IdentityReport:
        worst = dict(self.worst)
        if seed is not None:
            worst["seed"] = seed
        empty = self.samples == 0  # a report of no samples reads NaN and fails
        return IdentityReport(
            identity_id=self.identity_id,
            samples=self.samples,
            max_rel_residual=math.nan if empty else self.max_rel,
            max_abs_residual=math.nan if empty else self.max_abs,
            worst_case=worst,
            tol=self.tol,
        )


class _Margins:
    """Most negative normalized margin seen; the first update sets it and
    a non-finite one is final.  A report of no samples reads NaN."""

    def __init__(self):
        self.samples = 0
        self.min_margin = math.nan
        self.worst = {}

    def update(self, margin, params: dict):
        self.samples += margin.size
        first = not self.worst
        if not first and not math.isfinite(self.min_margin):
            return
        k = _worst_index(margin, lowest=True)
        if first or not math.isfinite(margin[k]) or margin[k] < self.min_margin:
            self.min_margin = float(margin[k])
            self.worst = dict(params, sample_index=k)

    def report(self, identity_id: str, tol_neg: float) -> InequalityReport:
        return InequalityReport(
            identity_id=identity_id,
            samples=self.samples,
            min_margin=self.min_margin,
            tol_neg=tol_neg,
            worst_case=self.worst,
        )


# ----------------------------------------------------------------------
# p-levels
# ----------------------------------------------------------------------


class _Weighted(NamedTuple):
    """X = u^b F at one (p, b): u^b, u^{b-1}, the closed-form div X,
    tr(jac^2), jac the Jacobian of X, and Ric(X, X) = (u^b)^2 Ric(F, F)."""

    ub: np.ndarray
    ub1: np.ndarray
    div_x: np.ndarray
    tr_sq: np.ndarray
    ric_x: np.ndarray


class _Level:
    """A batch at one p: the engine view the left sides go through, the
    flux block the right sides go through, the batch's power table of u
    that both read, and, each built on first use, <grad lap_p u, F>,
    Ric(F, F) and |grad u|^{2p}."""

    def __init__(self, batch: SampleBatch, p, powers: PowerTable):
        self.batch = batch
        self.powers = powers
        self.view = View(batch.engine, p, powers=powers)
        self.block = J.FluxBlock(batch.jets, p)
        self._weighted = {}

    @cached_property
    def grad_plap_flux(self):
        return _grad_plap_flux(self.view, self.block, self.batch)

    @cached_property
    def ric_f(self):
        return self.batch.ric_rr * self.block.flux_sq

    @cached_property
    def gn_2p(self):
        return self.batch.jets.gn ** (2.0 * self.block.p)

    def weighted(self, b) -> _Weighted:
        """The record of X = u^b F, built on first use: the flux block's
        traces, with their assertion, run once per (p, b)."""
        rec = self._weighted.get(b)
        if rec is None:
            ub, ub1 = self.powers(b), self.powers(b - 1.0)
            _, tr_sq, div_x = self.block.weighted_traces(b, ub, ub1)
            rec = self._weighted[b] = _Weighted(ub, ub1, div_x, tr_sq, ub**2 * self.ric_f)
        return rec


#: the batch checked last, its power table of u and its levels by p
_LEVELS = [None, None, {}]


def _level(batch: SampleBatch, p) -> _Level:
    """The level of batch at p, shared by the campaign checks of the
    batch; reading another batch drops the table and levels held.  The
    slot is read once, so a level always belongs to the batch asked for,
    even when another thread swaps the slot."""
    held, powers, levels = _LEVELS
    if held is not batch:
        powers, levels = PowerTable(batch.u), {}
        _LEVELS[:] = [batch, powers, levels]
    if p not in levels:
        levels[p] = _Level(batch, p, powers)
    return levels[p]


def _grad_plap_flux(view, block: J.FluxBlock, batch: SampleBatch):
    """<grad lap_p u, F>: the third-order term both Bochner right sides
    read from the engine, as the gradient of the view's p-Laplacian dual."""
    return np.einsum("nm,nm->n", view.grad_p_laplacian,
                     _as_components(block.flux, batch))


def _as_components(vec, batch: SampleBatch):
    """Match a frame vector to the engine's derivative directions."""
    if isinstance(batch.engine, RadialEngine):
        return vec[:, :1]  # radial component only
    return vec


# ----------------------------------------------------------------------
# identity checks
# ----------------------------------------------------------------------


def check_decomposition(camp: Campaign, tol: float = 1e-8) -> IdentityReport:
    """div(|grad u|^{p-2} grad u) against the pointwise decomposition."""
    acc = _Residuals("p_laplacian_decomposition", tol)
    batch = camp.batch
    for p in camp.p_values:
        level = _level(batch, p)
        acc.update(level.view.flux(), level.block.plap, batch, {"p": p})
    return acc.report(seed=camp.seed)


def check_flux_advection(camp: Campaign, tol: float = 1e-8) -> IdentityReport:
    """grad_U U = (1/p)|grad u|^{p-2} A(grad |grad u|^p), U the flux.

    Both sides need only second-order data; the left route goes through
    the flux Jacobian applied to the flux, the right through the
    anisotropy map applied to the gradient of the p-th gradient power.
    """
    acc = _Residuals("flux_advection", tol)
    batch = camp.batch
    for p in camp.p_values:
        block = _level(batch, p).block
        lhs_vec = block.jacobian_flux
        rhs_vec = (1.0 / p) * block.norm_p2[:, None] * block.aniso(block.grad_power)
        acc.update_vectors(lhs_vec, rhs_vec, batch, {"p": p})
    return acc.report(seed=camp.seed)


def check_bochner_vector(camp: Campaign, b_values: tuple = AB_GRID,
                         tol: float = 1e-7) -> IdentityReport:
    """div(grad_X X) = tr(jac^2) + <grad div X, X> + Ric(X, X).

    Per b the right side reads only the level's powers of u and its
    record of X over the flux block's p-level traces and pairings, and
    the one engine pairing <grad lap_p u, F> (see _grad_plap_flux).
    Ric(X, X) is the record's, shared with check_weighted_identity.
    """
    acc = _Residuals("bochner_vector_field", tol)
    batch = camp.batch
    for p in camp.p_values:
        level = _level(batch, p)
        block = level.block
        for b in b_values:
            x = level.weighted(b)
            lhs = level.view.self_advection(b)
            rhs = (
                x.tr_sq
                + block.weighted_grad_div_pairing(
                    b, x.ub, x.ub1, level.powers(b - 2.0), level.grad_plap_flux
                )
                + x.ric_x
            )
            acc.update(lhs, rhs, batch, {"p": p, "b": b})
    return acc.report(seed=camp.seed)


def check_bochner_linearized(camp: Campaign, tol: float = 1e-7) -> IdentityReport:
    """(1/p) L_{p,u}|grad u|^p against the anisotropic Hessian square,
    the gradient of the p-Laplacian paired with the flux, and Ricci."""
    acc = _Residuals("bochner_p_linearized", tol)
    batch = camp.batch
    for p in camp.p_values:
        level = _level(batch, p)
        block = level.block
        # |grad u|^{2p-4} tr((A hess u)^2) = tr(J^2), J the flux Jacobian
        rhs = (
            block.jacobian_sq_trace
            + level.grad_plap_flux
            + level.ric_f
        )
        acc.update(level.view.grad_power_flux(), rhs, batch, {"p": p})
    return acc.report(seed=camp.seed)


def check_weighted_identity(
    camp: Campaign,
    a_values: tuple = AB_GRID,
    b_values: tuple = AB_GRID,
    tol: float = 1e-7,
) -> IdentityReport:
    """The two-parameter divergence identity for arbitrary C^3 fields.

    No equation is imposed on u; the p-Laplacian appears as a free jet
    quantity on the right-hand side, and div X is the jets route's own.
    Each (p, b) takes both sides for the whole a grid as one (A, N) block.
    The powers of u, one row per a where a enters, come from the batch's
    power table, which evaluates each once per batch and hands the left
    side's u^{a+2b-2} to the right side; u^b, u^{b-1}, div X, tr(jac^2)
    and Ric(X, X) come from the level's record of X, shared with
    check_bochner_vector.
    """
    acc = _Residuals("weighted_divergence", tol)
    batch = camp.batch
    a_col = np.array(a_values, dtype=float)[:, None]
    for p in camp.p_values:
        level = _level(batch, p)
        block, u_pow = level.block, level.powers
        plap, gn_p, gn_2p = block.plap, block.power, level.gn_2p
        u_a = u_pow(a_col)
        for b in b_values:
            x = level.weighted(b)
            core = x.tr_sq - x.div_x**2 + x.ric_x
            lhs = level.view.weighted_balance(a_col, b)
            rhs = (
                u_a * core
                - ((p - 1.0) * (a_col + 2.0 * b - 1.0) * a_col / p)
                * u_pow(a_col + 2.0 * b - 2.0)
                * gn_2p
                - ((2.0 * p - 1.0) * a_col / p)
                * u_pow(a_col + 2.0 * b - 1.0)
                * gn_p
                * plap
            )
            acc.update(lhs, rhs, batch, [{"p": p, "a": a, "b": b} for a in a_values])
    return acc.report(seed=camp.seed)


def _solution_coefficients(n: int, p: float, a: float, b: float):
    """Coefficients of the solution-constrained identity at weights (a, b):
    the mixed divergence term, the |grad u|^{2p} term and the multiplier
    of f(u) in the reaction term."""
    c_mix = (n * (p - 1.0) * a + (n - 1.0) * p * b) / (n * p)
    coef_2p = ((p - 1.0) * a / p) * (1.0 - (n - p) * a / ((n - 1.0) * p)) - (
        (n - 1.0) / n
    ) * (b + n * (p - 1.0) * a / ((n - 1.0) * p)) ** 2
    coef_f = ((n + 1.0) * p - n) * a / ((n - 1.0) * p)
    return c_mix, coef_2p, coef_f


def check_solution_identity(
    sol: RadialSolution,
    a_values: tuple = AB_GRID,
    b_values: tuple = AB_GRID,
    tol: float = 1e-6,
) -> IdentityReport:
    """The solution-constrained divergence identity (needs the equation).

    Valid only on certified radial solutions of -lap_p u = f(u): the
    equation eliminates the squared p-Laplacian, so arbitrary fields
    would not satisfy it.
    """
    n, p = sol.model.dim, sol.p
    batch = solution_batch(sol)
    acc = _Residuals("solution_divergence", tol)
    level = _level(batch, p)
    E, block, u_pow, u = level.view, level.block, level.powers, batch.u
    fu, dfu = sol.term(u), sol.term.deriv(u)
    gn_p, gn_2p = block.power, level.gn_2p
    cores = {}  # per b: tr(M^2) + Ric(X, X), M the traceless Jacobian of X = u^b F
    for b in b_values:
        X, jac = block.weighted(u, b)
        cores[b] = J.trace_product(J.traceless(jac)) + batch.ric_rr * np.einsum(
            "ni,ni->n", X, X
        )
    for a in a_values:
        for b in b_values:
            c_mix, coef_2p, coef_f = _solution_coefficients(n, p, a, b)
            lhs = E.traceless_combo(a, b, c_mix)
            rhs = (
                u_pow(a) * cores[b]
                + coef_2p * u_pow(a + 2.0 * b - 2.0) * gn_2p
                + ((n - 1.0) / n)
                * (coef_f * fu - u * dfu)
                * u_pow(a + 2.0 * b - 1.0)
                * gn_p
            )
            acc.update(lhs, rhs, batch, {"p": p, "a": a, "b": b})
    return acc.report()


def special_weights(n: int, p: float, alpha: float):
    """The (a, b) choice that kills the mixed divergence term."""
    big_q = (n + 1.0) * p - n
    return (n - 1.0) * p * alpha / big_q, -n * (p - 1.0) * alpha / big_q


def check_solution_identity_special(
    sol: RadialSolution, alpha: float, tol: float = 1e-6
) -> dict:
    """Specialized-weights form: coefficient audit plus sampled residual.

    With a = (n-1) p alpha / Q and b = -n (p-1) alpha / Q, Q = (n+1)p - n:
    the mixed divergence coefficient vanishes, the gradient-power
    coefficient becomes ((n-1)(p-1) alpha / Q)(1 - (n-p) alpha / Q), and
    the reaction coefficient becomes (n-1)/n (alpha f(u) - u f'(u)).
    """
    n, p = sol.model.dim, sol.p
    big_q = (n + 1.0) * p - n
    a, b = special_weights(n, p, alpha)
    c_mix, coef_2p, coef_f = _solution_coefficients(n, p, a, b)
    coef_2p_closed = ((n - 1.0) * (p - 1.0) * alpha / big_q) * (
        1.0 - (n - p) * alpha / big_q
    )
    audits = {
        "mixed_coefficient": c_mix,
        "mixed_vanishes": abs(c_mix) <= 1e-12 * (abs(a) + abs(b) + 1.0),
        "grad2p_coefficient": coef_2p,
        "grad2p_closed_form": coef_2p_closed,
        "grad2p_match": abs(coef_2p - coef_2p_closed)
        <= 1e-12 * (abs(coef_2p) + abs(coef_2p_closed) + 1.0),
        "reaction_multiplier": coef_f,
        "reaction_is_alpha": abs(coef_f - alpha) <= 1e-12 * (abs(alpha) + 1.0),
    }
    rep = check_solution_identity(sol, a_values=(a,), b_values=(b,), tol=tol)
    return {
        "identity_id": "solution_divergence_special",
        "a": a,
        "b": b,
        "alpha": alpha,
        "audit": audits,
        "sampled": rep.to_dict(),
        "pass": bool(
            rep.passed
            and audits["mixed_vanishes"]
            and audits["grad2p_match"]
            and audits["reaction_is_alpha"]
        ),
    }


# ----------------------------------------------------------------------
# inequality checks
# ----------------------------------------------------------------------


def random_jets(rng, n: int, count: int):
    """Random well-scaled jets: positive u, spread |grad|, symmetric hess."""
    u = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=count))
    direc = rng.normal(size=(count, n))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    mag = np.exp(rng.uniform(np.log(3e-2), np.log(3.0), size=count))
    g = mag[:, None] * direc
    h = rng.normal(size=(count, n, n))
    h = 0.5 * (h + np.swapaxes(h, 1, 2))
    h *= np.exp(rng.uniform(np.log(0.1), np.log(3.0), size=count))[:, None, None]
    return u, g, h


def _jet_blocks(n_values, p_values, samples: int, seed: int):
    """(n, p, u, block) for both jet inequalities: one random_jets draw of
    ``samples`` jets per n, in order, from numpy's Generator(Philox(seed)),
    and one FluxBlock per (n, p).  random_jets draws normals (numpy's
    ziggurat), so numpy.random loads here, for these two checks only."""
    _require_samples(samples)
    require_domain(n_values, p_values)
    _require_seed(seed)
    from numpy.random import Generator, Philox

    rng = Generator(Philox(seed))
    for n in n_values:
        u, g, h = random_jets(rng, n, samples)
        jets = J.JetBlock(g, h)
        for p in p_values:
            yield n, p, u, J.FluxBlock(jets, p)


def check_trace_inequality(
    n_values=(2, 3, 4),
    p_values=(1.2, 1.5, 2.0, 3.0, 5.0),
    b_values=(-2.0, 0.0, 1.0),
    samples: int = 100_000,
    seed: int = 0,
    tol_neg: float = 1e-10,
) -> InequalityReport:
    """Both traceless-Jacobian inequalities on random jets:

        ((p-1)^2 + 1)/(2(p-1)) tr(M^2) >= |M|^2 >= tr(M^2),

    M the traceless part of the weighted flux Jacobian.  tr(M^2) and
    |M|^2 are computed by independent routes (matrix-product trace vs
    entrywise square sum); margins are normalized by |M|^2.
    """
    acc = _Margins()
    for n, p, u, block in _jet_blocks(n_values, p_values, samples, seed):
        coef = ((p - 1.0) ** 2 + 1.0) / (2.0 * (p - 1.0))
        for b in b_values:
            _, jac = block.weighted(u, b, check=False)
            m = J.traceless(jac)
            t2 = J.trace_product(m)
            fr = J.frobenius_sq(m)
            scale = fr + _TINY
            m1 = (coef * t2 - fr) / scale
            m2 = (fr - t2) / scale
            for name, margin in (("upper", m1), ("lower", m2)):
                acc.update(margin, {"inequality": name, "n": n, "p": p,
                                    "b": b, "seed": seed})
    return acc.report("traceless_trace_inequality", tol_neg)


def kato_rhs(block: J.FluxBlock):
    """Right side of the sharpened Kato-type bound, from the flux block of
    second-order jets."""
    n, p = block.jets.g.shape[-1], block.p
    F, grad_f, plap = block.power, block.grad_power, block.plap
    a_gf = block.aniso(grad_f)
    term1 = plap**2 / (n - 1.0)
    term2 = (
        -2.0
        / ((n - 1.0) * p)
        * np.einsum("ni,ni->n", a_gf, block.flux)
        / F
        * plap
    )
    term3 = (
        n
        * (p - 1.0)
        / ((n - 1.0) * p**2)
        * F ** (-2.0 / p)
        * np.einsum("ni,ni->n", a_gf, grad_f)
    )
    return term1 + term2 + term3


def check_kato(
    n_values=(2, 3, 4, 6),
    p_values=(1.5, 2.0, 3.0),
    samples: int = 100_000,
    seed: int = 0,
    tol_neg: float = 1e-10,
) -> InequalityReport:
    """Sharpened Kato-type inequality on random jets (no positivity needed):

        tr(W_jac^2) >= |lap_p w|^2/(n-1)
                       - 2 <A(grad F), W> lap_p w / ((n-1) p F)
                       + n(p-1) F^{-2/p} <A(grad F), grad F> / ((n-1) p^2),

    with F = |grad w|^p and W the flux of w; all five pieces come from
    second-order jet data only.
    """
    acc = _Margins()
    for n, p, _, block in _jet_blocks(n_values, p_values, samples, seed):
        lhs = J.trace_product(block.jacobian)
        rhs = kato_rhs(block)
        scale = np.abs(lhs) + np.abs(rhs) + _TINY
        acc.update((lhs - rhs) / scale, {"n": n, "p": p, "seed": seed})
    return acc.report("kato_inequality", tol_neg)


def check_log_gradient_pointwise(
    sol: RadialSolution,
    delta0: float,
    lam: float = None,
    tol_neg: float = 1e-8,
) -> InequalityReport:
    """Pointwise differential inequality behind the log-gradient bound.

    Along a certified radial solution with reaction term satisfying the
    delta0-condition, for every lam >= p/(1 - delta0+):

      (1/lam) L_{p,w} |grad w|^lam >=
          (1-delta0+)(p-1)^2/(n-1) |grad w|^{lam+p}
          + min(Ric_min, 0) |grad w|^{lam+p-2}
          - p(p-1) |grad w|^{lam+p-2} |grad |grad w||,      w = ln u,

    with Ric_min = model.ricci_min (-(n-1) kappa on H^n(kappa)).
    """
    from .exponents import GradientEstimateParams, satisfies_f2

    params = GradientEstimateParams(delta0=delta0, p=sol.p)
    ok, witness = satisfies_f2(sol.term, delta0, sol.model.dim, sol.p)
    if not ok:
        raise PreconditionError(
            f"reaction term fails the delta0-condition at t={witness}"
        )
    lam = params.lambda0 if lam is None else lam
    if lam < params.lambda0 - 1e-12:
        raise PreconditionError("lam must be at least p/(1 - delta0+)")
    n, p = sol.model.dim, sol.p
    batch = solution_batch(sol)
    lhs = _level(batch, p).view.log_power_flux(lam)
    w1 = batch.jets.g[:, 0] / batch.u
    w2 = batch.jets.h[:, 0, 0] / batch.u - w1**2
    hgrad = np.abs(w1)
    grad_h = np.abs(w2)  # |d/dr |grad w|| away from critical points
    rhs = (
        (1.0 - params.delta0_plus) * (p - 1.0) ** 2 / (n - 1.0) * hgrad ** (lam + p)
        + min(sol.model.ricci_min, 0.0) * hgrad ** (lam + p - 2.0)
        - p * (p - 1.0) * hgrad ** (lam + p - 2.0) * grad_h
    )
    scale = np.abs(lhs) + np.abs(rhs) + _TINY
    margin = (lhs - rhs) / scale
    k = _worst_index(margin, lowest=True)
    return InequalityReport(
        identity_id="log_gradient_pointwise",
        samples=int(margin.size),
        min_margin=float(margin[k]),
        tol_neg=tol_neg,
        worst_case={
            "r": float(batch.meta["r"][k]),
            "lam": lam,
            "delta0": delta0,
            "p": p,
            "n": n,
        },
    )
