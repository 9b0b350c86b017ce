"""Identity and inequality verification campaigns."""

import functools
import gc
import sys
import weakref

import numpy as np
import pytest

from emdenlab import identities as I
from emdenlab import jets as J
from emdenlab.divergence import EuclideanEngine, PowerTable, RadialEngine, View
from emdenlab.errors import DomainError, PreconditionError
from emdenlab.exponents import ReactionTerm
from emdenlab.fields import FieldTerm, RadialProfile, ScalarField
from emdenlab.geometry import euclidean, hyperbolic
from emdenlab.reports import RunReport
from emdenlab.shooting import RadialSolution, solve_dense
from emdenlab.taylor import Grad, Jet3

RNG = lambda seed: np.random.default_rng(np.random.Philox(seed))

#: the view's weighted fields, with the parameters each method takes
WEIGHTED_FIELDS = {
    "weighted_balance": ("a", "b"),
    "traceless_combo": ("a", "b", "c"),
}

CAMPAIGNS = [
    I.Campaign(model_name="euclidean", dim=3, samples=400, seed=11),
    I.Campaign(model_name="sphere", dim=3, samples=400, seed=12),
    I.Campaign(model_name="hyperbolic", dim=4, samples=400, seed=13),
]


class TestIdentitySuite:
    @pytest.mark.parametrize("camp", CAMPAIGNS, ids=lambda c: c.model_name)
    def test_decomposition(self, camp):
        rep = I.check_decomposition(camp)
        assert rep.passed and rep.samples >= 1000

    @pytest.mark.parametrize("camp", CAMPAIGNS, ids=lambda c: c.model_name)
    def test_flux_advection(self, camp):
        rep = I.check_flux_advection(camp)
        assert rep.passed

    @pytest.mark.parametrize("camp", CAMPAIGNS, ids=lambda c: c.model_name)
    def test_bochner_vector(self, camp):
        rep = I.check_bochner_vector(camp)
        assert rep.passed

    def test_bochner_vector_default_grid(self):
        # a default Campaign runs the Bochner check over AB_GRID, b = +-2 too
        camp = I.Campaign()
        rep = I.check_bochner_vector(camp)
        assert rep.passed
        assert rep.samples == len(I.AB_GRID) * len(camp.p_values) * camp.samples == 15000

    @pytest.mark.parametrize("camp", CAMPAIGNS, ids=lambda c: c.model_name)
    def test_bochner_linearized(self, camp):
        rep = I.check_bochner_linearized(camp)
        assert rep.passed

    @pytest.mark.parametrize("camp", CAMPAIGNS, ids=lambda c: c.model_name)
    def test_weighted_identity_grid(self, camp):
        rep = I.check_weighted_identity(camp)
        assert rep.passed
        # 5x5 (a,b) grid at three p values
        assert rep.samples >= camp.samples * 75 * 0.5

    def test_p2_decomposition_residual_vanishes(self):
        camp = I.Campaign(model_name="euclidean", dim=3, samples=200,
                          seed=3, p_values=(2.0,))
        rep = I.check_decomposition(camp)
        assert rep.max_rel_residual == 0.0

    def test_p2_flux_advection_classical(self):
        camp = I.Campaign(model_name="euclidean", dim=2, samples=200,
                          seed=4, p_values=(2.0,))
        rep = I.check_flux_advection(camp)
        assert rep.max_rel_residual <= 1e-12

    def test_paraboloid_bochner_both_sides_n(self):
        # u = |x|^2/2: div(grad_X X) with X = grad u equals n
        field = ScalarField(
            3, 0.0,
            tuple(FieldTerm("poly", 0.5, (tuple(2 * (i == j) for j in range(3)),))
                  for i in range(3)),
        )
        eng = EuclideanEngine(field.jet3(np.array([[0.7, -0.1, 0.4]])))
        lhs = View(eng, 2.0).self_advection(b=0.0)
        assert lhs[0] == pytest.approx(3.0, rel=1e-12)

    def test_determinism_bit_for_bit(self):
        camp = I.Campaign(model_name="euclidean", dim=3, samples=300, seed=99)
        r1 = I.check_weighted_identity(camp)
        r2 = I.check_weighted_identity(camp)
        assert r1.max_rel_residual == r2.max_rel_residual
        assert r1.to_dict() == r2.to_dict()

    def test_homogeneity_degree_of_flux_advection(self):
        # both sides scale like c^{2p-2} under jet scaling (g, h) -> c(g, h)
        rng = RNG(8)
        g = rng.normal(size=(50, 3))
        h = rng.normal(size=(50, 3, 3))
        h = 0.5 * (h + np.swapaxes(h, 1, 2))
        for p in (1.5, 3.0):
            base_block = J.FluxBlock(J.JetBlock(g, h), p)
            base = np.einsum("nij,nj->ni", base_block.jacobian, base_block.flux)
            for c in (1.0, 10.0):
                block = J.FluxBlock(J.JetBlock(c * g, c * h), p)
                lhs = np.einsum("nij,nj->ni", block.jacobian, block.flux)
                np.testing.assert_allclose(
                    lhs, c ** (2.0 * p - 2.0) * base, rtol=1e-12
                )

    def test_weighted_a0_agrees_with_bochner(self):
        # with a = 0 the weighted identity collapses onto the Bochner
        # consequence; the two defects must agree to 1e-12
        camp = I.Campaign(model_name="euclidean", dim=3, samples=150, seed=21)
        batch = camp.batch
        p, b = 2.5, 1.0
        view = View(batch.engine, p)
        X, jac = J.FluxBlock(batch.jets, p).weighted(batch.u, b)
        divx = _weighted_divergence_dual(view, b)
        defect_weighted = view.weighted_balance(a=0.0, b=b) - (
            J.trace_product(jac) - divx.v**2
        )
        defect_bochner = view.self_advection(b=b) - (
            J.trace_product(jac) + np.einsum("nm,nm->n", divx.d, X)
        )
        scale = np.abs(J.trace_product(jac)) + divx.v**2 + 1.0
        # difference of the two routes is pure algebra plus roundoff
        div_divxx = view.self_advection(b=b) - view.weighted_balance(a=0.0, b=b)
        recon = div_divxx - (np.einsum("nm,nm->n", divx.d, X) + divx.v**2)
        assert np.max(np.abs(recon) / scale) <= 1e-12
        assert np.max(np.abs(defect_weighted) / scale) <= 1e-12
        assert np.max(np.abs(defect_bochner) / scale) <= 1e-12


class TestCampaignBatch:
    CHECKS = (I.check_decomposition, I.check_flux_advection, I.check_bochner_vector,
              I.check_bochner_linearized, I.check_weighted_identity)

    @pytest.mark.parametrize("model,sampler", [("euclidean", "random_field"),
                                               ("sphere", "random_radial_profile")])
    def test_five_checks_draw_each_field_once(self, monkeypatch, model, sampler):
        calls = []
        draw = getattr(I, sampler)
        monkeypatch.setattr(I, sampler, lambda *a, **k: calls.append(1) or draw(*a, **k))
        camp = I.Campaign(model_name=model, dim=3, samples=500, seed=2)
        for check in self.CHECKS:
            assert check(camp).passed
        assert len(calls) == 2  # 500 samples come from two fields, each drawn once

    def test_one_batch_indexed_in_draw_order(self):
        camp = I.Campaign(model_name="hyperbolic", dim=3, samples=600, seed=4)
        batch = camp.batch
        assert batch is camp.batch
        assert batch.u.shape[0] >= 600
        assert set(batch.meta) == {"model", "dim", "r"}

    @pytest.mark.parametrize("model,cls", [("euclidean", EuclideanEngine),
                                           ("hyperbolic", RadialEngine)],
                             ids=["euclidean", "hyperbolic"])
    def test_weighted_builds_each_pair_once_per_p(self, monkeypatch, model, cls):
        builds = _count_view_builds(monkeypatch, cls)
        camp = I.Campaign(model_name=model, dim=3, samples=250, seed=6)
        assert I.check_weighted_identity(camp).passed
        pairs = ("_advection_pair", "_flux_pair", "_plap_pair", "_power_pair")
        assert sorted(build for build in builds if build[1] in pairs) == [
            (p, name) for p in sorted(camp.p_values) for name in pairs
        ]

    def test_stacked_weights_match_the_spec(self):
        camp = I.Campaign(model_name="sphere", dim=3, samples=250, seed=8)
        eng = camp.batch.engine
        a_values = (-1.0, 0.5)
        params = {"b": -1.0, "c": 0.3}
        for spec, names in WEIGHTED_FIELDS.items():
            own = {k: params[k] for k in names if k != "a"}
            rows = getattr(View(eng, 2.5), spec)(a=np.array(a_values)[:, None], **own)
            assert rows.shape == (len(a_values), camp.batch.u.shape[0])
            for a, row in zip(a_values, rows):
                np.testing.assert_array_equal(row, getattr(View(eng, 2.5), spec)(a=a, **own))

    @pytest.mark.parametrize("model", ["euclidean", "sphere"])
    def test_short_campaign_raises(self, monkeypatch, model):
        # a cutoff above every gradient filters out almost every draw
        monkeypatch.setattr(J, "EPS_GRAD_FACTOR", 10.0)
        camp = I.Campaign(model_name=model, dim=3, samples=250, seed=1)
        with pytest.raises(PreconditionError, match="kept"):
            camp.batch

    @pytest.mark.parametrize("samples", [0, -5])
    def test_empty_campaign_raises(self, samples):
        with pytest.raises(PreconditionError, match="at least one sample"):
            I.check_decomposition(I.Campaign(samples=samples))


def _old_rule_batch(camp):
    """Oracle: the draw before it evaluated only what it keeps.  Every
    field gets jets at all 2 per candidates and keeps the first per that
    pass the filter, its scale taken over all 2 per.  Returns the batch
    and the columns it was built from."""
    rng, model = I._rng(camp.seed), camp.model()
    n_fields = max(1, camp.samples // 250)
    per = -(-camp.samples // n_fields)
    parts = []
    for _ in range(n_fields):
        if not camp.is_radial:
            fld = I.random_field(rng, camp.dim)
            pts = rng.uniform(-I.SAMPLING_BOX * 0.9, I.SAMPLING_BOX * 0.9,
                              size=(2 * per, camp.dim))
            jet = fld.jet3(pts)
            gn = np.sqrt(J.grad_norm_sq(jet.g))
            scale = max(1.0, float(np.sqrt(np.mean(gn**2))))
            keep = (gn >= J.EPS_GRAD_FACTOR * scale) & (jet.v > 0)
            idx = np.nonzero(keep)[0][:per]
            parts.append((jet.v[idx], jet.g[idx], jet.h[idx], jet.t[idx]))
        else:
            r_hi = 3.0 if model.r_max == np.inf else model.r_max - 0.3
            prof = I.random_radial_profile(rng, r_hi)
            r = rng.uniform(0.15, r_hi, size=2 * per)
            u, u1, u2, u3 = prof.jet(r)
            scale = max(1.0, float(np.sqrt(np.mean(u1**2))))
            keep = (np.abs(u1) >= J.EPS_GRAD_FACTOR * scale) & (u > 0)
            idx = np.nonzero(keep)[0][:per]
            parts.append((r[idx], u[idx], u1[idx], u2[idx], u3[idx]))
    cols = [np.concatenate(col) for col in zip(*parts)]
    if camp.is_radial:
        return I._radial_batch(model, *cols, meta={}), cols
    jet = Jet3(*cols)
    return I.SampleBatch(u=jet.v, jets=J.JetBlock(jet.g, jet.h),
                         engine=EuclideanEngine(jet), ric_rr=np.zeros(jet.v.shape)), cols


def _drawn(monkeypatch, camp):
    """camp's batch and the draw columns it was built from, recorded by
    wrapping the draw's _first_kept: on R^n the engine keeps no t."""
    kept = []
    first_kept = I._first_kept
    with monkeypatch.context() as m:
        m.setattr(I, "_first_kept", lambda *args: kept.append(first_kept(*args)) or kept[-1])
        batch = camp.batch
    return batch, [np.concatenate(col) for col in zip(*kept)]


def _batch_arrays(batch, cols):
    """The batch's sample arrays, the columns it was built from and its
    engine's seed duals."""
    eng = batch.engine
    arrays = [batch.u, batch.jets.g, batch.jets.h, batch.ric_rr, batch.meta.get("r", batch.u),
              *cols]
    for dual in (eng.u, eng.G, eng.HG, eng.lap):
        arrays += [dual.v, dual.d]
    return arrays


class TestLevelsCarryNoState:
    """A check reports the same whether it runs alone on a fresh campaign
    or after the other four on a shared one."""

    @pytest.mark.parametrize("model", ["euclidean", "sphere"])
    @pytest.mark.parametrize("check", TestCampaignBatch.CHECKS, ids=lambda c: c.__name__)
    def test_report_does_not_depend_on_the_checks_before(self, model, check):
        def report(camp):
            return RunReport(config={}, results=[check(camp)]).to_json()

        def campaign():
            return I.Campaign(model_name=model, dim=3, samples=250, seed=6)

        alone = report(campaign())
        shared = campaign()
        for other in TestCampaignBatch.CHECKS:
            if other is not check:
                assert other(shared).passed
        assert report(shared) == alone

    @pytest.mark.parametrize("model", ["euclidean", "sphere"])
    def test_weighted_report_does_not_depend_on_the_grids_before(self, model):
        # the batch's power table and the levels' records of X are keyed
        # by exponent and b, so an off-grid run leaves nothing behind
        def report(camp):
            return RunReport(config={}, results=[I.check_weighted_identity(camp)]).to_json()

        def campaign():
            return I.Campaign(model_name=model, dim=3, samples=250, seed=6)

        alone = report(campaign())
        shared = campaign()
        assert I.check_weighted_identity(shared, a_values=(0.5,), b_values=(1.5,)).passed
        assert report(shared) == alone


class TestDrawEvaluatesWhatItKeeps:
    """A field's jets are evaluated at its first per candidates, and at
    the other per only when the filter keeps fewer than per of those."""

    @staticmethod
    def _count_points(monkeypatch):
        counts = {"field": 0, "radial": 0}
        field_jet, radial_jet = ScalarField.jet3, RadialProfile.jet

        def field_counted(self, points):
            if self.dim > 1:  # a radial profile's own field is counted below
                counts["field"] += np.shape(points)[0]
            return field_jet(self, points)

        def radial_counted(self, r):
            counts["radial"] += np.size(r)
            return radial_jet(self, r)

        monkeypatch.setattr(ScalarField, "jet3", field_counted)
        monkeypatch.setattr(RadialProfile, "jet", radial_counted)
        return counts

    @staticmethod
    def _assert_old_rule(camp, batch, cols):
        ours, old = _batch_arrays(batch, cols), _batch_arrays(*_old_rule_batch(camp))
        assert len(ours) == len(old)
        for x, y in zip(ours, old):
            assert x.shape == y.shape and np.array_equal(x, y)

    @pytest.mark.parametrize("model,jet", [("euclidean", "field"), ("sphere", "radial"),
                                           ("hyperbolic", "radial")])
    def test_a_campaign_evaluates_what_it_keeps(self, monkeypatch, model, jet):
        counts = self._count_points(monkeypatch)
        camp = I.Campaign(model_name=model, dim=3, samples=1000, seed=42)
        batch, cols = _drawn(monkeypatch, camp)
        assert batch.u.shape == (1000,)
        assert counts[jet] == sum(counts.values()) == 1000  # not 2000
        self._assert_old_rule(camp, batch, cols)

    @pytest.mark.parametrize("model,jet,factor,evaluated", [
        ("euclidean", "field", 0.2, 2000),  # every field falls short
        ("hyperbolic", "radial", 0.05, 1500),  # two of the four fields do
    ])
    def test_a_short_first_half_evaluates_the_rest(self, monkeypatch, model, jet, factor,
                                                    evaluated):
        monkeypatch.setattr(J, "EPS_GRAD_FACTOR", factor)
        counts = self._count_points(monkeypatch)
        camp = I.Campaign(model_name=model, dim=3, samples=1000, seed=42)
        batch, cols = _drawn(monkeypatch, camp)
        assert batch.u.shape == (1000,)
        assert counts[jet] == sum(counts.values()) == evaluated
        self._assert_old_rule(camp, batch, cols)


def _replace_block(monkeypatch, cls, name, build):
    """Make build the cached function of cls's block ``name``."""
    block = functools.cached_property(build)
    block.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, block)


def _with_nan_at(fn, k):
    def poisoned(*args, **kwargs):
        out = np.array(fn(*args, **kwargs), dtype=float)
        out[k] = np.nan
        return out

    return poisoned


class TestNonFiniteFailsClosed:
    def test_identity_residual(self, monkeypatch):
        _replace_block(monkeypatch, J.FluxBlock, "plap",
                       _with_nan_at(J.FluxBlock.__dict__["plap"].func, 7))
        camp = I.Campaign(model_name="euclidean", dim=3, samples=250, seed=3)
        rep = I.check_decomposition(camp)
        assert not rep.passed
        assert np.isnan(rep.max_rel_residual)
        assert rep.worst_case["sample_index"] == 7
        assert rep.worst_case["p"] == camp.p_values[0]

    def test_first_non_finite_sample_is_the_worst_case(self):
        camp = I.Campaign(model_name="euclidean", dim=2, samples=250, seed=3)
        acc = I._Residuals("probe", 1e-8)
        acc.update(np.array([1.0, 1.0, np.inf, np.nan]), np.ones(4), camp.batch, {"k": 0})
        acc.update(np.array([9.0, np.nan]), np.ones(2), camp.batch, {"k": 1})
        rep = acc.report()
        assert not rep.passed
        assert rep.worst_case["sample_index"] == 2 and rep.worst_case["k"] == 0
        assert rep.samples == 6

    def test_stacked_update_matches_row_updates(self):
        # rows with a tie (rows 0 and 1 share the maximum 3), an inf and a NaN
        camp = I.Campaign(model_name="euclidean", dim=2, samples=250, seed=3)
        rows = np.array([[1.0, 3.0, 3.0], [3.0, 2.0, 1.0],
                         [2.0, np.inf, np.nan], [np.nan, 9.0, 1.0]])
        params = [{"k": k} for k in range(len(rows))]
        for block in (slice(0, 2), slice(1, 4), slice(0, 4)):
            by_row, stacked = (I._Residuals("probe", 1e-8) for _ in range(2))
            for acc in (by_row, stacked):  # a worst case from before the block
                acc.update(np.array([2.5]), np.ones(1), camp.batch, {"k": -1})
            for row, par in zip(rows[block], params[block]):
                by_row.update(row, np.ones(3), camp.batch, par)
            stacked.update(rows[block], np.ones_like(rows[block]), camp.batch,
                           params[block])
            assert repr(stacked.report().to_dict()) == repr(by_row.report().to_dict())
        # a block whose maximum ties the held worst keeps the earlier worst
        # case; a block below it leaves the worst case to a later NaN block
        for blocks, worst in (([[[1.0, 2.5], [2.5, 0.5]]], (-1, 0)),
                              ([[[1.0, 2.0]], [[0.0, np.nan]]], (1, 1))):
            by_row, stacked = (I._Residuals("probe", 1e-8) for _ in range(2))
            for acc in (by_row, stacked):
                acc.update(np.array([2.5]), np.ones(1), camp.batch, {"k": -1})
            for k, rows in enumerate(map(np.array, blocks)):
                params = [{"k": k}] * len(rows)
                for row, par in zip(rows, params):
                    by_row.update(row, np.ones_like(row), camp.batch, par)
                stacked.update(rows, np.ones_like(rows), camp.batch, params)
            rep = stacked.report()
            assert repr(rep.to_dict()) == repr(by_row.report().to_dict())
            assert (rep.worst_case["k"], rep.worst_case["sample_index"]) == worst

    def test_identity_of_no_samples(self):
        rep = I.check_weighted_identity(I.Campaign(p_values=(), samples=250))
        assert rep.samples == 0 and not rep.passed
        assert np.isnan(rep.max_rel_residual)

    def test_trace_inequality_margin(self, monkeypatch):
        monkeypatch.setattr(J, "frobenius_sq", _with_nan_at(J.frobenius_sq, 4))
        rep = I.check_trace_inequality(samples=50, seed=5)
        assert not rep.passed
        assert rep.worst_case["sample_index"] == 4
        assert rep.worst_case["inequality"] == "upper"

    def test_kato_margin(self, monkeypatch):
        monkeypatch.setattr(I, "kato_rhs", _with_nan_at(I.kato_rhs, 3))
        rep = I.check_kato(n_values=(3,), p_values=(2.0,), samples=50, seed=9)
        assert not rep.passed
        assert rep.worst_case["sample_index"] == 3


@pytest.fixture(scope="module")
def cubic_solution():
    return solve_dense(euclidean(3), 2.0, ReactionTerm.pure_power(3.0), 1.0,
                       horizon=50.0)


class TestSolutionIdentity:

    def test_sampled_identity(self, cubic_solution):
        # the default (a, b) grid is AB_GRID x AB_GRID
        rep = I.check_solution_identity(cubic_solution)
        assert rep.passed
        rows = len(I.AB_GRID) ** 2
        assert rep.samples == rows * I.solution_batch(cubic_solution).u.shape[0]

    def test_special_weights_spec_values(self, cubic_solution):
        # alpha = 3, n = 3, p = 2: a = 12/5, b = -9/5
        a, b = I.special_weights(3, 2.0, 3.0)
        assert a == pytest.approx(12.0 / 5.0, rel=1e-15)
        assert b == pytest.approx(-9.0 / 5.0, rel=1e-15)
        rep = I.check_solution_identity_special(cubic_solution, 3.0)
        assert rep["pass"]
        assert rep["audit"]["mixed_vanishes"]
        assert rep["audit"]["reaction_is_alpha"]

    def test_p_harmonic_profile_on_hyperbolic(self):
        # zero reaction: the identity reduces to the Bochner consequence;
        # exercised on the explicit hyperbolic p-harmonic profile, whose
        # flux residual stays defined through the |m|/r part of its scale
        sol = _HyperbolicHarmonic(n=3, p=2.5, kappa=1.0)
        rep = I.check_solution_identity(sol, a_values=(0.0, 1.0), b_values=(0.0,),
                                        tol=1e-7)
        assert rep.passed

    def test_nonradial_grid_p3(self, cubic_solution):
        rep = I.check_solution_identity(
            cubic_solution, a_values=(2.0,), b_values=(0.0,), tol=1e-6
        )
        assert rep.passed


class TestSolutionCertificate:
    """solution_batch judges the equation off the dense flux m: the jets
    take u'' from the equation itself, so a residual of the p-Laplacian
    on them would pass any trajectory."""

    def test_relabelled_term_rejected(self, cubic_solution):
        # the u^3 trajectory offered as a solution of -lap u = u^2
        sol = cubic_solution
        relabelled = RadialSolution(sol.model, sol.p, ReactionTerm.pure_power(2.0),
                                    sol._sol, sol.r_lo, sol.r_hi)
        with pytest.raises(PreconditionError, match="not a certified solution"):
            I.solution_batch(relabelled)

    @pytest.mark.parametrize("dim,alpha,u0,horizon", [
        (2, 3.0, 1.0, 50.0), (3, 3.0, 1.0, 50.0), (4, 3.0, 1.0, 50.0),  # identities
        (3, 2.0, 2.0, 100.0),  # criterion 6
    ])
    def test_criterion_solutions_accepted(self, dim, alpha, u0, horizon):
        sol = solve_dense(euclidean(dim), 2.0, ReactionTerm.pure_power(alpha), u0,
                          horizon=horizon)
        assert I.solution_batch(sol).u.size > 0


class _HyperbolicHarmonic:
    """Adapter: the explicit p-harmonic radial profile as a solution object."""

    def __init__(self, n, p, kappa):
        from scipy.integrate import quad

        self.model = hyperbolic(n, kappa)
        self.p = p
        self.term = ReactionTerm.zero()
        self.r_lo, self.r_hi = 0.5, 3.0
        self._n = n
        self._beta = (n - 1.0) / (p - 1.0)
        self._sq = np.sqrt(kappa)
        self._quad = quad

    def _integrand(self, s):
        # overflow-safe sinh(x)^-beta for large x
        import math

        x = self._sq * s
        if x > 1.0:
            return 2.0**self._beta * math.exp(-self._beta * x) * (
                1.0 - math.exp(-2.0 * x)
            ) ** (-self._beta)
        return math.sinh(x) ** (-self._beta)

    def state(self, r):
        """(u, m): p-harmonic, so the flux m = psi^{n-1} |u'|^{p-2} u' is
        the constant -kappa^{(1-n)/2}."""
        u = self.jets(r)[0]
        return u, np.full_like(u, -self._sq ** (1.0 - self._n))

    def jets(self, r):
        beta, sq = self._beta, self._sq
        u = np.array(
            [
                self._quad(self._integrand, ri, np.inf, epsabs=0.0, epsrel=1e-12)[0]
                for ri in np.atleast_1d(r)
            ]
        )
        x = sq * np.atleast_1d(r)
        u1 = -np.sinh(x) ** -beta
        u2 = beta * sq * np.cosh(x) * np.sinh(x) ** (-beta - 1.0)
        u3 = beta * sq**2 * (
            np.sinh(x) ** -beta
            - (beta + 1.0) * np.cosh(x) ** 2 * np.sinh(x) ** (-beta - 2.0)
        )
        return u, u1, u2, u3


class TestTraceInequality:
    def test_generic_margins(self):
        rep = I.check_trace_inequality(samples=30_000, seed=5)
        assert rep.passed
        assert rep.samples >= 30_000 * 2

    def test_positive_margins_report_their_minimum(self):
        # away from p = 2 every sampled margin is positive; the report
        # gives the smallest and where it is, not 0 with no worst case
        rep = I.check_trace_inequality(n_values=(3,), p_values=(3.0,),
                                       samples=2000, seed=5)
        assert rep.passed and rep.min_margin > 0.0
        assert rep.worst_case["p"] == 3.0 and "sample_index" in rep.worst_case

    def test_no_samples_fail(self):
        rep = I.check_trace_inequality(n_values=(), samples=2000)
        assert rep.samples == 0 and not rep.passed

    def test_p2_equality_forced(self):
        # at p = 2 the coefficient is 1 and the Jacobian is symmetric, so
        # both sides coincide to roundoff
        rng = RNG(6)
        u, g, h = I.random_jets(rng, 3, 5000)
        _, jac = J.FluxBlock(J.JetBlock(g, h), 2.0).weighted(u, 1.0, check=False)
        m = J.traceless(jac)
        t2, fr = J.trace_product(m), J.frobenius_sq(m)
        assert np.max(np.abs(fr - t2) / (fr + 1e-30)) <= 1e-12

    def test_equality_when_gradient_row_clean(self):
        # hess rows orthogonal to the (axis-aligned) gradient: both
        # inequalities collapse to their shared diagonal part
        rng = RNG(7)
        n = 4
        u = rng.uniform(0.5, 2.0, size=200)
        g = np.zeros((200, n))
        g[:, 0] = rng.uniform(0.2, 2.0, size=200)
        h = rng.normal(size=(200, n, n))
        h = 0.5 * (h + np.swapaxes(h, 1, 2))
        h[:, 0, 1:] = 0.0
        h[:, 1:, 0] = 0.0
        for p in (1.5, 3.0, 5.0):
            _, jac = J.FluxBlock(J.JetBlock(g, h), p).weighted(u, -1.0, check=False)
            m = J.traceless(jac)
            t2, fr = J.trace_product(m), J.frobenius_sq(m)
            coef = ((p - 1.0) ** 2 + 1.0) / (2.0 * (p - 1.0))
            scale = fr + 1e-30
            assert np.max(np.abs(fr - t2) / scale) <= 1e-12
            assert np.max(np.abs(coef * t2 - fr) / scale) >= 0  # upper side slack
            strict = coef * t2 - fr
            assert np.all(strict >= -1e-12 * scale)


class TestKato:
    def test_generic_margins(self):
        rep = I.check_kato(samples=30_000, seed=9)
        assert rep.passed

    def test_isotropic_hessian_equality_adjacent(self):
        # p = 2, hess = c id: the bound is tight
        for n in (2, 3, 4):
            c = 0.7
            g = np.zeros((1, n))
            g[0, 0] = 1.3
            h = c * np.eye(n)[None]
            block = J.FluxBlock(J.JetBlock(g, h), 2.0)
            lhs = J.trace_product(block.jacobian)
            rhs = I.kato_rhs(block)
            assert lhs[0] == pytest.approx(rhs[0], rel=1e-12)
            assert lhs[0] == pytest.approx(c**2 * n, rel=1e-14)

    def test_equal_tail_diagonal_equality(self):
        # gradient along e1, diagonal hessian with equal tail entries:
        # the averaging step is tight, margin at roundoff
        n, p = 4, 3.0
        g = np.zeros((1, n))
        g[0, 0] = 0.9
        h = np.diag([0.4] + [0.6] * (n - 1))[None]
        block = J.FluxBlock(J.JetBlock(g, h), p)
        lhs = J.trace_product(block.jacobian)
        rhs = I.kato_rhs(block)
        scale = abs(lhs[0]) + abs(rhs[0])
        assert lhs[0] - rhs[0] >= -1e-12 * scale
        assert abs(lhs[0] - rhs[0]) <= 1e-12 * scale


class TestLogGradientPointwise:
    def test_acceptance_configuration(self):
        sol = solve_dense(euclidean(3), 2.0, ReactionTerm.pure_power(2.0), 2.0,
                          horizon=50.0)
        rep = I.check_log_gradient_pointwise(sol, 0.0, lam=2.0)
        assert rep.passed

    def test_lambda_floor_enforced(self):
        sol = solve_dense(euclidean(3), 2.0, ReactionTerm.pure_power(2.0), 2.0,
                          horizon=50.0)
        with pytest.raises(PreconditionError):
            I.check_log_gradient_pointwise(sol, 0.0, lam=1.5)

    def test_delta0_domain(self):
        sol = solve_dense(euclidean(3), 2.0, ReactionTerm.pure_power(2.0), 2.0,
                          horizon=50.0)
        with pytest.raises(PreconditionError):
            I.check_log_gradient_pointwise(sol, 1.0)

    def test_failing_reaction_rejected(self):
        # t^5 violates the delta0-condition at delta0 = 0 for (n, p) = (3, 2)
        sol = solve_dense(euclidean(3), 2.0, ReactionTerm.pure_power(5.0),
                          3.0 ** 0.25, horizon=30.0)
        with pytest.raises(PreconditionError):
            I.check_log_gradient_pointwise(sol, 0.0)

    def test_constant_solution_excluded_by_filter(self):
        # zero reaction from a constant start: no admissible samples
        sol = solve_dense(euclidean(3), 2.0, ReactionTerm.zero(), 1.0,
                          horizon=30.0)
        with pytest.raises(PreconditionError):
            I.check_log_gradient_pointwise(sol, 0.0)


#: the view's p-level blocks, each a cached property
_VIEW_BLOCKS = ("_flux", "_grad_pow", "p_laplacian_dual", "_flux_pair",
                "_advection_pair", "_plap_pair", "_power_pair")


def _count_block_builds(monkeypatch, cls, names, entry=lambda block, name: name):
    """Log entry(block, name) each time the cached function of one of
    cls's blocks in names runs from now on; an entry of None is not
    logged."""
    log = []

    def logged(name, build):
        def counting(block):
            item = entry(block, name)
            if item is not None:
                log.append(item)
            return build(block)
        return counting

    for name in names:
        _replace_block(monkeypatch, cls, name, logged(name, cls.__dict__[name].func))
    return log


def _count_view_builds(monkeypatch, cls):
    """Log every block that the views of cls build from now on, as
    (p, block) when its cached function runs."""
    return _count_block_builds(
        monkeypatch, View, _VIEW_BLOCKS,
        lambda view, name: (view.p, name) if isinstance(view.engine, cls) else None)


#: the p-free contractions a JetBlock holds
_JET_BLOCKS = ("gn2", "gn", "hg", "ghg", "lap", "outer")


def _weighted_divergence_dual(view, b):
    """div X = b u^{b-1} |grad u|^p + u^b lap_p u as a dual of the view's
    engine: the oracle of the affine <grad div X, X>."""
    E = view.engine
    return b * E.u ** (b - 1.0) * view._grad_pow + E.u**b * view.p_laplacian_dual


def _count_calls(monkeypatch, module, name):
    """Log the positional arguments of every call of module.name."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or fn(*a, **k))
    return calls


class TestBuildCounts:
    """Within one batch no view block is built twice: each block depends
    on p only and is built once per (batch, p).  No check builds a block
    per b."""

    CHECKS = (I.check_bochner_vector, I.check_bochner_linearized,
              I.check_weighted_identity)

    @pytest.mark.parametrize("model,cls", [("euclidean", EuclideanEngine),
                                           ("sphere", RadialEngine)])
    def test_five_checks_share_one_level_per_p(self, monkeypatch, model, cls):
        camp = I.Campaign(model_name=model, dim=3, samples=250, seed=6)
        camp.batch
        views = _count_calls(monkeypatch, View, "__init__")
        blocks = _count_calls(monkeypatch, J, "FluxBlock")
        duals = _count_view_builds(monkeypatch, cls)
        pairings = _count_calls(monkeypatch, I, "_grad_plap_flux")
        for check in TestCampaignBatch.CHECKS:
            assert check(camp).passed
        p_values = list(camp.p_values)
        assert [p for _, _, p in views] == p_values
        assert [p for _, p in blocks] == p_values
        assert [p for p, name in duals if name == "p_laplacian_dual"] == p_values
        assert [view.p for view, _, _ in pairings] == p_values

    def test_levels_held_for_the_last_batch_only(self):
        first = I.Campaign(model_name="euclidean", dim=3, samples=250, seed=6)
        second = I.Campaign(model_name="sphere", dim=3, samples=250, seed=6)
        for check in TestCampaignBatch.CHECKS:
            assert check(first).passed
        views = [weakref.ref(I._level(first.batch, p).view) for p in first.p_values]
        # the levels share the batch's one power table, which dies with them
        tables = {id(I._level(first.batch, p).powers) for p in first.p_values}
        table = weakref.ref(I._level(first.batch, first.p_values[0]).powers)
        assert len(tables) == 1 and table() is not None
        assert all(view() is not None for view in views)
        for check in TestCampaignBatch.CHECKS:
            assert check(second).passed
        gc.collect()
        assert all(view() is None for view in views)
        assert table() is None

    @pytest.mark.parametrize("model", ["euclidean", "sphere"])
    def test_five_checks_evaluate_each_power_of_u_once(self, monkeypatch, model):
        camp = I.Campaign(model_name=model, dim=3, samples=250, seed=6)
        camp.batch
        evaluated = []

        def key(e):
            return (e.shape, e.tobytes()) if isinstance(e, np.ndarray) else e

        class Logged(np.ndarray):
            def __pow__(self, e):
                evaluated.append(key(e))
                return np.asarray(self) ** e

        init = PowerTable.__init__
        monkeypatch.setattr(
            PowerTable, "__init__",
            lambda table, x: init(table, x.view(Logged) if isinstance(x, np.ndarray) else x))
        for check in TestCampaignBatch.CHECKS:
            assert check(camp).passed
        # scalars: u^b, u^{b-1}, u^{b-2} on the Bochner right side (its
        # Ricci term squares u^b) and u^{2b-2} on its left; columns: u^a and
        # u^{a+2b-2} (shared by both sides of the weighted identity) and
        # u^{a+2b-1}
        a_col = np.array(I.AB_GRID)[:, None]
        expected = {e for b in I.AB_GRID
                    for e in (b, b - 1.0, b - 2.0, 2.0 * b - 2.0)}
        expected |= {key(a_col)} | {key(a_col + 2.0 * b - c)
                                    for b in I.AB_GRID for c in (2.0, 1.0)}
        assert len(evaluated) == len(set(evaluated))  # once per batch, not per p
        assert set(evaluated) == expected

    @pytest.mark.parametrize("model", ["euclidean", "sphere"])
    def test_weighted_traces_once_per_p_and_b(self, monkeypatch, model):
        camp = I.Campaign(model_name=model, dim=3, samples=250, seed=6)
        camp.batch
        traces = _count_calls(monkeypatch, J.FluxBlock, "weighted_traces")
        asserted = _count_calls(monkeypatch, J.FluxBlock, "_check_trace")
        for check in TestCampaignBatch.CHECKS:
            assert check(camp).passed
        # check_bochner_vector and check_weighted_identity share one b grid
        expected = sorted((p, b) for p in camp.p_values for b in I.AB_GRID)
        assert sorted((block.p, b) for block, b, *_ in traces) == expected
        assert sorted((block.p, b) for block, _, b, *_ in asserted) == expected

    @pytest.mark.parametrize("model,cls", [("euclidean", EuclideanEngine),
                                           ("sphere", RadialEngine)])
    @pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
    def test_engine_blocks_once(self, monkeypatch, model, cls, check):
        camp = I.Campaign(model_name=model, dim=3, samples=250, seed=6)
        builds = _count_view_builds(monkeypatch, cls)
        assert check(camp).passed
        assert builds and len(builds) == len(set(builds))
        p_level = [build for build in builds if len(build) == 2]
        names = {name for _, name in p_level}
        assert sorted(p_level) == sorted(
            (p, name) for p in camp.p_values for name in names
        )

    @pytest.mark.parametrize("model", ["euclidean", "sphere"])
    @pytest.mark.parametrize("check", [I.check_bochner_vector, I.check_weighted_identity],
                             ids=lambda c: c.__name__)
    def test_jets_flux_jacobian_once_per_p(self, monkeypatch, model, check):
        camp = I.Campaign(model_name=model, dim=3, samples=250, seed=6)
        builds = _count_block_builds(monkeypatch, J.FluxBlock, ("jacobian", "plap"))
        weighted = _count_calls(monkeypatch, J.FluxBlock, "weighted")
        assert check(camp).passed
        assert builds.count("jacobian") == builds.count("plap") == len(camp.p_values)
        assert not weighted  # no (N, n, n) weighted Jacobian per b

    @pytest.mark.parametrize("check", [I.check_bochner_vector, I.check_weighted_identity],
                             ids=lambda c: c.__name__)
    def test_euclidean_checks_build_no_matrix_duals(self, monkeypatch, check):
        # hess u is the engine's only matrix dual; the checks contract it
        # through p-free vector duals and never build a Jacobian dual
        camp = I.Campaign(model_name="euclidean", dim=3, samples=250, seed=6)
        camp.batch
        ranks = []
        init = Grad.__init__

        def logging_init(self, v, d):
            init(self, v, d)
            ranks.append(self.v.ndim)

        monkeypatch.setattr(Grad, "__init__", logging_init)
        assert check(camp).passed
        assert ranks and max(ranks) < 3

    @pytest.mark.parametrize("model", ["euclidean", "sphere"])
    @pytest.mark.parametrize("check", TestCampaignBatch.CHECKS, ids=lambda c: c.__name__)
    def test_campaign_checks_build_one_flux_block_per_p(self, monkeypatch, model, check):
        camp = I.Campaign(model_name=model, dim=3, samples=250, seed=6)
        camp.batch
        blocks = _count_calls(monkeypatch, J, "FluxBlock")
        assert check(camp).passed
        assert [p for _, p in blocks] == list(camp.p_values)
        assert all(jets is camp.batch.jets for jets, _ in blocks)

    @pytest.mark.parametrize("check", [I.check_kato, I.check_trace_inequality],
                             ids=lambda c: c.__name__)
    def test_jet_checks_build_one_flux_block_per_n_and_p(self, monkeypatch, check):
        n_values, p_values = (2, 4), (1.5, 3.0)
        jet_blocks = _count_calls(monkeypatch, J, "JetBlock")
        blocks = _count_calls(monkeypatch, J, "FluxBlock")
        assert check(n_values=n_values, p_values=p_values, samples=200, seed=2).passed
        assert [(jets.g.shape[-1], p) for jets, p in blocks] == [
            (n, p) for n in n_values for p in p_values
        ]
        # one JetBlock per n, shared by the FluxBlocks of every p
        assert [g.shape[-1] for g, _ in jet_blocks] == list(n_values)
        assert len({id(jets) for jets, _ in blocks}) == len(n_values)

    @pytest.mark.parametrize("model", ["euclidean", "sphere"])
    def test_p_free_contractions_once_per_batch(self, monkeypatch, model):
        camp = I.Campaign(model_name=model, dim=3, samples=250, seed=6)
        h = camp.batch.jets.h
        builds = _count_block_builds(monkeypatch, J.JetBlock, _JET_BLOCKS)
        contractions = []
        einsum = np.einsum

        def logging_einsum(subscripts, *operands, **kwargs):
            # the engine route contracts the same array as grad u's dual
            caller = sys._getframe(1).f_globals["__name__"]
            if caller == J.__name__ and any(op is h for op in operands):
                contractions.append(subscripts)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", logging_einsum)
        for check in TestCampaignBatch.CHECKS:
            assert check(camp).passed
        assert sorted(builds) == sorted(_JET_BLOCKS)
        # only the batch's JetBlock contracts (g, h), each contraction once:
        # hess u . g, lap_inf u and lap u
        assert sorted(contractions) == sorted(
            ["...ij,...j->...i", "...i,...ij,...j->...", "...ii->..."]
        )

    def test_solution_identity_builds_once_per_b(self, monkeypatch):
        sol = solve_dense(euclidean(3), 2.0, ReactionTerm.pure_power(2.0), 1.0,
                          horizon=30.0)
        builds = _count_view_builds(monkeypatch, RadialEngine)
        jacobians = _count_block_builds(monkeypatch, J.FluxBlock, ("jacobian",))
        weighted = _count_calls(monkeypatch, J.FluxBlock, "weighted")
        blocks = _count_calls(monkeypatch, J, "FluxBlock")
        b_values = (0.0, 1.0, -1.0)
        assert I.check_solution_identity(sol, b_values=b_values).passed
        assert builds and len(builds) == len(set(builds))
        assert len(weighted) == len(b_values)
        assert len(jacobians) == len(blocks) == 1


class TestAffineInB:
    """The two weighted right sides read b only through powers of u over
    p-level blocks."""

    @pytest.mark.parametrize("model", ["euclidean", "sphere"])
    def test_grad_div_pairing_matches_dual_route(self, model):
        camp = I.Campaign(model_name=model, dim=3, samples=250, seed=6)
        batch = camp.batch
        u = batch.u
        for p in (1.5, 2.0, 3.0):
            view = View(batch.engine, p)
            block = J.FluxBlock(batch.jets, p)
            grad_plap_flux = I._grad_plap_flux(view, block, batch)
            flux = I._as_components(block.flux, batch)
            for b in I.AB_GRID:
                affine = block.weighted_grad_div_pairing(
                    b, u**b, u ** (b - 1.0), u ** (b - 2.0), grad_plap_flux)
                dual = np.einsum("nm,nm->n", _weighted_divergence_dual(view, b).d,
                                 u[:, None] ** b * flux)
                # the four product-rule terms, in absolute value
                scale = u**b * (
                    np.abs(b * (b - 1.0)) * u ** (b - 2.0) * block.power**2
                    + np.abs(b) * u ** (b - 1.0) * (
                        np.abs(block._grad_power_flux)
                        + np.abs(block.plap) * block.power)
                    + u**b * np.abs(grad_plap_flux)
                )
                assert np.max(np.abs(affine - dual) / scale) <= 1e-12, (p, b)

    @pytest.mark.parametrize("model", ["euclidean", "sphere"])
    @pytest.mark.parametrize("check", [I.check_bochner_vector, I.check_weighted_identity],
                             ids=lambda c: c.__name__)
    def test_dual_count_does_not_grow_with_b(self, monkeypatch, model, check):
        duals = []
        init = Grad.__init__
        monkeypatch.setattr(Grad, "__init__",
                            lambda self, v, d: duals.append(1) or init(self, v, d))
        counts = []
        for b_values in ((0.0,), I.AB_GRID):
            camp = I.Campaign(model_name=model, dim=3, samples=250, seed=6)
            camp.batch
            duals.clear()
            assert check(camp, b_values=b_values).passed
            counts.append(len(duals))
        assert counts[0] > 0 and counts[0] == counts[1]

    @pytest.mark.parametrize("check", [I.check_bochner_vector, I.check_weighted_identity],
                             ids=lambda c: c.__name__)
    def test_trace_check_sees_a_scaled_flux_jacobian(self, monkeypatch, check):
        camp = I.Campaign(model_name="euclidean", dim=3, samples=250, seed=6)
        camp.batch
        jacobian = J.FluxBlock.__dict__["jacobian"].func
        _replace_block(monkeypatch, J.FluxBlock, "jacobian",
                       lambda block: jacobian(block) * (1.0 + 1e-9))
        with pytest.raises(AssertionError, match="flux Jacobian trace"):
            check(camp)


class TestGridCorners:
    """The five checks at the corners of the documented (n, p) grid, on
    every model, at their default tolerances."""

    @pytest.mark.parametrize("model", ["euclidean", "sphere", "hyperbolic"])
    @pytest.mark.parametrize("p", [1.05, 12.0])
    @pytest.mark.parametrize("n", [2, 8])
    def test_five_checks_pass(self, n, p, model):
        camp = I.Campaign(model_name=model, dim=n, p_values=(p,), samples=250, seed=0)
        for check in TestCampaignBatch.CHECKS:
            rep = check(camp)
            assert rep.passed, (check.__name__, rep.max_rel_residual)


class TestKnownFailures:
    """Defects the lab reports but has not mended, pinned so that they
    stay visible and the arithmetic behind them stays byte for byte."""

    def test_seed_146_weighted_identity(self):
        # ROADMAP item 16: a cancellation of about 3.8e9 at one sample lifts
        # the rounding residual just past the unchanged 1e-7 tolerance
        camp = I.Campaign("hyperbolic", dim=2, samples=1000, seed=146)
        rep = I.check_weighted_identity(camp, a_values=I.AB_GRID, b_values=I.AB_GRID)
        worst = rep.worst_case
        assert (worst["p"], worst["a"], worst["b"], worst["sample_index"]) == (
            3.0, 1.0, 2.0, 695)
        assert rep.max_rel_residual == 1.0099366978667075e-07
        assert rep.tol == 1e-7 and not rep.passed


def _arrays(obj, seen, path="batch"):
    """Every array reachable from obj through the lab's objects (their
    slots and instance dicts, where cached blocks live), tuples, lists and
    dicts, with the path that reaches it."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, dict):
        for key, val in obj.items():
            yield from _arrays(val, seen, f"{path}[{key!r}]")
    elif isinstance(obj, (tuple, list)):
        for i, val in enumerate(obj):
            yield from _arrays(val, seen, f"{path}[{i}]")
    elif type(obj).__module__.startswith("emdenlab."):
        for name in getattr(type(obj), "__slots__", ()):
            yield from _arrays(getattr(obj, name), seen, f"{path}.{name}")
        for name, val in getattr(obj, "__dict__", {}).items():
            yield from _arrays(val, seen, f"{path}.{name}")


def _longdouble_draw(monkeypatch):
    """Hand every field's candidates to the draw in longdouble: the cast is
    exact, so the campaign draws the same samples, in extended precision."""
    first_kept = I._first_kept
    monkeypatch.setattr(I, "_first_kept", lambda fld, cands, per: first_kept(
        fld, cands.astype(np.longdouble), per))


class TestPrecisionRule:
    """A batch keeps the dtype it was drawn in, through every layer of
    both routes.  Each test costs well under a second."""

    @pytest.mark.parametrize("model", ["euclidean", "sphere", "hyperbolic"])
    def test_longdouble_batch_stays_longdouble(self, monkeypatch, model):
        _longdouble_draw(monkeypatch)
        residuals = []
        update = I._Residuals._update_arrays

        def recorded(self, diff, scale, lhs, rhs, batch, params):
            residuals.append((diff, scale, lhs, rhs))
            return update(self, diff, scale, lhs, rhs, batch, params)

        monkeypatch.setattr(I._Residuals, "_update_arrays", recorded)
        camp = I.Campaign(model_name=model, dim=3, samples=250, seed=5)
        for check in TestCampaignBatch.CHECKS:
            assert check(camp).passed, check.__name__
        camp.batch.engine.log_duals  # the solution path's duals of ln u
        seen = set()
        found = [*_arrays(camp.batch, seen), *_arrays(I._LEVELS, seen, "levels"),
                 *_arrays(residuals, seen, "residuals")]
        kinds = {type(obj).__name__ for obj in I._LEVELS[2][3.0].__dict__.values()}
        assert {"View", "FluxBlock"} <= kinds
        assert len(I._LEVELS[2][3.0]._weighted) == len(I.AB_GRID)
        assert len(found) > 300 and len(residuals) > 0
        assert [path for path, arr in found if arr.dtype != np.longdouble] == []

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="longdouble is no wider than float64 here")
    def test_seed_146_passes_in_longdouble(self, monkeypatch):
        # the float64 failure pinned in TestKnownFailures is rounding alone:
        # the same worst sample passes the unchanged tolerance in longdouble
        _longdouble_draw(monkeypatch)
        camp = I.Campaign("hyperbolic", dim=2, samples=1000, seed=146)
        rep = I.check_weighted_identity(camp, a_values=I.AB_GRID, b_values=I.AB_GRID)
        worst = rep.worst_case
        assert (worst["p"], worst["a"], worst["b"], worst["sample_index"]) == (
            3.0, 1.0, 2.0, 695)
        assert worst["lhs"] == pytest.approx(-5.41285e-8, rel=1e-5)
        assert worst["rhs"] == pytest.approx(-5.41285e-8, rel=1e-5)
        assert rep.tol == 1e-7 and rep.passed
        assert rep.max_rel_residual < 1e-8


class TestNoThirdOrderTensor:
    """A Euclidean campaign drops its (N, n, n, n) t once the engine has
    read it: the duals of ln u come from the p-free duals by Grad algebra.
    Each test costs about 0.1 s."""

    def test_no_rank_four_array_is_reachable(self):
        camp = I.Campaign(model_name="euclidean", dim=4, samples=250, seed=3)
        for check in TestCampaignBatch.CHECKS:
            assert check(camp).passed, check.__name__
        camp.batch.engine.log_duals  # the solution path's duals of ln u
        seen = set()
        found = [*_arrays(camp.batch, seen), *_arrays(I._LEVELS, seen, "levels")]
        assert len(found) > 150 and any(arr.ndim == 3 for _, arr in found)
        assert [(path, arr.shape) for path, arr in found if arr.ndim >= 4] == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_log_duals_match_the_log_of_the_jet(self, monkeypatch, n):
        camp = I.Campaign(model_name="euclidean", dim=n, samples=250, seed=n)
        batch, cols = _drawn(monkeypatch, camp)
        v = cols[0]
        w = Jet3(*cols).compose(np.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3)
        G = Grad(w.g, w.h)
        reference = (G, G @ G, Grad(w.h, w.t) @ G)
        for name, ours, ref in zip(("G", "h", "HG"), batch.engine.log_duals, reference):
            for part in ("v", "d"):
                x, y = getattr(ours, part), getattr(ref, part)
                # relative to each sample's largest entry: a small entry
                # may come out of a cancellation
                scale = np.abs(y).reshape(len(y), -1).max(axis=1)
                scale = scale.reshape((-1,) + (1,) * (y.ndim - 1))
                assert x.shape == y.shape and np.all(np.abs(x - y) <= 1e-12 * scale), (
                    name, part)


class TestCampaignDomain:
    """A campaign, like the jet inequalities, is stated for n >= 2 and
    p > 1, and refuses any other (n, p) when it is made."""

    @pytest.mark.parametrize("dim,p_values", [
        (3, (1.0,)), (3, (0.5,)), (3, (-1.0,)), (3, (2.0, 1.0)), (3, (np.nan,)), (1, (2.0,)),
    ])
    def test_outside_the_domain_is_refused(self, dim, p_values):
        with pytest.raises(DomainError, match="need n >= 2 and p > 1"):
            I.Campaign(dim=dim, p_values=p_values)
        with pytest.raises(DomainError, match="need n >= 2 and p > 1"):
            I.check_kato(n_values=(dim,), p_values=p_values, samples=10)


class TestSpecificConfigurations:
    def test_bochner_on_hyperbolic_exponential(self):
        # radial u = e^{-r} on H^3, p = 2, b = 0: the curvature term is
        # Ric(X, X) = -2 |X|^2 and the Bochner identity closes
        from emdenlab.divergence import RadialEngine

        model = hyperbolic(3, 1.0)
        r = np.linspace(0.5, 2.5, 9)
        u = np.exp(-r)
        u1, u2, u3 = -u, u, -u
        eng = RadialEngine(model, r, u, u1, u2, u3)
        uu, g, h = eng.frame_jets()
        view = View(eng, 2.0)
        lhs = view.self_advection(b=0.0)
        X, jac = J.FluxBlock(J.JetBlock(g, h), 2.0).weighted(uu, 0.0)
        divx = _weighted_divergence_dual(view, 0.0)
        ric = np.asarray(model.ricci_radial(r))
        np.testing.assert_allclose(ric, -2.0, rtol=1e-13)
        rhs = (J.trace_product(jac) + divx.d[:, 0] * X[:, 0]
               + ric * X[:, 0] ** 2)
        rel = np.abs(lhs - rhs) / (np.abs(lhs) + np.abs(rhs))
        assert rel.max() <= 1e-7


class TestReportRoundTrip:
    def test_lossless_serialization(self):
        import json

        from emdenlab.reports import RunReport

        camp = I.Campaign(model_name="euclidean", dim=2, samples=150, seed=1)
        rep = RunReport(config={"seed": 1}, results=[I.check_decomposition(camp)])
        decoded = json.loads(rep.to_json())
        assert decoded == rep.to_dict()
        assert decoded["results"][0]["max_rel_residual"] == \
            rep.results[0].max_rel_residual

    def test_result_without_pass_flag_fails(self):
        from emdenlab.reports import RunReport

        assert RunReport(config={}, results=[{"pass": True}]).passed
        rep = RunReport(config={}, results=[{"pass": True}, {"volumes": []}])
        assert not rep.passed
        assert rep.to_dict()["pass"] is False
        assert not RunReport(config={}, results=[I.Campaign()]).passed
