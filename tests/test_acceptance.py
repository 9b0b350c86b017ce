"""Acceptance suite: every criterion at its stated tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see one pass/fail
line per criterion as it completes.
"""

import itertools
import math
import time

import numpy as np
import pytest

from emdenlab import estimates as EST
from emdenlab import exponents as EXP
from emdenlab import identities as I
from emdenlab import shooting as S
from emdenlab.geometry import euclidean
from emdenlab.reports import RunReport

IDENTITY_DIMS = (2, 3, 4)
IDENTITY_PS = (1.5, 2.0, 3.0)
IDENTITY_MODELS = ("euclidean", "sphere", "hyperbolic")
IDENTITY_SEED = 42
IDENTITY_SAMPLES = 1000


def _report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {tag} - {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {description} {detail}"


def _run_identity_suite():
    results = []
    for dim in IDENTITY_DIMS:
        for model in IDENTITY_MODELS:
            camp = I.Campaign(
                model_name=model, dim=dim, p_values=IDENTITY_PS,
                samples=IDENTITY_SAMPLES, seed=IDENTITY_SEED,
            )
            results.append(I.check_decomposition(camp, tol=1e-7))
            results.append(I.check_flux_advection(camp, tol=1e-7))
            results.append(I.check_bochner_vector(camp, tol=1e-7))
            results.append(I.check_bochner_linearized(camp, tol=1e-7))
            results.append(I.check_weighted_identity(camp, tol=1e-7))
    return RunReport(
        config={
            "suite": "acceptance-1", "dims": list(IDENTITY_DIMS),
            "models": list(IDENTITY_MODELS), "p": list(IDENTITY_PS),
            "samples": IDENTITY_SAMPLES, "seed": IDENTITY_SEED,
        },
        results=results,
    )


@pytest.fixture(scope="module")
def identity_suite():
    start = time.perf_counter()
    report = _run_identity_suite()
    wall = time.perf_counter() - start
    return report, wall


def test_criterion_01_identity_suite(identity_suite):
    report, wall = identity_suite
    worst = max(r.max_rel_residual for r in report.results)
    min_samples = min(r.samples for r in report.results)
    ok = report.passed and worst <= 1e-7 and min_samples >= 1000 and wall <= 120.0
    _report(
        1,
        "identity suite residual <= 1e-7 over >= 1e3 samples, runtime <= 2 min",
        ok,
        f"worst={worst:.2e} min_samples={min_samples} wall={wall:.1f}s",
    )


def test_criterion_02_trace_inequality():
    rep = I.check_trace_inequality(
        n_values=(2, 3, 4), p_values=(1.2, 1.5, 2.0, 3.0, 5.0),
        b_values=(-2.0, 0.0, 1.0), samples=100_000, seed=IDENTITY_SEED,
        tol_neg=1e-10,
    )
    # the p = 2 equality case at 1e-12
    rng = np.random.Generator(np.random.Philox(IDENTITY_SEED))
    u, g, h = I.random_jets(rng, 3, 100_000)
    from emdenlab import jets as J

    m = J.traceless(J.weighted_flux_jacobian(u, g, h, 2.0, 1.0, check=False))
    eq_gap = np.max(
        np.abs(J.frobenius_sq(m) - J.trace_product(m)) / (J.frobenius_sq(m) + 1e-30)
    )
    ok = rep.passed and eq_gap <= 1e-12
    _report(
        2,
        "trace inequality margins >= -1e-10 over 1e5 jets, p=2 equality to 1e-12",
        ok,
        f"min_margin={rep.min_margin:.2e} eq_gap={eq_gap:.2e}",
    )


def test_criterion_03_kato_inequality():
    rep = I.check_kato(
        n_values=(2, 3, 4, 6), p_values=(1.5, 2.0, 3.0),
        samples=100_000, seed=IDENTITY_SEED, tol_neg=1e-10,
    )
    _report(
        3,
        "Kato-type inequality margin >= -1e-10 over 1e5 jets per (n, p)",
        rep.passed,
        f"min_margin={rep.min_margin:.2e} samples={rep.samples}",
    )


def test_criterion_04_emden_bubble():
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 500)])
    residuals_ok = True
    worst = 0.0
    for n, p, lam in [(3, 2.0, 1.0), (3, 2.0, 2.0), (4, 2.0, 1.0), (5, 3.0, 1.0)]:
        rep = EXP.emden_residual(n, p, lam, grid)
        residuals_ok &= rep["pass"]
        worst = max(worst, rep["max_rel_residual"])
    match = S.bubble_match(3, 2.0, 1.0, horizon=20.0)
    center = abs(EXP.emden_bubble(3, 2.0, 1.0)(0.0) - 3.0**0.25)
    ok = residuals_ok and match["pass"] and center <= 1e-9
    _report(
        4,
        "bubble residual <= 1e-8 on [0,20], trajectory match <= 1e-6, u(0)=3^{1/4}",
        ok,
        f"worst_res={worst:.2e} match={match['max_rel_residual']:.2e} center_err={center:.1e}",
    )


def test_criterion_05_liouville_dichotomy():
    start = time.perf_counter()
    sub = S.liouville_scan(3, 2.0, (1.0, 2.0, 3.0, 4.0, 4.5, 4.9),
                           (0.5, 1.0, 2.0), horizon=2000.0)
    crossed = sum(c["outcome"] == "crossed_zero" for c in sub["cells"])
    crit = S.liouville_scan(3, 2.0, (5.0,), (0.5, 1.0, 2.0), horizon=2000.0)
    stayed = sum(c["outcome"] == "stayed_positive" for c in crit["cells"])
    tails_ok = all(
        abs(c["tail_exponent"] + 1.0) <= 0.05
        for c in crit["cells"]
        if c["outcome"] == "stayed_positive"
    )
    wall = time.perf_counter() - start
    ok = crossed == 18 and stayed == 3 and tails_ok and wall <= 60.0
    _report(
        5,
        "dichotomy scan: 18/18 crossings below p_s, 3/3 bubbles at p_s, tail -1 +- 0.05",
        ok,
        f"crossed={crossed}/18 stayed={stayed}/3 wall={wall:.1f}s",
    )


def test_criterion_06_log_gradient_pointwise():
    sol = S.solve_dense(euclidean(3), 2.0, EXP.ReactionTerm.pure_power(2.0),
                        2.0, horizon=100.0)
    rep = I.check_log_gradient_pointwise(sol, delta0=0.0, lam=2.0, tol_neg=1e-8)
    _report(
        6,
        "pointwise log-gradient inequality margin >= -1e-8 along (3,2,u^2,0,2)",
        rep.passed,
        f"min_margin={rep.min_margin:.2e}",
    )


def test_criterion_07_global_gradient_bound():
    ok = True
    worst_margin = math.inf
    worst_sharp = math.inf
    for n, p, kappa in itertools.product((2, 3, 4), (1.5, 2.0, 3.0), (0.25, 1.0, 4.0)):
        prof = EST.hn_p_harmonic_profile(n, p, kappa)
        chk = EST.global_bound_check(prof, n, p, kappa, 0.0)
        ok &= chk["pass"] and chk["sharp"]
        worst_margin = min(worst_margin, chk["bound"] * (1 + 1e-6) - chk["sup_g"])
        worst_sharp = min(worst_sharp, chk["limit_estimate"] / chk["bound"])
    _report(
        7,
        "global bound respected and asymptotically sharp over 27 (n,p,kappa)",
        ok,
        f"worst_bound_margin={worst_margin:.2e} worst_sharpness={worst_sharp:.4f}",
    )


def test_criterion_08_local_scaling_structure():
    ok = True
    slopes = []
    for n, p in [(3, 2.0), (2, 3.0), (4, 1.5)]:
        out = EST.local_scaling_check(n, p, radii=(1.0, 2.0, 4.0, 8.0))
        assert out["slope_tol"] == 0.05
        ok &= out["pass"]
        slopes.extend(m["log_slope"] for m in out["members"])
    _report(
        8,
        "R * sup |grad ln u| finite with log-log slope within +-0.05 across R",
        ok and all(np.isfinite(slopes)),
        f"max|slope|={max(abs(s) for s in slopes):.2e}",
    )


def test_criterion_09_harnack_ratios():
    ok = True
    bands = []
    for profile in ("constant", "inverse_sqrt", "smoothed_cap"):
        for q in (0.5, 1.0, 2.0):  # inside (0, (p-1) chi) = (0, 3)
            wh = EST.weak_harnack_ratio(profile, 3, 2.0, q,
                                        radii=(1, 2, 4, 8, 16, 32))
            lm = EST.local_max_principle_ratio(profile, 3, 2.0, q,
                                               radii=(1, 2, 4, 8, 16))
            ok &= wh["pass"] and wh["min_rho"] > 0 and lm["pass"]
            bands.append(max(wh["band"], lm["band"]))
    _report(
        9,
        "weak Harnack / local max principle ratios positive, band <= 1e3",
        ok,
        f"max_band={max(bands):.3g}",
    )


def test_criterion_10_sphere_scan():
    rep = S.bv_sphere_scan(3, 3.0, 1.0, np.round(np.arange(0.2, 3.01, 0.2), 10))
    unique = (
        rep["hypotheses"]["within_theorem"]
        and len(rep["regular_u0"]) == 1
        and abs(rep["regular_u0"][0] - 1.0) <= 1e-6
    )
    crit = S.bv_sphere_scan(3, 5.0, 0.75, np.round(np.arange(0.2, 1.4, 0.15), 10))
    boundary = (not crit["hypotheses"]["within_theorem"]) and crit[
        "nonconstant_regular_found"
    ]
    _report(
        10,
        "sphere scan: unique constant at (3,3,1); nonconstant family flagged at the boundary",
        unique and boundary,
        f"found={rep['regular_u0']} boundary_regular={len(crit['regular_u0'])}",
    )


def test_criterion_11_exponent_exactness():
    exact = all(
        EXP.critical_exponent(n, 2.0) == (n + 2) / (n - 2) for n in range(3, 11)
    )
    infinities = all(
        EXP.critical_exponent(n, p) == math.inf
        for n in (2, 3, 4, 6)
        for p in (float(n), n + 0.5, 2.0 * n)
    )
    finites = all(
        EXP.critical_exponent(n, p) < math.inf
        for n, p in [(3, 2.9), (4, 3.99), (2, 1.5)]
    )
    _report(
        11,
        "critical exponent exact rational agreement and exact infinities",
        exact and infinities and finites,
    )


def test_criterion_12_determinism(identity_suite):
    report, _ = identity_suite
    rerun = _run_identity_suite()
    same = report.to_json().encode() == rerun.to_json().encode()
    _report(12, "criterion-1 reports byte-identical across reruns", same)
