"""The benchmark's workloads.

A workload is a list of steps.  A step makes one call into emdenlab; after
the timed pass, its ``outcomes`` turn what the call returned into one or
more operations, each a named result dict with the rules the checker
judges it by.  Every emdenlab function is looked up on its module at call
time, so the traced run's wrappers see every call.

Why each workload exists:

* ``identity-campaign`` -- the acceptance criterion-1 grid: small-batch
  dual-number dispatch (Taylor jets, the divergence engines) on N ~ 250
  sample batches.  The shooting layer is idle.
* ``identity-euclid-n6`` -- the same five checks on R^6, where einsum on
  (N, 6, 6, 6) tensors dominates: a change trading Python dispatch for
  tensor traffic shows differently here.
* ``jet-inequality`` -- acceptance criteria 2 and 3: the jet algebra at
  N = 1e5, the only memory-heavy workload; no fields, Taylor, divergence
  or shooting work.
* ``radial-solves`` -- one-dimensional solves driven by scalar Python
  callbacks: the CLI dichotomy scan with its trajectory re-shoot, bubble
  matching, the sphere scan, solution identities and the estimate
  quadratures (criteria 6, 7 and 9).  The identity layers are idle.  Its
  grid is fixed by the acceptance criteria, so the seed does not change it.
"""

from __future__ import annotations

import importlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checker as C


@dataclass(frozen=True)
class Outcome:
    """One judged operation."""

    name: str
    result: dict
    rules: tuple = ()
    needs_pass: bool = True


@dataclass(frozen=True)
class Step:
    """One call into emdenlab and the operations it yields."""

    name: str
    call: Callable[[], object]
    outcomes: Callable[[object], list]


@dataclass(frozen=True)
class Workload:
    """The emdenlab modules a workload imports, and the function that
    makes its steps: build(seed, workdir) -> (steps, prepares), where
    each prepare runs untimed before every pass."""

    modules: tuple
    build: Callable


def _mod(name):
    return importlib.import_module(f"emdenlab.{name}")


def _single(name, rules=()):
    """Outcome maker for a call that returns one report or dict."""

    def outcomes(res):
        result = res.to_dict() if hasattr(res, "to_dict") else res
        return [Outcome(name, result, tuple(rules))]

    return outcomes


# ----------------------------------------------------------------------
# identity campaigns
# ----------------------------------------------------------------------

CHECKS = (
    "check_decomposition",
    "check_flux_advection",
    "check_bochner_vector",
    "check_bochner_linearized",
    "check_weighted_identity",
)
IDENTITY_TOL = 1e-7
IDENTITY_PS = (1.5, 2.0, 3.0)


def _campaign_steps(models, dims, seed):
    I = _mod("identities")
    steps = []
    for dim in dims:
        for model in models:
            camp = I.Campaign(model_name=model, dim=dim, p_values=IDENTITY_PS,
                              samples=1000, seed=seed)
            for check in CHECKS:
                name = f"{check}[{model},n={dim}]"
                steps.append(Step(
                    name,
                    lambda check=check, camp=camp: getattr(I, check)(camp, tol=IDENTITY_TOL),
                    _single(name, [C.at_most("max_rel_residual", IDENTITY_TOL)]),
                ))
    return steps


def identity_campaign(seed, workdir):
    return _campaign_steps(("euclidean", "sphere", "hyperbolic"), (2, 3, 4), seed), []


def identity_euclid_n6(seed, workdir):
    return _campaign_steps(("euclidean",), (6,), seed), []


# ----------------------------------------------------------------------
# jet inequalities
# ----------------------------------------------------------------------


def _p2_equality(I, J, seed):
    """Criterion 2's p = 2 equality case: tr(M^2) = |M|^2 to 1e-12."""
    np = importlib.import_module("numpy")
    rng = np.random.Generator(np.random.Philox(seed))
    u, g, h = I.random_jets(rng, 3, 100_000)
    m = J.traceless(J.weighted_flux_jacobian(u, g, h, 2.0, 1.0, check=False))
    fr = J.frobenius_sq(m)
    gap = float(np.max(np.abs(fr - J.trace_product(m)) / (fr + 1e-30)))
    return {"identity_id": "trace_p2_equality", "samples": 100_000,
            "max_rel_residual": gap, "tol": 1e-12, "pass": gap <= 1e-12}


def jet_inequality(seed, workdir):
    I, J = _mod("identities"), _mod("jets")
    margin = [C.at_least("min_margin", -1e-10)]
    steps = [
        Step("trace_inequality",
             lambda: I.check_trace_inequality(
                 n_values=(2, 3, 4), p_values=(1.2, 1.5, 2.0, 3.0, 5.0),
                 b_values=(-2.0, 0.0, 1.0), samples=100_000, seed=seed,
                 tol_neg=1e-10),
             _single("trace_inequality", margin)),
        Step("trace_p2_equality", lambda: _p2_equality(I, J, seed),
             _single("trace_p2_equality", [C.at_most("max_rel_residual", 1e-12)])),
        Step("kato_inequality",
             lambda: I.check_kato(
                 n_values=(2, 3, 4, 6), p_values=(1.5, 2.0, 3.0),
                 samples=100_000, seed=seed, tol_neg=1e-10),
             _single("kato_inequality", margin)),
    ]
    return steps, []


# ----------------------------------------------------------------------
# radial solves
# ----------------------------------------------------------------------

SCAN_POINTS = ((3, 2.0), (4, 3.0), (3, 2.5), (4, 1.5))
SCAN_FACTORS = (0.5, 0.8, 0.9, 0.98, 1.0)
SCAN_U0 = (0.5, 1.0, 2.0)
BUBBLE_POINTS = ((3, 2.0), (5, 3.0), (4, 1.5), (3, 1.3), (6, 1.2))
SPHERE_SCANS = (  # criterion 10: (n, q, lam, u0 grid)
    (3, 3.0, 1.0, ",".join(f"{0.2 * k:.1f}" for k in range(1, 16))),
    (3, 5.0, 0.75, ",".join(f"{0.2 + 0.15 * k:.2f}" for k in range(8))),
)


def _floats_arg(values):
    return ",".join(repr(float(v)) for v in values)


def _read_report(path: Path):
    return json.loads(path.read_text())["results"]


def _scan_step(cli, exponents, n, p, workdir: Path):
    ps = exponents.critical_exponent(n, p)
    alphas = [f * ps for f in SCAN_FACTORS]
    tag = f"scan(n={n},p={p:g})"
    base = workdir / f"scan_n{n}_p{p:g}"
    out, table_csv, trajs = base / "report.json", base / "table.csv", base / "traj"
    argv = ["scan", "--n", str(n), "--p", repr(p), "--alpha", _floats_arg(alphas),
            "--u0", _floats_arg(SCAN_U0), "--horizon", "2000",
            "--trajectories", str(trajs), "--csv", str(table_csv), "--out", str(out)]

    def call():
        return cli.run(argv)

    def outcomes(exit_code):
        table = _read_report(out)[0]
        with open(table_csv) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        csv_outcome = {(float(r[0]), float(r[1])): r[2] for r in rows}
        cell_rule = C.scan_cell(n, p, "pass" in table)
        ops = []
        for cell in table["cells"]:
            key = (cell["alpha"], cell["u0"])

            def files_rule(cell, key=key):
                if csv_outcome.get(key) != cell.get("outcome"):
                    return f"csv outcome {csv_outcome.get(key)!r} differs from report"
                traj = trajs / f"alpha{key[0]:g}_u0{key[1]:g}.csv"
                if not traj.is_file() or traj.stat().st_size == 0:
                    return f"trajectory file {traj.name} missing"
                return None

            factor = cell["alpha"] / ps
            ops.append(Outcome(f"{tag} alpha={factor:.2f}p_s u0={cell['u0']:g}",
                               cell, (cell_rule, files_rule), needs_pass=False))
        return ops

    def prepare():
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)

    return Step(tag, call, outcomes), prepare


def _sphere_step(cli, n, q, lam, grid, workdir: Path):
    tag = f"bv_sphere(n={n},q={q:g},lam={lam:g})"
    out = workdir / f"bv_n{n}_q{q:g}_lam{lam:g}.json"
    argv = ["bv-sphere", "--n", str(n), "--q", repr(q), "--lam", repr(lam),
            "--u0", grid, "--out", str(out)]

    def criterion_10(rep):
        hyp = rep.get("hypotheses", {})
        found = rep.get("regular_u0", [])
        if hyp.get("within_theorem"):
            if len(found) != 1 or abs(found[0] - rep["constant_value"]) > 1e-6:
                return f"regular_u0={found} is not the unique constant solution"
        elif not rep.get("nonconstant_regular_found"):
            return "nonconstant family at the boundary not flagged"
        return None

    return Step(tag, lambda: cli.run(argv),
                lambda exit_code: [Outcome(tag, _read_report(out)[0], (criterion_10,))])


def radial_solves(seed, workdir):
    cli, S, E = _mod("cli"), _mod("shooting"), _mod("exponents")
    I, EST, G = _mod("identities"), _mod("estimates"), _mod("geometry")
    np = importlib.import_module("numpy")
    steps, prepares = [], []
    for n, p in SCAN_POINTS:
        step, prepare = _scan_step(cli, E, n, p, workdir)
        steps.append(step)
        prepares.append(prepare)

    grid = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 500)])
    for n, p in BUBBLE_POINTS:
        name = f"bubble_match(n={n},p={p:g})"
        steps.append(Step(name, lambda n=n, p=p: S.bubble_match(n, p, 1.0, horizon=20.0),
                          _single(name, [C.at_most("max_rel_residual", 1e-6)])))
        name = f"emden_residual(n={n},p={p:g})"
        steps.append(Step(name, lambda n=n, p=p: E.emden_residual(n, p, 1.0, grid),
                          _single(name, [C.at_most("max_rel_residual", 1e-8)])))

    for n, q, lam, u0_grid in SPHERE_SCANS:
        steps.append(_sphere_step(cli, n, q, lam, u0_grid, workdir))

    for n in (2, 3, 4):
        name = f"solution_identity(n={n})"
        steps.append(Step(
            name,
            lambda n=n: I.check_solution_identity(
                S.solve_dense(G.euclidean(n), 2.0, E.ReactionTerm.pure_power(3.0),
                              1.0, horizon=50.0),
                tol=1e-6),
            _single(name, [C.at_most("max_rel_residual", 1e-6)])))

    name = "log_gradient_pointwise"  # criterion 6
    steps.append(Step(
        name,
        lambda: I.check_log_gradient_pointwise(
            S.solve_dense(G.euclidean(3), 2.0, E.ReactionTerm.pure_power(2.0), 2.0,
                          horizon=100.0),
            delta0=0.0, lam=2.0, tol_neg=1e-8),
        _single(name, [C.at_least("min_margin", -1e-8)])))

    for n in (2, 3, 4):  # criterion 7
        for p in (1.5, 2.0, 3.0):
            for kappa in (0.25, 1.0, 4.0):
                name = f"global_bound(n={n},p={p:g},kappa={kappa:g})"
                steps.append(Step(
                    name,
                    lambda n=n, p=p, kappa=kappa: EST.global_bound_check(
                        EST.hn_p_harmonic_profile(n, p, kappa), n, p, kappa, 0.0),
                    _single(name, [C.is_true("sharp")])))

    for profile in ("constant", "inverse_sqrt", "smoothed_cap"):  # criterion 9
        for q in (0.5, 1.0, 2.0):
            name = f"weak_harnack({profile},q={q:g})"
            steps.append(Step(
                name,
                lambda profile=profile, q=q: EST.weak_harnack_ratio(
                    profile, 3, 2.0, q, radii=(1, 2, 4, 8, 16, 32)),
                _single(name, [C.at_least("min_rho", 1e-300)])))
            name = f"local_max_principle({profile},q={q:g})"
            steps.append(Step(
                name,
                lambda profile=profile, q=q: EST.local_max_principle_ratio(
                    profile, 3, 2.0, q, radii=(1, 2, 4, 8, 16)),
                _single(name)))

    return steps, prepares


WORKLOADS = {
    "identity-campaign": Workload(("identities", "reports"), identity_campaign),
    "identity-euclid-n6": Workload(("identities", "reports"), identity_euclid_n6),
    "jet-inequality": Workload(("identities", "jets"), jet_inequality),
    "radial-solves": Workload(
        ("cli", "shooting", "exponents", "identities", "estimates", "geometry"),
        radial_solves,
    ),
}
