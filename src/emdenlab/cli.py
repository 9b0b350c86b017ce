"""Command-line entry point: config-driven experiments, JSON reports.

Subcommands: identities, trace-ineq, kato, moser, bubble, scan,
bv-sphere, gradient-bound, harnack, classify, thresholds, volume.

Every run echoes its full configuration into the report, serializes
with sorted keys (byte-identical for identical config, seed and tool
version; wall time goes to stderr only), and exits 0 iff every member
check passed, 1 when a check failed or errored numerically, 2 on usage
or config-schema errors.  A --config JSON file overrides flags; unknown
config keys are rejected.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import estimates, exponents, identities, shooting
from .errors import EmdenLabError
from .geometry import bishop_gromov_check, ball_volume, model_from_name
from .reports import RunReport, TOOL_VERSION


def _floats(text: str):
    """Parse '1,2,3' or 'start:stop:step' into a tuple of floats."""
    text = text.strip()
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        if step <= 0:
            raise argparse.ArgumentTypeError("step must be positive")
        count = int(round((stop - start) / step)) + 1
        vals = [start + i * step for i in range(count) if start + i * step <= stop + 1e-12]
        return tuple(vals)
    return tuple(float(x) for x in text.split(",") if x)


def _ints(text: str):
    return tuple(int(x) for x in text.split(",") if x)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="emdenlab",
        description="verification lab for the p-Laplace Lane-Emden-Fowler equation",
    )
    ap.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", type=Path, default=None, help="JSON report path")
        sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--tol", type=float, default=None,
                        help="override the default tolerance")
        sp.add_argument("--config", type=Path, default=None,
                        help="JSON config file; overrides flags")

    sp = sub.add_parser("identities", help="pointwise identity suite")
    sp.add_argument("--suite", default="all",
                    choices=["all", "decomposition", "advection", "bochner-x",
                             "bochner-p", "weighted", "solution"])
    sp.add_argument("--dim", type=_ints, default=(3,))
    sp.add_argument("--p", type=_floats, default=(1.5, 2.0, 3.0))
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--models", default="euclidean,sphere,hyperbolic")
    sp.add_argument("--a", type=_floats, default=(-2.0, -1.0, 0.0, 1.0, 2.0),
                    help="weight-power grid of the two-parameter identity")
    sp.add_argument("--b", type=_floats, default=(0.0, -1.0, 1.0))
    common(sp)

    sp = sub.add_parser("trace-ineq", help="traceless Jacobian trace inequality")
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--n", type=_ints, default=(2, 3, 4))
    sp.add_argument("--p", type=_floats, default=(1.2, 1.5, 2.0, 3.0, 5.0))
    sp.add_argument("--b", type=_floats, default=(-2.0, 0.0, 1.0))
    common(sp)

    sp = sub.add_parser("kato", help="sharpened Kato-type inequality")
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--n", type=_ints, default=(2, 3, 4, 6))
    sp.add_argument("--p", type=_floats, default=(1.5, 2.0, 3.0))
    common(sp)

    sp = sub.add_parser("moser", help="pointwise log-gradient differential inequality")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--alpha", type=float, default=2.0,
                    help="pure-power reaction exponent")
    sp.add_argument("--delta0", type=float, default=0.0)
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--u0", type=float, default=2.0)
    sp.add_argument("--horizon", type=float, default=50.0)
    common(sp)

    sp = sub.add_parser("bubble", help="critical bubble residual and trajectory match")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--lam", type=_floats, default=(1.0,))
    sp.add_argument("--rmax", type=float, default=20.0)
    common(sp)

    sp = sub.add_parser("scan", help="Liouville dichotomy shooting scan")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--alpha", type=_floats, required=True)
    sp.add_argument("--u0", type=_floats, default=(0.5, 1.0, 2.0))
    sp.add_argument("--horizon", type=float, default=2000.0)
    sp.add_argument("--csv", type=Path, default=None,
                    help="write the scan table as CSV")
    sp.add_argument("--trajectories", type=Path, default=None,
                    help="directory for per-cell trajectory CSVs (r,u,uprime,m)")
    common(sp)

    sp = sub.add_parser("bv-sphere", help="closed-manifold uniqueness scan")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--q", type=float, default=3.0)
    sp.add_argument("--lam", type=float, default=1.0)
    sp.add_argument("--u0", type=_floats, default=None,
                    help="grid of center values (default 0.2:3.0:0.2)")
    common(sp)

    sp = sub.add_parser("gradient-bound", help="global log-gradient bound sharpness")
    sp.add_argument("--n", type=_ints, default=(3,))
    sp.add_argument("--p", type=_floats, default=(2.0,))
    sp.add_argument("--kappa", type=_floats, default=(1.0,))
    sp.add_argument("--delta0", type=float, default=0.0)
    sp.add_argument("--rtail", type=float, default=None)
    sp.add_argument("--csv", type=Path, default=None,
                    help="write the profile grid as CSV")
    common(sp)

    sp = sub.add_parser("harnack", help="weak Harnack / local max principle ratios")
    sp.add_argument("--profile", default="inverse_sqrt",
                    choices=["constant", "inverse_sqrt", "smoothed_cap"])
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--radii", type=_floats, default=(1, 2, 4, 8, 16, 32))
    sp.add_argument("--principle", default="both",
                    choices=["weak-harnack", "local-max", "both"])
    common(sp)

    sp = sub.add_parser("classify", help="Liouville classifier")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--sign", default="positive",
                    choices=["nonnegative", "positive", "nonpositive", "mixed"])
    sp.add_argument("--pure-power", action="store_true", default=True)
    sp.add_argument("--no-pure-power", dest="pure_power", action="store_false")
    sp.add_argument("--negated-power", action="store_true")
    sp.add_argument("--growth", action="store_true",
                    help="liminf t^{1-p0}|f| > 0 for some p0 > p")
    sp.add_argument("--compact", action="store_true")
    common(sp)

    sp = sub.add_parser("thresholds", help="exponent threshold table")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    common(sp)

    sp = sub.add_parser("volume", help="ball volumes and volume comparison")
    sp.add_argument("--model", default="euclidean",
                    choices=["euclidean", "sphere", "hyperbolic"])
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--kappa", type=float, default=1.0)
    sp.add_argument("--radii", type=_floats, default=(0.5, 1.0, 2.0))
    common(sp)

    return ap


_CONFIG_EXCLUDE = {"out", "config", "command", "csv", "trajectories"}


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Overlay a JSON config file onto parsed flags; reject unknown keys."""
    if args.config is None:
        return
    try:
        loaded = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config: {exc}")
    known = {k for k in vars(args) if k not in _CONFIG_EXCLUDE}
    for key, value in loaded.items():
        dest = key.replace("-", "_")
        if dest not in known:
            parser.error(f"unknown config field {key!r}")
        if isinstance(value, list):
            value = tuple(value)
        setattr(args, dest, value)


def _config_echo(args: argparse.Namespace) -> dict:
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in ("out", "config", "csv", "trajectories"):
            continue
        if isinstance(val, Path):
            val = str(val)
        if isinstance(val, tuple):
            val = list(val)
        out[key] = val
    return out


def _emit(report: RunReport, out_path, wall: float) -> int:
    text = report.to_json()
    if out_path is not None:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"[emdenlab] pass={report.passed} wall={wall:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------


def _tol(args, name: str = "tol") -> dict:
    """--tol as the keyword `name`, or nothing when --tol is unset, so each
    check's default tolerance lives only in its own signature."""
    return {} if args.tol is None else {name: args.tol}


def _run_identities(args) -> RunReport:
    results = []
    tol = _tol(args)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    for dim in args.dim:
        for model in models:
            camp = identities.Campaign(
                model_name=model, dim=dim, p_values=tuple(args.p),
                b_values=tuple(args.b), samples=args.samples, seed=args.seed,
            )
            if args.suite in ("all", "decomposition"):
                results.append(identities.check_decomposition(camp, **tol))
            if args.suite in ("all", "advection"):
                results.append(identities.check_flux_advection(camp, **tol))
            if args.suite in ("all", "bochner-x"):
                results.append(identities.check_bochner_vector(camp, **tol))
            if args.suite in ("all", "bochner-p"):
                results.append(identities.check_bochner_linearized(camp, **tol))
            if args.suite in ("all", "weighted"):
                results.append(
                    identities.check_weighted_identity(
                        camp, a_values=tuple(args.a), b_values=tuple(args.b), **tol
                    )
                )
    if args.suite in ("all", "solution"):
        for dim in args.dim:
            model = model_from_name("euclidean", dim)
            term = exponents.ReactionTerm.pure_power(3.0)
            sol = shooting.solve_dense(model, 2.0, term, 1.0, horizon=50.0)
            results.append(identities.check_solution_identity(sol, **tol))
    return RunReport(config=_config_echo(args), results=results)


def _run_trace(args) -> RunReport:
    rep = identities.check_trace_inequality(
        n_values=args.n, p_values=args.p, b_values=args.b,
        samples=args.samples, seed=args.seed, **_tol(args, "tol_neg"),
    )
    return RunReport(config=_config_echo(args), results=[rep])


def _run_kato(args) -> RunReport:
    rep = identities.check_kato(
        n_values=args.n, p_values=args.p, samples=args.samples,
        seed=args.seed, **_tol(args, "tol_neg"),
    )
    return RunReport(config=_config_echo(args), results=[rep])


def _run_moser(args) -> RunReport:
    term = exponents.ReactionTerm.pure_power(args.alpha)
    model = model_from_name("euclidean", args.n)
    sol = shooting.solve_dense(model, args.p, term, args.u0, horizon=args.horizon)
    rep = identities.check_log_gradient_pointwise(
        sol, args.delta0, lam=args.lam, **_tol(args, "tol_neg"),
    )
    return RunReport(config=_config_echo(args), results=[rep])


def _run_bubble(args) -> RunReport:
    results = []
    grid = np.concatenate([[0.0], np.geomspace(1e-3, args.rmax, 400)])
    for lam in args.lam:
        results.append(exponents.emden_residual(args.n, args.p, lam, grid))
        results.append(shooting.bubble_match(args.n, args.p, lam, horizon=args.rmax))
    return RunReport(config=_config_echo(args), results=results)


def _run_scan(args) -> RunReport:
    write_trajectory = None
    if args.trajectories is not None:
        outdir = Path(args.trajectories)
        outdir.mkdir(parents=True, exist_ok=True)

        def write_trajectory(alpha, u0, out):
            traj = out.trajectory
            with open(outdir / f"alpha{alpha:g}_u0{u0:g}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["r", "u", "uprime", "m"])
                writer.writerows(zip(traj["r"], traj["u"], traj["uprime"], traj["m"]))

    table = shooting.liouville_scan(
        args.n, args.p, args.alpha, args.u0, horizon=args.horizon,
        on_cell=write_trajectory,
    )
    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "u0", "outcome", "r_cross"])
            for cell in table["cells"]:
                writer.writerow(
                    [cell["alpha"], cell["u0"], cell["outcome"],
                     cell.get("r_cross", "")]
                )
    ps = table["critical_exponent"]
    ok = bool(table["cells"]) and all(
        (c["outcome"] == "crossed_zero") == (c["alpha"] < ps)
        for c in table["cells"]
        if c["outcome"] != "error"
    ) and not any(c["outcome"] == "error" for c in table["cells"])
    table["pass"] = ok
    return RunReport(config=_config_echo(args), results=[table])


def _run_bv_sphere(args) -> RunReport:
    grid = args.u0
    if grid is None:
        grid = tuple(np.round(np.arange(0.2, 3.01, 0.2), 10))
    rep = shooting.bv_sphere_scan(args.n, args.q, args.lam, grid)
    if rep["hypotheses"]["within_theorem"]:
        const = rep["constant_value"]
        rep["pass"] = bool(
            len(rep["regular_u0"]) == 1
            and abs(rep["regular_u0"][0] - const) <= 1e-6 * (1.0 + const)
        )
    else:
        rep["flag"] = "outside theorem hypotheses (exploration mode)"
        rep["pass"] = bool(rep["cells"])
    return RunReport(config=_config_echo(args), results=[rep])


def _run_gradient_bound(args) -> RunReport:
    results = []
    csv_rows = []
    for n in args.n:
        for p in args.p:
            for kappa in args.kappa:
                prof = estimates.hn_p_harmonic_profile(
                    n, p, kappa, r_tail=args.rtail
                )
                chk = estimates.global_bound_check(prof, n, p, kappa, args.delta0)
                chk.update({"n": n, "p": p, "kappa": kappa,
                            "residual_max": prof.residual_max})
                results.append(chk)
                csv_rows.extend(
                    (n, p, kappa, r, u, g)
                    for r, u, g in zip(prof.grid, prof.u, prof.g)
                )
    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "p", "kappa", "r", "u", "loggrad"])
            writer.writerows(csv_rows)
    return RunReport(config=_config_echo(args), results=results)


def _run_harnack(args) -> RunReport:
    results = []
    if args.principle in ("weak-harnack", "both"):
        results.append(
            estimates.weak_harnack_ratio(args.profile, args.n, args.p, args.q,
                                         radii=args.radii)
        )
    if args.principle in ("local-max", "both"):
        results.append(
            estimates.local_max_principle_ratio(args.profile, args.n, args.p,
                                                args.q, radii=args.radii)
        )
    return RunReport(config=_config_echo(args), results=results)


def _run_classify(args) -> RunReport:
    verdict = exponents.classify_liouville(
        args.n, args.p, args.alpha, sign=args.sign,
        pure_power=args.pure_power, negated_power=args.negated_power,
        has_liminf_growth=args.growth, compact=args.compact,
    )
    rep = {
        "verdict": verdict.verdict,
        "theorems": list(verdict.theorems),
        "theorem": verdict.theorem_tag,
        "notes": list(verdict.notes),
        "pass": True,
    }
    return RunReport(config=_config_echo(args), results=[rep])


def _run_thresholds(args) -> RunReport:
    rows = [
        {
            "name": rec.name,
            "value": rec.value if rec.value != float("inf") else "inf",
            "validity": rec.validity,
            "valid": rec.valid,
        }
        for rec in exponents.threshold_table(args.n, args.p)
    ]
    return RunReport(config=_config_echo(args),
                     results=[{"table": rows, "pass": True}])


def _run_volume(args) -> RunReport:
    model = model_from_name(args.model, args.dim, args.kappa)
    vols = [
        {"R": r, "volume": ball_volume(model, r)} for r in args.radii
    ]
    results = [{"volumes": vols, "pass": bool(vols)}]
    if model.has_nonnegative_ricci and len(args.radii) >= 2:
        comparison = bishop_gromov_check(model, args.radii)
        comparison["pass"] = comparison["non_increasing"]
        results.append(comparison)
    return RunReport(config=_config_echo(args), results=results)


_HANDLERS = {
    "identities": _run_identities,
    "trace-ineq": _run_trace,
    "kato": _run_kato,
    "moser": _run_moser,
    "bubble": _run_bubble,
    "scan": _run_scan,
    "bv-sphere": _run_bv_sphere,
    "gradient-bound": _run_gradient_bound,
    "harnack": _run_harnack,
    "classify": _run_classify,
    "thresholds": _run_thresholds,
    "volume": _run_volume,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(args, parser)
    start = time.perf_counter()
    try:
        report = _HANDLERS[args.command](args)
    except EmdenLabError as exc:
        report = RunReport(
            config=_config_echo(args),
            results=[{"error": f"{type(exc).__name__}: {exc}", "pass": False}],
        )
    wall = time.perf_counter() - start
    report.wall_time_s = wall
    return _emit(report, args.out, wall)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
