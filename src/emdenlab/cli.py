"""Command-line entry point: config-driven experiments, JSON reports.

Subcommands: identities, trace-ineq, kato, moser, bubble, scan,
bv-sphere, gradient-bound, harnack, classify, thresholds, volume.

Each subcommand takes only the flags its handler reads.  Every run
echoes its full configuration into the report, serializes with sorted
keys (byte-identical for identical config, seed and tool version; wall
time goes to stderr only), and exits 0 iff every member check passed,
1 when a check failed or errored numerically, 2 on usage or
config-schema errors.  A --config JSON file overrides flags; each value
goes through its flag's own type and choices, and unknown keys are
rejected.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

# without cached bytecode every import compiles its source, and a
# compile's transient memory grows with the source: after numpy,
# identities.py takes ~2.1 MB, shooting.py ~1.9 MB and dop853.py (which
# shooting imports) ~1.5 MB.  Compiling the largest first, while the heap
# is smallest, can lower a radial run's peak RSS; here identities first
# and shooting first read the same peak (six alternated 4-s
# radial-solves workers each), so shooting stays first
from . import shooting
from . import estimates, exponents, identities
from .errors import EmdenLabError, PreconditionError
from .geometry import bishop_gromov_check, ball_volume, model_from_name
from .reports import RunReport, TOOL_VERSION


#: the most values a 'start:stop:step' range may list
MAX_RANGE_VALUES = 10_000


def _floats(text: str):
    """Parse '1,2,3' or 'start:stop:step' into a tuple of finite floats.
    A range takes finite bounds and step, and lists at most
    MAX_RANGE_VALUES values; both are checked before any value is
    formed."""
    text = text.strip()
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        if not all(map(math.isfinite, (start, stop, step))):
            raise argparse.ArgumentTypeError("range bounds and step must be finite")
        if step <= 0:
            raise argparse.ArgumentTypeError("step must be positive")
        steps = (stop - start) / step
        if not (math.isfinite(steps) and steps < MAX_RANGE_VALUES - 0.5):
            raise argparse.ArgumentTypeError(
                f"a range lists at most {MAX_RANGE_VALUES} values")
        count = int(round(steps)) + 1
        vals = [start + i * step for i in range(count) if start + i * step <= stop + 1e-12]
        return tuple(vals)
    vals = tuple(float(x) for x in text.split(",") if x)
    if not all(map(math.isfinite, vals)):
        raise argparse.ArgumentTypeError("values must be finite")
    return vals


def _ints(text: str):
    return tuple(int(x) for x in text.split(",") if x)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not
    change it, so every run shares it."""
    ap = argparse.ArgumentParser(
        prog="emdenlab",
        description="verification lab for the p-Laplace Lane-Emden-Fowler equation",
    )
    ap.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, seed=False, tol=False):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--out", type=Path, default=None, help="JSON report path")
        sp.add_argument("--config", type=Path, default=None,
                        help="JSON config file; overrides flags")
        if seed:
            sp.add_argument("--seed", type=int, default=42)
        if tol:
            sp.add_argument("--tol", type=float, default=None,
                            help="override the default tolerance")
        return sp

    sp = command("identities", "pointwise identity suite", seed=True, tol=True)
    sp.add_argument("--suite", default="all", choices=["all", *_SUITES])
    sp.add_argument("--dim", type=_ints, default=(3,))
    sp.add_argument("--p", type=_floats, default=(1.5, 2.0, 3.0))
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--models", default="euclidean,sphere,hyperbolic")
    sp.add_argument("--a", type=_floats, default=identities.AB_GRID,
                    help="weight-power grid of the weighted and solution suites")
    sp.add_argument("--b", type=_floats, default=identities.AB_GRID,
                    help="weight-power grid of the bochner-x, weighted and solution suites")

    sp = command("trace-ineq", "traceless Jacobian trace inequality",
                 seed=True, tol=True)
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--n", type=_ints, default=(2, 3, 4))
    sp.add_argument("--p", type=_floats, default=(1.2, 1.5, 2.0, 3.0, 5.0))
    sp.add_argument("--b", type=_floats, default=(-2.0, 0.0, 1.0))

    sp = command("kato", "sharpened Kato-type inequality", seed=True, tol=True)
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--n", type=_ints, default=(2, 3, 4, 6))
    sp.add_argument("--p", type=_floats, default=(1.5, 2.0, 3.0))

    sp = command("moser", "pointwise log-gradient differential inequality", tol=True)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--alpha", type=float, default=2.0,
                    help="pure-power reaction exponent")
    sp.add_argument("--delta0", type=float, default=0.0)
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--u0", type=float, default=2.0)
    sp.add_argument("--horizon", type=float, default=50.0)

    sp = command("bubble", "critical bubble residual and trajectory match")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--lam", type=_floats, default=(1.0,))
    sp.add_argument("--rmax", type=float, default=20.0)

    sp = command("scan", "Liouville dichotomy shooting scan")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--alpha", type=_floats, required=True)
    sp.add_argument("--u0", type=_floats, default=(0.5, 1.0, 2.0))
    sp.add_argument("--horizon", type=float, default=2000.0)
    sp.add_argument("--csv", type=Path, default=None,
                    help="write the scan table as CSV")
    sp.add_argument("--trajectories", type=Path, default=None,
                    help="directory for per-cell trajectory CSVs (r,u,uprime,m)")

    sp = command("bv-sphere", "closed-manifold uniqueness scan")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--q", type=float, default=3.0)
    sp.add_argument("--lam", type=float, default=1.0)
    sp.add_argument("--u0", type=_floats, default=None,
                    help="grid of center values (default 0.2:3.0:0.2)")

    sp = command("gradient-bound", "global log-gradient bound sharpness")
    sp.add_argument("--n", type=_ints, default=(3,))
    sp.add_argument("--p", type=_floats, default=(2.0,))
    sp.add_argument("--kappa", type=_floats, default=(1.0,))
    sp.add_argument("--delta0", type=float, default=0.0)
    sp.add_argument("--rtail", type=float, default=None)
    sp.add_argument("--csv", type=Path, default=None,
                    help="write the profile grid as CSV")

    sp = command("harnack", "weak Harnack / local max principle ratios")
    sp.add_argument("--profile", default="inverse_sqrt",
                    choices=["constant", "inverse_sqrt", "smoothed_cap"])
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--radii", type=_floats, default=(1, 2, 4, 8, 16, 32))
    sp.add_argument("--principle", default="both",
                    choices=["weak-harnack", "local-max", "both"])

    sp = command("classify", "Liouville classifier")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--sign", default="positive",
                    choices=["nonnegative", "positive", "nonpositive", "mixed"])
    sp.add_argument("--no-pure-power", dest="pure_power", action="store_false")
    sp.add_argument("--negated-power", action="store_true")
    sp.add_argument("--growth", action="store_true",
                    help="liminf t^{1-p0}|f| > 0 for some p0 > p")
    sp.add_argument("--compact", action="store_true")

    sp = command("thresholds", "exponent threshold table")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)

    sp = command("volume", "ball volumes and volume comparison")
    sp.add_argument("--model", default="euclidean",
                    choices=["euclidean", "sphere", "hyperbolic"])
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--kappa", type=float, default=1.0,
                    help="the sphere's curvature K or H^n's kappa; must be > 0")
    sp.add_argument("--radii", type=_floats, default=(0.5, 1.0, 2.0))

    return ap


#: flags that name files: neither config fields nor echoed into the report
_PATH_FLAGS = ("out", "config", "csv", "trajectories")


def _config_value(flag: argparse.Action, value):
    """A JSON config value as its flag would parse it: a switch takes true
    or false, any other flag a string, number or list (read as the
    comma-separated form) through its own type and choices."""
    if flag.nargs == 0:
        if not isinstance(value, bool):
            raise ValueError("expected true or false")
        return value
    if isinstance(value, list):
        value = ",".join(map(str, value))
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError("expected a string, number or list")
    value = flag.type(str(value)) if flag.type else str(value)
    if flag.choices is not None and value not in flag.choices:
        raise ValueError(f"choose from {', '.join(flag.choices)}")
    return value


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Overlay a JSON config file onto parsed flags; an unknown key or a
    value its flag rejects is a usage error."""
    if args.config is None:
        return
    try:
        loaded = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config: {exc}")
    if not isinstance(loaded, dict):
        parser.error("config must be a JSON object")
    [commands] = [a for a in parser._actions if a.dest == "command"]
    sp = commands.choices[args.command]
    flags = {a.dest: a for a in sp._actions
             if a.dest in vars(args) and a.dest not in _PATH_FLAGS}
    for key, value in loaded.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            sp.error(f"unknown config field {key!r}")
        try:
            setattr(args, flag.dest, _config_value(flag, value))
        except (argparse.ArgumentTypeError, ValueError) as exc:
            sp.error(f"config field {key!r}: invalid value {value!r} ({exc})")


def _config_echo(args: argparse.Namespace) -> dict:
    return {key: list(val) if isinstance(val, tuple) else val
            for key, val in vars(args).items() if key not in _PATH_FLAGS}


def _emit(report: RunReport, out_path, wall: float) -> int:
    text = report.to_json()
    if out_path is not None:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"[emdenlab] pass={report.passed} wall={wall:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


# ----------------------------------------------------------------------
# handlers: each returns the run's result list
# ----------------------------------------------------------------------


def _tol(args, name: str = "tol") -> dict:
    """--tol as the keyword `name`, or nothing when --tol is unset, so each
    check's default tolerance lives only in its own signature."""
    return {} if args.tol is None else {name: args.tol}


def _check_solution(dim, args):
    """The solution identity on the radial solution of -lap u = u^3, u(0) = 1,
    on R^dim."""
    term = exponents.ReactionTerm.pure_power(3.0)
    sol = shooting.solve_dense(model_from_name("euclidean", dim), 2.0, term, 1.0,
                               horizon=50.0)
    return identities.check_solution_identity(
        sol, a_values=args.a, b_values=args.b, **_tol(args))


def _per_campaign(check):
    return lambda camp, args: check(camp, **_tol(args))


#: --suite name -> its check: check(campaign, args) on every (dim, model)
#: campaign, except "solution", which runs check(dim, args) once per dim
#: after all campaigns
_SUITES = {
    "decomposition": _per_campaign(identities.check_decomposition),
    "advection": _per_campaign(identities.check_flux_advection),
    "bochner-x": lambda camp, args: identities.check_bochner_vector(
        camp, b_values=args.b, **_tol(args)),
    "bochner-p": _per_campaign(identities.check_bochner_linearized),
    "weighted": lambda camp, args: identities.check_weighted_identity(
        camp, a_values=args.a, b_values=args.b, **_tol(args)),
    "solution": _check_solution,
}


def _run_identities(args) -> list:
    suites = [name for name in _SUITES if args.suite in ("all", name)]
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    results = []
    for dim in args.dim:
        for model in models:
            camp = identities.Campaign(
                model_name=model, dim=dim, p_values=args.p,
                samples=args.samples, seed=args.seed,
            )
            results.extend(_SUITES[s](camp, args) for s in suites if s != "solution")
    if "solution" in suites:
        results.extend(_check_solution(dim, args) for dim in args.dim)
    return results


def _run_trace(args) -> list:
    return [identities.check_trace_inequality(
        n_values=args.n, p_values=args.p, b_values=args.b,
        samples=args.samples, seed=args.seed, **_tol(args, "tol_neg"),
    )]


def _run_kato(args) -> list:
    return [identities.check_kato(
        n_values=args.n, p_values=args.p, samples=args.samples,
        seed=args.seed, **_tol(args, "tol_neg"),
    )]


def _run_moser(args) -> list:
    term = exponents.ReactionTerm.pure_power(args.alpha)
    model = model_from_name("euclidean", args.n)
    sol = shooting.solve_dense(model, args.p, term, args.u0, horizon=args.horizon)
    return [identities.check_log_gradient_pointwise(
        sol, args.delta0, lam=args.lam, **_tol(args, "tol_neg"),
    )]


def _run_bubble(args) -> list:
    if not args.rmax > 0:
        raise PreconditionError("rmax must be positive")
    results = []
    grid = np.concatenate([[0.0], np.geomspace(1e-3, args.rmax, 400)])
    for lam in args.lam:
        results.append(exponents.emden_residual(args.n, args.p, lam, grid))
        results.append(shooting.bubble_match(args.n, args.p, lam, horizon=args.rmax))
    return results


def _trajectory_names(alphas, u0s) -> dict:
    """The trajectory file name of every (alpha, u0) cell.  Two distinct
    cells that share a name would write one file, so that is an error."""
    names, cells = {}, {}
    for alpha in map(float, alphas):
        for u0 in map(float, u0s):
            name = f"alpha{alpha:g}_u0{u0:g}.csv"
            other = cells.setdefault(name, (alpha, u0))
            if other != (alpha, u0):
                raise PreconditionError(
                    f"cells (alpha, u0) = ({other[0]!r}, {other[1]!r}) and "
                    f"({alpha!r}, {u0!r}) share the trajectory file {name}"
                )
            names[alpha, u0] = name
    return names


def _run_scan(args) -> list:
    write_trajectory = None
    if args.trajectories is not None:
        names = _trajectory_names(args.alpha, args.u0)
        outdir = Path(args.trajectories)
        outdir.mkdir(parents=True, exist_ok=True)

        def write_trajectory(alpha, u0, out):
            # the bytes csv.writer writes: a float row is its reprs, unquoted
            traj = out.trajectory
            rows = np.column_stack((traj["r"], traj["u"], traj["uprime"], traj["m"]))
            with open(outdir / names[alpha, u0], "w", newline="") as fh:
                fh.write("r,u,uprime,m\r\n")
                fh.write("%r,%r,%r,%r\r\n" * len(rows) % tuple(rows.ravel().tolist()))

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
    return [table]


def _run_bv_sphere(args) -> list:
    grid = args.u0
    if grid is None:
        grid = tuple(np.round(np.arange(0.2, 3.01, 0.2), 10))
    return [shooting.bv_sphere_scan(args.n, args.q, args.lam, grid)]


def _run_gradient_bound(args) -> list:
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
    return results


def _run_harnack(args) -> list:
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
    return results


def _run_classify(args) -> list:
    verdict = exponents.classify_liouville(
        args.n, args.p, args.alpha, sign=args.sign,
        pure_power=args.pure_power, negated_power=args.negated_power,
        has_liminf_growth=args.growth, compact=args.compact,
    )
    return [{
        "verdict": verdict.verdict,
        "theorems": list(verdict.theorems),
        "theorem": verdict.theorem_tag,
        "notes": list(verdict.notes),
        "pass": True,
    }]


def _run_thresholds(args) -> list:
    rows = [
        {
            "name": rec.name,
            "value": rec.value if rec.value != float("inf") else "inf",
            "validity": rec.validity,
            "valid": rec.valid,
        }
        for rec in exponents.threshold_table(args.n, args.p)
    ]
    return [{"table": rows, "pass": True}]


def _run_volume(args) -> list:
    model = model_from_name(args.model, args.dim, args.kappa)
    vols = [
        {"R": r, "volume": ball_volume(model, r)} for r in args.radii
    ]
    results = [{"volumes": vols, "pass": bool(vols)}]
    if model.has_nonnegative_ricci and len(args.radii) >= 2:
        comparison = bishop_gromov_check(model, args.radii)
        comparison["pass"] = comparison["non_increasing"]
        results.append(comparison)
    return results


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
        results = _HANDLERS[args.command](args)
    except EmdenLabError as exc:
        results = [{"error": f"{type(exc).__name__}: {exc}", "pass": False}]
    report = RunReport(config=_config_echo(args), results=results)
    return _emit(report, args.out, time.perf_counter() - start)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
