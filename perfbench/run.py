"""Run one workload of the emdenlab benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload identity-campaign --seed 42 \\
        --seconds 45 --trace 0

Workloads: identity-campaign, identity-euclid-n6, jet-inequality,
radial-solves (see workloads.py for why each exists).

With ``--trace 0`` the run starts fresh worker interpreters one after
another (never two at once) and reports the end-to-end metrics:

* ``setup_s``       -- import of the workload's emdenlab modules in a
                       fresh interpreter, median over the workers;
* ``cold_pass_ref`` -- the first full pass in that interpreter;
* ``pass_ref``      -- a warm full pass (the time to the workload's
                       verdict);
* ``ok_share``      -- operations that passed the fail-closed checker
                       over operations attempted;
* ``peak_rss_mb``   -- peak resident memory of a worker, median.

The two pass metrics are in machine-speed units (reference.py): each
step's time over the reference kernel's time per call right after it,
summed over the steps, each step at its median.  Raw seconds are printed
and recorded beside them.

With ``--trace 1`` one worker alternates untraced and traced warm passes
and the run reports the per-layer metrics (tracer.py), including
``trace.overhead_s``, the traced pass minus the untraced one.

Every operation is judged by checker.py and its canonical
``RunReport.to_json()`` digested with sha256; a digest or verdict that
differs between passes makes the run incorrect.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment,
every sample, every digest, every failing operation) goes to
``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ".perfbench"
WORKERS = 4
HARD_LIMIT_S = 170.0  # a run must end within 180 s, workers included
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)

sys.path.insert(0, str(HERE))
import checker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spawn(args: dict, budget: float, timeout: float) -> dict:
    """Run one worker interpreter to completion; returns its JSON record.

    On timeout the worker is killed and waited for, and the run fails.
    """
    payload = json.dumps(dict(args, root=str(ROOT), budget=budget))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), payload],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _sum_of_medians(passes) -> float:
    """A pass's cost as the sum over steps of each step's median cost.

    A step's median over the run's passes is moved by a slow moment only
    if most of its repeats fall in one, so the sum is steadier than the
    median of whole passes.
    """
    return sum(statistics.median(step) for step in zip(*passes))


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _compare_passes(records) -> tuple:
    """Check that every pass of every worker agrees; returns
    (reference pass, attempted, failed, mismatches)."""
    reference = records[0]["passes"][0]
    attempted = failed = 0
    mismatches = []
    for w, record in enumerate(records):
        for k, ops in enumerate(record["passes"]):
            attempted += len(ops)
            failed += sum(1 for _, reasons in ops.values() if reasons)
            if ops != reference:
                changed = sorted(set(ops) ^ set(reference)) or sorted(
                    name for name in ops if ops[name] != reference[name])
                mismatches.append(f"worker {w} pass {k}: {', '.join(changed[:5])}")
    return reference, attempted, failed, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "emdenlab" / "__init__.py").is_file():
        print(f"perfbench: no emdenlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checker.self_test()

    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "workdir": f"{OUT_DIR}/work-{tag}", "spans": f"{OUT_DIR}/spans-{tag}.json",
    }
    start = time.perf_counter()
    deadline, hard_deadline = start + args.seconds, start + HARD_LIMIT_S
    n_workers = 1 if args.trace else WORKERS
    records = []
    for i in range(n_workers):
        now = time.perf_counter()
        budget = max((deadline - now) / (n_workers - i), 1.0)
        records.append(_spawn(worker_args, budget, hard_deadline - now))

    reference, attempted, failed, mismatches = _compare_passes(records)
    cold = [r["cold_steps"] for r in records]
    warm = [times for r in records for times in r["warm_steps"]]
    cold_refs = [r["cold_refs"] for r in records]
    warm_refs = [refs for r in records for refs in r["warm_refs"]]
    samples = {
        "setup_s": [r["setup_s"] for r in records],
        "cold_pass_s": [sum(times) for times in cold],
        "pass_s": [sum(times) for times in warm],
        "cold_pass_ref": [sum(refs) for refs in cold_refs],
        "pass_ref": [sum(refs) for refs in warm_refs],
        "peak_rss_mb": [r["rss_mb"] for r in records],
    }
    if args.trace:
        values = records[0]["layers"]
        wanted = spec["per_layer"]
    else:
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["cold_pass_ref"] = _sum_of_medians(cold_refs)
        values["pass_ref"] = _sum_of_medians(warm_refs)
        values["ok_share"] = (attempted - failed) / attempted
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    failing = {name: reasons for name, (_, reasons) in reference.items() if reasons}
    digest = hashlib.sha256(
        "".join(f"{name}\t{d}\n" for name, (d, _) in sorted(reference.items())).encode()
    ).hexdigest()
    env = _environment()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"workers={n_workers} seconds={args.seconds:g}")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, vals in samples.items():
        q1, q3 = _quartiles(vals)
        print(f"  {name:12s} median {statistics.median(vals):.6g}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(vals)}")
    if not args.trace:
        print(f"  step-median sums: cold_pass_ref {values['cold_pass_ref']:.6g}  "
              f"pass_ref {values['pass_ref']:.6g}")
    print(f"  operations   {len(reference)} per pass, {attempted} attempted, "
          f"{failed} failed")
    for name, reasons in failing.items():
        print(f"  FAIL {name}: {'; '.join(reasons)}")
    for line in mismatches:
        print(f"  DIGEST MISMATCH {line}")
    print(f"  operations digest {digest}")

    record = {
        "args": vars(args), "environment": env, "samples": samples,
        "steps": {"cold_s": cold, "warm_s": warm, "cold_ref": cold_refs,
                  "warm_ref": warm_refs},
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "failing": failing, "mismatches": mismatches, "digest": digest,
        "operations": {name: d for name, (d, _) in reference.items()},
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": not mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
