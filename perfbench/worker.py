"""One fresh interpreter of the benchmark: set-up, a cold pass, warm passes.

run.py starts it as ``python3 perfbench/worker.py '<json arguments>'``.
It imports the emdenlab modules the workload uses (timed: set-up), runs
one cold pass, then warm passes until its time budget is spent, judges
and digests every operation of every pass, and prints one JSON object
as its last line of standard output.  Every step is timed in seconds and
in machine-speed units (reference.py).

With ``trace`` set, warm passes alternate untraced and traced; the traced
ones give the per-layer metrics, and the spans of the last traced pass
are written to the ``spans`` path.
"""

import time

STARTED = time.perf_counter()

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checker  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


def _import_workload_modules(root: Path, modules):
    """Import emdenlab from root/src; returns the set-up time in seconds."""
    src = root / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    for name in modules:
        importlib.import_module(f"emdenlab.{name}")
    setup = time.perf_counter() - start
    origin = Path(sys.modules["emdenlab"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"emdenlab imported from {origin}, not from {src}")
    return setup


def _run_pass(steps, prepares, tracer=None):
    """Run every step; returns (seconds per step, ref per step, raw results).

    A step's ref is its time over the reference kernel's time per call,
    measured right after it (see reference.py).  An exception a step
    raises stands in for its result.
    """
    for prepare in prepares:
        prepare()
    raw, times, refs = [], [], []
    if tracer is not None:
        tracer.begin()
    for step in steps:
        start = time.perf_counter()
        try:
            raw.append(step.call())
        except Exception as exc:  # an operation that raises is a failed operation
            raw.append(exc)
        seconds = time.perf_counter() - start
        times.append(seconds)
        refs.append(seconds / reference.seconds_per_call(seconds))
    if tracer is not None:
        tracer.end()
    return times, refs, raw


def _judge_pass(steps, raw, config):
    """Judge and digest every operation: {name: [sha256, reasons]}."""
    from emdenlab.reports import RunReport

    ops = {}
    for step, res in zip(steps, raw):
        if isinstance(res, Exception):
            outcomes = [_error_outcome(step.name, res)]
        else:
            try:
                outcomes = step.outcomes(res)
            except Exception as exc:  # the step's outputs could not be read
                outcomes = [_error_outcome(step.name, exc)]
        for oc in outcomes:
            reasons = checker.judge(oc.result, oc.rules, oc.needs_pass)
            text = RunReport(config=dict(config, operation=oc.name),
                             results=[oc.result]).to_json()
            ops[oc.name] = [hashlib.sha256(text.encode()).hexdigest(), reasons]
    return ops


def _error_outcome(name, exc):
    return Outcome(name, {"error": f"{type(exc).__name__}: {exc}"})


def main():
    args = json.loads(sys.argv[1])
    root, budget = Path(args["root"]), float(args["budget"])
    deadline = STARTED + budget
    workload = WORKLOADS[args["workload"]]
    setup = _import_workload_modules(root, workload.modules)

    tracer = None
    if args["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    workdir = root / args["workdir"]
    steps, prepares = workload.build(args["seed"], workdir)
    config = {"workload": args["workload"], "seed": args["seed"]}

    cold, cold_refs, raw = _run_pass(steps, prepares)
    passes = [_judge_pass(steps, raw, config)]
    warm, warm_refs, traced, layer_runs = [], [], [], []
    while True:
        if tracer is None:
            if warm and time.perf_counter() + 1.1 * sum(warm[-1]) > deadline:
                break
            turns = (None,)
        else:
            if traced and time.perf_counter() + 1.1 * sum(warm[-1]) + traced[-1] > deadline:
                break
            turns = (None, tracer)
        for turn in turns:
            times, refs, raw = _run_pass(steps, prepares, turn)
            passes.append(_judge_pass(steps, raw, config))
            if turn is None:
                warm.append(times)
                warm_refs.append(refs)
            else:
                traced.append(sum(times))
                layer_runs.append(tracer.metrics())

    out = {
        "setup_s": setup,
        "cold_steps": cold,
        "cold_refs": cold_refs,
        "warm_steps": warm,
        "warm_refs": warm_refs,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
    }
    if tracer is not None:
        out["traced_s"] = traced
        layers = {key: statistics.median(run[key] for run in layer_runs)
                  for key in layer_runs[0]}
        layers["trace.pass_s"] = statistics.median(traced)
        # each traced pass runs right after an untraced one: pair them
        layers["trace.overhead_s"] = statistics.median(
            t - sum(times) for t, times in zip(traced, warm))
        out["layers"] = layers
        Path(args["spans"]).write_text(json.dumps(tracer.dump()))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
