#!/usr/bin/env python3
"""handkit benchmark.

    python3 handbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a handkit checkout; the package is imported from its
``src/``.  With ``--trace 0`` the run measures one workload untraced and
prints the end-to-end metrics; with ``--trace 1`` it measures the workload
untraced and then traced for ``S / 2`` seconds each and prints per-layer
calls, self time and counts plus the tracing overhead.  Both modes check the
outputs.  The last line of standard output is the result object; the line
before it holds the environment, the check results and the workload's own
figures.  See README.md in this directory.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".handbench_out"
SETUP_REPEATS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("synth-mesh", "refine", "train", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import handkit from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "handkit" / "__init__.py").is_file():
        sys.exit(f"handbench: no handkit sources under {src}")
    sys.path.insert(0, str(src))
    import handkit

    if Path(handkit.__file__).resolve().parent != (src / "handkit").resolve():
        sys.exit(f"handbench: imported handkit from {handkit.__file__}")


def _untraced(wl, seed, seconds, import_s):
    import workloads
    from clock import Clock

    # Set-up time is normalised like the timed laps: each set-up by the
    # kernel runs on both sides, the imports by the median of those runs.
    clock = Clock(wl.kernel)
    normalised = wl.kernel.normalised
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None
        clock.lap()
        state = wl.setup(seed)
        setups.append(clock.lap())
    setup_s = (normalised(import_s, statistics.median(r for _, r in setups))
               + statistics.median(normalised(w, r) for w, r in setups))
    wl.prepare(state)
    log = workloads.measure(wl, state, seconds, wl.min_ops)
    checks, figures, _ = wl.check(state, log)
    if not log.op_ms:
        sys.exit("handbench: no operation completed")
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "items_per_s_norm": (log.items / log.elapsed_norm, "1/s"),
        "op_ms_p50_norm": (statistics.median(log.op_ms_norm), "ms"),
    }
    figures.update(_latency_figures(wl, log),
                   import_s=import_s, setup_runs_s=[w for w, _ in setups])
    return checks, figures, metrics, log.attempted, log.failed


def _latency_figures(wl, log):
    import stats

    figures = {"op": wl.op, "elapsed_s": log.elapsed,
               "ref_kernel_ms_p50": statistics.median(log.ref_ms)}
    key = f"{wl.op_key}_ms"
    for suffix, per_s, op_ms in (("", log.items / log.elapsed, log.op_ms),
                                 ("_norm", log.items / log.elapsed_norm,
                                  log.op_ms_norm)):
        figures[f"{wl.item}_per_s{suffix}"] = per_s
        figures[f"{key}_p50{suffix}"] = stats.median(op_ms)._asdict()
        try:
            figures[f"{key}_p90{suffix}"] = stats.percentile(op_ms, 90)._asdict()
        except ValueError as exc:
            figures[f"{key}_p90{suffix}"] = str(exc)
    return figures


def _traced(wl, seed, seconds, env):
    import tracer as tr
    import workloads

    half = seconds / 2.0
    state = wl.setup(seed)
    wl.prepare(state)
    base = workloads.measure(wl, state, half)
    checks, _, _ = wl.check(state, base)
    checks = {f"untraced.{k}": v for k, v in checks.items()}

    tracer = tr.Tracer()
    installed = tr.install(tracer)
    try:
        state = None
        state = wl.setup(seed)
        tracer.recording = False
        wl.prepare(state)
        tracer.start_window()
        tracer.recording = True
        log = workloads.measure(wl, state, half)
        tracer.recording = False
        traced_checks, figures, counts = wl.check(state, log)
    finally:
        installed.restore()
    checks.update({f"traced.{k}": v for k, v in traced_checks.items()})
    checks["wrappers_removed"] = not tr.wrapped_attributes()
    if not (base.items and log.items):
        sys.exit("handbench: no operation completed")

    tracer.counts.update(counts)
    metrics = tracer.layer_metrics()
    per_item = (log.elapsed_norm / log.items) / (base.elapsed_norm / base.items)
    metrics["trace_overhead_frac"] = (per_item - 1.0, "ratio")
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tr.write_spans(tracer, spans_path, {"workload": wl.name, "seed": seed,
                                        "env": env})
    figures.update(spans_file=spans_path.name,
                   spans=len(tracer.spans),
                   untraced_elapsed_s=base.elapsed, traced_elapsed_s=log.elapsed)
    return (checks, figures, metrics, base.attempted + log.attempted,
            base.failed + log.failed)


def _plain(value):
    """numpy scalars as Python numbers for JSON."""
    return value.item()


def main(argv=None):
    args = _parse(argv)
    _import_program()
    import envinfo
    import workloads

    import_s = time.perf_counter() - _START
    env = envinfo.environment(ROOT)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](scratch)
        if args.trace:
            result = _traced(wl, args.seed, args.seconds, env)
        else:
            result = _untraced(wl, args.seed, args.seconds, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    checks, figures, metrics, attempted, failed = result

    checks = {name: bool(ok) for name, ok in checks.items()}
    print(json.dumps({"workload": wl.name, "seed": args.seed,
                      "trace": args.trace, "env": env, "checks": checks,
                      "figures": figures}, default=_plain))
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, default=_plain))


if __name__ == "__main__":
    main()
