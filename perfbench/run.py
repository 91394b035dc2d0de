"""plancritic benchmark: three seeded workloads through the ``plancritic`` CLI.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload refine-mock --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload refine-stub --quick --seconds 1
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  The program is imported from ``src/``.
Each run is one process: it repeats timed passes until ``--seconds`` of
passes have been measured, checking every pass's outputs outside the timed
region, and sets up several times, spread over the run (median reported as
``setup_s``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, wraps the program's layer functions during the
traced ones (and during the last set-up), and prints the per-layer metrics
plus the tracing overhead; the spans of the latest traced run of each
workload go to ``.bench_traces/<workload>.jsonl``.  The last
line of standard output is the JSON result; the lines before it are for
people.  ``--quick`` shrinks every input for a smoke run.  Exit code 0 when
every check passed, 1 when one failed, 2 when the benchmark could not run.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"
WORKLOAD_NAMES = ("solve", "refine-mock", "refine-stub")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="plancritic benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, for a smoke run")
    parser.add_argument("--self-check", action="store_true", dest="self_check",
                        help="check the benchmark itself; asserts no timings")
    args = parser.parse_args(argv)
    if not args.self_check:
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds is None:
            if not args.quick:
                parser.error("--seconds is required")
            args.seconds = 1.0
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
    return args


def load_spec() -> dict:
    spec = json.loads(SPEC.read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def pass_rate(passes) -> float:
    """Problems per second: the median pass time of each input variant,
    pooled over the variants.  ``solve`` never repeats a variant, so there
    every pass is pooled."""
    by_variant: dict[int, list] = {}
    for p in passes:
        by_variant.setdefault(p.variant, []).append(p)
    problems = sum(group[0].problems for group in by_variant.values())
    seconds = sum(statistics.median(p.seconds for p in group) for group in by_variant.values())
    return problems / seconds if seconds else 0.0


def run(args, spec) -> int:
    from layers import TARGETS, Aggregate, layer_metrics
    from tracing import Tracer, installed
    from workloads import FULL, QUICK, WORKLOADS, Checks, child_import_seconds

    sizes = QUICK if args.quick else FULL
    checks = Checks()
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed, sizes, checks)
    trace = bool(args.trace)
    traces: list[tuple[str, object]] = []

    def traced_call(phase: str, fn):
        tracer = workload.tracer = Tracer()
        try:
            with installed(tracer, TARGETS) as patches:
                result = fn()
        finally:
            workload.tracer = None
        if not patches.restored():
            checks.fail(f"{phase}: wrapped attributes were not restored")
        traces.append((phase, tracer))
        return result, tracer

    setup_seconds, attempted, failed = [], 0, 0
    setup_agg, pass_agg = Aggregate(), Aggregate()
    passes = []  # (traced, PassResult)

    def setup(rep: int) -> bool:
        nonlocal attempted, failed
        import_s = child_import_seconds(SRC)
        if trace and rep == sizes.setup_reps - 1:
            (seconds, f, a), tracer = traced_call(f"setup-{rep}", lambda: workload.setup(rep))
            setup_agg.add(tracer.spans)
        else:
            seconds, f, a = workload.setup(rep)
        setup_seconds.append(import_s + seconds)
        failed += f
        attempted += a
        return not f

    try:
        measured = 0.0
        index = 0
        ready = True
        while ready:
            # the set-ups are spread over the run, so that one slow phase of
            # the machine does not hold all of them
            while ready and len(setup_seconds) < sizes.setup_reps and (
                measured >= len(setup_seconds) * args.seconds / sizes.setup_reps
            ):
                ready = setup(len(setup_seconds))
            kinds = {t for t, _ in passes}
            if not ready or (measured >= args.seconds and (not trace or kinds == {True, False})):
                break
            traced = trace and index % 2 == 1
            variant = index // 2 if trace else index
            if workload.variants:
                variant %= workload.variants
            if traced:
                result, tracer = traced_call(f"pass-{index}", lambda: workload.run_pass(index, variant))
                pass_agg.add(tracer.spans)
            else:
                result = workload.run_pass(index, variant)
            passes.append((traced, result))
            attempted += result.problems
            failed += result.failed
            measured += result.seconds
            index += 1
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    failed_frac = failed / attempted
    untraced = [p for t, p in passes if not t]
    metrics: dict[str, float] = {}
    if trace:
        traced_passes = [p for t, p in passes if t]
        stub_passes = [p.stub for p in traced_passes if p.stub]
        n = max(len(traced_passes), 1)
        stub = {k: sum(s[k] for s in stub_passes) / n for k in ("requests", "connections", "service_s")}
        stub["inflight_max"] = max((p.stub["inflight_max"] for _, p in passes if p.stub), default=0)
        metrics = layer_metrics(setup_agg, pass_agg, len(traced_passes), stub)
        metrics["failed_frac"] = failed_frac
        metrics["problems_per_s.traced"] = pass_rate(traced_passes)
        metrics["problems_per_s.untraced"] = pass_rate(untraced)
        metrics["trace.overhead_pct"] = 100.0 * (
            metrics["problems_per_s.untraced"] / metrics["problems_per_s.traced"] - 1.0
            if metrics["problems_per_s.traced"] else 0.0
        )
        TRACES.mkdir(exist_ok=True)
        with (TRACES / f"{args.workload}.jsonl").open("w") as fh:
            fh.write(json.dumps({"fields": Tracer.DUMP_FIELDS, "seed": args.seed}) + "\n")
            for phase, tracer in traces:
                tracer.dump(fh, phase)
        declared = spec["per_layer"]
    else:
        metrics["setup_s"] = statistics.median(setup_seconds)
        metrics["problems_per_s"] = pass_rate(untraced)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        declared = spec["end_to_end"]

    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"measured_s={sum(p.seconds for _, p in passes):.3f} setup_s={[round(s, 4) for s in setup_seconds]}")
    print("pass_s=" + " ".join(f"{p.variant}:{p.seconds:.3f}" for _, p in passes))
    for key, value in sorted((workload.reference or {}).items()):
        print(f"sha256 datasets.{key} {value}")
    for key, value in sorted((passes[0][1].digests if passes else {}).items()):
        print(f"sha256 variant0.{key} {value}")
    for name in declared:
        print(f"{name} {metrics[name]:.6g} {declared[name]}")
    print(f"failed_frac {failed_frac:.6g} ratio ({failed}/{attempted})")
    for message in checks.messages:
        print(f"check failed: {message}")
    correct = not checks.messages and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "plancritic" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a plancritic checkout", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    if args.self_check:
        import selfcheck

        return selfcheck.main()
    return run(args, load_spec())


if __name__ == "__main__":
    sys.exit(main())
