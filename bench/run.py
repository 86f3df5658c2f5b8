"""End-to-end benchmark of degengeo: one workload per process, a closed loop
with a single client.

    python3 bench/run.py --workload dense --seed 1 --seconds 6 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. The loop repeats whole rounds of the workload's ops (see
workloads.py) until --seconds have passed, times each op, and checks each
op's output outside the timed interval. Timings are scaled to a reference
pace sampled during the run (pace.py). The last line of stdout is one JSON
object: correct, attempted, failed and the metrics with their units. With
--trace 0 those are the end-to-end metrics; with --trace 1 the per-layer
metrics of a traced run (tracing.py). A readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: BLAS threads, set before numpy is first imported. At n <= 256 a second
#: thread gains little, and its spinning makes timings depend on other load
#: on a shared machine.
BLAS_THREADS = 1

#: Set-up (input generation and warm-up) is repeated this many times and
#: its median reported, plus the one-off import time.
SETUP_REPEATS = 3

#: Fewest samples behind each end-to-end timing metric in every run. Ops of
#: the timed loop count; a metric with fewer samples, such as one that
#: belongs to another workload (decompose_n256_ms on weyl), is topped up
#: after the loop by probes: repeats of the owning workload's ops for this
#: seed, the repeats of one workload's metrics taken in turn. Probe ops are
#: checked but not counted in attempted/failed, so that the failed share is
#: a property of the rounds. A repeat of order_ms or cascade_ms is one
#: sample (the mean over the round's ops of that kind).
MIN_SAMPLES = {"decompose_n64_ms": 12, "decompose_n256_ms": 3,
               "order_ms": 20, "cascade_ms": 20, "scan_res11_ms": 12,
               "scan_res21_ms": 3, "scan_n16_ms": 3}

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB",
    "decompose_n64_ms": "ms", "decompose_n256_ms": "ms",
    "order_ms": "ms", "cascade_ms": "ms",
    "scan_res11_ms": "ms", "scan_res21_ms": "ms", "scan_n16_ms": "ms",
}

FACTORIZATION_SPANS = ("linalg.eigh", "linalg.eigvalsh", "linalg.schur",
                       "linalg.svd")

#: Per-layer metrics of the traced run, per traced round:
#: name -> ("calls" | "self_ms", span names summed).
PER_LAYER = {
    "matrixio.read_matrix_ms": ("self_ms", ("matrixio.read_matrix",
                                            "matrixio.parse_matrix")),
    "matrixio.to_json_ms": ("self_ms", ("matrixio.RunReport.to_json",)),
    "matrixio.to_text_ms": ("self_ms", ("matrixio.RunReport.to_text",)),
    "swtransform.sw_decompose_calls": ("calls", ("swtransform.sw_decompose",)),
    "swtransform.sw_decompose_ms": ("self_ms", ("swtransform.sw_decompose",)),
    "swtransform.sw_decompose_general_ms": (
        "self_ms", ("swtransform.sw_decompose_general",)),
    "swtransform.unitary_exp_calls": ("calls", ("swtransform.unitary_exp",)),
    "swtransform.unitary_exp_ms": ("self_ms", ("swtransform.unitary_exp",)),
    "linalg.eigh_calls": ("calls", ("linalg.eigh",)),
    "linalg.eigvalsh_calls": ("calls", ("linalg.eigvalsh",)),
    "linalg.schur_calls": ("calls", ("linalg.schur",)),
    "linalg.svd_calls": ("calls", ("linalg.svd",)),
    "linalg.factorizations": ("calls", FACTORIZATION_SPANS),
    "linalg.factorization_ms": ("self_ms", FACTORIZATION_SPANS),
    "spectra.eigh_calls": ("calls", ("spectra.eigh",)),
    "spectra.eigh_ms": ("self_ms", ("spectra.eigh",)),
    "projection.collapse_projection_calls": (
        "calls", ("projection.collapse_projection",)),
    "projection.collapse_projection_ms": (
        "self_ms", ("projection.collapse_projection",)),
    "projection.distance_to_sigma_ms": (
        "self_ms", ("projection.distance_to_sigma",)),
    "weyl.family_evals": ("calls", ("weyl.family_eval",)),
    "weyl.effective_map_calls": ("calls", ("weyl.effective_map",)),
    "weyl.jacobian_calls": ("calls", ("weyl.jacobian",)),
    "weyl.classify_point_ms": ("self_ms", ("weyl.classify_point",)),
    "weyl.scan_grid_self_ms": ("self_ms", ("weyl.scan_grid",)),
    "splitting.splitting_samples_ms": (
        "self_ms", ("splitting.splitting_samples",)),
    "splitting.estimate_order_ms": ("self_ms", ("splitting.estimate_order",)),
    "splitting.family_evals": ("calls", ("splitting.family_eval",)),
    "splitting.cascade_ms": ("self_ms", ("splitting.cascade",)),
    "cli.self_ms": ("self_ms", ("cli.main",)),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dense", "families", "weyl"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Attempted and failed ops, and whether every failure is a known one."""

    def __init__(self, pace=None):
        self.pace = pace
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, op, call=None):
        """Time one op, then check its output outside the timed interval.
        Returns (pace.Interval, output, passed)."""
        from pace import Interval

        interval = Interval(self.pace)
        try:
            out = (call or op.call)()
        except (Exception, SystemExit) as exc:  # noqa: BLE001
            # Any raise, or an argument error that exits, is a failed op.
            interval.close()
            out, error = None, f"raised {exc!r}"
        else:
            interval.close()
            try:
                op.check(out)
                error = None
            except Exception as exc:  # noqa: BLE001 - malformed output too
                error = f"{type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if op.known_fault is None:
                self.correct = False
                print(f"FAILED {op.kind} {op.label}: {error}", file=sys.stderr)
        return interval, out, error is None


def timing_metric(samples, round_mean):
    """samples: (round, seconds) pairs of one metric's ops, in seconds at
    the reference pace. Median over ops, or with round_mean the median over
    rounds of each round's mean; in ms."""
    return statistics.median(sample_values(samples, round_mean)) * 1e3


def sample_values(samples, round_mean):
    if not round_mean:
        return [s for _, s in samples]
    rounds = {}
    for r, s in samples:
        rounds.setdefault(r, []).append(s)
    return [statistics.fmean(v) for v in rounds.values()]


def report_bytes(out):
    return len(out[1].encode()) if isinstance(out, tuple) else 0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def use_checkout():
    """Pin the BLAS thread count, before numpy is first imported, and put
    this checkout's src/ first on the path. Exits when the sources are
    missing, rather than falling back to an installed copy."""
    if not (SRC / "degengeo" / "__init__.py").is_file():
        sys.exit(f"error: no degengeo sources under {SRC}; run from the root "
                 "of a source checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def import_program():
    import degengeo
    import degengeo.cli  # noqa: F401

    if Path(degengeo.__file__).resolve().parent != SRC / "degengeo":
        sys.exit(f"error: imported degengeo from {degengeo.__file__}")


def main(argv=None):
    args = parse_args(argv)
    use_checkout()
    # pace imports numpy; its import time is not part of setup_s.
    from pace import Interval, Pace

    pace = None if args.trace else Pace()
    workdir = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if pace is not None:
            pace.start()
        interval = Interval(pace)
        import_program()
        interval.close()
        import workloads

        workdir.mkdir(parents=True)
        result = measure(workloads.WORKLOADS[args.workload], args, workdir,
                         pace, interval)
    finally:
        if pace is not None:
            pace.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


def measure(workload, args, workdir, pace, import_interval):
    import workloads
    from pace import Interval

    for name in workloads.WORKLOADS:
        (workdir / "probe" / name).mkdir(parents=True)
        (workdir / f"warmup-{name}").mkdir()
    warmup = Tally()
    setups = []
    for _ in range(SETUP_REPEATS):
        interval = Interval(pace)
        ops = workload.round(args.seed, workdir)
        # Every workload's small ops, so that the probes start warm too.
        for name, other in workloads.WORKLOADS.items():
            for op in other.warmup(workdir / f"warmup-{name}"):
                warmup.run(op)
        setups.append(interval.close())

    if args.trace:
        return traced_rounds(ops, args, Tally(), warmup.correct)

    # (metric, sample key, interval) per timed op; scaled to the reference
    # pace once every slice is in.
    timed = []
    tally = Tally(pace)
    passed = 0
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        for op in ops:
            interval, _, ok = tally.run(op)
            passed += ok
            timed.append((op.metric, ("round", r), interval))
        r += 1
    rss = peak_rss_mb()

    # Probes top up the metrics with fewer than MIN_SAMPLES samples, one
    # owning workload at a time, each after that workload's warm-up ops, so
    # that small ops do not start cold after another workload's large ones.
    round_mean = {m for owner in workloads.WORKLOADS.values()
                  for m in owner.round_mean_metrics}

    def count(metric):
        return len(sample_values([(key, 0.0) for m, key, _ in timed
                                  if m == metric], metric in round_mean))

    probe = Tally(pace)
    for name, owner in workloads.WORKLOADS.items():
        short = [m for m in owner.metrics if count(m) < MIN_SAMPLES[m]]
        if not short:
            continue
        found = owner.round(args.seed, workdir / "probe" / name)
        for op in owner.warmup(workdir / f"warmup-{name}"):
            probe.run(op)
        rep = 0
        while short:
            for metric in short:
                for op in found:
                    if op.metric == metric:
                        interval, _, _ = probe.run(op)
                        timed.append((metric, ("probe", rep), interval))
            rep += 1
            short = [m for m in short if count(m) < MIN_SAMPLES[m]]
    pace.stop()

    samples = {}
    loop_seconds = 0.0
    for metric, key, interval in timed:
        seconds = interval.paced()
        if key[0] == "round":
            loop_seconds += seconds
        if metric:
            samples.setdefault(metric, []).append((key, seconds))
    metrics = {
        "setup_s": import_interval.paced()
        + statistics.median(interval.paced() for interval in setups),
        "ops_per_s": passed / loop_seconds,
        "peak_rss_mb": rss,
    }
    for owner in workloads.WORKLOADS.values():
        for metric in owner.metrics:
            metrics[metric] = timing_metric(samples[metric],
                                            metric in round_mean)
    return {
        "correct": warmup.correct and tally.correct and probe.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()},
    }


def traced_rounds(ops, args, tally, warmup_correct):
    """Alternate untraced and traced rounds (at least one of each) until
    --seconds have passed. Per-layer metrics are per traced round; the
    tracing overhead compares the median round times of the two kinds."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    round_seconds = {False: [], True: []}
    out_bytes = 0
    start = time.perf_counter()
    r = 0
    while r < 2 or time.perf_counter() - start < args.seconds:
        traced = r % 2 == 1
        busy = 0.0
        for op in ops:
            tracer.enabled = traced
            call = (lambda op=op: tracer.run_op(op.kind, op.call)) \
                if traced else None
            interval, out, _ = tally.run(op, call)
            tracer.enabled = False
            busy += interval.own
            if traced:
                out_bytes += report_bytes(out)
        round_seconds[traced].append(busy)
        r += 1
    tracer.uninstall()

    rounds = len(round_seconds[True])
    per_name, per_op = tracer.summary()
    metrics = {}
    for name, (field, spans) in PER_LAYER.items():
        total = sum(per_name.get(s, {}).get(field, 0) for s in spans)
        metrics[name] = total / rounds
    metrics["models.build_ms"] = sum(
        v["self_ms"] for k, v in per_name.items() if k.startswith("models.")
    ) / rounds
    metrics["matrixio.report_bytes"] = out_bytes / rounds
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(round_seconds[True])
        / statistics.median(round_seconds[False]) - 1.0)

    traces = BENCH_DIR / "work" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    stem = traces / f"trace-{args.workload}-{args.seed}"
    tracer.save(f"{stem}.npz")
    Path(f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "traced_rounds": rounds, "per_name": per_name, "per_op": per_op},
        indent=1))

    def unit(name):
        if name.endswith("_ms"):
            return "ms"
        if name.endswith("_pct"):
            return "%"
        if name.endswith("_bytes"):
            return "bytes"
        return "count"

    return {
        "correct": warmup_correct and tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in sorted(metrics.items())},
    }


if __name__ == "__main__":
    sys.exit(main())
