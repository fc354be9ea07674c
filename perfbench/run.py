"""Benchmark runner for pascal-spiral.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  With
--trace 0 it runs the workload in a closed loop with one client (one process,
no threads, each op sent after the previous one returns): fresh inputs until
the ops have taken S/2 seconds, then the same inputs again.  It checks every
op's output between ops, scales op times to reference machine speed with a
canary (canary.py), and prints the end-to-end metrics.  With --trace 1 it
runs a fixed block of the same seed's ops alternately untraced and traced
for S seconds and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  A results file with run metadata goes to
.perfbench_out/.
"""
import time

T0 = time.perf_counter()  # setup_s starts here, before numpy and the package load

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# one BLAS thread in this process and in every process it starts: the ops
# need none, and on a few shared cores idle BLAS threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE_DIR = os.path.join(ROOT, "src", "pascal_spiral")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
PASSES = 2
WALL_CAP = 1.25
SETUP_CANARIES = 21
PROBE_TIMEOUT_S = 120
TAIL_MIN_BEYOND = 10
MAX_PROBLEMS = 20

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "series.truncation_calls": "count",
    "series.truncation_order_sum": "count",
    "series.truncation_s": "s",
    "series.build_s": "s",
    "series.eval_calls": "count",
    "series.eval_terms": "count",
    "series.eval_s": "s",
    "summation.oracle_calls": "count",
    "summation.oracle_terms": "count",
    "summation.oracle_s": "s",
    "summation.oracle_divergences": "count",
    "summation.closed_calls": "count",
    "summation.sinv_oracle_fallbacks": "count",
    "criteria.verdicts_direct": "count",
    "criteria.verdicts_closed": "count",
    "criteria.report_points": "count",
    "criteria.self_s": "s",
    "criteria.us_per_point": "us",
    "scan.roots": "count",
    "scan.margin_evals": "count",
    "scan.margin_evals_per_root": "count",
    "scan.bisection_iterations": "count",
    "scan.boundary_roots": "count",
    "scan.error_rows": "count",
    "scan.self_s": "s",
    "disk.verifications": "count",
    "disk.points_checked": "count",
    "disk.denominator_exits": "count",
    "disk.passes": "count",
    "disk.self_s": "s",
    "cli.process_s": "s",
    "cli.main_s": "s",
    "cli.startup_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.block_ops": "count",
    "trace.overhead_ms_per_op": "ms",
    "trace.overhead_ratio": "ratio",
}
# per-layer numbers that are times; the rest are work counts, which must
# repeat exactly for a given seed
LAYER_TIMES = tuple(
    k for k, u in LAYER_UNITS.items() if u in ("s", "us") or k.startswith("trace.overhead")
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def setup(workload_name, seed):
    """Import the package, generate the first input block and warm up on
    fixed inputs.  Returns (context, workload, input iterator)."""
    import workloads

    ctx = workloads.load_package(ROOT, OUT_DIR)
    origin = os.path.dirname(os.path.abspath(sys.modules["pascal_spiral"].__file__))
    if origin != PACKAGE_DIR:
        raise SystemExit(f"error: pascal_spiral imported from {origin}, not {PACKAGE_DIR}")
    wl = workloads.WORKLOADS[workload_name]
    stream = workloads.input_stream(wl, seed)
    stream = itertools.chain([next(stream)], stream)
    warm = workloads.input_stream(wl, workloads.WARMUP_SEED)
    for inp in itertools.islice(warm, wl.warmup_ops):
        wl.run(ctx, inp)
    return ctx, wl, stream


def setup_samples(args):
    """Set-up time, at reference speed, of SETUP_REPEATS fresh processes, each
    importing, generating and warming up exactly as a measured run does and
    then timing the interpreter canary."""
    from canary import CANARIES

    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()[-500:]}")
        setup_s, canary_s = map(float, proc.stdout.split()[-2:])
        samples.append(setup_s * CANARIES["interpreter"][1] / canary_s)
    return samples


def tail(ms_sorted):
    """The highest-percentile latency that still has TAIL_MIN_BEYOND samples
    above it (the 11th largest), with its percentile; the largest sample when
    there are too few."""
    n = len(ms_sorted)
    if n <= TAIL_MIN_BEYOND:
        return ms_sorted[-1], 100.0
    return ms_sorted[n - TAIL_MIN_BEYOND - 1], 100.0 * (n - TAIL_MIN_BEYOND) / n


class Tally:
    """Attempted ops, failed ops and the first few problems found.  An op
    fails when it raises (the program refused or broke) or when its output
    fails the check (a wrong answer); only wrong answers make the run
    incorrect."""

    def __init__(self):
        self.attempted = self.failed = self.raised = self.wrong = self.values_checked = 0
        self.problems = []

    def record(self, problems, checked, raised=False):
        self.attempted += 1
        self.values_checked += checked
        if problems:
            self.failed += 1
            self.raised += raised
            self.wrong += not raised
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])


def run_op(ctx, wl, inp):
    t0 = time.perf_counter()
    try:
        out, err = wl.run(ctx, inp), None
    except Exception as exc:  # an op that raises counts as failed
        out, err = None, exc
    return out, err, time.perf_counter() - t0


def judge(check, ctx, inp, out, err, tally):
    if err is not None:
        tally.record([f"raised {type(err).__name__}: {err}"], 0, raised=True)
    else:
        tally.record(*check(ctx, inp, out))


def e2e_metrics(latencies, rss_kb):
    ms = sorted(1e3 * x for x in latencies)
    tail_ms, tail_pct = tail(ms)
    metrics = {
        "ops_per_s": len(ms) / sum(latencies),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return metrics, tail_pct, sum(1 for x in ms if x > tail_ms)


def timed_run(ctx, wl, stream, check, seconds):
    """PASSES passes over one op sequence.  The first pass draws fresh inputs
    until its ops have taken seconds/PASSES at reference speed (so a slow
    machine does not shrink the sample; at most WALL_CAP times that in wall
    time) and checks each output against the references; the later pass
    repeats those inputs and must reproduce the outputs exactly.  The
    workload's canary runs between ops, once per stretch of op time; each
    op's time is scaled to reference speed by the median of the canary's
    recent times (its window; 0 means every time in the run, applied at the
    end), and an op's latency is its faster pass."""
    from canary import CANARIES
    from checks import fingerprint

    canary, ref_s, every_s, window = CANARIES[wl.canary]
    block, prints, passes, canaries = [], [], [], [canary()]
    tally, child_rss_kb, busy, wall, since = Tally(), 0, 0.0, 0.0, 0.0

    def timed(inp):
        nonlocal child_rss_kb, since
        if since >= every_s:
            canaries.append(canary())
            since = 0.0
        out, err, dt = run_op(ctx, wl, inp)
        since += dt
        passes[-1].append((dt, dt * ref_s / statistics.median(canaries[-window:])))
        if out is not None and "maxrss_kb" in out:
            child_rss_kb = max(child_rss_kb, out["maxrss_kb"])
        return out, err, fingerprint(wl.name, out, err)

    passes.append([])
    for inp in stream:
        out, err, digest = timed(inp)
        busy += passes[-1][-1][1]
        wall += passes[-1][-1][0]
        judge(check, ctx, inp, out, err, tally)
        block.append(inp)
        prints.append(digest)
        if busy >= seconds / PASSES or wall >= WALL_CAP * seconds / PASSES:
            break
    for _ in range(PASSES - 1):
        passes.append([])
        for inp, first in zip(block, prints):
            out, err, digest = timed(inp)
            if digest != first:
                tally.record([f"output changed between passes for {inp}"], 1)
            elif err is not None:
                judge(check, ctx, inp, out, err, tally)
            else:
                tally.record([], 1)
    if window == 0:
        speed = ref_s / statistics.median(canaries)
        passes = [[(dt, dt * speed) for dt, _ in p] for p in passes]
    rss_kb = child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics, tail_pct, beyond = e2e_metrics([min(s for _, s in t) for t in zip(*passes)], rss_kb)
    wall_clock, _, _ = e2e_metrics([min(dt for dt, _ in t) for t in zip(*passes)], rss_kb)
    detail = {
        "ops": len(block), "passes": PASSES, "busy_s": sum(dt for p in passes for dt, _ in p),
        "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
        "canary": wl.canary, "canary_reference_s": ref_s, "canary_runs": len(canaries),
        "canary_median_s": statistics.median(canaries), "wall_clock_metrics": wall_clock,
        "rss_source": "cli child processes (wait4)" if child_rss_kb else "benchmark process",
    }
    return metrics, detail, tally


def run_block(ctx, wl, block, tracer):
    """One pass over the block; with a tracer, every op runs under an "op"
    span and cli-session also runs cli.main in process on the same argv."""
    outputs, latencies, extra = [], [], {"cli.process_s": 0.0, "cli.stdout_bytes": 0}
    for i, inp in enumerate(block):
        if tracer is None:
            out, err, dt = run_op(ctx, wl, inp)
        else:
            tracer.op = i
            out, err, dt = tracer.call("op", run_op, ctx, wl, inp)
            if wl.name == "cli-session" and out is not None:
                import checks

                out["in_process"] = checks.in_process_cli(ctx, inp["args"])
                extra["cli.process_s"] += dt
                extra["cli.stdout_bytes"] += len(out["stdout"])
        outputs.append((out, err))
        latencies.append(dt)
    return outputs, latencies, extra


def traced_block(ctx, wl, block, tracer):
    tracer.install(ctx)
    tracer.reset()
    try:
        return (*run_block(ctx, wl, block, tracer), tracer.sites)
    finally:
        tracer.uninstall()


def traced_run(ctx, wl, stream, check, seconds):
    from tracing import Tracer, per_layer_metrics

    block = list(itertools.islice(stream, wl.trace_ops))
    tracer, tally = Tracer(), Tally()
    layer_passes, overhead_ms, ratios, first_spans, hits = [], [], [], None, {}
    busy = 0.0
    while busy < seconds or not layer_passes:
        # alternate which pass of a pair runs first, so drift cancels in the
        # overhead estimate
        if len(layer_passes) % 2:
            traced_out, traced_lat, extra, sites = traced_block(ctx, wl, block, tracer)
            plain_out, plain_lat, _ = run_block(ctx, wl, block, None)
        else:
            plain_out, plain_lat, _ = run_block(ctx, wl, block, None)
            traced_out, traced_lat, extra, sites = traced_block(ctx, wl, block, tracer)
        layer = per_layer_metrics(tracer.spans, extra)
        hits = layer.pop("hits")
        layer_passes.append(layer)
        if first_spans is None:
            first_spans = [s.as_dict(i) for i, s in enumerate(tracer.spans)]
        overhead_ms.append(1e3 * (sum(traced_lat) - sum(plain_lat)) / len(block))
        ratios.append(sum(traced_lat) / sum(plain_lat) - 1.0)
        busy += sum(plain_lat) + sum(traced_lat)
        for outputs in (plain_out, traced_out):
            for inp, (out, err) in zip(block, outputs):
                judge(check, ctx, inp, out, err, tally)
    metrics = dict(layer_passes[0])
    for key in LAYER_TIMES:
        if key in metrics:
            metrics[key] = statistics.fmean(p[key] for p in layer_passes)
    metrics["trace.block_ops"] = len(block)
    metrics["trace.overhead_ms_per_op"] = statistics.median(overhead_ms)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    counts_repeat = all(
        p[k] == layer_passes[0][k] for p in layer_passes for k in p if k not in LAYER_TIMES
    )
    detail = {
        "traced_passes": len(layer_passes), "counts_repeat": counts_repeat,
        "span_hits": hits, "wrapped_sites": sites, "spans_per_pass": len(first_spans),
    }
    return metrics, detail, tally, first_spans


def metadata():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    import numpy

    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"error: package source not found at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args.workload, args.seed)
        setup_s = time.perf_counter() - T0
        from canary import interpreter_canary

        print(repr(setup_s), repr(statistics.median(
            interpreter_canary() for _ in range(SETUP_CANARIES))))
        return 0
    samples = setup_samples(args)
    ctx, wl, stream = setup(args.workload, args.seed)
    own_setup_s = time.perf_counter() - T0
    import checks

    check = checks.CHECKS[wl.name]
    spans = None
    if args.trace:
        metrics, detail, tally, spans = traced_run(ctx, wl, stream, check, args.seconds)
        units = LAYER_UNITS
    else:
        metrics, detail, tally = timed_run(ctx, wl, stream, check, args.seconds)
        metrics["setup_s"] = statistics.median(samples)
        units = E2E_UNITS
    detail.update({
        "setup_samples_s": samples, "own_setup_s": own_setup_s,
        "failed_ratio": tally.failed / tally.attempted,
        "failed_raised": tally.raised, "failed_wrong": tally.wrong,
        "values_checked": tally.values_checked, "problems": tally.problems,
    })
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": metadata(), "detail": detail,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, default=str)
    if spans is not None:
        with gzip.open(os.path.join(OUT_DIR, f"spans-{stem}.jsonl.gz"), "wt") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    for key in units:
        print(f"  {key:<34s} {metrics[key]:>16.6g} {units[key]}")
    print(f"  {'failed_ratio':<34s} {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g} ratio ({tally.raised} raised, "
          f"{tally.wrong} wrong; {tally.values_checked} values checked)")
    if not args.trace:
        print(f"  op_tail_ms is p{detail['tail_percentile']:.4g} over {detail['ops']} ops "
              f"({detail['tail_samples_beyond']} beyond; each op's fastest of "
              f"{detail['passes']} passes)")
        wall = detail["wall_clock_metrics"]
        print(f"  times are at reference speed: the {detail['canary']} canary took "
              f"{1e3 * detail['canary_median_s']:.4g} ms against "
              f"{1e3 * detail['canary_reference_s']:.4g} ms; wall clock: "
              + ", ".join(f"{k} {wall[k]:.6g}" for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")))
    for problem in tally.problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
