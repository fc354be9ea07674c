"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, on a short block of every workload:
- every wrapped function is hit on the workload that exercises it, and the
  lookup sites callers use (criteria.oracle_sum, disk.evaluate, ...) are
  wrapped, so no layer can silently report zero;
- the bypass predictions hold as counts;
- the work counts later changes may cite repeat exactly for one seed and
  change with the seed;
- every output check rejects a corrupted output;
- BENCHMARK.json names exactly the metrics and workloads run.py reports;
- the inputs the workloads are conditioned away from are exactly those that
  hit the two known program defects, and whether each defect is still there
  (once one is gone, its condition in workloads.py can be dropped).
Exits 0 when everything holds, 1 otherwise.
"""
import copy
import dataclasses
import itertools
import json
import os
import subprocess
import sys

import run
import tracing
import workloads

SEEDS = (3, 4)
SELFTEST_OPS = {"grid-report": 4, "root-scan": 36, "disk-verify": 12, "cli-session": 20}
EXERCISES = {
    "grid-report": (
        "criteria.discrepancy_report", "criteria._lhs_direct", "criteria._lhs_closed",
        "summation.oracle_sum", "summation.sum_Sinv",
    ),
    "root-scan": (
        "scan.scan", "scan.critical_q", "criteria.evaluate_criterion",
        "criteria._lhs_direct", "criteria._lhs_closed", "summation.oracle_sum",
        "summation.sum_Sinv",
    ),
    "disk-verify": (
        "series.adaptive_truncation_order", "series.theta_series",
        "series.integral_transform", "series.hadamard_convolve",
        "series.extremal_rtau_series", "series.evaluate", "series.evaluate_d1",
        "series.evaluate_d2", "disk.verify_on_disk",
    ),
    "cli-session": (
        "cli.main", "criteria.evaluate_all", "summation.sum_S0", "summation.sum_S1",
        "summation.sum_S2",
    ),
}
ZERO = {  # bypass predictions: counts that must be 0 on the workload
    "grid-report": ("scan.roots", "disk.points_checked", "series.eval_calls", "cli.main_s"),
    "root-scan": ("disk.points_checked", "series.eval_calls", "criteria.report_points"),
    "disk-verify": (
        "summation.oracle_calls", "criteria.verdicts_direct", "criteria.verdicts_closed",
        "scan.roots",
    ),
    "cli-session": (),
}
CITED = (
    "summation.oracle_terms", "scan.margin_evals", "scan.bisection_iterations",
    "disk.points_checked", "series.eval_terms",
)
SEED_SENSITIVE = {  # cited counts the workload's inputs determine
    "grid-report": ("summation.oracle_terms",),
    "root-scan": ("summation.oracle_terms", "scan.margin_evals", "scan.bisection_iterations"),
    "disk-verify": ("series.eval_terms",),
    "cli-session": (),
}

INPUT_DIGEST = """
import hashlib, itertools, sys, workloads
seed = int(sys.argv[1])
for wl in workloads.WORKLOADS.values():
    inputs = list(itertools.islice(workloads.input_stream(wl, seed), 2 * wl.block))
    print(wl.name, hashlib.sha1(repr(inputs).encode()).hexdigest())
"""
failures = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def traced_counts(ctx, wl, seed):
    block = list(itertools.islice(workloads.input_stream(wl, seed), SELFTEST_OPS[wl.name]))
    tracer = tracing.Tracer()
    outputs, _, extra, sites = run.traced_block(ctx, wl, block, tracer)
    metrics = tracing.per_layer_metrics(tracer.spans, extra)
    return block, outputs, metrics, sites


def corruptible(name, out):
    if name == "grid-report":
        return bool(out["flagged_rows"])
    if name == "root-scan":
        return any(not r.boundary and not r.error for r in out)
    return True


def corrupt(name, out):
    """A copy of one op output with one value made wrong."""
    if name == "grid-report":
        out = copy.deepcopy(out)
        row = out["flagged_rows"][0]
        row["direct_lhs"] *= 1.0 + 1e-6
        row["abs_diff"] = abs(row["paper_lhs"] - row["direct_lhs"])
        return out
    if name == "root-scan":
        i = next(i for i, r in enumerate(out) if not r.boundary and not r.error)
        return [*out[:i], dataclasses.replace(out[i], q_star=out[i].q_star * 1.01), *out[i + 1:]]
    if name == "disk-verify":
        rep = out["report"]
        return {**out, "report": dataclasses.replace(rep, min_value=rep.min_value + 1e-3)}
    return {**out, "stdout": out["stdout"].replace(b"e", b"E", 1) + b" "}


def known_defects(ctx):
    """The two program defects the workload inputs are conditioned away from:
    reproduce each, confirm the condition rejects it, and report it."""
    mod = ctx.mod
    disk_case = ("theta", 1.0, 0.003, None)
    expect(not workloads.disk_accepts(*disk_case), "disk inputs exclude verify-disk at m=1, q=0.003")
    inp = dict(zip(("function", "m", "q", "rtau"), disk_case))
    try:
        workloads.run_disk_verify(ctx, {**inp, "family": "S", "xi": 0.0, "gamma": 0.0, "rho": 0.0})
        print("note defect gone: verify_on_disk accepts theta at m=1, q=0.003")
    except ValueError as exc:
        print(f"note defect present: verify_on_disk refuses theta at m=1, q=0.003 ({exc})")
    root_case = {"criterion": "integral-in-s", "variant": "direct", "m_grid": (1.0,),
                 "xi_grid": (0.0,), "gamma_grid": (0.0,), "rho_grid": (0.0,), "rtau": None}
    expect(not workloads.roots_below(root_case), "root-scan inputs exclude integral-in-s at xi=gamma=rho=0")
    res = mod["scan"].critical_q(
        mod["criteria"].CriterionId("integral-in-s"), "direct", 1.0,
        mod["criteria"].SpiralClassParams(0.0, 0.0, 0.0),
    )
    if res.boundary:
        print(f"note defect gone: critical_q reports {res.boundary} for integral-in-s at xi=gamma=rho=0")
    else:
        print(f"note defect present: critical_q reports a root q*={res.q_star!r} for "
              "integral-in-s at xi=gamma=rho=0, where the margin is positive for every q")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expect(
        {(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(run.E2E_UNITS.items()),
        "BENCHMARK.json end_to_end matches run.py",
    )
    expect(
        {(m["name"], m["unit"]) for m in bench["per_layer"]} == set(run.LAYER_UNITS.items()),
        "BENCHMARK.json per_layer matches run.py",
    )
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")
    ms = [float(i) for i in range(1, 101)]
    expect(run.tail(ms) == (90.0, 90.0) and run.tail(ms[:5]) == (5.0, 100.0),
           "tail is the 11th largest sample, with 10 samples beyond it")
    wrapped = {f"{m}.{f}" for m, f, _ in tracing.TARGETS}
    expect(set(itertools.chain(*EXERCISES.values())) == wrapped,
           "every wrapped function has a workload that exercises it")

    for seed in SEEDS:  # inputs may not depend on the process (hash seeds)
        digests = {
            subprocess.run(
                [sys.executable, "-c", INPUT_DIGEST, str(seed)], cwd=run.HERE, text=True,
                capture_output=True, check=True, env={**os.environ, "PYTHONHASHSEED": str(h)},
            ).stdout
            for h in (1, 2)
        }
        expect(len(digests) == 1, f"seed {seed}: inputs are the same in every process")

    import checks

    known_defects(run.setup("disk-verify", SEEDS[0])[0])
    for name, wl in workloads.WORKLOADS.items():
        ctx, _, _ = run.setup(name, SEEDS[0])
        block, outputs, first, sites = traced_counts(ctx, wl, SEEDS[0])
        _, _, again, _ = traced_counts(ctx, wl, SEEDS[0])
        _, _, other, _ = traced_counts(ctx, wl, SEEDS[1])
        for site in tracing.REQUIRED_SITES:
            expect(site in sites, f"{name}: lookup site {site} is wrapped")
        for fn in EXERCISES[name]:
            expect(first["hits"].get(fn, 0) > 0, f"{name}: {fn} hit {first['hits'].get(fn, 0)} times")
        for key in ZERO[name]:
            expect(first[key] == 0, f"{name}: bypass {key} = {first[key]}")
        for key in CITED:
            expect(first[key] == again[key], f"{name}: {key} repeats for one seed ({first[key]})")
        for key in SEED_SENSITIVE[name]:
            expect(first[key] != other[key], f"{name}: {key} changes with the seed "
                   f"({first[key]} vs {other[key]})")
        if name == "disk-verify" and first["disk.denominator_exits"] == 0:
            returned = first["disk.verifications"] - sum(err is not None for _, err in outputs)
            expect(first["disk.points_checked"] == 8640 * returned,
                   "disk-verify: points_checked = 8640 per verification that returned")
        check = checks.CHECKS[name]
        for inp, (out, err) in zip(block, outputs):
            if err is not None or not corruptible(name, out):
                continue
            problems, _ = check(ctx, inp, out)
            expect(not problems, f"{name}: check accepts a real output {problems[:1]}")
            bad, _ = check(ctx, inp, corrupt(name, out))
            expect(bool(bad), f"{name}: check rejects a corrupted output")
            break
        else:
            expect(False, f"{name}: no output to test the check on")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
