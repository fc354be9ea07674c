"""The four benchmark workloads: seeded input generators and the op each
one times.

Inputs are drawn in blocks.  Within a block every scalar input is
stratified (one draw per equal-probability stratum, then shuffled), so two
seeds see the same input distribution and differ only in which inputs they
pair up; this keeps run-to-run spread down without narrowing the domain.
Every op goes through the package's public module functions, looked up on
the module at call time, so the traced run's wrappers see every call.

What each workload exercises and bypasses is recorded in README.md next to
this file.
"""
from __future__ import annotations

import importlib
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference

CRITERIA = (
    "theta-in-s", "theta-in-k", "lambda-in-s", "lambda-in-k",
    "integral-in-k", "integral-in-s",
)
FUNCTION_CRITERION = {  # (verify-disk function, family) -> matching criterion
    ("theta", "S"): "theta-in-s",
    ("theta", "K"): "theta-in-k",
    ("integral", "S"): "integral-in-s",
    ("integral", "K"): "integral-in-k",
    ("lambda-rtau", "S"): "lambda-in-s",
    ("lambda-rtau", "K"): "lambda-in-k",
}
XI_MAX = 1.55          # |xi| < pi/2 = 1.5708
Q_MAX_GRID = 0.99      # beyond this the oracle needs > 10^4 terms at m = 12
Q_MAX_DISK = 0.93      # truncation order N up to about 480 at m = 12
DISK_THRESHOLD = 1e-10  # the truncation rule verify-disk uses
DISK_RADIUS = 0.995
DISK_TAIL_REFUSAL = 1e-8  # verify_on_disk refuses a series whose |a_N| r^N exceeds this
ROOT_Q_MAX = 0.99      # every root-scan root lies below this
PACKAGE_MODULES = ("series", "summation", "criteria", "scan", "disk", "cli", "schemas")


@dataclass
class Context:
    """Where the package lives and where a run may write."""

    root: str
    src: str
    out_dir: str
    mod: dict


def load_package(root: str, out_dir: str) -> Context:
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    # pascal_spiral.scan is shadowed by the re-exported scan function, so the
    # submodules are reached through importlib
    mod = {name: importlib.import_module(f"pascal_spiral.{name}") for name in PACKAGE_MODULES}
    return Context(root=root, src=src, out_dir=out_dir, mod=mod)


# -- seeded input distributions ----------------------------------------------

def _strata(rng, n):
    return (rng.permutation(n) + rng.random(n)) / n


def _log_uniform(u, lo, hi):
    return lo * (hi / lo) ** u


def draw_m(u):
    """10%: m - 1 log-uniform in [1e-7, 0.1] (m -> 1, including the
    |m-1| < 1e-4 oracle fallback of sum_Sinv); 90%: m log-uniform in [1, 12]."""
    if u < 0.1:
        return float(1.0 + _log_uniform(u / 0.1, 1e-7, 0.1))
    return float(_log_uniform((u - 0.1) / 0.9, 1.0, 12.0))


def draw_q(u, q_max, q_small=1e-6):
    """15%: log-uniform in [q_small, 0.05]; 85%: uniform in [0.05, q_max]."""
    if u < 0.15:
        return float(_log_uniform(u / 0.15, q_small, 0.05))
    return float(0.05 + (q_max - 0.05) * (u - 0.15) / 0.85)


def draw_xi(u):
    return float(XI_MAX * (2.0 * u - 1.0))


def draw_rtau(u_mod, u_arg, u_vartheta, u_delta):
    """|tau| log-uniform in [0.1, 2], arg(tau) uniform, vartheta uniform in
    [0.05, 1], delta uniform in [-1, 0.95]."""
    tau = _log_uniform(u_mod, 0.1, 2.0) * complex(math.cos(2 * math.pi * u_arg), math.sin(2 * math.pi * u_arg))
    return (complex(tau), float(0.05 + 0.95 * u_vartheta), float(-1.0 + 1.95 * u_delta))


def _columns(rng, n, names):
    return {name: _strata(rng, n) for name in names}


def _balanced(rng, n, choices):
    """n picks that use every choice equally often (up to remainder)."""
    picks = [choices[i % len(choices)] for i in range(n)]
    return [picks[i] for i in rng.permutation(n)]


def _conditioned(rng, cols, i, build, accept):
    """Op i built from its stratified draws or, while accept rejects it, from
    fresh uniform draws for every column."""
    u = {name: values[i] for name, values in cols.items()}
    op = build(u)
    while not accept(op):
        op = build({name: rng.random() for name in cols})
    return op


def disk_accepts(function, m, q, rtau):
    """verify_on_disk's tail check accepts the series verify-disk builds.

    It refuses a series whose last stored term |a_N| r^N exceeds 1e-8,
    although the truncation rule has already bounded the tail after it by
    1e-10; at small q (below 0.05 in these draws) the two rules can
    disagree.  The disk inputs are conditioned on the check accepting, with
    a 1% margin for rounding."""
    tail = reference.last_scaled_coefficient(
        function, m, q, rtau, DISK_THRESHOLD, DISK_RADIUS
    )
    return tail <= 0.99 * DISK_TAIL_REFUSAL


def roots_below(op, q_max=ROOT_Q_MAX):
    """Every scan row of the op has its root below q_max: the reference margin
    of the op's variant is negative there.

    Above about q = 0.9997 the oracle stops at its 100000-term cap, scan turns
    that into a margin of -inf, and critical_q reports a false root there when
    the true margin is still positive (a bounded left-hand side: lambda-in-s
    with x < 1, integral-in-s near xi = gamma = 0 or rho = 1).  The root-scan
    inputs are conditioned on a root below q_max, where the oracle converges."""
    rtau = op["rtau"] if op["criterion"].startswith("lambda") else None
    return all(
        reference.margin(op["criterion"], op["variant"], m, q_max, xi, g, rho, rtau) < 0.0
        for m in op["m_grid"] for xi in op["xi_grid"]
        for g in op["gamma_grid"] for rho in op["rho_grid"]
    )


def gen_grid_report(rng, n):
    cols = _columns(rng, n, (
        "m0", "m1", "q0", "q1", "x0", "x1", "x2", "g0", "g1", "g2", "r0", "r1",
        "tm", "ta", "tv", "td",
    ))
    thresholds = _balanced(rng, n, (0.0, 1e-6))
    return [
        {
            "threshold": thresholds[i],
            "m_grid": (draw_m(cols["m0"][i]), draw_m(cols["m1"][i])),
            "q_grid": (draw_q(cols["q0"][i], Q_MAX_GRID), draw_q(cols["q1"][i], Q_MAX_GRID)),
            "xi_grid": tuple(draw_xi(cols[k][i]) for k in ("x0", "x1", "x2")),
            "gamma_grid": tuple(float(cols[k][i]) for k in ("g0", "g1", "g2")),
            "rho_grid": tuple(float(cols[k][i]) for k in ("r0", "r1")),
            "rtau": draw_rtau(cols["tm"][i], cols["ta"][i], cols["tv"][i], cols["td"][i]),
        }
        for i in range(n)
    ]


def gen_root_scan(rng, n):
    """Each block pairs every criterion with the variants in ROOT_VARIANTS, so
    every block holds the same criterion and variant mix, and every input is
    stratified within each (criterion, variant) group.  The R^tau modulus
    |tau| is derived from x = lim_{q->1} lhs/rhs of the lambda criteria,
    x = 2|tau|(1-delta)/vartheta * A/(1-gamma) with A the slope of weight_S;
    x is log-uniform in [0.1, 10].  Ops are conditioned on roots_below, so
    lambda-in-s ops with x < 1 (satisfied for every q) are drawn again."""
    pairs = [(c, v) for c in CRITERIA for v in ROOT_VARIANTS]
    kind = [pairs[i % len(pairs)] for i in rng.permutation(n)]
    names = ("m0", "m1", "x", "xi", "g", "r", "ta", "tv", "td")
    cols = {name: np.empty(n) for name in names}
    for pair in dict.fromkeys(pairs):
        group = [i for i in range(n) if kind[i] == pair]
        for name, values in _columns(rng, len(group), names).items():
            cols[name][group] = values

    def build(u, criterion, variant):
        xi, gamma, rho = draw_xi(u["xi"]), float(u["g"]), float(u["r"])
        _, vartheta, delta = draw_rtau(0.0, u["ta"], u["tv"], u["td"])
        slope = (1.0 - rho) / math.cos(xi) + rho * (1.0 - gamma)
        modulus = _log_uniform(u["x"], 0.1, 10.0) * (1.0 - gamma) * vartheta / (
            2.0 * slope * (1.0 - delta)
        )
        arg = 2.0 * math.pi * u["ta"]
        return {
            "criterion": criterion,
            "variant": variant,
            "m_grid": (draw_m(u["m0"]), draw_m(u["m1"])),
            "xi_grid": (xi,),
            "gamma_grid": (gamma,),
            "rho_grid": (rho,),
            "rtau": (complex(modulus * math.cos(arg), modulus * math.sin(arg)), vartheta, delta),
        }

    return [
        _conditioned(rng, cols, i, lambda u, k=kind[i]: build(u, *k), roots_below)
        for i in range(n)
    ]


def gen_disk_verify(rng, n):
    cols = _columns(rng, n, ("m", "q", "x", "g", "r", "tm", "ta", "tv", "td"))
    kinds = _balanced(rng, n, sorted(FUNCTION_CRITERION))

    def build(u, function, family):
        return {
            "function": function,
            "family": family,
            "m": draw_m(u["m"]),
            "q": draw_q(u["q"], Q_MAX_DISK, q_small=1e-4),
            "xi": draw_xi(u["x"]),
            "gamma": float(u["g"]),
            "rho": float(u["r"]),
            "rtau": draw_rtau(u["tm"], u["ta"], u["tv"], u["td"]),
        }

    def accept(op):
        return disk_accepts(op["function"], op["m"], op["q"], op["rtau"])

    return [
        _conditioned(rng, cols, i, lambda u, k=kinds[i]: build(u, *k), accept)
        for i in range(n)
    ]


ROOT_VARIANTS = ("direct", "direct", "direct", "direct", "paper", "rederived")
CLI_COMMANDS = (  # weights of the session mix, by command
    ("coeffs", 3), ("identities", 3), ("check", 7), ("verify-disk", 4), ("scan", 3),
)
CLI_CRITERION_NAMES = tuple(f"thm{i}" for i in range(1, 7)) + tuple(
    f"cor{i}" for i in range(1, 7)
) + CRITERIA


def _opt(name, value):
    # "--name=value" keeps negative numbers and comma lists away from
    # argparse's option detection
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def _rtau_opts(rtau):
    tau, vartheta, delta = rtau
    return [
        _opt("tau-re", tau.real), _opt("tau-im", tau.imag),
        _opt("vartheta", vartheta), _opt("delta", delta),
    ]


def _grid(values):
    return ",".join(repr(v) for v in values)


def gen_cli_session(rng, n):
    cols = _columns(rng, n, ("m", "m1", "q", "x", "g", "r", "nn", "tm", "ta", "tv", "td"))
    commands = _balanced(rng, n, tuple(c for c, w in CLI_COMMANDS for _ in range(w)))
    formats = _balanced(rng, n, ("json", "csv"))
    names = _balanced(rng, n, CLI_CRITERION_NAMES)
    check_variants = _balanced(rng, n, ("all", "all", "direct", "paper", "rederived"))
    scan_variants = _balanced(rng, n, ("direct", "direct", "paper", "rederived"))
    kinds = _balanced(rng, n, sorted(FUNCTION_CRITERION))

    def build(u, i):
        cmd, fmt = commands[i], formats[i]
        m = draw_m(u["m"])
        rtau = draw_rtau(u["tm"], u["ta"], u["tv"], u["td"])
        klass = [_opt("xi", draw_xi(u["x"])), _opt("gamma", float(u["g"])), _opt("rho", float(u["r"]))]
        op = {"command": cmd, "format": fmt}
        if cmd == "coeffs":
            args = ["coeffs", _opt("m", m), _opt("q", draw_q(u["q"], Q_MAX_GRID)),
                    _opt("n", 2 + int(39 * u["nn"]))]
        elif cmd == "identities":
            args = ["identities", _opt("m", m), _opt("q", draw_q(u["q"], Q_MAX_GRID))]
        elif cmd == "check":
            args = ["check", names[i], _opt("m", m), _opt("q", draw_q(u["q"], Q_MAX_GRID)),
                    *klass, _opt("variant", check_variants[i]), *_rtau_opts(rtau)]
        elif cmd == "verify-disk":
            function, family = kinds[i]
            q = draw_q(u["q"], Q_MAX_DISK, q_small=1e-4)
            op["disk"] = (function, m, q, rtau)
            args = ["verify-disk", _opt("function", function), _opt("class", family),
                    _opt("m", m), _opt("q", q), *klass, *_rtau_opts(rtau)]
        else:
            args = ["scan", names[i], _opt("variant", scan_variants[i]),
                    _opt("m-grid", _grid((m, draw_m(u["m1"])))),
                    _opt("xi-grid", _grid((draw_xi(u["x"]),))),
                    _opt("gamma-grid", _grid((float(u["g"]),))),
                    _opt("rho-grid", _grid((float(u["r"]),))),
                    *_rtau_opts(rtau)]
        op["args"] = [*args, _opt("format", fmt)]
        return op

    def accept(op):
        return "disk" not in op or disk_accepts(*op["disk"])

    return [_conditioned(rng, cols, i, lambda u, i=i: build(u, i), accept) for i in range(n)]


# -- ops ---------------------------------------------------------------------

def rtau_params(ctx, rtau):
    tau, vartheta, delta = rtau
    return ctx.mod["series"].RTauParams(tau=tau, vartheta=vartheta, delta=delta)


def run_grid_report(ctx, inp):
    return ctx.mod["criteria"].discrepancy_report(
        threshold=inp["threshold"],
        m_grid=inp["m_grid"],
        q_grid=inp["q_grid"],
        xi_grid=inp["xi_grid"],
        gamma_grid=inp["gamma_grid"],
        rho_grid=inp["rho_grid"],
        r=rtau_params(ctx, inp["rtau"]),
    )


def run_root_scan(ctx, inp):
    cid = ctx.mod["criteria"].CriterionId(inp["criterion"])
    return ctx.mod["scan"].scan(
        cid, inp["variant"], inp["m_grid"], inp["xi_grid"], inp["gamma_grid"],
        inp["rho_grid"], r=rtau_params(ctx, inp["rtau"]) if cid.needs_rtau else None,
    )


def build_disk_function(ctx, inp):
    """The series verify-disk builds for --function theta/integral/lambda-rtau."""
    series = ctx.mod["series"]
    p = series.PascalParams(inp["m"], inp["q"])
    order = series.adaptive_truncation_order(p, threshold=DISK_THRESHOLD, radius=DISK_RADIUS)
    theta = series.theta_series(p, order)
    if inp["function"] == "theta":
        return theta
    if inp["function"] == "integral":
        return series.integral_transform(theta)
    extremal = series.extremal_rtau_series(rtau_params(ctx, inp["rtau"]), order)
    return series.hadamard_convolve(theta, extremal)


def run_disk_verify(ctx, inp):
    f = build_disk_function(ctx, inp)
    c = ctx.mod["criteria"].SpiralClassParams(inp["xi"], inp["gamma"], inp["rho"])
    disk = ctx.mod["disk"]
    report = disk.verify_on_disk(
        f, c, inp["family"], disk.default_grid(), tolerance=1e-6, tail_check=True
    )
    return {"series": f, "report": report}


class CliError(RuntimeError):
    """The cli exited with status 1 (its "error: ..." exit)."""


def run_cli_session(ctx, inp):
    """One `python -m pascal_spiral.cli` process.  Its output goes to files
    so that os.wait4 can reap it and report its peak resident memory."""
    out_path = os.path.join(ctx.out_dir, "cli.stdout")
    err_path = os.path.join(ctx.out_dir, "cli.stderr")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (ctx.src, env.get("PYTHONPATH"))))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "pascal_spiral.cli", *inp["args"]], stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            cwd=ctx.root, env=env,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    if proc.returncode == 1:  # the cli's error exit: the op was refused
        raise CliError(stderr.decode("utf-8", "replace").strip())
    return {
        "returncode": proc.returncode, "stdout": stdout, "stderr": stderr,
        "maxrss_kb": usage.ru_maxrss,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable      # (rng, n) -> list of n op inputs
    run: Callable           # (ctx, input) -> output
    block: int              # inputs drawn per stratified block
    trace_ops: int          # ops in one traced block (fixed, so counts repeat)
    warmup_ops: int
    canary: str = "interpreter"  # the canary.CANARIES entry that times the machine


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-report", gen_grid_report, run_grid_report, 24, 16, 2),
        Workload("root-scan", gen_root_scan, run_root_scan, 36, 24, 3),
        Workload("disk-verify", gen_disk_verify, run_disk_verify, 60, 120, 6),
        Workload("cli-session", gen_cli_session, run_cli_session, 20, 10, 1, "process"),
    )
}
_TAGS = {name: i for i, name in enumerate(WORKLOADS)}
WARMUP_SEED = -1


def input_stream(workload: Workload, seed: int):
    """Endless deterministic input stream; block b comes from the seed
    sequence (seed, workload, b).  seed = WARMUP_SEED gives the fixed
    warm-up inputs, which no benchmark seed (>= 0) can produce."""
    key = (1, 0) if seed == WARMUP_SEED else (0, seed)
    b = 0
    while True:
        rng = np.random.default_rng([*key, _TAGS[workload.name], b])
        yield from workload.generate(rng, workload.block)
        b += 1
