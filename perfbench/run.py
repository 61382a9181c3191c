"""circleqm benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  One client runs one operation at a time in this process, through a
fixed operation list made from the seed: S seconds' worth of rounds on the
reference machine (see common.py).  Every output is checked against an
independent oracle.

Operation timings are scaled to the reference speed of a fixed probe that
runs between rounds (see common.py), because the shared machine's own speed
drifts by tens of percent; the unscaled values are in the report.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 a fixed number of rounds runs
once untraced and once with every public circleqm function wrapped in
in-memory spans, and the metrics are the per-layer ones.  The line before
it is a JSON report with every metric, its unit and sample count, the
known-defect attribution of `error_share`, the workload's input properties
and a machine record.
"""

from __future__ import annotations

import argparse
import os
import sys

# BLAS threads are fixed before numpy loads: single-threaded is the baseline.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOADS = {"kernel-apply": "kernel_apply", "coherent-states": "coherent_states",
             "group-action": "group_action", "cli-mix": "cli_mix"}
SETUP_REPEATS = 3
TRACE_SHARE = 0.4
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")

# Per-layer metrics: calls and self time of these functions, work counts,
# CLI busy time per subcommand and per verify suite.
LAYER_FUNCTIONS = (
    "specfun.theta", "specfun.theta_derivs", "specfun.bessel_i",
    "specfun.bessel_j", "specfun.g_ratio", "specfun.elliptic_suite",
    "circlespace.apply_operator", "circlespace.inner",
    "circlespace.uncertainty_report", "circlespace.rep_apply",
    "circlespace.fidelity", "circlespace.basis_state",
    "e2action.compose", "e2action.act", "e2action.solve_transporter",
    "e2action.symplectic_residual",
    "mincs.min_state", "mincs.min_expectations", "mincs.saturation_gap",
    "mincs.min_overlap", "mincs.sum_rule_residual",
    "mincs.completeness_residual", "mincs.dbt_divergence",
    "zakcs.w_state", "zakcs.w_norm_sq", "zakcs.w_overlap",
    "zakcs.w_expectations", "zakcs.transition_prob", "zakcs.density",
    "zakcs.completeness_residual_wz", "zakcs.zak_periodize",
    "ladder.kj_report", "ladder.kj_matrix_elements", "ladder.pair_stats",
    "ladder.eigen_residual", "ladder.qdeform_residual", "ladder.apply_B",
    "ladder.apply_Bdag",
    "evolve.propagate", "evolve.kernel", "evolve.kernel_apply",
    "cli.main",
)
WORK_METRICS = ("evolve.kernel.points", "mincs.min_state.coeffs",
                "zakcs.w_state.coeffs", "circlespace.rep_apply.coeffs_out")
CLI_SUBCOMMANDS = ("verify", "table", "state", "overlap", "evolve", "kernel")
VERIFY_SUITES = ("specfun", "e2", "mincs", "zakcs", "ladder", "evolve")

NO_WAITING = ("The library is single-threaded and has no queues: no operation "
              "waits for another, so no waiting time is measured.")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = []
    for fn in LAYER_FUNCTIONS:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    out += [(name, "count") for name in WORK_METRICS]
    out += [(f"cli.{sub}.busy_s", "s") for sub in CLI_SUBCOMMANDS]
    out += [(f"cli.verify.{suite}.busy_s", "s") for suite in VERIFY_SUITES]
    out += [("trace.overhead_ratio", "ratio"), ("checks.error_share", "share"),
            ("checks.low_headroom_share", "share")]
    return out


def import_workload(name: str):
    """Import the library from src/ and the workload's module."""
    if not (SRC / "circleqm" / "__init__.py").is_file():
        raise FileNotFoundError(f"no circleqm package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib
    return importlib.import_module(WORKLOADS[name])


def setup_seconds(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall seconds of a fresh interpreter importing circleqm.cli, which
    every CLI call pays.  Unscaled: the import runs in another process,
    whose speed the probe does not track."""
    import circleqm.cli  # noqa: F401  (writes every module's bytecode cache)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import circleqm.cli"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def machine_record(seed: int) -> dict:
    import numpy as np
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def outcome_summary(records) -> dict:
    """error_share, its attribution to known defects, and low headroom."""
    from common import HEADROOM_FACTOR
    n = len(records)
    errors = [r for r in records if r.outcome != "ok"]
    tags = {}
    for r in errors:
        for tag in (r.outcome.split(":", 1)[1].split("+")
                    if r.outcome.startswith("defect:") else ["unexpected_failure"]):
            tags[tag] = tags.get(tag, 0) + 1
    checked = [r for r in records if r.outcome == "ok" and math.isfinite(r.worst_ratio)]
    low = sum(r.worst_ratio >= 1.0 / HEADROOM_FACTOR for r in checked)
    return {
        "error_share": len(errors) / n,
        "errors": len(errors),
        "defects": {tag: {"ops": c, "share_of_attempted": c / n,
                          "share_of_error_share": c / len(errors)}
                    for tag, c in sorted(tags.items())},
        "low_headroom_share": low / max(len(checked), 1),
        "low_headroom_ops": low,
        "checked_ops": len(checked),
        "failures": sorted({r.outcome for r in records
                            if r.outcome.startswith("failed")})[:20],
    }


def timings(lat) -> dict:
    """Throughput and latency percentiles of a list of operation times."""
    import numpy as np
    lat = np.asarray(lat)
    p50, p90 = np.percentile(lat, [50, 90])
    return {"ops_per_s": len(lat) / float(np.sum(lat)), "op_p50_ms": 1e3 * p50,
            "op_p90_ms": 1e3 * p90, "samples": len(lat),
            "beyond_p90": int(np.sum(lat > p90))}


def end_to_end(records, setup, untimed_kinds):
    """The seven end-to-end metrics; operation timings at the probe's
    reference speed (see common.py), with the unscaled values beside them.
    Operations of `untimed_kinds` are checked and counted but left out of
    the timings."""
    timed = [r for r in records if r.kind not in untimed_kinds]
    scaled = timings([r.scaled_s for r in timed])
    outcomes = outcome_summary(records)
    n = scaled["samples"]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s",
                    "samples": len(setup)},
        "ops_per_s": {"value": scaled["ops_per_s"], "unit": "1/s", "samples": n},
        "op_p50_ms": {"value": scaled["op_p50_ms"], "unit": "ms", "samples": n},
        "op_p90_ms": {"value": scaled["op_p90_ms"], "unit": "ms", "samples": n,
                      "beyond": scaled["beyond_p90"]},
        "error_share": {"value": outcomes["error_share"], "unit": "share",
                        "samples": len(records)},
        "low_headroom_share": {"value": outcomes["low_headroom_share"],
                               "unit": "share", "samples": outcomes["checked_ops"]},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "unit": "MB", "samples": 1},
    }
    unscaled = timings([r.latency_s for r in timed])
    unscaled["untimed_ops_s"] = {kind: [round(r.latency_s, 4) for r in records
                                        if r.kind == kind] for kind in untimed_kinds}
    return metrics, outcomes, unscaled


def rounds_for(wl, seconds: float) -> int:
    """Length of the fixed operation list: about `seconds` of operations on
    the reference machine."""
    return max(wl.MIN_ROUNDS, round(seconds * wl.ROUNDS_PER_S))


def traced_run(wl, seed: int, n_rounds: int):
    """Each round untraced, then again traced, so that the two passes see
    the same machine; per-layer metrics come from the traced pass and the
    overhead is traced / untraced wall time of the library calls."""
    import common
    import tracing
    before = tracing.public_bindings()
    tracer = tracing.Tracer()
    plain, traced = [], []
    for r in range(n_rounds):
        plain += common.run(wl, seed, [r])[0]
        tracer.install()
        try:
            traced += common.run(wl, seed, [r], tracer=tracer)[0]
        finally:
            tracer.restore()
    if any(getattr(mod, attr) is not fn for mod, attr, fn in before):
        raise RuntimeError("tracing left a circleqm attribute patched")
    per_name, per_label = tracer.summary()
    overhead = (sum(r.latency_s for r in traced)
                / sum(r.latency_s for r in plain))
    metrics = {}
    for fn in LAYER_FUNCTIONS:
        calls, _, self_s = per_name.get(fn, (0, 0.0, 0.0))
        metrics[f"{fn}.calls"] = calls
        metrics[f"{fn}.self_s"] = self_s
    for name in WORK_METRICS:
        metrics[name] = tracer.work.get(name, 0)
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.busy_s"] = sum(
            v for (name, label), v in per_label.items()
            if name == "cli.main" and label.split(".")[0] == sub)
    for suite in VERIFY_SUITES:
        metrics[f"cli.verify.{suite}.busy_s"] = per_label.get(
            ("cli.main", f"verify.{suite}"), 0.0)
    outcomes = outcome_summary(plain + traced)
    metrics["trace.overhead_ratio"] = overhead
    metrics["checks.error_share"] = outcomes["error_share"]
    metrics["checks.low_headroom_share"] = outcomes["low_headroom_share"]
    every_function = {name: {"calls": c, "total_s": tot, "self_s": s}
                      for name, (c, tot, s) in sorted(per_name.items())}
    return plain + traced, metrics, every_function, overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        wl = import_workload(args.workload)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", RuntimeWarning)   # overflow in defect regions
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "loop": "closed, one client, one process",
              "waiting": NO_WAITING}
    rounds = rounds_for(wl, args.seconds)
    if args.trace:
        # two passes over a shorter list keep a traced run about as long
        rounds = max(wl.MIN_ROUNDS, round(TRACE_SHARE * rounds))
        records, metrics, every_function, overhead = traced_run(
            wl, args.seed, rounds)
        units = dict(per_layer_names())
        out_metrics = {k: {"value": metrics[k], "unit": units[k]} for k in units}
        report.update(rounds_per_pass=rounds, trace_overhead=overhead,
                      functions=every_function)
    else:
        setup = setup_seconds()
        import common
        records, wall = common.run(wl, args.seed, range(rounds))
        e2e, outcomes, unscaled = end_to_end(records, setup, wl.UNTIMED_KINDS)
        out_metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]}
                       for k in END_TO_END}
        report.update(rounds=rounds, wall_s=wall, setup_samples_s=setup,
                      metrics=e2e, outcomes=outcomes, unscaled_wall_clock=unscaled,
                      mean_probe_scale=sum(r.scale for r in records) / len(records))
    report["op_counts"] = {k: sum(r.kind == k for r in records)
                           for k in sorted({r.kind for r in records})}
    report["input_properties"] = wl.input_properties(records)
    report["machine"] = machine_record(args.seed)
    failed = sum(r.outcome.startswith("failed") for r in records)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
