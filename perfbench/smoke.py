"""Smoke test of the benchmark itself (about a minute):

    python3 perfbench/smoke.py

* two tiny runs of each workload with one seed give identical operation
  lists and identical check outcomes, and a different seed gives different
  operations;
* tracing patches the public circleqm functions while installed and leaves
  every circleqm attribute as it was after `restore()`;
* BENCHMARK.json names exactly the metrics that run.py emits.
"""

from __future__ import annotations

import json
import sys
import warnings

import run  # sets the BLAS threads and locates src/ first

import common  # noqa: E402
import tracing  # noqa: E402

# a round per workload that is quick to evaluate (cli-mix rounds past the
# verify suites)
SMOKE_ROUND = {"kernel-apply": 0, "coherent-states": 0, "group-action": 0,
               "cli-mix": len(run.VERIFY_SUITES)}


def tiny_run(wl, seed: int, r: int, tracer=None):
    ops = wl.make_round(seed, r)
    return ops, [common.evaluate(wl, op, tracer).outcome for op in ops]


def check_determinism() -> None:
    for name, r in SMOKE_ROUND.items():
        wl = run.import_workload(name)
        ops1, out1 = tiny_run(wl, 7, r)
        ops2, out2 = tiny_run(wl, 7, r)
        assert ops1 == ops2, f"{name}: op lists differ for one seed"
        assert out1 == out2, f"{name}: check outcomes differ for one seed"
        assert wl.make_round(8, r) != ops1, f"{name}: seed does not matter"
        assert not [o for o in out1 if o.startswith("failed")], (name, out1)
        print(f"{name}: {len(ops1)} ops, identical lists and outcomes")


def check_tracing_restores() -> None:
    wl = run.import_workload("coherent-states")
    before = {(mod.__name__, attr): getattr(mod, attr)
              for mod in tracing.traced_modules() for attr in dir(mod)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import circleqm.mincs
        import circleqm.specfun
        assert circleqm.mincs.bessel_j is not before[("circleqm.mincs", "bessel_j")]
        assert circleqm.mincs.bessel_j is circleqm.specfun.bessel_j
        _, outcomes = tiny_run(wl, 7, 0, tracer)
    finally:
        tracer.restore()
    after = {(mod.__name__, attr): getattr(mod, attr)
             for mod in tracing.traced_modules() for attr in dir(mod)}
    assert before.keys() == after.keys(), "attribute set changed"
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed, f"attributes not restored: {changed[:5]}"
    calls, _ = tracer.summary()
    assert calls["specfun.bessel_j"][0] > 0 and "evolve.kernel" not in calls
    assert outcomes == tiny_run(wl, 7, 0)[1], "tracing changed outcomes"
    print(f"tracing: {len(tracing.public_bindings())} bindings patched and restored")


def check_benchmark_json() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert layer == run.per_layer_names(), "per_layer differs from run.py"
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    e2e = [m["name"] for m in bench["end_to_end"]]
    assert e2e == list(run.END_TO_END), e2e
    print("BENCHMARK.json matches run.py")


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)
    check_determinism()
    check_tracing_restores()
    check_benchmark_json()
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
