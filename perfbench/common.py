"""Operation records, seeded draws and the closed-loop runner.

A workload is a module with

* `NAME`, `MIN_ROUNDS`, `ROUNDS_PER_S` (the rounds that take about a second
  on the reference machine) and `UNTIMED_KINDS` (kinds of operation checked
  and counted, but left out of the timings);
* `make_round(seed, r) -> list[Op]`, deterministic in (seed, r);
* `CALLS[kind](args)`: the library calls of one operation, which are timed;
* `check(op, out) -> Checked`: the untimed output check;
* optionally `prepare(op)`: an untimed warm-up whose result is passed to
  `check(op, out, warm)`;
* `classify_error(op, exc) -> str | None`: the known-defect tag of an
  exception, or None when the exception is not a documented defect.

An operation is "ok", "defect:<tags>" when it met a documented defect inside
its documented region (a raise there, or an output the check recognises as
that defect; a ValueError raised in the region counts too, so that turning a
defect into a loud refusal is not a failure), or "failed:<why>" otherwise.
Every other output of a defect operation is still checked.

The inputs that set an operation's cost (eta, t, |sigma|, eps, window width,
rho |t|, ...) follow one fixed scrambled Sobol sequence per kind of
operation: every prefix of whole rounds covers the input box evenly, and
every seed gets the same balanced mix of cheap and costly operations, so
timings do not move with the seed.  The seed draws everything else -- the
states, sectors, angles, momenta and the order of operations in a round.  A
run is a fixed number of whole rounds, so one seed always gives the same
operation list.

The machine is shared: its speed drifts by tens of percent over seconds as
other tenants load it.  A fixed probe that calls no circleqm code runs
between rounds, and each operation's latency is scaled by PROBE_REF_S / (mean
of the two probes around its round).  A change to the library cannot move
the probe, so scaled timings compare library versions at one machine speed;
the unscaled latency is kept beside it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

# An operation whose worst residual is within this factor of its tolerance
# has low headroom.
HEADROOM_FACTOR = 10.0

# The probe's time on the reference machine, a 2-core Intel Xeon VM at
# 2.0 GHz (Python 3.11, numpy 2.4, one BLAS thread) in its faster phases:
# scaled timings read as if measured at that speed.
PROBE_REF_S = 0.0115
_PROBE_SMALL = np.linspace(0.0, 1.0, 4096)
_PROBE_LARGE = np.linspace(0.0, 1.0, 1 << 18)


def probe() -> float:
    """Seconds taken by a fixed mix of the kinds of work circleqm does:
    numpy complex exponentials on cache-sized and on larger-than-cache
    arrays, and interpreted arithmetic."""
    start = time.perf_counter()
    acc = np.exp(1j * _PROBE_LARGE).sum()
    for k in range(12):
        acc += np.exp(1j * k * _PROBE_SMALL).sum()
    x = 0.0
    for k in range(6000):
        x += (k % 7) * 0.5
    return time.perf_counter() - start


@dataclass(frozen=True)
class Op:
    kind: str
    args: dict
    props: dict = field(default_factory=dict, compare=False)


@dataclass
class Checked:
    """Residuals as (name, residual, tolerance), plus the tags of documented
    defects met by outputs that were therefore not compared."""

    residuals: list = field(default_factory=list)
    defects: list = field(default_factory=list)


@dataclass
class Record:
    kind: str
    latency_s: float
    outcome: str          # "ok", "defect:<tag>" or "failed:<why>"
    worst_ratio: float    # largest residual / tolerance, nan if unchecked
    props: dict
    scale: float = 1.0    # PROBE_REF_S / probe time around the operation

    @property
    def scaled_s(self) -> float:
        return self.latency_s * self.scale


def rng_for(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(r)])


def sobol(salt: int, dims: int, r: int, n: int) -> np.ndarray:
    """Points r*n .. (r+1)*n - 1 of the scrambled Sobol sequence `salt` in
    [0, 1)^dims; n should be a power of two."""
    gen = qmc.Sobol(dims, scramble=True, rng=np.random.default_rng(salt))
    if r:
        gen.fast_forward(r * n)
    return gen.random(n)


def log_uniform(u, lo: float, hi: float):
    return lo * (hi / lo) ** np.asarray(u)


def random_coeffs(rng: np.random.Generator, width: int) -> list:
    c = rng.normal(size=width) + 1j * rng.normal(size=width)
    c /= np.linalg.norm(c)
    return [complex(x) for x in c]


def hist(values, edges) -> dict:
    counts, _ = np.histogram(values, bins=edges)
    return {f"[{lo:g},{hi:g})": int(c)
            for lo, hi, c in zip(edges[:-1], edges[1:], counts)}


def evaluate(workload, op: Op, tracer=None) -> Record:
    call = workload.CALLS[op.kind]
    prepare = getattr(workload, "prepare", None)
    warm = prepare(op) if prepare else None
    if tracer is not None:
        tracer.enabled = True
        idx = tracer.open(f"op.{op.kind}")
    start = time.perf_counter()
    try:
        out, exc = call(op.args), None
    except Exception as err:  # every raise is an outcome to classify
        out, exc = None, err
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.close(idx)
        tracer.enabled = False
    if exc is not None:
        tag = workload.classify_error(op, exc)
        outcome = (f"defect:{tag}" if tag
                   else f"failed:{type(exc).__name__}: {exc}"[:200])
        return Record(op.kind, latency, outcome, math.nan, op.props)
    try:
        checked = (workload.check(op, out, warm) if prepare
                   else workload.check(op, out))
    except Exception as err:  # a check that cannot run is a failed check
        return Record(op.kind, latency,
                      f"failed:check {type(err).__name__}: {err}"[:200],
                      math.nan, op.props)
    worst, bad = 0.0, None
    for name, resid, tol in checked.residuals:
        resid = float(resid)
        if not resid < tol:   # also catches nan
            bad = bad or f"failed:{name} residual {resid:.3g} >= {tol:.3g}"
        ratio = resid / tol if math.isfinite(resid) else math.inf
        worst = max(worst, ratio)
    if not checked.residuals:
        worst = math.nan
    if not bad and checked.defects:
        bad = "defect:" + "+".join(checked.defects)
    return Record(op.kind, latency, bad or "ok", worst, op.props)


def run(workload, seed: int, rounds, tracer=None):
    """The given rounds of the workload, each followed by a probe."""
    records = []
    t0 = time.perf_counter()
    before = probe()
    for r in rounds:
        batch = [evaluate(workload, op, tracer) for op in workload.make_round(seed, r)]
        after = probe()
        for rec in batch:
            rec.scale = PROBE_REF_S / (0.5 * (before + after))
        records += batch
        before = after
    return records, time.perf_counter() - t0
