"""Workload cli-mix: the user-facing command line, in process.

One operation is one `circleqm.cli.main(argv)` call with the configuration
on stdin and stdout captured: seeded `state`, `overlap`, `evolve`, `kernel`
and `table` configurations, one `verify <suite>` per suite per run, and a
fixed share of malformed configurations, for which exit code 2 is expected.
The kernel configurations' (eta, t, eps) and the evolve configurations'
time-grid lengths and window widths come from the Sobol design (see
common.py).  This layer parses, validates and formats 17-digit output.
`verify evolve` takes most of a run's verify time; verify calls are left out
of the timings (see UNTIMED_KINDS).

Outputs are checked by running each configuration once more, untimed and
before the timed call, and requiring identical exit code and bytes; every
`verify` row must read `pass`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys

from common import Checked, Op, log_uniform, random_coeffs, rng_for, sobol
from circleqm import cli

NAME = "cli-mix"
SUITES = ("specfun", "e2", "mincs", "zakcs", "ladder", "evolve")
MIN_ROUNDS = len(SUITES)
# One `verify evolve` call takes 8.6 s, more than all other operations of a
# run together: in the timings it would make the run's throughput a single
# sample of that call.  Verify calls are checked and counted, and their times
# are reported on their own (and per suite in the traced run).
UNTIMED_KINDS = ("verify",)
ROUNDS_PER_S = 3.0
REGULAR = ("state-min", "state-min", "state-wz", "state-wz", "overlap-min",
           "overlap-wz", "evolve-min", "evolve-wz", "evolve-raw", "kernel",
           "kernel", "kernel", "table-mincs-g", "table-transition", "table-kj")
MALFORMED = ("invalid-json", "missing-key", "not-object", "eta-zero",
             "epsilon-negative")


def _min_doc(rng) -> dict:
    return {"alpha": float(rng.uniform(0, 2 * math.pi)),
            "l": float(rng.integers(-3, 4)) + float(rng.choice([0.0, 0.25, 0.5])),
            "gamma": float(rng.uniform(-3, 3)), "s": float(rng.uniform(-5, 5))}


def _wz_doc(rng) -> dict:
    return {"epsilon": float(log_uniform(rng.random(), 0.1, 2.0)),
            "delta": float(rng.uniform(0, 1)),
            "theta": float(rng.uniform(0, 2 * math.pi)),
            "l": float(rng.uniform(-2, 2))}


def _t_grid(rng, u) -> list:
    return sorted(float(x) for x in rng.uniform(0, 20, 4 + int(29 * u)))


def _regular(kind, rng, u) -> tuple[list, dict | None]:
    fmt = ["--format", str(rng.choice(["json", "csv"]))]
    if kind == "state-min":
        return ["state", "-"] + fmt, {"family": "min", **_min_doc(rng)}
    if kind == "state-wz":
        return ["state", "-"] + fmt, {"family": "wz", **_wz_doc(rng)}
    if kind == "overlap-min":
        first = _min_doc(rng)
        second = dict(first, alpha=float(rng.uniform(0, 2 * math.pi)),
                      l=first["l"] + int(rng.integers(-2, 3)))
        return ["overlap", "-"] + fmt, {"family": "min", "first": first,
                                        "second": second}
    if kind == "overlap-wz":
        doc = _wz_doc(rng)
        return ["overlap", "-"] + fmt, {
            "family": "wz", "epsilon": doc["epsilon"], "delta": doc["delta"],
            "first": {"theta": doc["theta"], "l": doc["l"]},
            "second": {"theta": float(rng.uniform(0, 2 * math.pi)),
                       "l": float(rng.uniform(-2, 2))}}
    if kind == "evolve-min":
        doc = _min_doc(rng)
        doc["l"] = float(math.floor(doc["l"]))
        return ["evolve", "-"], {"family": "min", **doc,
                                 "t_grid": _t_grid(rng, u[0])}
    if kind == "evolve-wz":
        return ["evolve", "-"], {"family": "wz", **_wz_doc(rng),
                                 "t_grid": _t_grid(rng, u[0])}
    if kind == "evolve-raw":
        coeffs = random_coeffs(rng, 3 + int(37 * u[1]))
        return ["evolve", "-"], {
            "delta": float(rng.uniform(0, 1)), "n_lo": int(rng.integers(-20, 5)),
            "coeffs": [[c.real, c.imag] for c in coeffs],
            "epsilon": float(rng.uniform(0.5, 2)), "t_grid": _t_grid(rng, u[0])}
    if kind == "kernel":
        return ["kernel", "-"], {
            "eta": float(log_uniform(u[0], 1e-4, 1e-2)),
            "t": float(log_uniform(u[1], 0.05, 20.0)),
            "epsilon": 0.5 + 1.5 * float(u[2]),
            "delta": float(rng.uniform(0, 1)), "n_points": 64}
    if kind == "table-mincs-g":
        return ["table", "mincs-g"], None
    if kind == "table-transition":
        return ["table", "transition", "-"], _wz_doc(rng)
    if kind == "table-kj":
        return ["table", "kj", "-"], {
            "epsilon": float(rng.uniform(0.2, 2)), "delta": float(rng.uniform(0, 1)),
            "theta_grid": [float(x) for x in rng.uniform(0, 2 * math.pi, 4)],
            "l_grid": [float(x) for x in rng.uniform(-2, 2, 4)]}
    raise ValueError(kind)


def _malformed(kind, rng) -> tuple[list, str]:
    if kind == "invalid-json":
        return ["state", "-"], '{"family": "min", "alpha": '
    if kind == "missing-key":
        doc = {"family": "min", **_min_doc(rng)}
        del doc["s"]
        return ["state", "-"], json.dumps(doc)
    if kind == "not-object":
        return ["overlap", "-"], "[1, 2, 3]"
    if kind == "eta-zero":
        return ["kernel", "-"], json.dumps({"t": float(rng.uniform(0.1, 5)),
                                            "eta": 0.0})
    # a library ValueError from the config: documented to escape cli.main
    return ["state", "-"], json.dumps({"family": "wz", **_wz_doc(rng),
                                       "epsilon": -1.0})


def make_round(seed: int, r: int) -> list[Op]:
    rng = rng_for(seed, r)
    # kernel configs: (eta, t, eps); evolve configs: (t-grid length, width)
    design = {"kernel": iter(sobol(0, 3, r, 4)),
              "evolve": iter(sobol(1, 2, r, 4))}
    ops = []
    for kind in REGULAR:
        u = design.get(kind.split("-")[0])
        argv, doc = _regular(kind, rng, next(u) if u else None)
        ops.append(Op(kind, {"argv": argv,
                             "stdin": json.dumps(doc) if doc is not None else ""},
                      {"subcommand": argv[0]}))
    bad = MALFORMED[r % len(MALFORMED)]
    argv, text = _malformed(bad, rng)
    ops.append(Op("malformed", {"argv": argv, "stdin": text, "case": bad},
                  {"subcommand": argv[0]}))
    if r < len(SUITES):
        ops.append(Op("verify", {"argv": ["verify", SUITES[r]], "stdin": ""},
                      {"subcommand": "verify"}))
    return [ops[i] for i in rng.permutation(len(ops))]


def _run(a):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            _stdin(a["stdin"]):
        try:
            code = cli.main(list(a["argv"]))
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _stdin(text):
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


CALLS = {kind: _run for kind in set(REGULAR) | {"malformed", "verify"}}


def prepare(op: Op):
    if op.kind in ("malformed", "verify"):
        return None
    try:
        return _run(op.args)
    except Exception as exc:  # reported by the check
        return exc


def check(op: Op, out, warm) -> Checked:
    code, stdout, stderr = out
    if op.kind == "verify":
        rows = [row for row in csv.reader(stdout.splitlines())
                if row and not row[0].startswith("#") and row[0] != "suite"]
        checked = Checked([("exit-code", abs(code), 1),
                           ("has-rows", 0 if rows else 1, 1)])
        for row in rows:
            # each row carries its own residual and tolerance
            checked.residuals.append((f"{row[1]} reads {row[5]}",
                                      float(row[3]) if row[5] == "pass" else math.inf,
                                      float(row[4])))
        return checked
    if op.kind == "malformed":
        return Checked([("exit-code-2", abs(code - 2), 1),
                        ("message", 0 if stderr.strip() else 1, 1)])
    same = isinstance(warm, tuple) and warm == (code, stdout, stderr)
    return Checked([("exit-code", abs(code), 1),
                    ("bytes-equal-warm-up", 0 if same else 1, 1),
                    ("non-empty", 0 if stdout else 1, 1)])


def classify_error(op: Op, exc: Exception):
    if (op.kind == "malformed" and op.args["case"] == "epsilon-negative"
            and isinstance(exc, ValueError)):
        return "cli_value_error_escapes"
    return None


def input_properties(records) -> dict:
    mix = {}
    for r in records:
        mix[r.props["subcommand"]] = mix.get(r.props["subcommand"], 0) + 1
    return {"subcommand_mix": mix,
            "malformed_share": sum(r.kind == "malformed" for r in records)
            / max(len(records), 1)}
