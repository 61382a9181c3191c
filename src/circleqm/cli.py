"""Command-line front end: it parses and validates the arguments, calls
the library and formats its results.

Subcommands: `verify` prints the rows of `circleqm.verify.run` as CSV
(`--tol`, a finite positive number, replaces every tolerance) and exits
nonzero on any failure; `table` reproduces the reference ratio table and
the transition/ladder records; `state`, `overlap`, `evolve` and `kernel` emit
JSON or CSV reports for a configuration document (positional path or "-"
for stdin).  Output is deterministic at a fixed BLAS thread count:
identical configuration yields identical bytes (floats printed with 17
significant digits, JSON numbers as decimal strings).  theta's array lane
sums its values with `ndarray.dot`, which OpenBLAS splits across threads,
so values built from theta over many points (the `kernel` samples, the
`state --density-out` density, `verify`'s kernel rows) can move in their
last bits with the thread count.  theta's scalar lane, which sums every
number and every derivative, calls no BLAS, so the holomorphic family's
closed forms of one point (the `state` moments of a "wz" config,
`table transition`) do not.

Each call is parsed once, by its subcommand's own parser; help, and any
usage error, comes from the top-level parser, in argparse's own words.

This module alone reads the configuration documents, the raw coefficient
window of `evolve` ({"delta", "n_lo", "coeffs": [[re, im], ...]})
included: every number in them is a finite JSON number, not a boolean or
a string, and every count or index an integral one.

Exit codes: 0 ok, 1 a failed verify check, 2 a malformed configuration,
with a `config error:` message on stderr and nothing on stdout.  Exit 2
covers missing keys, non-finite numbers, values the library refuses (a
ValueError), grids (`t_grid`, `theta_grid`, `l_grid`) that are not
nonempty lists of finite numbers, counts (`n_points`, `density_points`)
that are not integers in [1, 2^20], a raw window whose `delta` or
coefficients are not finite numbers or whose `n_lo` is not an integer
with |n_lo| < 2^53, `evolve` and `kernel` times at which a phase eps
omega t (n+delta)^2 / 2 reaches 2^52 rad, and a `--tol` that is not a
finite positive number.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from circleqm import circlespace, evolve, ladder, mincs, specfun, verify, zakcs
from circleqm.circlespace import Params, Sector
from circleqm.mincs import MinUncParams
from circleqm.zakcs import PhasePoint, WZParams

__all__ = ["main"]


class ConfigError(Exception):
    """Raised on malformed configuration documents (exit code 2)."""


def _table(header: str, fields: str, rows: int, values) -> str:
    """CSV text: the header line, then `rows` lines of the %-template
    `fields`, filled from the flat sequence `values` (row by row) in one %
    pass.  A float field is "%.17g", which writes the same bytes as
    `format(x, ".17g")`."""
    return header + "\n" + (fields + "\n") * rows % tuple(values)


def _float_table(header: str, *columns) -> str:
    """`_table` of equal-length float columns, every value as %.17g; a 2-D
    column contributes each of its own columns."""
    table = np.column_stack(columns)
    rows, width = table.shape
    return _table(header, ",".join(["%.17g"] * width), rows,
                  table.ravel().tolist())


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(source) -> dict:
    if source is None:
        return {}
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _convert(val, what: str) -> float:
    """val as a float: a finite JSON number, not a boolean or a string."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{what}: expected float")
    # an integer past the largest double is refused with nan and inf
    if not abs(val) <= sys.float_info.max:
        raise ConfigError(f"{what}: expected a finite number")
    return float(val)


def _need(doc: dict, key: str) -> float:
    if key not in doc:
        raise ConfigError(f"missing required key {key!r}")
    return _convert(doc[key], f"key {key!r}")


def _get(doc: dict, key: str, default: float) -> float:
    if key not in doc:
        return default
    return _convert(doc[key], f"key {key!r}")


_MAX_POINTS = 2 ** 20


def _integral(val):
    """val as an int where it is an integral JSON number (3 or 3.0, not a
    boolean), else None."""
    if isinstance(val, float) and val.is_integer():
        return int(val)
    return val if type(val) is int else None


def _points(doc: dict, key: str, default: int) -> int:
    """The sample count `key`: an integral number in [1, 2^20]."""
    val = _integral(doc.get(key, default))
    if val is None or not 1 <= val <= _MAX_POINTS:
        raise ConfigError(f"key {key!r} must be an integer in [1, 2^20]")
    return val


def _grid(doc: dict, key: str, default=None) -> list:
    """The elements of the list `key` as finite floats."""
    vals = doc.get(key, default)
    if not isinstance(vals, list) or not vals:
        raise ConfigError(f"key {key!r} must be a nonempty list of numbers")
    return [_convert(v, f"key {key!r} element {i}") for i, v in enumerate(vals)]


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        # inf would pass every row and nan fail every one
        raise ConfigError("--tol must be a finite positive number")
    rows = verify.run(verify.SUITES if args.suite == "all" else [args.suite])
    values = []
    n_fail = 0
    for row in rows:
        tol = row.tolerance if args.tol is None else args.tol
        ok = row.residual < tol
        n_fail += 0 if ok else 1
        values += (row.suite, row.check_id, row.identity, row.residual, tol,
                   "pass" if ok else "FAIL")
    _emit(_table("suite,check_id,identity,residual,tolerance,pass",
                 '%s,%s,"%s",%.17g,%.17g,%s', len(rows), values)
          + f"# {n_fail} failing of {len(rows)} checks\n", args.out)
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------
# table


_RATIO_TABLE_X = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]


def _cmd_table(args) -> int:
    doc = _load_config(args.config)
    if args.name == "mincs-g":
        xs = list(_RATIO_TABLE_X)
        xs += [x for x in np.linspace(0.0, 20.0, 81).tolist() if x not in xs]
        rec = specfun.g_ratio(np.array(xs))
        text = _float_table("x,i1_over_i0,i1_over_x_i0,g",
                            xs, rec.r1, rec.r2, rec.g)
    elif args.name == "transition":
        params = WZParams(_get(doc, "epsilon", 1.0),
                          Sector(_get(doc, "delta", 0.0)))
        z = PhasePoint(_get(doc, "theta", 0.0), _get(doc, "l", 0.0))
        ms = zakcs.w_state(params, z, window_tol=1e-14).indices
        probs = zakcs.transition_prob(ms, params, z)
        text = _table("m,probability", "%d,%.17g", ms.size,
                      [v for row in zip(ms.tolist(), probs.tolist())
                       for v in row])
    else:  # "kj"; argparse's choices admit no other name
        eps = _get(doc, "epsilon", 1.0)
        delta = _get(doc, "delta", 0.0)
        thetas = _grid(doc, "theta_grid", [0.0, math.pi / 2, math.pi])
        ls = _grid(doc, "l_grid", [-1.0, 0.0, 1.0])
        ctx = ladder.LadderContext(eps, Sector(delta))
        values = []
        for th in thetas:
            for l_t in ls:
                rep = ladder.kj_report(ctx, PhasePoint(th, l_t))
                values += (th, l_t, rep.mean_k, rep.mean_j, rep.var_k,
                           rep.var_j, rep.commutator_mean.imag,
                           "true" if rep.saturated else "false")
        text = _table(
            "theta,l,mean_k,mean_j,var_k,var_j,commutator_im,saturated",
            "%.17g," * 7 + "%s", len(thetas) * len(ls), values)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# state / overlap / evolve / kernel


def _min_params_from(doc: dict) -> MinUncParams:
    return MinUncParams(_need(doc, "alpha"), _need(doc, "l"),
                        _need(doc, "gamma"), _need(doc, "s"))


def _wz_params_from(doc: dict) -> WZParams:
    return WZParams(_need(doc, "epsilon"), Sector(_need(doc, "delta")))


def _point_from(doc: dict) -> PhasePoint:
    return PhasePoint(_need(doc, "theta"), _need(doc, "l"))


def _record_to_strings(record: dict) -> dict:
    out = {}
    for key, val in record.items():
        if isinstance(val, complex):
            out[key + "_re"] = "%.17g" % val.real
            out[key + "_im"] = "%.17g" % val.imag
        elif isinstance(val, bool):
            out[key] = "true" if val else "false"
        elif isinstance(val, dict):
            out[key] = _record_to_strings(val)
        else:
            out[key] = "%.17g" % val
    return out


def _render(record: dict, fmt: str) -> str:
    strings = _record_to_strings(record)
    if fmt == "json":
        return json.dumps(strings, sort_keys=True, indent=2) + "\n"
    flat = {}
    for key, val in sorted(strings.items()):
        if isinstance(val, dict):
            for k2, v2 in sorted(val.items()):
                flat[f"{key}.{k2}"] = v2
        else:
            flat[key] = val
    lines = ["key,value"] + [f"{k},{v}" for k, v in flat.items()]
    return "\n".join(lines) + "\n"


def _cmd_state(args) -> int:
    doc = _load_config(args.config)
    family = doc.get("family")
    # the records' fields are read shallowly: `dataclasses.asdict` would
    # deep-copy every value
    if family == "min":
        record = vars(mincs.min_expectations(_min_params_from(doc)))
    elif family == "wz":
        params, z = _wz_params_from(doc), _point_from(doc)
        record = dict(vars(zakcs.w_expectations(params, z)))
        record["leading_order"] = vars(record.pop("leading"))
        if args.density_out:
            n = _points(doc, "density_points", 256)
            phi = z.theta - math.pi + np.arange(n) * (2.0 * math.pi / n)
            _emit(_float_table("phi,density", phi,
                               zakcs.density(params, z, phi)),
                  args.density_out)
    else:
        raise ConfigError("key 'family' must be 'min' or 'wz'")
    _emit(_render(record, args.format), args.out)
    return 0


def _cmd_overlap(args) -> int:
    doc = _load_config(args.config)
    family = doc.get("family")
    if family not in ("min", "wz"):
        raise ConfigError("key 'family' must be 'min' or 'wz'")
    first = doc.get("first")
    second = doc.get("second")
    if not isinstance(first, dict) or not isinstance(second, dict):
        raise ConfigError("keys 'first' and 'second' must be objects")
    if family == "min":
        res = mincs.min_overlap(_min_params_from(second),
                                _min_params_from(first))
        record = {"value": res.value, "valid": res.valid}
    else:
        params = _wz_params_from(doc)
        z1, z2 = _point_from(first), _point_from(second)
        record = {"value": zakcs.w_overlap(params, z1, z2)}
    _emit(_render(record, args.format), args.out)
    return 0


def _state_for_family(doc: dict) -> circlespace.CircleState:
    """The state of a "min" or "wz" family, or the raw coefficient window
    {"delta": ..., "n_lo": ..., "coeffs": [[re, im], ...]}: n_lo an
    integral number and delta and every re and im a finite number
    (`_integral`, `_convert`); `CircleState` refuses |n_lo| >= 2^53."""
    family = doc.get("family")
    if family == "min":
        return mincs.min_state(_min_params_from(doc), window_tol=1e-14)
    if family == "wz":
        return zakcs.w_state(_wz_params_from(doc), _point_from(doc),
                             window_tol=1e-14)
    if "coeffs" not in doc:
        raise ConfigError("key 'family' must be 'min' or 'wz', or provide a "
                          "raw state via delta/n_lo/coeffs")
    n_lo = _integral(doc.get("n_lo"))
    if n_lo is None:
        raise ConfigError("key 'n_lo' must be an integer")
    pairs = doc["coeffs"]
    if not (isinstance(pairs, list) and pairs
            and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
        raise ConfigError("malformed state document: key 'coeffs' must be "
                          "a nonempty list of [re, im] pairs")
    # complex(re, im) of each pair, bit for bit
    coeffs = np.array([_convert(x, "key 'coeffs'") for p in pairs for x in p])
    return circlespace.CircleState(Sector(_need(doc, "delta")), n_lo,
                                   coeffs.view(complex))


def _cmd_evolve(args) -> int:
    doc = _load_config(args.config)
    state = _state_for_family(doc)
    params = Params(_get(doc, "epsilon", 1.0), _get(doc, "omega", 1.0))
    t = _grid(doc, "t_grid")
    _emit(_float_table("t,re_c,re_s,mean_l,var_c,var_s,var_l,fidelity", t,
                       evolve.moment_series(params, state, t)), args.out)
    return 0


def _cmd_kernel(args) -> int:
    doc = _load_config(args.config)
    params = Params(_get(doc, "epsilon", 1.0), _get(doc, "omega", 1.0))
    sector = Sector(_get(doc, "delta", 0.0))
    spec = evolve.EvolutionSpec(params, sector, _need(doc, "t"),
                                eta=_need(doc, "eta"))
    n = _points(doc, "n_points", 64)
    dphi = -math.pi + np.arange(n) * (2.0 * math.pi / n)
    vals = evolve.kernel(spec, dphi)
    _emit(_float_table("dphi,re_k,im_k", dphi, vals.real, vals.imag),
          args.out)
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level argument parser and its subcommands' parsers by name,
    built on first use and shared by every `main` call in the process;
    parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="circleqm",
        description="Quantum mechanics on the circle: verification suites, "
                    "reference tables, coherent-state reports.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run invariant suites and report residuals")
    p.add_argument("suite", choices=("all", *verify.SUITES))
    p.add_argument("--tol", type=float, default=None,
                   help="override every check tolerance")

    p = sub.add_parser("table", parents=[common], help="emit reference tables")
    p.add_argument("name", choices=("mincs-g", "transition", "kj"))
    p.add_argument("config", nargs="?", default=None)

    for name, helptext in (("state", "expectation record of a coherent state"),
                           ("overlap", "scalar product of two states"),
                           ("evolve", "time series under the quadratic flow"),
                           ("kernel", "propagator kernel samples")):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("config", nargs="?", default=None)
        if name in ("state", "overlap"):
            p.add_argument("--format", default="json", choices=("json", "csv"),
                           help="report format")
        if name == "state":
            p.add_argument("--density-out", default=None,
                           help="also write the angular density CSV here")
    return parser, sub.choices


def _parse(argv) -> argparse.Namespace:
    """The arguments of `argv`, parsed by the parser of the subcommand it
    names first: the nested parse that the top-level parser would run on
    them, without the top-level pass.  Any other argv (help, no or an
    unknown subcommand, arguments left over) is the top-level parser's to
    answer or to refuse."""
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    handlers = {
        "verify": _cmd_verify,
        "table": _cmd_table,
        "state": _cmd_state,
        "overlap": _cmd_overlap,
        "evolve": _cmd_evolve,
        "kernel": _cmd_kernel,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        # a library ValueError is its refusal of a configured value
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
