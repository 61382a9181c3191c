"""Command-line front end.

Subcommands: `verify` runs per-module invariant suites and exits nonzero on
any failure; `table` reproduces the reference ratio table and the
transition/ladder records; `state`, `overlap`, `evolve` and `kernel` emit
JSON or CSV reports for a configuration document (positional path or "-"
for stdin).  Output is deterministic: identical configuration yields
identical bytes (floats printed with 17 significant digits, JSON numbers
as decimal strings).

Exit codes: 0 ok, 1 a failed verify check, 2 a malformed configuration,
with a `config error:` message on stderr and nothing on stdout.  Exit 2
covers missing keys, non-finite numbers, values the library refuses (a
ValueError), grids (`t_grid`, `theta_grid`, `l_grid`) that are not
nonempty lists of finite numbers, counts (`n_points`, `density_points`)
that are not integers in [1, 2^20], and `evolve` and `kernel` times at
which a phase eps omega t (n+delta)^2 / 2 reaches 2^52 rad.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from circleqm import circlespace, e2action, evolve, ladder, mincs, specfun, zakcs
from circleqm.circlespace import Params, Sector
from circleqm.mincs import MinUncParams
from circleqm.zakcs import PhasePoint, WZParams

__all__ = ["main"]


class ConfigError(Exception):
    """Raised on malformed configuration documents (exit code 2)."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
    try:
        val = float(val)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: expected float") from exc
    if not math.isfinite(val):
        raise ConfigError(f"{what}: expected a finite number")
    return val


def _need(doc: dict, key: str) -> float:
    if key not in doc:
        raise ConfigError(f"missing required key {key!r}")
    return _convert(doc[key], f"key {key!r}")


def _get(doc: dict, key: str, default: float) -> float:
    if key not in doc:
        return default
    return _convert(doc[key], f"key {key!r}")


_MAX_POINTS = 2 ** 20


def _points(doc: dict, key: str, default: int) -> int:
    """The sample count `key`: an integral number, not a boolean, in
    [1, 2^20]."""
    val = doc.get(key, default)
    if isinstance(val, float) and val.is_integer():
        val = int(val)
    if (isinstance(val, bool) or not isinstance(val, int)
            or not 1 <= val <= _MAX_POINTS):
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


def _theta_transform_residual(kind, partner, im_taus, zetas, floor):
    """Worst relative defect of theta_kind(z | tau) = (-i tau)^(-1/2)
    exp(z^2 / (i pi tau)) theta_partner(z / tau | -1/tau), both sides
    summed directly, at tau = i im_tau; |lhs| is floored at `floor`."""
    worst = 0.0
    for im_tau in im_taus:
        tau = 1j * im_tau
        nome = specfun.ThetaNome(tau)
        nome2 = specfun.ThetaNome(-1.0 / tau)
        for z in zetas:
            lhs = specfun.theta(kind, z, nome, method="direct")
            rhs = ((-1j * tau) ** -0.5
                   * np.exp(z * z / (1j * math.pi * tau))
                   * specfun.theta(partner, z / tau, nome2, method="direct"))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), floor))
    return worst


def _check_theta_modular():
    zetas = [complex(re_z, im_z) for re_z in np.linspace(-math.pi, math.pi, 4)
             for im_z in np.linspace(-2.0, 2.0, 4)]
    return _theta_transform_residual(3, 3, (0.5, 1.0, 2.0, 5.0), zetas, 0.0)


def _check_theta_two_four():
    return _theta_transform_residual(2, 4, (0.6, 1.0, 3.0),
                                     (0.0, 0.4, 1.0 + 0.5j, -0.9 + 1.2j), 1e-3)


def _check_elliptic_identities():
    worst = 0.0
    for q in (0.1, math.exp(-1.0), 0.5):
        nome = specfun.ThetaNome.from_q(q)
        for zeta in (0.15, 0.4, 0.9):
            rec = specfun.elliptic_suite(zeta, nome)
            v3, d3, dd3 = specfun.theta_derivs(3, zeta, nome)
            v4, d4, _ = specfun.theta_derivs(4, zeta, nome)
            two_k_pi = 2.0 * rec.K / math.pi
            r1 = abs((v4 / v3).real - math.sqrt(rec.kprime) / rec.dn)
            r2 = abs((d4 / v4).real - two_k_pi * rec.Z)
            rhs = (d4 / v4).real - two_k_pi * rec.k ** 2 * rec.cn * rec.sn / rec.dn
            r3 = abs((d3 / v3).real - rhs)
            second = (dd3 / v3 - (d3 / v3) ** 2).real
            ref = (4.0 * rec.K ** 2 / math.pi ** 2) * (
                rec.kprime ** 2 / rec.dn ** 2 - rec.E / rec.K)
            r4 = abs(second - ref) / max(abs(ref), 1.0)
            worst = max(worst, r1, r2, r3, r4)
    return worst


def _check_bessel_sum_rule():
    worst = 0.0
    for x in (0.5, 1.5, 3.0, 7.0):
        # orders 0..h: the bound leaves a tail below 1e-32, far under the
        # rounding this check measures
        h = specfun._bessel_half_width(x, 1e-32)
        sq = np.abs(specfun.bessel_j(np.arange(h + 1), x)) ** 2
        worst = max(worst, abs(sq[0] + 2 * np.sum(sq[1:]) - 1.0))
    return worst


def _check_ratio_bound():
    r2 = specfun.g_ratio(np.array([1e-4, 0.1, 0.9, 4.0, 25.0, 300.0])).r2
    return float(max(0.0, np.max(r2) - 0.5, -np.min(r2)))


def _check_e2_homomorphism():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(400):
        g2 = e2action.GroupElement(rng.uniform(-6, 6),
                                   complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        g1 = e2action.GroupElement(rng.uniform(-6, 6),
                                   complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        s = e2action.PhaseSpacePoint(rng.uniform(0, 2 * math.pi),
                                     rng.uniform(-5, 5))
        a = e2action.act(e2action.compose(g2, g1), s)
        b = e2action.act(g2, e2action.act(g1, s))
        dphi = abs((a.phi - b.phi + math.pi) % (2 * math.pi) - math.pi)
        worst = max(worst, dphi, abs(a.p_phi - b.p_phi))
    return worst


def _check_e2_transporter():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        s1 = e2action.PhaseSpacePoint(rng.uniform(0, 2 * math.pi),
                                      rng.uniform(-5, 5))
        s2 = e2action.PhaseSpacePoint(rng.uniform(0, 2 * math.pi),
                                      rng.uniform(-5, 5))
        out = e2action.act(e2action.solve_transporter(s1, s2), s1)
        dphi = abs((out.phi - s2.phi + math.pi) % (2 * math.pi) - math.pi)
        worst = max(worst, dphi, abs(out.p_phi - s2.p_phi))
    return worst


def _check_e2_symplectic():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(60):
        g = e2action.GroupElement(rng.uniform(-6, 6),
                                  complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        s = e2action.PhaseSpacePoint(rng.uniform(0, 2 * math.pi),
                                     rng.uniform(-5, 5))
        worst = max(worst, e2action.symplectic_residual(g, s))
    return worst


def _check_min_saturation():
    worst = 0.0
    for s in (0.3, 1.0, 3.0):
        for gamma in (0.0, 1.0):
            for delta in (0.0, 0.3):
                lhs, rhs = mincs.saturation_gap(
                    MinUncParams(0.0, delta, gamma, s), "CL")
                worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-30))
                lhs, rhs = mincs.saturation_gap(
                    MinUncParams(math.pi / 2, delta, gamma, s), "SL")
                worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-30))
    return worst


def _check_min_gap_positive():
    min_gap = math.inf
    for s in (0.3, 1.0, 3.0):
        for gamma in (0.0, 1.0):
            for delta in (0.0, 0.3):
                lhs, rhs = mincs.saturation_gap(
                    MinUncParams(0.7, delta, gamma, s), "CL")
                min_gap = min(min_gap, lhs - rhs)
    return max(0.0, 1e-6 - min_gap)


def _check_min_vs_quadrature():
    params = MinUncParams(0.7, 1.3, 0.8, 1.2)
    e = mincs.min_expectations(params)
    psi = mincs.min_state(params, window_tol=1e-14).normalized()
    c_psi = circlespace.apply_operator("C", psi)
    l_psi = circlespace.apply_operator("L", psi)
    s_psi = circlespace.apply_operator("S", psi)
    return max(
        abs(circlespace.inner(psi, c_psi).real - e.mean_c),
        abs(circlespace.inner(psi, s_psi).real - e.mean_s),
        abs(circlespace.inner(psi, l_psi).real - e.mean_l),
        abs(circlespace.inner(c_psi, c_psi).real - e.mean_c2),
        abs(circlespace.inner(l_psi, l_psi).real - e.mean_l2),
    )


def _check_min_sum_rule():
    worst = 0.0
    for sigma in (0.5 + 0j, 3.0 - 1.0j, 1.0 - 2.0j, 6.0 + 4.0j):
        worst = max(worst, mincs.sum_rule_residual(sigma))
    return worst


def _check_min_completeness():
    s, gamma, m = 1.0, 0.0, 1
    n_cut = abs(m) + math.ceil(abs(complex(gamma, -s))) + 20
    return abs(mincs.completeness_residual(m, m, s, gamma, Sector(0.0), n_cut))


def _check_divergence_slope():
    inc = mincs.dbt_divergence(0, 1e3) - mincs.dbt_divergence(0, 1e2)
    return abs(inc * math.pi / math.log(10.0) - 1.0)


def _check_wz_periodization():
    params = WZParams(1.0, Sector(0.25))
    phi = np.linspace(-math.pi, 3 * math.pi, 16)
    series, closed = zakcs.zak_periodize(params, 1.0 + 0.5j, phi)
    return float(np.max(np.abs(series - closed)) / np.max(np.abs(series)))


def _check_wz_norm():
    params = WZParams(1.0, Sector(0.2))
    z = PhasePoint(0.4, 1.3)
    st = zakcs.w_state(params, z, window_tol=1e-14)
    ref = zakcs.w_norm_sq(params, z)
    return abs(st.norm_sq() - ref) / ref


def _check_wz_kernel_hermitian():
    params = WZParams(0.8, Sector(0.4))
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(6):
        z1 = PhasePoint(rng.uniform(0, 6.28), rng.uniform(-2, 2))
        z2 = PhasePoint(rng.uniform(0, 6.28), rng.uniform(-2, 2))
        k12 = zakcs.w_overlap(params, z1, z2)
        k21 = zakcs.w_overlap(params, z2, z1)
        worst = max(worst, abs(k21 - np.conj(k12)) / max(abs(k12), 1.0))
    return worst


def _check_wz_completeness():
    params = WZParams(1.0, Sector(0.0))
    res = zakcs.completeness_residual_wz(0, 0, params)
    return max(abs(res.gauss), abs(res.weighted))


def _check_wz_variance_sum():
    params = WZParams(1.0, Sector(0.2))
    e = zakcs.w_expectations(params, PhasePoint(0.5, 0.3))
    nome = specfun.ThetaNome(1j * math.pi)
    zeta = math.pi * (0.3 - 0.2)
    ratio = (specfun.theta(4, zeta, nome) / specfun.theta(3, zeta, nome)).real
    return abs(e.var_sum - (1.0 - math.exp(-0.5) * ratio ** 2))


def _check_ladder_eigen():
    worst = 0.0
    for eps, z in ((0.5, 0j), (0.5, 1 + 0.5j), (1.0, 2j), (1.0, 1 + 0.5j)):
        for delta in (0.0, 0.4):
            ctx = ladder.LadderContext(eps, Sector(delta))
            worst = max(worst, ladder.eigen_residual(ctx, PhasePoint.from_z(z)))
    return worst


def _check_ladder_kj():
    worst = 0.0
    for eps, z in ((0.5, 0j), (1.0, 1 + 0.5j), (1.0, 2j)):
        ctx = ladder.LadderContext(eps, Sector(0.0))
        rep = ladder.kj_report(ctx, PhasePoint.from_z(z))
        lhs = rep.var_k * rep.var_j
        rhs = rep.covariance ** 2 + 0.25 * abs(rep.commutator_mean) ** 2
        worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-30))
        mat = ladder.kj_matrix_elements(ctx, PhasePoint.from_z(z))
        scale = max(abs(rep.var_k), 1.0)
        worst = max(worst, abs(rep.var_k - mat.var_k) / scale)
    return worst


def _check_ladder_qdeform():
    worst = 0.0
    for eps, delta, n in ((1.0, 0.0, 0), (0.5, 0.3, 2), (2.0, 0.7, -1)):
        ctx = ladder.LadderContext(eps, Sector(delta))
        worst = max(worst, ladder.qdeform_residual(ctx, n))
    return worst


def _check_evolve_revival():
    spec = evolve.EvolutionSpec(Params(1.0, 1.0), Sector(0.0), 4 * math.pi)
    rng = np.random.default_rng(1)
    c = rng.normal(size=11) + 1j * rng.normal(size=11)
    psi = circlespace.CircleState(Sector(0.0), -5, c).normalized()
    return 1.0 - circlespace.fidelity(psi, evolve.propagate(spec, psi))


def _check_evolve_kernel_faces():
    spec = evolve.EvolutionSpec(Params(1.0, 1.0), Sector(0.3), 0.7, eta=1e-6)
    dphi = np.linspace(-math.pi, math.pi, 7)
    a = evolve.kernel(spec, dphi, form="series")
    b = evolve.kernel(spec, dphi, form="gaussian")
    return float(np.max(np.abs(a - b)) / np.max(np.abs(a)))


def _check_evolve_kernel_vs_spectral():
    sector = Sector(0.2)
    psi = circlespace.CircleState(
        sector, -1, np.array([0.3 - 0.1j, 0.8 + 0.2j, -0.4 + 0.5j])).normalized()
    spec = evolve.EvolutionSpec(Params(1.0, 1.0), sector, 0.9, eta=1e-6)
    phi_out = np.linspace(0, 2 * math.pi, 4, endpoint=False)
    via_kernel = evolve.kernel_apply(spec, psi, phi_out)
    # the kernel's eta-bias exp(-eps omega eta (n+delta)^2 / 2) (eps = omega
    # = 1 here), folded into the reference so that the residual measures
    # the kernel alone
    bias = np.exp(-0.5 * spec.eta * (psi.indices + sector.delta) ** 2)
    damped = evolve.propagate(spec, psi).coeffs * bias
    ref = circlespace.CircleState(sector, psi.n_lo, damped).evaluate(phi_out)
    return float(np.max(np.abs(via_kernel - ref)))


# (check id, identity slug, callable, tolerance)
_VERIFY_SUITES = {
    "specfun": [
        ("theta-imaginary-transformation", "theta3 vs transformed series",
         _check_theta_modular, 1e-12),
        ("theta-two-to-four-transformation", "theta2 vs transformed theta4",
         _check_theta_two_four, 1e-12),
        ("elliptic-identity-web", "theta ratios vs elliptic suite",
         _check_elliptic_identities, 1e-9),
        ("bessel-squared-sum", "sum of squared J equals one",
         _check_bessel_sum_rule, 1e-12),
        ("bessel-ratio-bound", "I1/(x I0) within (0, 1/2]",
         _check_ratio_bound, 1e-15),
    ],
    "e2": [
        ("group-action-homomorphism", "act respects composition",
         _check_e2_homomorphism, 1e-12),
        ("transporter-round-trip", "transitivity witness lands on target",
         _check_e2_transporter, 1e-12),
        ("symplectic-determinant", "unit Jacobian determinant",
         _check_e2_symplectic, 1e-9),
    ],
    "mincs": [
        ("saturation-both-pairs", "variance inequality saturates at the "
         "aligned angles", _check_min_saturation, 1e-10),
        ("nonminimal-gap", "strictly positive gap off the aligned angles",
         _check_min_gap_positive, 1e-12),
        ("moments-vs-quadrature", "closed moments vs coefficient quadrature",
         _check_min_vs_quadrature, 1e-8),
        ("bessel-sum-rule", "squared-J sum equals I0(2s)",
         _check_min_sum_rule, 1e-10),
        ("completeness-residual", "identity resolution at documented cutoff",
         _check_min_completeness, 1e-6),
        ("group-average-divergence", "log slope of the flat average",
         _check_divergence_slope, 0.05),
    ],
    "zakcs": [
        ("periodization-two-faces", "winding sum vs theta closed form",
         _check_wz_periodization, 1e-10),
        ("norm-vs-theta", "coefficient norm vs theta value",
         _check_wz_norm, 1e-10),
        ("kernel-hermitian", "reproducing kernel conjugate symmetry",
         _check_wz_kernel_hermitian, 1e-12),
        ("completeness-both-forms", "identity resolution, both measures",
         _check_wz_completeness, 1e-6),
        ("variance-sum-identity", "var C + var S closes in the theta ratio",
         _check_wz_variance_sum, 1e-12),
    ],
    "ladder": [
        ("eigen-residual", "holomorphic states are lowering eigenvectors",
         _check_ladder_eigen, 1e-10),
        ("quadrature-pair-saturation", "K/J product equals commutator bound",
         _check_ladder_kj, 1e-12),
        ("qdeformed-algebra", "A Adag - q Adag A = q^-N on the basis",
         _check_ladder_qdeform, 1e-12),
    ],
    "evolve": [
        ("full-revival", "fidelity restored after the revival period",
         _check_evolve_revival, 1e-12),
        ("kernel-two-faces", "spectral vs Gaussian-prefactor kernel",
         _check_evolve_kernel_faces, 1e-9),
        ("kernel-vs-spectral", "kernel quadrature matches propagation",
         _check_evolve_kernel_vs_spectral, 1e-11),
    ],
}


def _cmd_verify(args) -> int:
    suites = list(_VERIFY_SUITES) if args.suite == "all" else [args.suite]
    lines = ["suite,check_id,identity,residual,tolerance,pass"]
    n_fail = 0
    for suite in suites:
        for check_id, identity, fn, tol in _VERIFY_SUITES[suite]:
            if args.tol is not None:
                tol = args.tol
            residual = float(fn())
            ok = residual < tol
            n_fail += 0 if ok else 1
            lines.append(",".join([suite, check_id, f"\"{identity}\"",
                                   _fmt(residual), _fmt(tol),
                                   "pass" if ok else "FAIL"]))
    lines.append(f"# {n_fail} failing of "
                 f"{sum(len(_VERIFY_SUITES[s]) for s in suites)} checks")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------
# table


_RATIO_TABLE_X = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]


def _cmd_table(args) -> int:
    doc = _load_config(args.config)
    if args.name == "mincs-g":
        xs = list(_RATIO_TABLE_X)
        xs += [x for x in np.linspace(0.0, 20.0, 81) if x not in xs]
        rec = specfun.g_ratio(np.array(xs))
        lines = ["x,i1_over_i0,i1_over_x_i0,g"] + [
            ",".join(map(_fmt, row))
            for row in zip(xs, rec.r1.tolist(), rec.r2.tolist(), rec.g.tolist())]
    elif args.name == "transition":
        params = WZParams(_get(doc, "epsilon", 1.0),
                          Sector(_get(doc, "delta", 0.0)))
        z = PhasePoint(_get(doc, "theta", 0.0), _get(doc, "l", 0.0))
        ms = zakcs.w_state(params, z, window_tol=1e-14).indices
        probs = zakcs.transition_prob(ms, params, z)
        lines = ["m,probability"] + [
            f"{m},{_fmt(p)}" for m, p in zip(ms.tolist(), probs.tolist())]
    else:  # "kj"; argparse's choices admit no other name
        eps = _get(doc, "epsilon", 1.0)
        delta = _get(doc, "delta", 0.0)
        thetas = _grid(doc, "theta_grid", [0.0, math.pi / 2, math.pi])
        ls = _grid(doc, "l_grid", [-1.0, 0.0, 1.0])
        ctx = ladder.LadderContext(eps, Sector(delta))
        lines = ["theta,l,mean_k,mean_j,var_k,var_j,commutator_im,saturated"]
        for th in thetas:
            for l_t in ls:
                rep = ladder.kj_report(ctx, PhasePoint(th, l_t))
                lines.append(",".join(
                    [_fmt(th), _fmt(l_t), _fmt(rep.mean_k), _fmt(rep.mean_j),
                     _fmt(rep.var_k), _fmt(rep.var_j),
                     _fmt(rep.commutator_mean.imag),
                     "true" if rep.saturated else "false"]))
    _emit("\n".join(lines) + "\n", args.out)
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
            out[key + "_re"] = _fmt(val.real)
            out[key + "_im"] = _fmt(val.imag)
        elif isinstance(val, bool):
            out[key] = "true" if val else "false"
        elif isinstance(val, dict):
            out[key] = _record_to_strings(val)
        else:
            out[key] = _fmt(val)
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
    if family == "min":
        record = dataclasses.asdict(
            mincs.min_expectations(_min_params_from(doc)))
    elif family == "wz":
        params, z = _wz_params_from(doc), _point_from(doc)
        record = dataclasses.asdict(zakcs.w_expectations(params, z))
        record["leading_order"] = record.pop("leading")
        if args.density_out:
            n = _points(doc, "density_points", 256)
            phi = z.theta - math.pi + np.arange(n) * (2.0 * math.pi / n)
            vals = zakcs.density(params, z, phi)
            lines = ["phi,density"] + [
                f"{_fmt(p)},{_fmt(v)}" for p, v in zip(phi, vals)]
            _emit("\n".join(lines) + "\n", args.density_out)
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
    family = doc.get("family")
    if family == "min":
        return mincs.min_state(_min_params_from(doc), window_tol=1e-14)
    if family == "wz":
        return zakcs.w_state(_wz_params_from(doc), _point_from(doc),
                             window_tol=1e-14)
    if "coeffs" in doc:
        # raw coefficient window {delta, n_lo, coeffs: [[re, im], ...]}
        try:
            return circlespace.CircleState.from_json(json.dumps(doc))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed state document: {exc}") from exc
    raise ConfigError("key 'family' must be 'min' or 'wz', or provide a raw "
                      "state via delta/n_lo/coeffs")


def _cmd_evolve(args) -> int:
    doc = _load_config(args.config)
    state = _state_for_family(doc).normalized()
    params = Params(_get(doc, "epsilon", 1.0), _get(doc, "omega", 1.0))
    t = _grid(doc, "t_grid")
    rows = np.column_stack((t, evolve.moment_series(params, state, t)))
    lines = ["t,re_c,re_s,mean_l,var_c,var_s,var_l,fidelity"] + [
        ",".join(map(_fmt, row)) for row in rows.tolist()]
    _emit("\n".join(lines) + "\n", args.out)
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
    lines = ["dphi,re_k,im_k"] + [
        f"{_fmt(d)},{_fmt(v.real)},{_fmt(v.imag)}" for d, v in zip(dphi, vals)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main`
    call in the process; `parse_args` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="circleqm",
        description="Quantum mechanics on the circle: verification suites, "
                    "reference tables, coherent-state reports.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run invariant suites and report residuals")
    p.add_argument("suite", choices=("all", "specfun", "mincs", "zakcs",
                                     "ladder", "evolve", "e2"))
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
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
