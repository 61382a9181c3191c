"""Workload coherent-states: the two coherent-state families and the ladder.

One operation builds a state, computes its closed-form record and runs the
coefficient-space `uncertainty_report` on it, or evaluates one of the
families' closed-form scalar products, sum rules or identity resolutions.
Bessel J is called once per coefficient of a minimal-uncertainty state and
`theta` is called as many scalar calls with few terms -- the opposite use
from kernel-apply.  No kernel code runs.

Each round holds a fixed number of operations of each kind; the parameters
that set an operation's cost (|sigma|, eps, l) come from per-kind Sobol
designs (see common.py).  The draws keep the defect regions: s > 355, where
`min_state` overflows; eps -> 0.01 at |l| -> 3, where the `w_state` norm
overflows; eps < 0.1, where `w_overlap` and `density` can return nan; and
odd momentum shifts across the half-angle branch, where `min_overlap`
returns minus the scalar product.
"""

from __future__ import annotations

import math

import numpy as np

from common import Checked, Op, hist, log_uniform, rng_for, sobol
from circleqm import ladder, mincs, zakcs
from circleqm.circlespace import CircleState, Sector, uncertainty_report
from circleqm.mincs import MinUncParams
from circleqm.zakcs import PhasePoint, WZParams

NAME = "coherent-states"
MIN_ROUNDS = 1
UNTIMED_KINDS = ()
ROUNDS_PER_S = 2.0

# kind: operations per round
MIX = {"min": 8, "min-large-s": 1, "min-overlap": 2, "sum-rule": 1,
       "completeness": 1, "wz": 8, "wz-large-l": 1, "wz-completeness": 1,
       "ladder": 2}
SALT = {kind: i + 1 for i, kind in enumerate(MIX)}

TOL_MOMENT = 1e-8       # relative to max(1, |value|), as the repo tests
TOL_OVERLAP = 1e-8
TOL_SUM_RULE = 1e-10
TOL_COMPLETENESS = 1e-6
TOL_NORM = 1e-10
TOL_PROB = 1e-10
TOL_DENSITY = 1e-9
TOL_KJ = 1e-8

# log(largest double): min_state normalizes by sqrt(I0(2s)) ~ e^{2s}, and
# the w_state norm is ~ e^{(l - eps delta)^2 / eps}
LOG_MAX = math.log(np.finfo(float).max)
# eps below which w_overlap and density may return non-finite values
SMALL_EPS = 0.1


def _sigma(u_abs, u_arg, lo, hi):
    mag = float(log_uniform(u_abs, lo, hi))
    ang = 2.0 * math.pi * float(u_arg)
    return mag * math.cos(ang), mag * math.sin(ang)


def make_round(seed: int, r: int) -> list[Op]:
    rng = rng_for(seed, r)
    ops = []
    for kind, count in MIX.items():
        for u in sobol(SALT[kind], 3, r, count):
            ops.append(_draw(kind, u, rng))
    return [ops[i] for i in rng.permutation(len(ops))]


def _draw(kind, u, rng) -> Op:
    alpha = float(rng.uniform(0.0, 2.0 * math.pi))
    l_min = float(rng.uniform(-3.0, 3.0))
    if kind == "min":
        gamma, s = _sigma(u[0], u[1], 0.5, 50.0)
        return Op(kind, {"alpha": alpha, "l": l_min, "gamma": gamma, "s": s},
                  {"abs_sigma": math.hypot(gamma, s), "s": s})
    if kind == "min-large-s":
        s = 250.0 + 150.0 * float(u[0])
        gamma = -10.0 + 20.0 * float(u[1])
        return Op(kind, {"alpha": alpha, "l": l_min, "gamma": gamma, "s": s},
                  {"abs_sigma": math.hypot(gamma, s), "s": s})
    if kind == "min-overlap":
        gamma, s = _sigma(u[0], u[1], 0.5, 20.0)
        return Op(kind, {"alpha1": alpha, "alpha2": float(rng.uniform(0, 2 * math.pi)),
                         "l1": l_min, "dl": int(rng.integers(-3, 4)),
                         "gamma": gamma, "s": s},
                  {"abs_sigma": math.hypot(gamma, s), "s": s})
    if kind == "sum-rule":
        gamma, s = _sigma(u[0], u[1], 0.5, 10.0)
        return Op(kind, {"gamma": gamma, "s": s},
                  {"abs_sigma": math.hypot(gamma, s), "s": s})
    if kind == "completeness":
        gamma, s = _sigma(u[0], u[1], 0.5, 10.0)
        return Op(kind, {"m": int(rng.integers(-3, 4)), "gamma": gamma, "s": s,
                         "delta": float(rng.uniform(0, 1))},
                  {"abs_sigma": math.hypot(gamma, s), "s": s})
    eps = float(log_uniform(u[0], 0.01, 2.0))
    l_wz = -3.0 + 6.0 * float(u[1])
    if kind == "wz-large-l":
        # the semiclassical corner eps -> 0.01, |l| -> 3
        eps = float(log_uniform(u[0], 0.01, 0.015))
        l_wz = math.copysign(2.5 + float(u[1]), u[2] - 0.5)
    delta = float(rng.uniform(0.0, 1.0))
    theta_ang = float(rng.uniform(0.0, 2.0 * math.pi))
    props = {"eps": eps, "l": l_wz}
    if kind in ("wz", "wz-large-l"):
        return Op(kind, {"eps": eps, "delta": delta, "theta": theta_ang,
                         "l": l_wz,
                         "theta2": float(rng.uniform(0, 2 * math.pi)),
                         "l2": l_wz + float(rng.uniform(-0.5, 0.5)),
                         "dm": [int(x) for x in rng.integers(-3, 4, 3)],
                         "dphi": [float(x) for x in rng.uniform(-2, 2, 8)]},
                  props)
    if kind == "wz-completeness":
        return Op(kind, {"eps": eps, "delta": delta,
                         "m": int(rng.integers(-3, 4))}, props)
    if kind == "ladder":
        eps = 0.1 + 1.9 * float(u[0])
        return Op(kind, {"eps": eps, "delta": delta, "theta": theta_ang,
                         "l": -2.0 + 4.0 * float(u[1])}, {"eps": eps})
    raise ValueError(kind)


# --------------------------------------------------------------------------
# timed library calls

def _min(a):
    p = MinUncParams(a["alpha"], a["l"], a["gamma"], a["s"])
    state = mincs.min_state(p)
    return state, mincs.min_expectations(p), uncertainty_report("C", "L", state)


def _min_overlap(a):
    p1 = MinUncParams(a["alpha1"], a["l1"], a["gamma"], a["s"])
    p2 = MinUncParams(a["alpha2"], a["l1"] + a["dl"], a["gamma"], a["s"])
    return mincs.min_overlap(p2, p1)


def _sum_rule(a):
    return mincs.sum_rule_residual(complex(a["gamma"], -a["s"]))


def _completeness(a):
    sigma = complex(a["gamma"], -a["s"])
    n_cut = abs(a["m"]) + math.ceil(abs(sigma)) + 20
    sector = Sector(a["delta"])
    return (mincs.completeness_residual(a["m"], a["m"], a["s"], a["gamma"],
                                        sector, n_cut),
            mincs.completeness_residual(a["m"], a["m"] + 1, a["s"], a["gamma"],
                                        sector, n_cut))


def _wz_params(a):
    return WZParams(a["eps"], Sector(a["delta"]))


def _wz(a):
    params = _wz_params(a)
    z = PhasePoint(a["theta"], a["l"])
    z2 = PhasePoint(a["theta2"], a["l2"])
    state = zakcs.w_state(params, z)
    peak = int(round((a["l"] - a["eps"] * a["delta"]) / a["eps"]))
    ms = [peak + d for d in a["dm"]]
    phi = z.theta + np.array(a["dphi"])
    return {
        "state": state,
        "expect": zakcs.w_expectations(params, z),
        "report": uncertainty_report("C", "L", state),
        "norm_sq": zakcs.w_norm_sq(params, z),
        "overlap": zakcs.w_overlap(params, z, z2),
        "ms": ms,
        "probs": [zakcs.transition_prob(m, params, z) for m in ms],
        "density": zakcs.density(params, z, phi),
    }


def _wz_completeness(a):
    return zakcs.completeness_residual_wz(a["m"], a["m"], _wz_params(a))


def _ladder(a):
    ctx = ladder.LadderContext(a["eps"], Sector(a["delta"]))
    return ladder.kj_report(ctx, PhasePoint(a["theta"], a["l"]))


CALLS = {"min": _min, "min-large-s": _min, "min-overlap": _min_overlap,
         "sum-rule": _sum_rule, "completeness": _completeness, "wz": _wz,
         "wz-large-l": _wz, "wz-completeness": _wz_completeness,
         "ladder": _ladder}


# --------------------------------------------------------------------------
# untimed checks

def _rel(x, ref):
    return abs(x - ref) / max(1.0, abs(ref))


def _check_min(a, out):
    state, e, rep = out
    return Checked([
        ("norm", abs(state.norm_sq() - 1.0), TOL_MOMENT),
        ("mean_c", _rel(rep.mean_a, e.mean_c), TOL_MOMENT),
        ("mean_l", _rel(rep.mean_b, e.mean_l), TOL_MOMENT),
        ("var_c", _rel(rep.var_a, e.var_c), TOL_MOMENT),
        ("var_l", _rel(rep.var_b, e.var_l), TOL_MOMENT),
        ("cov_cl", _rel(rep.covariance, e.cov_cl), TOL_MOMENT),
        ("commutator", _rel(abs(rep.commutator_mean), abs(e.mean_s)), TOL_MOMENT),
    ])


def _vdot(s2, s1) -> complex:
    """Coefficient scalar product by index, independent of `inner` (whose
    sector test rejects frac(n + delta) values that differ by an ulp)."""
    lo, hi = min(s2.n_lo, s1.n_lo), max(s2.n_hi, s1.n_hi)
    a = np.zeros(hi - lo + 1, dtype=complex)
    b = np.zeros(hi - lo + 1, dtype=complex)
    a[s2.n_lo - lo:s2.n_hi - lo + 1] = s2.coeffs
    b[s1.n_lo - lo:s1.n_hi - lo + 1] = s1.coeffs
    return complex(np.vdot(a, b))


def _check_min_overlap(a, res):
    p1 = MinUncParams(a["alpha1"], a["l1"], a["gamma"], a["s"])
    p2 = MinUncParams(a["alpha2"], a["l1"] + a["dl"], a["gamma"], a["s"])
    ref = _vdot(mincs.min_state(p2, 1e-15), mincs.min_state(p1, 1e-15))
    if not res.valid:
        # advisory value: the coefficient route is authoritative there
        return Checked([("oracle-bounded", max(0.0, abs(ref) - 1.0), 1e-12)])
    half = 0.5 * (p1.alpha - p2.alpha)
    if (a["dl"] % 2 and a["s"] * math.cos(half) < 0
            and abs(res.value + ref) < TOL_OVERLAP):
        # odd momentum shift across the half-angle branch: exactly -value
        return Checked(defects=["min_overlap_odd_dl_sign"])
    return Checked([("overlap", abs(res.value - ref), TOL_OVERLAP)])


def _check_wz(a, out):
    state, e, rep = out["state"], out["expect"], out["report"]
    eps = a["eps"]
    norm_sq = state.norm_sq()
    if not math.isfinite(norm_sq) and _wz_norm_overflows(a):
        return Checked(defects=["w_state_norm_overflow"])
    z2 = PhasePoint(a["theta2"], a["l2"])
    state2 = zakcs.w_state(_wz_params(a), z2, window_tol=1e-15)
    psi = state.normalized()
    phi = PhasePoint(a["theta"], a["l"]).theta + np.array(a["dphi"])
    ref_density = np.abs(psi.evaluate(phi)) ** 2
    probs = [abs(psi.coeffs[m - psi.n_lo]) ** 2 if psi.n_lo <= m <= psi.n_hi
             else 0.0 for m in out["ms"]]
    checked = Checked([
        ("norm-vs-theta", abs(norm_sq - out["norm_sq"]) / out["norm_sq"], TOL_NORM),
        ("mean_c", _rel(rep.mean_a, e.mean_c), TOL_MOMENT),
        ("mean_l", _rel(rep.mean_b, e.mean_l), TOL_MOMENT),
        ("var_c", _rel(rep.var_a, e.var_c), TOL_MOMENT),
        ("var_l_scaled", _rel(eps * eps * rep.var_b, e.var_l_scaled), TOL_MOMENT),
        ("corr_cl_scaled", _rel(eps * rep.covariance, e.corr_cl_scaled), TOL_MOMENT),
        ("transition", max(abs(p - q) for p, q in zip(out["probs"], probs)),
         TOL_PROB),
    ])
    # below SMALL_EPS the theta transform's envelope overflows while its
    # series underflows: the documented symptom is a non-finite value
    if not math.isfinite(abs(out["overlap"])) and eps < SMALL_EPS:
        checked.defects.append("w_overlap_nonfinite_small_eps")
    else:
        checked.residuals.append(
            ("overlap", _scaled_overlap_gap(out["overlap"], state, state2),
             TOL_NORM))
    if not np.all(np.isfinite(out["density"])) and eps < SMALL_EPS:
        checked.defects.append("density_nonfinite_small_eps")
    else:
        checked.residuals.append(
            ("density", float(np.max(np.abs(out["density"] - ref_density)))
             / max(1.0, float(np.max(ref_density))), TOL_DENSITY))
    return checked


def _scaled_overlap_gap(value, s1, s2) -> float:
    """|value - (s1, s2)| / (||s1|| ||s2||), with each window scaled by its
    largest coefficient so that norms past the double range still compare."""
    m1, m2 = np.max(np.abs(s1.coeffs)), np.max(np.abs(s2.coeffs))
    c1, c2 = s1.coeffs / m1, s2.coeffs / m2
    n1, n2 = np.linalg.norm(c1), np.linalg.norm(c2)
    ref = _vdot(CircleState(s1.sector, s1.n_lo, c1),
                CircleState(s2.sector, s2.n_lo, c2)) / (n1 * n2)
    return abs(value / m1 / m2 / (n1 * n2) - ref)


def _wz_norm_overflows(a) -> bool:
    y = a["l"] - a["eps"] * a["delta"]
    return y * y / a["eps"] > LOG_MAX - 10.0


def _check_ladder(a, rep):
    ctx = ladder.LadderContext(a["eps"], Sector(a["delta"]))
    mat = ladder.kj_matrix_elements(ctx, PhasePoint(a["theta"], a["l"]))
    scale = max(abs(rep.var_k), 1.0)
    return Checked([
        ("saturated", 0.0 if rep.saturated else math.inf, 1.0),
        ("mean_k", abs(rep.mean_k - mat.mean_k) / scale, TOL_KJ),
        ("mean_j", abs(rep.mean_j - mat.mean_j) / scale, TOL_KJ),
        ("var_k", abs(rep.var_k - mat.var_k) / scale, TOL_KJ),
        ("var_j", abs(rep.var_j - mat.var_j) / scale, TOL_KJ),
        ("covariance", abs(rep.covariance - mat.covariance) / scale, TOL_KJ),
        ("commutator", abs(rep.commutator_mean - mat.commutator_mean) / scale,
         TOL_KJ),
    ])


def check(op: Op, out) -> Checked:
    a = op.args
    if op.kind in ("min", "min-large-s"):
        return _check_min(a, out)
    if op.kind == "min-overlap":
        return _check_min_overlap(a, out)
    if op.kind == "sum-rule":
        return Checked([("sum-rule", out, TOL_SUM_RULE)])
    if op.kind == "completeness":
        diag, off = out
        return Checked([("diagonal", abs(diag), TOL_COMPLETENESS),
                        ("off-diagonal", abs(off), TOL_COMPLETENESS)])
    if op.kind in ("wz", "wz-large-l"):
        return _check_wz(a, out)
    if op.kind == "wz-completeness":
        return Checked([("gauss", abs(out.gauss), TOL_COMPLETENESS),
                        ("weighted", abs(out.weighted), TOL_COMPLETENESS)])
    return _check_ladder(a, out)


def classify_error(op: Op, exc: Exception):
    a = op.args
    if (op.kind in ("min", "min-large-s")
            and isinstance(exc, (OverflowError, ValueError))
            and 2.0 * abs(a["s"]) > LOG_MAX):
        return "min_state_overflow_s355"
    if op.kind in ("wz", "wz-large-l") and isinstance(exc, ValueError):
        if _wz_norm_overflows(a):
            return "w_state_norm_overflow"
        if a["eps"] < SMALL_EPS:
            return "wz_small_eps_refused"
    return None


def input_properties(records) -> dict:
    sig = [r.props["abs_sigma"] for r in records if "abs_sigma" in r.props]
    eps = [r.props["eps"] for r in records if r.kind.startswith("wz")]
    return {
        "abs_sigma_histogram": hist(sig, [0.5, 1, 2, 5, 10, 20, 50, 100, 250, 355, 500]),
        "s_above_355_share": sum(abs(r.props.get("s", 0)) > 355 for r in records)
        / max(len(records), 1),
        "wz_eps_histogram": hist(eps, [0.01, 0.03, 0.1, 0.3, 1.0, 2.0]),
    }
