"""Workload group-action: the E(2) representation and the classical action.

One operation acts with a random group element (alpha, a + i b) in the
representation (rho, delta) on a random coefficient window
(`circlespace.rep_apply`) and runs `uncertainty_report` on the image, or
runs a batch of classical E(2) draws (`e2action.compose`/`act`,
`solve_transporter`, `symplectic_residual`).  A dense grid DFT dominates
`rep_apply`; no theta or Bessel code runs.

Window width (uniform over 3..301) and rho |t| (log-uniform over [0.1, 50])
come from the Sobol design (see common.py).  The draws keep the regions where
the finite-difference determinant carries noise above 1e-9, where
`rep_apply` truncates its window (rho |t| above about 20) and where
`solve_transporter` is ill-conditioned (sin(phi2) near 0).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from common import Checked, Op, hist, log_uniform, random_coeffs, rng_for, sobol
from circleqm import circlespace, e2action
from circleqm.circlespace import CircleState, RepLabel, Sector

NAME = "group-action"
MIN_ROUNDS = 1
UNTIMED_KINDS = ()
ROUNDS_PER_S = 3.5
N_REP = 8
N_E2 = 64
E2_KINDS = ("e2-homomorphism", "e2-transporter", "e2-symplectic")

TOL_UNITARY = 1e-12
TOL_JACOBI_ANGER = 1e-10
# two translations against one: three rep_apply results, each within
# TOL_JACOBI_ANGER of the exact convolution
TOL_ADDITIVE = 3 * TOL_JACOBI_ANGER
TOL_MOMENT = 1e-8
TOL_E2 = 1e-12
TOL_SYMPLECTIC = 1e-9
# the energy criterion of rep_apply's window: sqrt(1e-12)
TAIL_MAX = 1e-6
# central differences of an exact unit determinant: rounding of p (|p| <= 8)
# over a 1e-6 step stays far below this
FD_NOISE_MAX = 1e-7


def make_round(seed: int, r: int) -> list[Op]:
    rng = rng_for(seed, r)
    ops = []
    for u_w, u_r in sobol(0, 2, r, N_REP):
        width = 3 + int(299 * u_w)
        radius = float(log_uniform(u_r, 0.1, 50.0))
        rho = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(0.0, 2.0 * math.pi))
        delta = float(rng.uniform(0.0, 1.0))
        args = {
            "alpha": float(rng.uniform(-math.pi, math.pi)),
            "a": radius / rho * math.cos(beta), "b": radius / rho * math.sin(beta),
            "rho": rho, "delta": delta, "n_lo": int(rng.integers(-200, 50)),
            "coeffs": random_coeffs(rng, width),
            # a quarter of the operations also check additivity of translations
            "split": float(rng.uniform(0.2, 0.8)) if rng.random() < 0.25 else None,
        }
        ops.append(Op("rep", args, {"width": width, "rho_t": radius}))
    for kind in E2_KINDS:
        ops.append(Op(kind, {
            "alpha": [float(x) for x in rng.uniform(-6, 6, (N_E2, 2)).ravel()],
            "t": [float(x) for x in rng.uniform(-3, 3, (N_E2, 4)).ravel()],
            "phi": [float(x) for x in rng.uniform(0, 2 * math.pi, (N_E2, 2)).ravel()],
            "p": [float(x) for x in rng.uniform(-5, 5, (N_E2, 2)).ravel()],
        }))
    return [ops[i] for i in rng.permutation(len(ops))]


def _state(a):
    return CircleState(Sector(a["delta"]), a["n_lo"], np.array(a["coeffs"]))


def _rep(a):
    out = circlespace.rep_apply(a["alpha"], a["a"], a["b"],
                                RepLabel(a["rho"], Sector(a["delta"])), _state(a))
    return out, circlespace.uncertainty_report("C", "L", out)


def _draws(a):
    al, t = a["alpha"], a["t"]
    ph, p = a["phi"], a["p"]
    for i in range(N_E2):
        g1 = e2action.GroupElement(al[2 * i], complex(t[4 * i], t[4 * i + 1]))
        g2 = e2action.GroupElement(al[2 * i + 1], complex(t[4 * i + 2], t[4 * i + 3]))
        s1 = e2action.PhaseSpacePoint(ph[2 * i], p[2 * i])
        s2 = e2action.PhaseSpacePoint(ph[2 * i + 1], p[2 * i + 1])
        yield g1, g2, s1, s2


def _e2_homomorphism(a):
    return [(e2action.act(e2action.compose(g2, g1), s1),
             e2action.act(g2, e2action.act(g1, s1)))
            for g1, g2, s1, _ in _draws(a)]


def _e2_transporter(a):
    return [e2action.act(e2action.solve_transporter(s1, s2), s1)
            for _, _, s1, s2 in _draws(a)]


def _e2_symplectic(a):
    return [e2action.symplectic_residual(g1, s1) for g1, _, s1, _ in _draws(a)]


CALLS = {"rep": _rep, "e2-homomorphism": _e2_homomorphism,
         "e2-transporter": _e2_transporter, "e2-symplectic": _e2_symplectic}


def _jacobi_anger(a) -> CircleState:
    """exp(-i rho (a cos phi + b sin phi)) = sum_k (-i)^k J_k(rho R)
    e^{ik(phi - beta)} with a + i b = R e^{i beta}: the translation is a
    convolution of the rotated coefficients with that sequence."""
    state = _state(a)
    rotated = state.coeffs * np.exp(-1j * (state.indices + a["delta"]) * a["alpha"])
    radius = a["rho"] * math.hypot(a["a"], a["b"])
    beta = math.atan2(a["b"], a["a"])
    k_max = int(math.ceil(radius)) + 40
    k = np.arange(-k_max, k_max + 1)
    taps = (-1j) ** k * special.jv(k, radius) * np.exp(-1j * k * beta)
    return CircleState(state.sector, state.n_lo - k_max, np.convolve(rotated, taps))


def _window_diff(x: CircleState, y: CircleState) -> float:
    lo, hi = min(x.n_lo, y.n_lo), max(x.n_hi, y.n_hi)
    u = np.zeros(hi - lo + 1, dtype=complex)
    v = np.zeros(hi - lo + 1, dtype=complex)
    u[x.n_lo - lo:x.n_hi - lo + 1] = x.coeffs
    v[y.n_lo - lo:y.n_hi - lo + 1] = y.coeffs
    return float(np.max(np.abs(u - v)))


def _outside(ref: CircleState, lo: int, hi: int) -> float:
    """Largest |coefficient| of ref outside the index window [lo, hi]."""
    idx = ref.indices
    mag = np.abs(ref.coeffs[(idx < lo) | (idx > hi)])
    return float(mag.max()) if mag.size else 0.0


def _check_rep(a, out) -> Checked:
    image, rep = out
    ref = _jacobi_anger(a)
    c = ref.coeffs / ref.norm()
    freq = ref.indices + a["delta"]
    mean_l = float(np.sum(np.abs(c) ** 2 * freq))
    mean_c = float(np.real(np.vdot(c[1:], c[:-1])))   # Re sum conj(c_{n+1}) c_n
    # rep_apply grows the window by ceil(rho |t|) + 20 and retries only when
    # the dropped energy exceeds 1e-12: dropped amplitudes up to 1e-6 are
    # its documented truncation, compared separately from the window
    tail = _outside(ref, image.n_lo, image.n_hi)
    inside = CircleState(ref.sector, image.n_lo,
                         ref.coeffs[image.n_lo - ref.n_lo:image.n_hi - ref.n_lo + 1])
    defects = []
    if TOL_JACOBI_ANGER <= tail < TAIL_MAX:
        defects.append("rep_apply_tail_truncated")
    else:
        inside = ref
    residuals = [
        ("unitarity", abs(image.norm_sq() - 1.0), TOL_UNITARY),
        ("jacobi-anger", _window_diff(image, inside), TOL_JACOBI_ANGER),
        ("mean_c", abs(rep.mean_a - mean_c), TOL_MOMENT),
        ("mean_l", abs(rep.mean_b - mean_l) / max(1.0, abs(mean_l)), TOL_MOMENT),
    ]
    if a["split"] is not None:
        label = RepLabel(a["rho"], Sector(a["delta"]))
        f = a["split"]
        first = circlespace.rep_apply(0.0, f * a["a"], f * a["b"], label, _state(a))
        both = circlespace.rep_apply(0.0, (1 - f) * a["a"], (1 - f) * a["b"],
                                     label, first)
        whole = circlespace.rep_apply(0.0, a["a"], a["b"], label, _state(a))
        # both sides carry their own truncation in the defect region
        residuals.append(("additivity", _window_diff(both, whole),
                          TAIL_MAX if defects else TOL_ADDITIVE))
    return Checked(residuals, defects)


def _angle_gap(x, y):
    return abs((x - y + math.pi) % (2.0 * math.pi) - math.pi)


def _check_transporter(a, out) -> Checked:
    worst, defects = 0.0, []
    for x, (_, _, s1, s2) in zip(out, _draws(a)):
        resid = max(_angle_gap(x.phi, s2.phi), abs(x.p_phi - s2.p_phi))
        if resid < TOL_E2:
            continue
        # solve_transporter divides by sin(phi2) whenever |sin(phi2)| > 1e-8;
        # near sin(phi2) = 0 the translation, and the rounding of
        # a sin(phi) - b cos(phi) with it, grows as 1/|sin(phi2)|
        t = abs(e2action.solve_transporter(s1, s2).t)
        dp = abs(s2.p_phi - s1.p_phi)
        rounding = 8.0 * 2.0 * math.pi * np.finfo(float).eps * (t + abs(s2.p_phi))
        if t > 2.0 * dp and resid < rounding:
            defects = ["transporter_ill_conditioned"]
        else:
            worst = max(worst, resid)
    return Checked([("transporter", worst, TOL_E2)], defects)


def check(op: Op, out) -> Checked:
    a = op.args
    if op.kind == "rep":
        return _check_rep(a, out)
    if op.kind == "e2-homomorphism":
        return Checked([("homomorphism", max(
            max(_angle_gap(x.phi, y.phi), abs(x.p_phi - y.p_phi)) for x, y in out),
            TOL_E2)])
    if op.kind == "e2-transporter":
        return _check_transporter(a, out)
    worst = max(out)
    if TOL_SYMPLECTIC <= worst < FD_NOISE_MAX:
        return Checked(defects=["symplectic_fd_noise"])
    return Checked([("symplectic", worst, TOL_SYMPLECTIC)])


def classify_error(op: Op, exc: Exception):
    return None


def input_properties(records) -> dict:
    reps = [r for r in records if r.kind == "rep"]
    return {
        "window_width_histogram": hist([r.props["width"] for r in reps],
                                       [3, 50, 100, 150, 200, 250, 302]),
        "rho_t_histogram": hist([r.props["rho_t"] for r in reps],
                                [0.1, 0.3, 1, 3, 10, 30, 50.001]),
    }
