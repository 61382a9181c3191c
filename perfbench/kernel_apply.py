"""Workload kernel-apply: the theta-function propagator kernel.

One operation applies the regularized propagator to a random band-limited
state at four output angles (`evolve.kernel_apply`) and samples the kernel
at the 64 points that `circleqm kernel` emits (`evolve.kernel`).  Cost grows
about as 1/eta; t above 2 pi / sqrt(eps) moves the automatic face choice
from the Gaussian face (a Python loop over terms) to the series face
(vectorised `theta` with |q| -> 1).  No Bessel code runs.

(eta, t, eps) come from the Sobol design (see common.py): eta and t
log-uniform over [1e-4, 1e-2] and [0.05, 20], eps uniform over [0.5, 2].
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from common import Checked, Op, hist, log_uniform, random_coeffs, rng_for, sobol
from circleqm import evolve
from circleqm.circlespace import CircleState, Params, Sector

NAME = "kernel-apply"
MIN_ROUNDS = 1
UNTIMED_KINDS = ()
ROUNDS_PER_S = 1.0
ROUND = 16
N_OUT = 4
DPHI64 = -math.pi + np.arange(64) * (2.0 * math.pi / 64)

# kernel_apply against propagate with the eta damping put into the
# reference; the kernel samples against a brute-force spectral sum.
TOL_APPLY = 1e-10
TOL_SAMPLE = 1e-9


def make_round(seed: int, r: int) -> list[Op]:
    rng = rng_for(seed, r)
    ops = []
    for u_eta, u_t, u_eps in rng.permutation(sobol(0, 3, r, ROUND)):
        eta = float(log_uniform(u_eta, 1e-4, 1e-2))
        t = float(log_uniform(u_t, 0.05, 20.0))
        eps = 0.5 + 1.5 * float(u_eps)
        delta = float(rng.uniform(0.0, 1.0))
        width = int(rng.integers(3, 22))
        args = {
            "eps": eps, "delta": delta, "t": t, "eta": eta,
            "n_lo": int(rng.integers(-12, 3)),
            "coeffs": random_coeffs(rng, width),
            "phi_out": [float(x) for x in rng.uniform(0.0, 2.0 * math.pi, N_OUT)],
        }
        # the documented face rule: the face whose nome is smaller
        T = complex(t, -eta)
        q_series = abs(cmath.exp(-0.5j * eps * T))
        q_gauss = abs(cmath.exp(2j * math.pi ** 2 / (eps * T)))
        props = {"face": "series" if q_series <= q_gauss else "gaussian",
                 "log10_eta": math.log10(eta), "log10_t": math.log10(t)}
        ops.append(Op("apply", args, props))
    return ops


def _spec_state(a):
    sector = Sector(a["delta"])
    spec = evolve.EvolutionSpec(Params(a["eps"], 1.0), sector, a["t"],
                                eta=a["eta"])
    state = CircleState(sector, a["n_lo"], np.array(a["coeffs"]))
    return spec, state


def _apply(a):
    spec, state = _spec_state(a)
    return (evolve.kernel_apply(spec, state, np.array(a["phi_out"])),
            evolve.kernel(spec, DPHI64))


CALLS = {"apply": _apply}


def _brute_kernel(a) -> np.ndarray:
    """sum_n exp(-i eps (n+delta)^2 (t - i eta)/2 + i (n+delta) dphi), over
    every n whose damping exceeds 1e-18, with the oscillating phase reduced
    in extended precision."""
    eps, delta, t, eta = a["eps"], a["delta"], a["t"], a["eta"]
    half = int(math.ceil(math.sqrt(2.0 * 41.5 / (eps * eta)))) + 2
    freq = np.arange(-half, half + 1) + delta
    f2 = freq.astype(np.longdouble) ** 2
    phase = np.fmod(np.longdouble(0.5 * eps * t) * f2, 2.0 * np.pi)
    weights = np.exp(-0.5 * eps * eta * freq ** 2 - 1j * phase.astype(float))
    return np.exp(1j * np.outer(DPHI64, freq)) @ weights


def check(op: Op, out) -> Checked:
    a = op.args
    applied, samples = out
    spec, state = _spec_state(a)
    freq = state.indices + a["delta"]
    damped = CircleState(state.sector, state.n_lo,
                         evolve.propagate(spec, state).coeffs
                         * np.exp(-0.5 * a["eps"] * a["eta"] * freq ** 2))
    ref = damped.evaluate(np.array(a["phi_out"]))
    brute = _brute_kernel(a)
    return Checked([
        ("apply-vs-damped-propagate",
         np.max(np.abs(applied - ref)) / max(state.norm(), 1e-300), TOL_APPLY),
        ("samples-vs-spectral-sum",
         np.max(np.abs(samples - brute)) / np.max(np.abs(brute)), TOL_SAMPLE),
    ])


def classify_error(op: Op, exc: Exception):
    return None


def input_properties(records) -> dict:
    faces = [r.props["face"] for r in records]
    gauss = sum(f == "gaussian" for f in faces)
    return {
        "gaussian_face_share": gauss / max(len(faces), 1),
        "series_face_share": 1.0 - gauss / max(len(faces), 1),
        "log10_eta_histogram": hist([r.props["log10_eta"] for r in records],
                                     [-4, -3.5, -3, -2.5, -2]),
        "log10_t_histogram": hist([r.props["log10_t"] for r in records],
                                   [-1.31, -0.5, 0.0, 0.5, 1.0, 1.31]),
    }

