"""Time evolution under the quadratic flow H = (eps/2) L^2.

Spectral phases are exact and revive completely at omega t = 4 pi (integer
sector); the propagator kernel is a theta function of a complex nome with
two modular faces -- a spectral series and a free-spreading Gaussian form,
written out here from theta's direct series -- that both agree with the
library's kernel.  Coherent wavepackets disperse (no rigid rotation); the
holomorphic family's evolution stays in closed form.
Run: python demos/time_evolution.py
"""

import cmath
import math

import numpy as np

from circleqm.circlespace import (
    CircleState,
    Params,
    Sector,
    apply_operator,
    fidelity,
    inner,
)
from circleqm.evolve import EvolutionSpec, evolve_w, kernel, propagate
from circleqm.mincs import MinUncParams, min_state
from circleqm.specfun import ThetaNome, theta
from circleqm.zakcs import PhasePoint, WZParams, w_state

sector = Sector(0.0)
params = Params(epsilon=1.0, omega=1.0)
rng = np.random.default_rng(0)
psi = CircleState(sector, -4,
                  rng.normal(size=9) + 1j * rng.normal(size=9)).normalized()

print("revival structure of a random state (eps = 1, integer sector):")
for wt in (0.0, math.pi, 2 * math.pi, 4 * math.pi):
    spec = EvolutionSpec(params, sector, wt)
    print(f"  omega t = {wt / math.pi:4.1f} pi: fidelity to initial "
          f"{fidelity(psi, propagate(spec, psi)):.12f}")

print("\npropagator kernel and its two modular faces at omega t = 0.7, "
      "eta = 1e-6:")
eps, delta = params.epsilon, 0.3
spec = EvolutionSpec(params, Sector(delta), 0.7, eta=1e-6)
T = spec.complex_time
tau = -eps * T / (2 * math.pi)
for dphi in (0.0, 0.4, 2.0):
    zeta = (dphi - eps * delta * T) / 2
    const = cmath.exp(-0.5j * eps * delta * delta * T + 1j * delta * dphi)
    # theta_3(zeta | tau) and, after tau -> -1/tau, the free-spreading
    # Gaussian times theta_3 of the reciprocal nome
    series = const * theta(3, zeta, ThetaNome(tau), method="direct")
    gaussian = (const * (-1j * tau) ** -0.5
                * cmath.exp(zeta * zeta / (1j * math.pi * tau))
                * theta(3, zeta / tau, ThetaNome(-1 / tau), method="direct"))
    print(f"  dphi = {dphi:3.1f}: kernel   {kernel(spec, dphi):+.9f}")
    print(f"             series   {series:+.9f}")
    print(f"             gaussian {gaussian:+.9f}")

print("\na squeezed wavepacket disperses while <L> stays pinned:")
p = MinUncParams(0.0, 0.0, 0.0, 1.5)
for wt in (0.0, 0.5, 1.0, 2.0):
    spec_t = EvolutionSpec(params, p.sector, wt)
    state = propagate(spec_t, min_state(p)).normalized()
    mean_c = inner(state, apply_operator("C", state)).real
    mean_s = inner(state, apply_operator("S", state)).real
    mean_l = inner(state, apply_operator("L", state)).real
    print(f"  omega t = {wt:3.1f}: |<e^(i phi)>| = "
          f"{math.hypot(mean_c, mean_s):.6f},  <L> = {mean_l:+.6f}")

print("\nholomorphic family: closed form vs spectral propagation:")
wz = WZParams(1.0, Sector(0.4))
z = PhasePoint(1.2, 0.6)
spec_w = EvolutionSpec(params, Sector(0.4), 1.0)
closed = evolve_w(spec_w, z)
spectral = propagate(spec_w, w_state(wz, z, window_tol=1e-15))
grid = np.linspace(0, 2 * math.pi, 4)
for phi, a, b in zip(grid, closed(grid), spectral.evaluate(grid)):
    print(f"  phi = {phi:5.3f}: closed {a:+.9f}")
    print(f"             spectral {b:+.9f}")
