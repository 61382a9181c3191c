"""The classical Euclidean-group story on the cylinder phase space.

Rotations and phase-shifted momentum kicks compose like rigid motions of
the plane; the action on (phi, p_phi) is symplectic, transitive (a
two-branch solve reaches any target point) and almost effective, and the
three induced vector fields are the Hamiltonian fields of cos phi, sin phi
and p_phi.  Run: python demos/classical_group_action.py
"""

import math

import numpy as np

from circleqm.e2action import (
    GroupElement,
    PhaseSpacePoint,
    act,
    compose,
    induced_fields,
    poisson_bracket,
    solve_transporter,
    symplectic_residual,
)

g1 = GroupElement(0.8, 1.0 - 0.5j)
g2 = GroupElement(2.1, -0.3 + 2.0j)
s = PhaseSpacePoint(0.4, 1.3)

print("group action respects composition:")
via_product = act(compose(g2, g1), s)
via_steps = act(g2, act(g1, s))
print(f"  g2 (g1 s) = ({via_steps.phi:.12f}, {via_steps.p_phi:.12f})")
print(f"  (g2 g1) s = ({via_product.phi:.12f}, {via_product.p_phi:.12f})\n")

print("transitivity: reach a target point from anywhere")
s1 = PhaseSpacePoint(0.2, -3.0)
s2 = PhaseSpacePoint(5.9, 4.5)
g = solve_transporter(s1, s2)
landed = act(g, s1)
print(f"  transporter alpha = {g.alpha:.6f}, t = {g.t:.6f}")
print(f"  lands on ({landed.phi:.12f}, {landed.p_phi:.12f}) "
      f"vs target ({s2.phi}, {s2.p_phi})\n")

print("the action is symplectic (|det J - 1| by complex-step derivatives):")
rng = np.random.default_rng(1)
worst = max(symplectic_residual(
    GroupElement(rng.uniform(-6, 6),
                 complex(rng.uniform(-3, 3), rng.uniform(-3, 3))),
    PhaseSpacePoint(rng.uniform(0, 2 * math.pi), rng.uniform(-5, 5)))
    for _ in range(50))
print(f"  worst residual over 50 random samples: {worst:.2e}\n")

print("induced fields at phi = pi/2 (Hamiltonian fields of cos, sin, p):")
fields = induced_fields(PhaseSpacePoint(math.pi / 2, 0.0))
for name, vec in fields.items():
    print(f"  {name}: (d phi, d p) = ({vec[0]:+.8f}, {vec[1]:+.8f})")

print("\nPoisson brackets close on the same Lie algebra:")
f_cos = lambda phi, p: math.cos(phi)
f_sin = lambda phi, p: math.sin(phi)
f_mom = lambda phi, p: p
pt = PhaseSpacePoint(1.1, 0.7)
print(f"  {{p, cos}} = {poisson_bracket(f_mom, f_cos, pt):+.8f} "
      f"(sin phi = {math.sin(pt.phi):+.8f})")
print(f"  {{p, sin}} = {poisson_bracket(f_mom, f_sin, pt):+.8f} "
      f"(-cos phi = {-math.cos(pt.phi):+.8f})")
print(f"  {{cos, sin}} = {poisson_bracket(f_cos, f_sin, pt):+.8f}")

print("\nalmost effective: a full turn acts trivially on every point")
center = GroupElement(2 * math.pi, 0j, cover_q=None)
moved = act(center, s)
print(f"  (phi, p) -> ({moved.phi:.12f}, {moved.p_phi:.12f}) "
      f"from ({s.phi}, {s.p_phi})")
