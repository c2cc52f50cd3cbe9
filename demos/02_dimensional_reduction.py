"""The n-dimensional equation int_{R^n} u(x - |y|^2) dy = f(x).

Even dimensions solve with a plain scaled derivative, odd dimensions with a
half-order fractional derivative. The polar-coordinate reduction that makes
one radial integral out of the n-dimensional one is witnessed numerically:
a randomized lattice rule in Cartesian coordinates and the radial
quadrature must agree.
"""

import numpy as np

import fraclamb as fl

cfg = fl.QuadratureConfig()
f = fl.GaussTail(1.0, 0.0)

print("round trips for n = 1..6 (forward_radial(solve_ndim(f)) vs f):")
for n in range(1, 7):
    rep = fl.verify(fl.ProblemSpec(variant="symmetric_ndim", n=n), f, (-1.0, 1.0), 11, cfg)
    kind = "derivative" if n % 2 == 0 else "fractional"
    print(f"  n={n} ({kind:10s}): max rel residual {rep.max_rel_residual:.2e}")

print("\nradial reduction vs Cartesian lattice rule (u = e^x):")
u = fl.Exponential(1.0)
for n in (1, 2, 3):
    radial = fl.forward_radial(u, n, 0.0, cfg)
    est, se = fl.forward_montecarlo(u, n, 0.0, cfg)
    print(f"  n={n}: radial={radial:.12f}  lattice={est:.12f} +- {se:.1e}  "
          f"diff={abs(est - radial) / se:.2f} std errors")

# The radial value for e^(lam x) has the closed form pi^(n/2) lam^(-n/2) e^(lam x).
print("\nclosed-form check at n=2, lam=1, x=0 (expect pi):")
print(f"  {fl.forward_radial(u, 2, 0.0, cfg):.12f} vs {np.pi:.12f}")
