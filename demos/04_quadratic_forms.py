"""The quadratic-form variant int_{R^n} u(x - y^T A y) dy = f(x).

Substituting z = A^(1/2) y turns this into the symmetric equation with a
Jacobian factor, so u = sqrt(det A) pi^(-n/2) D^(n/2) f. A randomized
lattice rule over the original Cartesian coordinates certifies the
substitution: it never sees A^(1/2), only y^T A y.
"""

import math

import numpy as np

import fraclamb as fl

cfg = fl.QuadratureConfig()
f = fl.Exponential(1.0)

matrices = {
    "identity": fl.PosDefMatrix.identity(2),
    "diag(4,1)": fl.PosDefMatrix([[4.0, 0.0], [0.0, 1.0]]),
    "[[2,1],[1,2]]": fl.PosDefMatrix([[2.0, 1.0], [1.0, 2.0]]),
}

print("solutions and lattice-rule certification at x = 0 (f = e^x):")
for name, A in matrices.items():
    u = fl.solve_quadform(f, A, cfg)
    est, se = fl.forward_quadform_mc(u, A, 0.0, cfg)
    print(f"  A={name:14s} det={A.det:4.1f}  u(0)={float(u(0.0)):.8f}  "
          f"forward={est:.12f} +- {se:.1e} (target 1)")

A = matrices["[[2,1],[1,2]]"]
base = fl.solve_quadform(f, A, cfg)
xs = np.linspace(-1.0, 1.0, 3)
print("\ndeterminant scaling: solving with c*A multiplies u by c^(n/2):")
for c in (2.0, 5.0):
    scaled = fl.solve_quadform(f, fl.PosDefMatrix(c * A.entries), cfg)
    ratio = float(np.max(scaled(xs) / base(xs)))
    print(f"  c={c:.0f}: measured ratio {ratio:.12f}  expected {c ** (A.n / 2.0):.12f}")

print("\nGaussian cross-check: int exp(-y^T A y) dy = pi / sqrt(det A):")
est, se = fl.forward_quadform_mc(f, A, 0.0, cfg)
print(f"  lattice={est:.12f} +- {se:.1e}   closed={math.pi / math.sqrt(A.det):.12f}")
