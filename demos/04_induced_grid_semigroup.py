"""The induced translation semigroup on a grid of [0,1)^2.

Step functions with M cells per axis carry an exact action: translation by a
grid time permutes cells and applies lattice powers of the pair on the wrap.
Everything the construction promises -- the semigroup law, the region-wise
adjoint formula, kernel descriptions, cocycle lifting, and the commutant
identity -- is checkable to rounding error because no interpolation enters.
A cocycle is lifted from its generator values: eta_1 in ker sigma* for one
parameter, the generator pair for two.
"""
import numpy as np

from isorep import (
    TruncationParams,
    adjoint_2d,
    adjoint_kernel,
    build_reflection_rep,
    cocycle_space,
    grid_cocycle_space_1d,
    induce_1d,
    induce_2d,
    induced_commutant_check_2d,
    lift_cocycle_1d,
    lift_cocycle_2d,
    shift_fiber,
)

# one parameter first: a multiplicity-2 truncated shift, 4 cells per unit
sigma, interior = shift_fiber(multiplicity=2, levels=8, guard=2)
grid = induce_1d(sigma, 4, interior)
print("1-d semigroup law V(1/2)V(3/4) == V(5/4):",
      np.array_equal(grid.V(0.5) @ grid.V(0.75), grid.V(1.25)))
print("solved grid cocycle dimension:", grid_cocycle_space_1d(grid, 2),
      "(the shift multiplicity)")

# a cocycle of sigma is fixed by its generator eta_1 in ker sigma*
eta1 = adjoint_kernel(sigma)[:, 0]
lift = lift_cocycle_1d(eta1, grid)
print("lifted cocycle additivity residual at (1/2, 3/4):",
      lift.additivity_residual((0.5,), (0.75,)))

# two parameters: the n=4 reflection pair, 2 cells per axis
rep = build_reflection_rep(np.array([0.5, 0.5, 0.5, 0.5]), TruncationParams(4, 8, 3))
grid2 = induce_2d(rep, 2)
dev = np.max(np.abs(adjoint_2d(grid2, 0.5, 0.5) - grid2.V(0.5, 0.5).conj().T))
print("\n2-d region adjoint vs conjugate transpose:", float(dev))

c = cocycle_space(rep).basis[0]
lift2 = lift_cocycle_2d(c, grid2)
print("2-d lifted additivity residual:",
      lift2.additivity_residual((0.5, 0.5), (0.5, 0.5)))

report = induced_commutant_check_2d(grid2)
print("\ngrid commutant check:")
for key, value in report.as_dict().items():
    print(f"  {key}: {value}")
