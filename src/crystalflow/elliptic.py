"""Neumann Helmholtz operators and the package's one LU policy.

The step's elliptic sub-problems are the operators assembled here.
helmholtz_matrix is B = -Laplacian + tau' I, the block block_uu of the
step's Newton Jacobian; the stepper assembles it and factors it once per
grid and tau'. The PCG Newton direction of every variant with f' >= 1
(sinh, scaled_sinh, linear) applies B^-1 through that factor to du only,
with B's constant mode taken in closed form (stepper._helmholtz_inverse);
the functions of -Laplacian in its data and inside its CG are applied in
the DCT-I basis by spectral.apply, as cached per-axis cosine matrix
products. exp and the p-variant factor their Schur matrix on every Newton
iteration instead. weighted_helmholtz_matrix is
-div(c grad .) + tau' I, the operator of the fixed-point map, with the
arithmetic means of the weight on the edges; all come from
grid.divergence_matrix, so at unit weight the Helmholtz pair agree entry for
entry in any dimension. Both Helmholtz operators are symmetric positive
definite under the trapezoid quadrature weights when tau' > 0 and c > 0:
the shift removes the constant kernel of the Neumann operator.

Every sparse factorization of the package goes through lu_factor; a
factor SuperLU rejects raises SolverFailure.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import SolverFailure
from .grid import Field, Grid, divergence_matrix, laplacian_matrix

__all__ = [
    "helmholtz_matrix",
    "lu_factor",
    "weighted_helmholtz_matrix",
]

# SuperLU keeps the diagonal entry as pivot while it is at least this share
# of the largest entry in its column (Li, "An overview of SuperLU", ACM TOMS
# 31, 2005). Every matrix factored here has a large positive diagonal, so a
# small threshold keeps the pivots on the diagonal the ordering planned for.
DIAG_PIVOT_THRESH = 1e-3


def helmholtz_matrix(grid: Grid, tau: float) -> sp.csr_matrix:
    """(-Laplacian + tau I) on the flattened grid."""
    n = grid.num_nodes
    return (-laplacian_matrix(grid) + tau * sp.identity(n, format="csr")).tocsr()


def lu_factor(M: sp.spmatrix):
    """Sparse LU of M for a structurally symmetric pattern.

    SuperLU's symmetric mode: minimum degree ordering on the pattern of
    M + M^T, applied to rows and columns alike, with diagonal pivots kept
    down to DIAG_PIVOT_THRESH. Partial pivoting would move rows off the
    diagonal and add fill the ordering did not plan for. Returns the
    SuperLU object; its solve method applies M^-1. A factorization that
    SuperLU rejects (an exactly singular factor) raises SolverFailure.
    """
    try:
        return spla.splu(
            M.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=DIAG_PIVOT_THRESH,
            options={"SymmetricMode": True},
        )
    except RuntimeError as err:
        raise SolverFailure(f"sparse LU factorization failed: {err}") from err


def weighted_helmholtz_matrix(grid: Grid, tau: float, c: Field) -> sp.csr_matrix:
    """(-div(c grad .) + tau I) with arithmetic-mean half-node coefficients.

    The arithmetic mean keeps the operator symmetric under the trapezoid
    quadrature weights, which the discrete energy identity tests rely on.
    Off the run path: only stepper.fixed_point_step calls it, and it stays
    for that caller until the benchmark change of ROADMAP item 2.
    """
    cs = c.shaped()
    edge_means = [0.5 * (np.delete(cs, -1, a) + np.delete(cs, 0, a)) for a in range(grid.dim)]
    n = grid.num_nodes
    return (-divergence_matrix(grid, edge_means) + tau * sp.identity(n, format="csr")).tocsr()
