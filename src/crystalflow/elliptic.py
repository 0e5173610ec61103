"""Neumann elliptic solvers for the two linear sub-problems of the time step.

Both systems are symmetric positive definite: the zero-order shift tau > 0
removes the constant kernel of the Neumann operator, and the diffusion
weight (the cosh coefficient of the weighted problem) is bounded below.
Both operators come from grid.divergence_matrix, the weighted one with the
arithmetic means of the weight on the edges, so at unit weight the two
matrices agree entry for entry in any dimension.
The default backend is a sparse LU factorization through lu_factor, the
one factorization policy of the package; a Jacobi-preconditioned conjugate
gradient backend is available behind the same contract. Either way the
returned solution is checked against the infinity-norm residual contract
and diagnostics are returned to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import InvalidCoefficientError, SolverFailure
from .grid import Field, Grid, divergence_matrix, laplacian_matrix

__all__ = [
    "SolveDiagnostics",
    "lu_factor",
    "solve_helmholtz_neumann",
    "solve_weighted_helmholtz",
    "helmholtz_matrix",
    "weighted_helmholtz_matrix",
]

DEFAULT_RTOL = 1e-10

# SuperLU keeps the diagonal entry as pivot while it is at least this share
# of the largest entry in its column (Li, "An overview of SuperLU", ACM TOMS
# 31, 2005). Every matrix factored here has a large positive diagonal, so a
# small threshold keeps the pivots on the diagonal the ordering planned for.
DIAG_PIVOT_THRESH = 1e-3


@dataclass
class SolveDiagnostics:
    """What the solver actually did: backend, iterations, final residual."""

    backend: str
    iterations: int
    residual_inf: float


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
    SuperLU object; its solve method applies M^-1.
    """
    return spla.splu(
        M.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=DIAG_PIVOT_THRESH,
        options={"SymmetricMode": True},
    )


def _half_node_means(c: np.ndarray, axis: int) -> np.ndarray:
    return 0.5 * (np.delete(c, -1, axis) + np.delete(c, 0, axis))


def weighted_divergence_matrix(grid: Grid, c: Field) -> sp.csr_matrix:
    """div(c grad .) with arithmetic-mean half-node coefficients.

    The arithmetic mean keeps the operator symmetric under the trapezoid
    quadrature weights, which the discrete energy identity tests rely on.
    """
    cs = c.shaped()
    return divergence_matrix(grid, [_half_node_means(cs, a) for a in range(grid.dim)])


def weighted_helmholtz_matrix(grid: Grid, tau: float, c: Field) -> sp.csr_matrix:
    """(-div(c grad .) + tau I) with arithmetic-mean half-node coefficients."""
    n = grid.num_nodes
    return (-weighted_divergence_matrix(grid, c) + tau * sp.identity(n, format="csr")).tocsr()


def _jacobi_cg(A: sp.csr_matrix, b: np.ndarray, q: np.ndarray, rtol: float, maxiter: int):
    """Jacobi-preconditioned CG with an infinity-norm stopping test.

    The stencil matrix is self-adjoint only under the trapezoid quadrature
    weights q, so CG runs on the symmetrized system diag(q) A x = diag(q) b;
    convergence is judged on the residual of the original system.
    """
    W = A.multiply(q[:, None]).tocsr()
    wb = q * b
    inv_diag = 1.0 / W.diagonal()
    x = np.zeros_like(b)
    r = wb.copy()
    target = rtol * max(np.abs(b).max(), np.finfo(float).tiny)
    if np.abs(r / q).max() <= target:
        return x, 0
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for it in range(1, maxiter + 1):
        Wp = W @ p
        alpha = rz / (p @ Wp)
        x += alpha * p
        r -= alpha * Wp
        if np.abs(r / q).max() <= target:
            return x, it
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return None, maxiter


def _solve(A: sp.csr_matrix, rhs: np.ndarray, q: np.ndarray, rtol: float, maxiter, backend: str):
    norm_rhs = max(np.abs(rhs).max(), np.finfo(float).tiny)
    if maxiter is None:
        maxiter = 10 * rhs.size
    if backend == "cg":
        x, it = _jacobi_cg(A, rhs, q, rtol, maxiter)
        if x is None:
            raise SolverFailure(
                f"CG did not converge in {maxiter} iterations",
                residual=float("nan"),
                iterations=maxiter,
            )
        res = np.abs(A @ x - rhs).max()
        return x, SolveDiagnostics("cg", it, float(res))
    if backend == "direct":
        lu = lu_factor(A)
        x = lu.solve(rhs)
        res = np.abs(A @ x - rhs).max()
        it = 0
        # one step of iterative refinement if round-off left us short
        if res > rtol * norm_rhs:
            x = x + lu.solve(rhs - A @ x)
            res = np.abs(A @ x - rhs).max()
            it = 1
        if res > rtol * norm_rhs:
            raise SolverFailure(
                f"direct solve residual {res:.3e} above {rtol * norm_rhs:.3e}",
                residual=float(res),
                iterations=it,
            )
        return x, SolveDiagnostics("direct", it, float(res))
    raise ValueError(f"unknown backend {backend!r}")


def solve_helmholtz_neumann(
    grid: Grid,
    tau: float,
    rhs: Field,
    rtol: float = DEFAULT_RTOL,
    maxiter: int | None = None,
    backend: str = "direct",
) -> tuple[Field, SolveDiagnostics]:
    """Solve (-Laplacian + tau I) u = rhs with homogeneous Neumann flux."""
    if tau <= 0:
        raise ValueError(f"shift tau must be positive, got {tau}")
    A = helmholtz_matrix(grid, tau)
    x, diag = _solve(A, rhs.values, grid.quad_weights(), rtol, maxiter, backend)
    return Field(grid, x), diag


def solve_weighted_helmholtz(
    grid: Grid,
    tau: float,
    c: Field,
    rhs: Field,
    rtol: float = DEFAULT_RTOL,
    maxiter: int | None = None,
    backend: str = "direct",
    coefficient_floor: float = 1.0,
) -> tuple[Field, SolveDiagnostics]:
    """Solve (-div(c grad .) + tau I) w = rhs.

    The default floor c >= 1 encodes the cosh coefficient structure of the
    weighted sub-problem; callers solving the pure-exponential variant relax
    it to any positive floor.
    """
    if tau <= 0:
        raise ValueError(f"shift tau must be positive, got {tau}")
    cmin = c.values.min()
    if cmin < coefficient_floor:
        raise InvalidCoefficientError(
            f"coefficient minimum {cmin:.6g} below required floor {coefficient_floor:.6g}"
        )
    A = weighted_helmholtz_matrix(grid, tau, c)
    x, diag = _solve(A, rhs.values, grid.quad_weights(), rtol, maxiter, backend)
    return Field(grid, x), diag
