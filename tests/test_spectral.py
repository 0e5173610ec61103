"""Functions of the Neumann -Laplacian in the DCT-I basis, against the
assembled operators."""

import numpy as np
import pytest

from crystalflow import spectral, stepper
from crystalflow.grid import Grid, laplacian_matrix

# non-cubic boxes and node counts, so a transform along the wrong axis or an
# eigenvalue on the wrong axis shows
GRIDS = [
    Grid(1, (1.0,), (33,)),
    Grid(2, (1.3, 0.7), (21, 13)),
    Grid(3, (1.0, 0.6, 1.4), (9, 5, 7)),
]
GRID_IDS = ["1d-33", "2d-21x13", "3d-9x5x7"]


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestSpectralHelper:
    def test_eigenvalues_of_assembled_operator(self, grid):
        lam = spectral.eigenvalues(grid)
        assert lam.shape == grid.nodes
        assert lam.ravel()[0] == 0.0
        eigs = np.sort(np.linalg.eigvals(-laplacian_matrix(grid).toarray()).real)
        assert np.abs(np.sort(lam.ravel()) - eigs).max() <= 1e-12 * eigs.max()

    def test_helmholtz_inverse_matches_factor(self, grid):
        """1/(lambda + tau') applies B^-1 as the cached LU does. At tau' = 1:
        at small tau' the rounding of the assembled diagonal (2048 + 0.01 on
        1-D 33) moves the LU's constant mode by up to 2e-11 relative, which
        the closed-form eigenvalues do not share."""
        tau_reg = 1.0
        x = np.random.default_rng(8).standard_normal(grid.num_nodes)
        ref = stepper._helmholtz_factor(grid, tau_reg).solve(x)
        out = spectral.apply(grid, 1.0 / (spectral.eigenvalues(grid) + tau_reg), x)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


class TestPseudoInverse:
    @pytest.mark.parametrize(
        "grid", [Grid(1, (1.0,), (65,)), Grid(2, (1.0, 1.0), (33, 33))], ids=["grid1d", "grid2d"]
    )
    def test_solves_neumann_problem_for_mean_zero_data(self, grid):
        """For quadrature-mean-zero r, the multiply by 1/lambda (0 on the
        constant mode) returns a mean-zero x with -Laplacian x = r in every
        row."""
        q = grid.quad_weights()
        r = np.random.default_rng(5).standard_normal(grid.num_nodes)
        r -= (q @ r) / q.sum()
        lam = spectral.eigenvalues(grid)
        x = spectral.apply(grid, np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0), r)
        assert abs(q @ x) <= 1e-12 * np.abs(x).max()
        assert np.abs(-(laplacian_matrix(grid) @ x) - r).max() <= 1e-10 * np.abs(r).max()
