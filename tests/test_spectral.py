"""Functions of the Neumann -Laplacian in the DCT-I basis, against the
assembled operators."""

import numpy as np
import pytest
import scipy.fft

from crystalflow import spectral, stepper
from crystalflow.grid import Grid, laplacian_matrix

# non-cubic boxes and node counts, so a transform along the wrong axis or an
# eigenvalue on the wrong axis shows; the 301-node axis is past
# _DENSE_MAX_NODES and takes the rfft, its 5-node partner the matrix
GRIDS = [
    Grid(1, (1.0,), (33,)),
    Grid(2, (1.3, 0.7), (21, 13)),
    Grid(3, (1.0, 0.6, 1.4), (9, 5, 7)),
    Grid(2, (2.0, 0.5), (301, 5)),
]
GRID_IDS = ["1d-33", "2d-21x13", "3d-9x5x7", "2d-301x5"]


def test_grids_cover_both_transforms():
    """GRIDS has axes on both sides of _DENSE_MAX_NODES, so the tests below
    reach the cosine matrix and the rfft."""
    axes = [n for grid in GRIDS for n in grid.nodes]
    assert min(axes) <= spectral._DENSE_MAX_NODES < max(axes)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestSpectralHelper:
    def test_eigenvalues_of_assembled_operator(self, grid):
        lam = spectral.eigenvalues(grid)
        assert lam.shape == grid.nodes
        assert lam.ravel()[0] == 0.0
        eigs = np.sort(np.linalg.eigvals(-laplacian_matrix(grid).toarray()).real)
        assert np.abs(np.sort(lam.ravel()) - eigs).max() <= 1e-12 * eigs.max()

    def test_helmholtz_inverse_matches_factor(self, grid):
        """1/(lambda + tau') applies B^-1 as stepper._helmholtz_inverse does,
        at tau' a thousandth of the largest eigenvalue; the run path's tau'
        is checked below."""
        tau_reg = 1e-3 * spectral.eigenvalues(grid).max()
        _check_helmholtz_inverse(grid, tau_reg)

    def test_apply_matches_scipy_dctn(self, grid):
        """apply is an unnormalised DCT-I along every axis, a multiply and the
        same transform again, over the product of 2(N - 1): scipy.fft.dctn
        of type 1 computes the same pipeline independently."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal(grid.num_nodes)
        multiplier = rng.standard_normal(grid.nodes)
        scale = np.prod([2 * (n - 1) for n in grid.nodes])
        ref = scipy.fft.dctn(scipy.fft.dctn(x.reshape(grid.nodes), type=1) * multiplier, type=1)
        ref = ref.reshape(-1) / scale
        out = spectral.apply(grid, multiplier, x)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_apply_sums_pairs_in_one_transform(self, grid):
        """Further (multiplier, field) pairs add their terms: the sum equals
        the separate applies to 1e-13 relative."""
        rng = np.random.default_rng(6)
        m1, m2 = rng.standard_normal((2, *grid.nodes))
        x1, x2 = rng.standard_normal((2, grid.num_nodes))
        ref = spectral.apply(grid, m1, x1) + spectral.apply(grid, m2, x2)
        out = spectral.apply(grid, m1, x1, m2, x2)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_cosine_matrix_squares_to_scale(self, grid):
        """Each axis of at most _DENSE_MAX_NODES nodes caches one matrix, whose
        square is 2(N - 1) I; a longer axis caches none."""
        spectral._dct1_matrix.cache_clear()
        spectral.apply(grid, np.ones(grid.nodes), np.ones(grid.num_nodes))
        short = {n for n in grid.nodes if n <= spectral._DENSE_MAX_NODES}
        assert spectral._dct1_matrix.cache_info().currsize == len(short)
        for n in short:
            m = spectral._dct1_matrix(n)
            assert np.abs(m @ m - 2 * (n - 1) * np.eye(n)).max() <= 1e-13 * n


def _check_helmholtz_inverse(grid, tau_reg):
    x = np.random.default_rng(8).standard_normal(grid.num_nodes)
    ref = spectral.apply(grid, 1.0 / (spectral.eigenvalues(grid) + tau_reg), x)
    out = stepper._helmholtz_inverse(grid, tau_reg)(x)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize(
    "grid, tau_reg",
    [(Grid(2, (1.0, 1.0), (65, 65)), 1e-3), (Grid(1, (1.0,), (65,)), 1e-7)],
    ids=["2d-65-tau-1e-3", "1d-65-tau-1e-7"],
)
def test_helmholtz_inverse_at_run_path_tau(grid, tau_reg):
    """At the tau' of runs (1e-3 on solve2d-65's 65 x 65, 1e-7 on 1-D 65)
    the constant mode of B has condition lambda_max/tau', 3.3e7 and 1.6e11.
    A plain LU solve of B is off by 1.3e-9 and 7.6e-6 relative there;
    _helmholtz_inverse takes that mode in closed form and meets 1e-12."""
    _check_helmholtz_inverse(grid, tau_reg)


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
