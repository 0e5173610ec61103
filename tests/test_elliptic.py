"""Elliptic sub-problem solvers: contracts, symmetry, convergence."""

import numpy as np
import pytest

from crystalflow.elliptic import (
    helmholtz_matrix,
    solve_helmholtz_neumann,
    solve_weighted_helmholtz,
    weighted_helmholtz_matrix,
)
from crystalflow.exceptions import InvalidCoefficientError
from crystalflow.grid import Field, Grid


@pytest.fixture
def grid1d():
    return Grid(1, (1.0,), (65,))


@pytest.fixture
def grid2d():
    return Grid(2, (1.0, 1.0), (33, 33))


def helmholtz_mms(grid, tau):
    """Manufactured solution cos(pi x)[cos(pi y)] for (-Lap + tau) u = rhs."""
    if grid.dim == 1:
        u = Field.from_function(grid, lambda x: np.cos(np.pi * x))
        lam = np.pi**2
    else:
        u = Field.from_function(grid, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        lam = 2 * np.pi**2
    rhs = Field(grid, (lam + tau) * u.values)
    return u, rhs


class TestHelmholtz:
    @pytest.mark.parametrize("backend", ["direct", "cg"])
    def test_constant_solution(self, grid1d, backend):
        rhs = Field.constant(grid1d, 1.5 * 4.0)
        u, diag = solve_helmholtz_neumann(grid1d, 1.5, rhs, backend=backend)
        np.testing.assert_allclose(u.values, 4.0, rtol=1e-9)
        assert diag.backend == backend

    @pytest.mark.parametrize("backend", ["direct", "cg"])
    def test_residual_contract(self, grid2d, backend):
        rng = np.random.default_rng(0)
        rhs = Field(grid2d, rng.standard_normal(grid2d.num_nodes))
        _, diag = solve_helmholtz_neumann(grid2d, 0.01, rhs, backend=backend)
        assert diag.residual_inf <= 1e-10 * np.abs(rhs.values).max()

    def test_rejects_nonpositive_shift(self, grid1d):
        with pytest.raises(ValueError, match="positive"):
            solve_helmholtz_neumann(grid1d, 0.0, Field.constant(grid1d, 1.0))

    @pytest.mark.parametrize("backend", ["direct", "cg"])
    def test_backends_agree(self, grid2d, backend):
        rng = np.random.default_rng(1)
        rhs = Field(grid2d, rng.standard_normal(grid2d.num_nodes))
        u_direct, _ = solve_helmholtz_neumann(grid2d, 0.5, rhs, backend="direct")
        u_other, _ = solve_helmholtz_neumann(grid2d, 0.5, rhs, backend=backend)
        np.testing.assert_allclose(u_other.values, u_direct.values, atol=1e-9)


class TestWeighted:
    def test_reduces_to_helmholtz_at_unit_weight(self, grid2d):
        rng = np.random.default_rng(2)
        rhs = Field(grid2d, rng.standard_normal(grid2d.num_nodes))
        c = Field.constant(grid2d, 1.0)
        a, _ = solve_helmholtz_neumann(grid2d, 0.3, rhs)
        b, _ = solve_weighted_helmholtz(grid2d, 0.3, c, rhs)
        np.testing.assert_allclose(b.values, a.values, atol=1e-10)

    @pytest.mark.parametrize("grid_name", ["grid1d", "grid2d"])
    def test_matrix_symmetric_under_quadrature(self, grid_name, request):
        """W = diag(q) A must be symmetric; this is the discrete self-adjointness
        of -div(c grad .) with zero-flux boundaries."""
        grid = request.getfixturevalue(grid_name)
        rng = np.random.default_rng(3)
        c = Field(grid, np.cosh(rng.standard_normal(grid.num_nodes)))
        A = weighted_helmholtz_matrix(grid, 0.7, c)
        q = grid.quad_weights()
        W = A.multiply(q[:, None]).toarray()
        np.testing.assert_allclose(W, W.T, rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "grid",
        [
            Grid(1, (1.0,), (33,)),
            Grid(2, (1.0, 2.0), (17, 25)),
            Grid(2, (1.0, 1.0), (33, 33)),
            # unequal spacings: the interior diagonal sums entries of both axes
            Grid(2, (1.0, 1.0), (9, 21)),
        ],
        ids=lambda g: "x".join(map(str, g.nodes)),
    )
    def test_unit_weight_matrix_equals_helmholtz(self, grid):
        """One assembly builds both operators, so they agree entry for entry."""
        a = helmholtz_matrix(grid, 0.7)
        b = weighted_helmholtz_matrix(grid, 0.7, Field.constant(grid, 1.0))
        a.sort_indices()
        b.sort_indices()
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

    def test_coefficient_floor_enforced(self, grid1d):
        c = Field.constant(grid1d, 0.5)
        rhs = Field.constant(grid1d, 1.0)
        with pytest.raises(InvalidCoefficientError, match="floor"):
            solve_weighted_helmholtz(grid1d, 0.1, c, rhs)
        # the exp-variant path relaxes the floor explicitly
        u, _ = solve_weighted_helmholtz(grid1d, 0.1, c, rhs, coefficient_floor=0.0)
        assert np.isfinite(u.values).all()

    @pytest.mark.parametrize("backend", ["direct", "cg"])
    def test_weighted_residual_contract(self, grid2d, backend):
        rng = np.random.default_rng(4)
        c = Field(grid2d, 1.0 + np.abs(rng.standard_normal(grid2d.num_nodes)))
        rhs = Field(grid2d, rng.standard_normal(grid2d.num_nodes))
        _, diag = solve_weighted_helmholtz(grid2d, 0.05, c, rhs, backend=backend)
        assert diag.residual_inf <= 1e-10 * np.abs(rhs.values).max()


class TestManufacturedConvergence:
    @pytest.mark.parametrize("backend", ["direct", "cg"])
    def test_helmholtz_second_order_2d(self, backend):
        errs = []
        for n in (33, 65):
            grid = Grid(2, (1.0, 1.0), (n, n))
            exact, rhs = helmholtz_mms(grid, 1.0)
            u, _ = solve_helmholtz_neumann(grid, 1.0, rhs, backend=backend)
            errs.append(np.abs(u.values - exact.values).max())
        assert np.log2(errs[0] / errs[1]) >= 1.9

    def test_weighted_second_order_2d(self):
        """Variable coefficient c = 2 + cos(pi x)cos(pi y); the manufactured
        right side includes the grad c . grad u transport term."""
        errs = []
        for n in (33, 65):
            grid = Grid(2, (1.0, 1.0), (n, n))
            x, y = grid.coords()
            cx, cy, sx, sy = (
                np.cos(np.pi * x),
                np.cos(np.pi * y),
                np.sin(np.pi * x),
                np.sin(np.pi * y),
            )
            u_exact = (cx * cy).reshape(-1)
            c = 2.0 + cx * cy
            lap_u = -2 * np.pi**2 * cx * cy
            grad_c_grad_u = np.pi**2 * ((sx * cy) ** 2 + (cx * sy) ** 2)
            rhs = (-c * lap_u - grad_c_grad_u + 1.0 * cx * cy).reshape(-1)
            u, _ = solve_weighted_helmholtz(
                grid, 1.0, Field(grid, c.reshape(-1)), Field(grid, rhs)
            )
            errs.append(np.abs(u.values - u_exact).max())
        assert np.log2(errs[0] / errs[1]) >= 1.9
