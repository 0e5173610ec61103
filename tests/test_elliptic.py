"""The step's elliptic operators under lu_factor: residuals, symmetry,
convergence."""

import ast
from pathlib import Path

import numpy as np
import pytest

import crystalflow
from crystalflow.elliptic import helmholtz_matrix, lu_factor, weighted_helmholtz_matrix
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


def lu_residual(A, rhs):
    """Infinity-norm residual of the lu_factor solve of A x = rhs."""
    return np.abs(A @ lu_factor(A).solve(rhs) - rhs).max()


class TestHelmholtz:
    def test_constant_solution(self, grid1d):
        rhs = Field.constant(grid1d, 1.5 * 4.0)
        u = lu_factor(helmholtz_matrix(grid1d, 1.5)).solve(rhs.values)
        np.testing.assert_allclose(u, 4.0, rtol=1e-9)

    def test_residual_contract(self, grid2d):
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(grid2d.num_nodes)
        assert lu_residual(helmholtz_matrix(grid2d, 0.01), rhs) <= 1e-10 * np.abs(rhs).max()


class TestWeighted:
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

    def test_weighted_residual_contract(self, grid2d):
        rng = np.random.default_rng(4)
        c = Field(grid2d, 1.0 + np.abs(rng.standard_normal(grid2d.num_nodes)))
        rhs = rng.standard_normal(grid2d.num_nodes)
        A = weighted_helmholtz_matrix(grid2d, 0.05, c)
        assert lu_residual(A, rhs) <= 1e-10 * np.abs(rhs).max()


class TestManufacturedConvergence:
    def test_helmholtz_second_order_2d(self):
        errs = []
        for n in (33, 65):
            grid = Grid(2, (1.0, 1.0), (n, n))
            exact, rhs = helmholtz_mms(grid, 1.0)
            u = lu_factor(helmholtz_matrix(grid, 1.0)).solve(rhs.values)
            errs.append(np.abs(u - exact.values).max())
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
            A = weighted_helmholtz_matrix(grid, 1.0, Field(grid, c.reshape(-1)))
            u = lu_factor(A).solve(rhs)
            errs.append(np.abs(u - u_exact).max())
        assert np.log2(errs[0] / errs[1]) >= 1.9


def _sparse_linalg_uses(source: str) -> list:
    """Line numbers where source imports scipy.sparse.linalg, in any import
    form, or reaches it as an attribute of a name bound to scipy or
    scipy.sparse."""
    tree = ast.parse(source)
    bound = {}  # local name -> the module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    bound[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            return f"{dotted(node.value)}.{node.attr}"
        return ""

    target = "scipy.sparse.linalg"
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [dotted(node)]
        else:
            continue
        if any(name == target or name.startswith(target + ".") for name in names):
            lines.append(node.lineno)
    return lines


def test_only_elliptic_uses_sparse_linalg():
    """Every sparse factorization goes through elliptic.lu_factor, so
    elliptic is the one module of the package that imports
    scipy.sparse.linalg."""
    package = Path(crystalflow.__file__).parent
    uses = {
        str(path.relative_to(package)): _sparse_linalg_uses(path.read_text(encoding="utf-8"))
        for path in package.rglob("*.py")
    }
    assert [name for name, lines in uses.items() if lines] == ["elliptic.py"], uses


@pytest.mark.parametrize(
    "source",
    [
        "import scipy.sparse.linalg",
        "import scipy.sparse.linalg as spla",
        "from scipy.sparse.linalg import splu",
        "from scipy.sparse import linalg",
        "import scipy.sparse as sp\nsp.linalg.splu",
        "from scipy import sparse\nsparse.linalg.norm",
        "import scipy\nscipy.sparse.linalg.spsolve",
    ],
)
def test_sparse_linalg_use_found(source):
    assert _sparse_linalg_uses(source)


def test_other_linalg_not_counted():
    assert not _sparse_linalg_uses("import numpy as np\nimport scipy.sparse as sp\n"
                                   "np.linalg.norm\nsp.csr_matrix")
