"""Grid, field and spatial-operator invariants."""

import numpy as np
import pytest

from crystalflow.exceptions import (
    InvalidExponentError,
    SnapshotFormatError,
    UnsupportedDimensionError,
)
from crystalflow.grid import (
    Field,
    Grid,
    grad_sq_integral,
    integrate,
    inner,
    laplacian_matrix,
    laplacian_neumann,
    load_field,
    p_laplacian_1d,
    p_laplacian_jacobian_1d,
    save_field,
)


@pytest.fixture
def grid1d():
    return Grid(1, (1.0,), (33,))


@pytest.fixture
def grid2d():
    return Grid(2, (1.0, 2.0), (17, 25))


@pytest.fixture
def grid3d():
    return Grid(3, (1.0, 0.5, 2.0), (5, 7, 6))


class TestGridValidation:
    def test_rejects_dim_4(self):
        with pytest.raises(UnsupportedDimensionError):
            Grid(4, (1.0,) * 4, (5,) * 4)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError, match="3 nodes"):
            Grid(1, (1.0,), (2,))

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError, match="positive"):
            Grid(1, (0.0,), (5,))

    def test_rejects_mismatched_axes(self):
        with pytest.raises(ValueError):
            Grid(2, (1.0,), (5, 5))

    def test_spacing_and_measure(self, grid2d):
        assert grid2d.spacing == (1.0 / 16, 2.0 / 24)
        assert grid2d.measure == 2.0
        assert grid2d.num_nodes == 17 * 25


class TestField:
    def test_rejects_nan(self, grid1d):
        values = np.zeros(grid1d.num_nodes)
        values[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Field(grid1d, values)

    def test_rejects_wrong_size(self, grid1d):
        with pytest.raises(ValueError, match="expected"):
            Field(grid1d, np.zeros(7))

    def test_from_function_2d_shape(self, grid2d):
        f = Field.from_function(grid2d, lambda x, y: x + y)
        assert f.values.shape == (grid2d.num_nodes,)
        assert f.shaped().shape == grid2d.nodes


class TestQuadrature:
    def test_weights_sum_to_measure(self, grid1d, grid2d, grid3d):
        for g in (grid1d, grid2d, grid3d):
            assert g.quad_weights().sum() == pytest.approx(g.measure, rel=1e-14)

    def test_exact_on_affine(self, grid2d):
        f = Field.from_function(grid2d, lambda x, y: 2.0 + 3.0 * x - 0.5 * y)
        exact = (2.0 + 3.0 * 0.5 - 0.5 * 1.0) * grid2d.measure
        assert integrate(f) == pytest.approx(exact, rel=1e-14)

    def test_inner_requires_same_grid(self, grid1d, grid2d):
        with pytest.raises(ValueError, match="different grids"):
            inner(Field.constant(grid1d, 1.0), Field.constant(grid2d, 1.0))


class TestLaplacian:
    def test_annihilates_constants(self, grid1d, grid2d, grid3d):
        for g in (grid1d, grid2d, grid3d):
            lap = laplacian_neumann(Field.constant(g, 3.7))
            assert np.abs(lap.values).max() < 1e-12

    def test_divergence_theorem(self, grid2d):
        """Zero-flux boundaries force the integral of the Laplacian to vanish."""
        rng = np.random.default_rng(0)
        f = Field(grid2d, rng.standard_normal(grid2d.num_nodes))
        assert integrate(laplacian_neumann(f)) == pytest.approx(0.0, abs=1e-10)

    def test_symmetric_under_quadrature(self, grid2d, grid3d):
        rng = np.random.default_rng(1)
        for grid in (grid2d, grid3d):
            f = Field(grid, rng.standard_normal(grid.num_nodes))
            g = Field(grid, rng.standard_normal(grid.num_nodes))
            assert inner(f, laplacian_neumann(g)) == pytest.approx(
                inner(laplacian_neumann(f), g), rel=1e-12, abs=1e-10
            )

    def test_second_order_on_cosine(self):
        errs = []
        for n in (33, 65):
            g = Grid(1, (1.0,), (n,))
            f = Field.from_function(g, lambda x: np.cos(np.pi * x))
            exact = -np.pi**2 * f.values
            errs.append(np.abs(laplacian_neumann(f).values - exact).max())
        order = np.log2(errs[0] / errs[1])
        assert order > 1.9

    def test_grad_sq_matches_summation_by_parts(self, grid1d, grid2d, grid3d):
        """int |grad f|^2 = -<f, Lap f> exactly, the identity the energy
        telescoping depends on."""
        rng = np.random.default_rng(2)
        for g in (grid1d, grid2d, grid3d):
            f = Field(g, rng.standard_normal(g.num_nodes))
            byparts = -inner(f, laplacian_neumann(f))
            assert grad_sq_integral(f) == pytest.approx(byparts, rel=1e-12)

    def test_grad_sq_bitwise_equal_to_explicit_2d_formula(self):
        """The per-axis contraction reproduces the explicit 2-D sums exactly,
        which keeps the stored energy columns byte-stable."""

        def explicit(f):
            hx, hy = f.grid.spacing
            nx, ny = f.grid.nodes
            wx, wy = np.full(nx, hx), np.full(ny, hy)
            wx[0] = wx[-1] = hx / 2
            wy[0] = wy[-1] = hy / 2
            v = f.shaped()
            dx = np.diff(v, axis=0)
            dy = np.diff(v, axis=1)
            return float(np.sum((dx * dx) @ wy) / hx + np.sum(wx @ (dy * dy)) / hy)

        rng = np.random.default_rng(7)
        grid = Grid(2, (1.3, 0.7), (21, 13))
        for _ in range(40):
            f = Field(grid, rng.standard_normal(grid.num_nodes))
            assert grad_sq_integral(f) == explicit(f)


class TestPLaplacian:
    def test_p2_equals_laplacian(self, grid1d):
        rng = np.random.default_rng(3)
        f = Field(grid1d, rng.standard_normal(grid1d.num_nodes))
        np.testing.assert_allclose(
            p_laplacian_1d(f, 2.0).values, laplacian_neumann(f).values, rtol=1e-12
        )

    def test_rejects_p_below_2(self, grid1d):
        with pytest.raises(InvalidExponentError):
            p_laplacian_1d(Field.constant(grid1d, 1.0), 1.5)

    def test_rejects_2d(self, grid2d):
        with pytest.raises(UnsupportedDimensionError):
            p_laplacian_1d(Field.constant(grid2d, 1.0), 3.0)

    def test_integral_vanishes(self, grid1d):
        rng = np.random.default_rng(4)
        f = Field(grid1d, rng.standard_normal(grid1d.num_nodes))
        assert integrate(p_laplacian_1d(f, 3.0)) == pytest.approx(0.0, abs=1e-10)

    def test_jacobian_matches_finite_difference(self, grid1d):
        rng = np.random.default_rng(5)
        f = Field(grid1d, 0.5 + 0.1 * rng.standard_normal(grid1d.num_nodes))
        d = rng.standard_normal(grid1d.num_nodes)
        eps = 1e-7
        fplus = Field(grid1d, f.values + eps * d)
        fminus = Field(grid1d, f.values - eps * d)
        fd = (p_laplacian_1d(fplus, 3.0).values - p_laplacian_1d(fminus, 3.0).values) / (2 * eps)
        jac = p_laplacian_jacobian_1d(f, 3.0) @ d
        np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-5)


# largest magnitude, smallest subnormal and a signed zero, each of which a
# store that is not bit-exact loses
EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
GRID3 = Grid(1, (1.0,), (3,))
HEADER3 = b"# grid: dim=1 nodes=3 extent=1 values=float64le\n"


class TestSnapshotIO:
    def test_round_trip_exact(self, grid1d, grid2d, grid3d, tmp_path):
        rng = np.random.default_rng(6)
        for grid in (grid1d, grid2d, grid3d):
            values = rng.standard_normal(grid.num_nodes)
            values[:len(EXTREMES)] = EXTREMES
            f = Field(grid, values)
            path = tmp_path / "field.f64"
            save_field(f, path)
            loaded = load_field(path, grid)
            assert loaded.grid == grid
            assert np.array_equal(loaded.values, f.values)
            assert loaded.values.tobytes() == f.values.tobytes()

    def test_header_format(self, grid2d, grid3d, tmp_path):
        # the header line, then each node's value as 8 little-endian bytes in row-major order
        path = tmp_path / "field.f64"
        for grid, header in (
            (grid2d, b"# grid: dim=2 nodes=17,25 extent=1,2 values=float64le\n"),
            (grid3d, b"# grid: dim=3 nodes=5,7,6 extent=1,0.5,2 values=float64le\n"),
        ):
            values = np.arange(grid.num_nodes) - 0.5
            save_field(Field(grid, values), path)
            assert path.read_bytes() == header + values.astype("<f8").tobytes()

    def test_rejects_malformed_header(self, grid1d, tmp_path):
        path = tmp_path / "field.f64"
        for content in (b"not a header\n0\n", b""):
            path.write_bytes(content)
            with pytest.raises(ValueError, match="header"):
                load_field(path, grid1d)

    @pytest.mark.parametrize(
        "header",
        [
            "# grid: dim=1 nodes=33 extent=2 values=float64le",
            "# grid: dim=1 nodes=33 extent=1.0 values=float64le",
            "# grid: dim=1 nodes=33 extent=1 values=float64be",
        ],
        ids=["other_extent", "other_digits", "other_byte_order"],
    )
    def test_rejects_header_of_another_grid(self, header, grid1d, tmp_path):
        # the file is read on the grid it is handed, never on its own header's
        path = tmp_path / "u_000001.f64"
        path.write_bytes(header.encode() + b"\n" + bytes(8 * 33))
        with pytest.raises(SnapshotFormatError, match="u_000001.f64") as exc:
            load_field(path, grid1d)
        assert header in str(exc.value)
        assert "# grid: dim=1 nodes=33 extent=1 values=float64le'" in str(exc.value)

    @pytest.mark.parametrize(
        "content",
        [
            b"# grid: nodes=3 extent=1 values=float64le\n" + bytes(24),
            HEADER3 + b"0\nabc\n0\n",
            HEADER3 + bytes(16),
            HEADER3 + bytes(25),
            HEADER3 + np.array([0.0, np.nan, 0.0]).astype("<f8").tobytes(),
            HEADER3 + np.array([0.0, 0.0, -np.inf]).astype("<f8").tobytes(),
            # a text snapshot as earlier versions wrote it, its values padded
            # to the 24 bytes that three float64 take: never decoded as floats
            b"# grid: dim=1 nodes=3 extent=1\n" + b"0.50000\n" * 3,
        ],
        ids=["no_dim", "non_numeric", "short", "extra_byte", "nan", "infinite", "text_padded"],
    )
    def test_rejects_malformed_content(self, content, tmp_path):
        path = tmp_path / "u_000001.f64"
        path.write_bytes(content)
        with pytest.raises(SnapshotFormatError, match="u_000001.f64"):
            load_field(path, GRID3)

    @pytest.mark.parametrize(
        "content", [None, b"\xc0\xff\x00", "directory"], ids=["missing", "not_text", "directory"]
    )
    def test_load_names_unreadable_file(self, content, grid1d, tmp_path):
        path = tmp_path / "u_000001.f64"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        with pytest.raises(SnapshotFormatError, match="u_000001.f64"):
            load_field(path, grid1d)
