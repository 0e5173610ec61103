"""Uniform tensor-product grids and the discrete spatial operators on them.

The domain is a box in 1, 2 or 3 dimensions. All operators impose homogeneous
Neumann (zero-flux) boundary conditions through mirror ghost nodes, which
keeps the discrete Laplacian symmetric with respect to the trapezoid
quadrature inner product and makes summation-by-parts exact. Those two
properties are what the discrete energy inequalities rely on, so they are
treated as hard invariants here and property-tested in the suite.

Every operator of the form div(c grad .) -- the Laplacian, the weighted
operator of the fixed-point map and the p-Laplacian Jacobian -- comes from
one per-axis assembly, divergence_matrix, as summation-by-parts operators
in several dimensions are built (Strand, J. Comput. Phys. 110, 1994). It
emits each edge's four entries in a fixed order, and the CSR conversion sums
duplicates in that order; keeping the order keeps every matrix, and so
every stored CSV, bitwise stable.

A snapshot file is one header line naming its grid and its value format
(_header) and then the field's values as raw little-endian float64, one per
node in row-major order, so a value reads back bit for bit. load_field reads
a snapshot only on the grid its caller hands it, and refuses a file whose
header is not that grid's, so a run's grid comes from its config alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sp

from .exceptions import InvalidExponentError, SnapshotFormatError, UnsupportedDimensionError

__all__ = [
    "Grid",
    "Field",
    "laplacian_neumann",
    "p_laplacian_1d",
    "integrate",
    "grad_sq_integral",
    "inner",
    "laplacian_matrix",
    "save_field",
    "load_field",
]

FLOAT_FMT = "%.17g"


def csv_line(cells) -> str:
    """One CSV line of cells: a float in FLOAT_FMT, any other cell with str, ended by LF."""
    return ",".join([FLOAT_FMT % c if isinstance(c, float) else str(c) for c in cells]) + "\n"


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on a box.

    Attributes:
        dim: space dimension, 1, 2 or 3
        extents: physical side length per axis
        nodes: node count per axis (>= 3 so an interior stencil exists)
    """

    dim: int
    extents: tuple[float, ...]
    nodes: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise UnsupportedDimensionError(f"dim must be 1, 2 or 3, got {self.dim}")
        object.__setattr__(self, "extents", tuple(float(e) for e in self.extents))
        object.__setattr__(self, "nodes", tuple(int(n) for n in self.nodes))
        if len(self.extents) != self.dim or len(self.nodes) != self.dim:
            raise ValueError("extents and nodes must have one entry per axis")
        if any(e <= 0 for e in self.extents):
            raise ValueError(f"extents must be positive, got {self.extents}")
        if any(n < 3 for n in self.nodes):
            raise ValueError(f"need at least 3 nodes per axis, got {self.nodes}")
        # every operator scales by 1/h^2, which must be a finite number
        if any(h**2 == 0 or math.isinf(1.0 / h**2) for h in self.spacing):
            raise ValueError(f"grid spacing {self.spacing} is too small: 1/h^2 overflows")

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / (n - 1) for e, n in zip(self.extents, self.nodes))

    @property
    def num_nodes(self) -> int:
        return math.prod(self.nodes)

    @property
    def measure(self) -> float:
        return math.prod(self.extents)

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.linspace(0.0, self.extents[axis], self.nodes[axis])

    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinate arrays shaped like the grid (meshgrid, 'ij')."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def quad_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights, flattened row-major. Sum equals |Omega|."""
        return _quad_weights(self)


class Field:
    """Scalar nodal values on a Grid, stored flat in row-major order."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size != grid.num_nodes:
            raise ValueError(
                f"expected {grid.num_nodes} values for grid {grid.nodes}, got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = values

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field":
        return cls(grid, fn(*grid.coords()).reshape(-1))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.num_nodes, float(value)))

    def shaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.nodes)

    def __repr__(self):
        return f"Field(grid={self.grid.nodes}, |values|_inf={np.abs(self.values).max():.3g})"


@lru_cache(maxsize=32)
def _axis_weights(grid: Grid) -> tuple[np.ndarray, ...]:
    """Trapezoid weights along each axis, read-only; their outer product is quad_weights()."""
    per_axis = []
    for h, n in zip(grid.spacing, grid.nodes):
        w = np.full(n, h)
        w[0] = w[-1] = h / 2
        w.flags.writeable = False
        per_axis.append(w)
    return tuple(per_axis)


@lru_cache(maxsize=32)
def _quad_weights(grid: Grid) -> np.ndarray:
    w = reduce(np.outer, _axis_weights(grid)).reshape(-1)
    w.flags.writeable = False
    return w


def divergence_matrix(grid: Grid, edge_coeffs) -> sp.csr_matrix:
    """div(c grad .) with zero-flux boundaries, c given on the edges.

    edge_coeffs holds one coefficient array per axis, shaped like the grid
    with that axis one node shorter; a scalar stands for a constant
    coefficient. Each edge adds its flux to the row of its low node and
    subtracts it from the row of its high node, entered as (lo, hi),
    (lo, lo), (hi, lo), (hi, hi).
    """
    index = np.arange(grid.num_nodes).reshape(grid.nodes)
    rows, cols, vals = [], [], []
    for axis, (h, n, c) in enumerate(zip(grid.spacing, grid.nodes, edge_coeffs)):
        lo, hi = np.delete(index, -1, axis), np.delete(index, 0, axis)
        c = np.broadcast_to(np.asarray(c, dtype=float), lo.shape)
        # the first edge starts and the last edge ends on the boundary, whose
        # control volumes have half width, doubling the flux scale
        edge = np.indices(lo.shape, sparse=True)[axis]
        scale_lo = np.where(edge == 0, 2.0, 1.0) / h**2
        scale_hi = np.where(edge == n - 2, 2.0, 1.0) / h**2
        rows += [lo, lo, hi, hi]
        cols += [hi, lo, lo, hi]
        vals += [c * scale_lo, -c * scale_lo, c * scale_hi, -c * scale_hi]

    vals, rows, cols = (np.concatenate([a.reshape(-1) for a in x]) for x in (vals, rows, cols))
    return sp.coo_matrix((vals, (rows, cols)), shape=(grid.num_nodes,) * 2).tocsr()


@lru_cache(maxsize=32)
def laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """Sparse Neumann Laplacian acting on flattened row-major fields."""
    return divergence_matrix(grid, [1.0] * grid.dim)


def laplacian_neumann(f: Field) -> Field:
    """Discrete Laplacian with homogeneous Neumann flux (mirror ghosts)."""
    return Field(f.grid, laplacian_matrix(f.grid) @ f.values)


def integrate(f: Field) -> float:
    """Trapezoid quadrature of f over the box; exact for per-axis affine fields."""
    return float(f.grid.quad_weights() @ f.values)


def inner(f: Field, g: Field) -> float:
    """Quadrature inner product <f, g>."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return float(f.grid.quad_weights() @ (f.values * g.values))


def grad_sq_integral(f: Field) -> float:
    """Discrete Dirichlet energy via half-node differences.

    Compatible with the stencil: equals -<f, laplacian_neumann(f)> exactly
    up to round-off, so the discrete integration-by-parts identities used by
    the energy estimates telescope without consistency error.
    """
    return _grad_sq(f.grid, f.values)


def _grad_sq(grid: Grid, values: np.ndarray) -> float:
    """grad_sq_integral of the flat nodal values on grid, with no Field made."""
    weights = _axis_weights(grid)
    v = values.reshape(grid.nodes)
    total = 0.0
    for axis, h in enumerate(grid.spacing):
        d = np.diff(v, axis=axis)
        e = d * d
        # an edge along axis carries the trapezoid weight of every other
        # axis. Contracting them last axis first, a later axis is always the
        # last one left and an earlier one the second to last.
        for other in reversed(range(grid.dim)):
            if other > axis:
                e = e @ weights[other]
            elif other < axis:
                e = weights[other] @ e
        total += np.sum(e) / h
    return float(total)


def p_laplacian_1d(f: Field, p: float) -> Field:
    """1-D p-Laplacian (|f'|^{p-2} f')' in flux form with zero-flux boundaries.

    Reduces to laplacian_neumann at p = 2, and its quadrature integral
    vanishes identically (discrete divergence theorem).
    """
    if f.grid.dim != 1:
        raise UnsupportedDimensionError("p_laplacian_1d requires a 1-D grid")
    if p < 2:
        raise InvalidExponentError(f"exponent must satisfy p >= 2, got {p}")
    h = f.grid.spacing[0]
    slope = np.diff(f.values) / h
    # the flux |s|^(p-2) s; at s = 0 it is 0 for every p, since 0.0 ** 0.0 == 1.0
    flux = np.abs(slope) ** (p - 2.0) * slope
    out = np.empty_like(f.values)
    out[1:-1] = np.diff(flux) / h
    # boundary control volumes have width h/2 and zero outward flux
    out[0] = flux[0] / (h / 2)
    out[-1] = -flux[-1] / (h / 2)
    return Field(f.grid, out)


def p_laplacian_jacobian_1d(f: Field, p: float) -> sp.csr_matrix:
    """Jacobian of p_laplacian_1d at f: div((p-1)|f'|^{p-2} grad .)."""
    if f.grid.dim != 1:
        raise UnsupportedDimensionError("p_laplacian_jacobian_1d requires a 1-D grid")
    h = f.grid.spacing[0]
    slope = np.diff(f.values) / h
    c = (p - 1.0) * np.abs(slope) ** (p - 2.0)
    return divergence_matrix(f.grid, [c])


# -- snapshot I/O -------------------------------------------------------------

def _header(grid: Grid) -> str:
    """The first line of every snapshot of a field on grid."""
    nodes = ",".join(str(n) for n in grid.nodes)
    extent = ",".join(FLOAT_FMT % e for e in grid.extents)
    return f"# grid: dim={grid.dim} nodes={nodes} extent={extent} values=float64le\n"


def save_field(f: Field, path) -> None:
    """Write f to path: _header(f.grid), then f's values as raw little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(_header(f.grid).encode() + f.values.astype("<f8").tobytes())


def load_field(path, grid: Grid) -> Field:
    """Read a snapshot of a field on grid. Raises SnapshotFormatError naming
    path when the file cannot be read, its header is not the one save_field
    writes for grid, or its payload is not grid.num_nodes finite float64."""
    expected = _header(grid).encode()
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            payload = fh.read()
    except OSError as err:
        raise SnapshotFormatError(f"{path}: cannot read snapshot: {err.strerror}") from err
    if header != expected:
        stated = header.decode("ascii", "replace").strip()
        raise SnapshotFormatError(
            f"{path}: snapshot header {stated!r} does not match "
            f"the run's grid {expected.decode().strip()!r}"
        )
    if len(payload) != 8 * grid.num_nodes:
        raise SnapshotFormatError(
            f"{path}: snapshot holds {len(payload)} bytes of values, "
            f"not 8 for each of the grid's {grid.num_nodes} nodes"
        )
    try:
        return Field(grid, np.frombuffer(payload, "<f8"))
    except ValueError as err:
        raise SnapshotFormatError(f"{path}: malformed snapshot: {err!r}") from err
