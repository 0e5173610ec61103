"""Functions of the Neumann -Laplacian, applied in its DCT-I eigenbasis.

Along an axis of N nodes and spacing h, the mirror-ghost Neumann
-Laplacian of grid.laplacian_matrix has the eigenvectors cos(pi j k/(N - 1))
and the eigenvalues (2/h)^2 sin^2(pi k/(2(N - 1))), k = 0, ..., N - 1
(Strang, "The Discrete Cosine Transform", SIAM Review 41, 1999). On a
tensor grid the eigenvectors are the products over the axes and the
eigenvalues the sums. They are orthogonal in the trapezoid inner product,
so phi(-Laplacian) x, for any function phi, is a DCT-I along each axis, a
multiply by phi at the eigenvalues, and the inverse transform. The constant
mode (k = 0 on every axis) is the quadrature mean, so a multiplier that is
0 there returns a quadrature-mean-zero field.

Along an axis of at most _DENSE_MAX_NODES nodes each DCT-I is one BLAS
product by the axis's N x N cosine matrix, made once per node count: the
fast diagonalization method of Lynch, Rice & Thomas (Numer. Math. 6, 1964),
as tensor-product spectral codes apply it (Deville, Fischer & Mund,
High-Order Methods for Incompressible Fluid Flow, 2002). On these grids
that is cheaper than an FFT call and the mirrored copy it needs. A longer
axis, where the dense product is slower and its 8 N^2 bytes may not fit,
takes numpy.fft.rfft of the even extension, O(N log N) per line.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grid import Grid

__all__ = ["apply", "eigenvalues"]

# longest axis applied by the dense cosine matrix. Per transform pair (one
# BLAS thread, best of 3), the matrix is 2-5x faster than the rfft on 65
# nodes per axis in 1-D to 3-D, about even at 129-257 nodes, and 1.4x (2-D
# 513^2) to 3.7x (1-D 513) slower past them
_DENSE_MAX_NODES = 257


@lru_cache(maxsize=16)
def eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of -Laplacian on grid, shaped like the grid and indexed
    by the DCT-I wavenumbers; entry 0 is the constant mode's 0. Read-only."""
    lam = np.zeros(grid.nodes)
    for axis, (h, n) in enumerate(zip(grid.spacing, grid.nodes)):
        shape = [1] * grid.dim
        shape[axis] = n
        lam += (((2.0 / h) * np.sin(np.pi * np.arange(n) / (2 * (n - 1)))) ** 2).reshape(shape)
    lam.setflags(write=False)
    return lam


def apply(grid: Grid, multiplier: np.ndarray, x: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """phi(-Laplacian) x for the flat field x, where multiplier holds phi at
    eigenvalues(grid). Further (multiplier, field) pairs in more add their
    terms in the DCT-I basis, so the sum takes one inverse transform."""
    scale = math.prod(2 * (n - 1) for n in grid.nodes)
    y = _dct1(x.reshape(grid.nodes)) * multiplier
    for phi, field in zip(more[::2], more[1::2]):
        y += _dct1(field.reshape(grid.nodes)) * phi
    return _dct1(y).reshape(-1) / scale


def _dct1(y: np.ndarray) -> np.ndarray:
    """Unnormalised DCT-I along every axis; applied twice it multiplies by
    the product of 2(N - 1) over the axes."""
    shape = y.shape
    for axis, n in enumerate(shape):
        if n > _DENSE_MAX_NODES:
            mirror = (slice(None),) * axis + (slice(-2, 0, -1),)
            y = np.fft.rfft(np.concatenate((y, y[mirror]), axis=axis), axis=axis).real
        elif axis == len(shape) - 1:
            y = (y.reshape(-1, n) @ _dct1_matrix(n).T).reshape(shape)
        else:
            y = (_dct1_matrix(n) @ y.reshape(math.prod(shape[:axis]), n, -1)).reshape(shape)
    return y


@lru_cache(maxsize=16)
def _dct1_matrix(n: int) -> np.ndarray:
    """The DCT-I along an axis of n nodes as a matrix: entry (k, j) is
    c_j cos(pi j k/(n - 1)), with c_j 1 at the two ends and 2 inside, the
    argument reduced modulo 2(n - 1) before the cosine. Its square is
    2(n - 1) I. Read-only."""
    j = np.arange(n)
    m = np.cos(np.pi * (np.outer(j, j) % (2 * (n - 1))) / (n - 1))
    m[:, 1:-1] *= 2.0
    m.setflags(write=False)
    return m
