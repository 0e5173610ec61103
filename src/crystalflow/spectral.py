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

Each DCT-I is numpy.fft.rfft of the even extension, O(N log N) per line.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grid import Grid

__all__ = ["apply", "eigenvalues"]


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


def apply(grid: Grid, multiplier: np.ndarray, x: np.ndarray) -> np.ndarray:
    """phi(-Laplacian) x for the flat field x, where multiplier holds phi at
    eigenvalues(grid)."""
    scale = math.prod(2 * (n - 1) for n in grid.nodes)
    y = _dct1(x.reshape(grid.nodes)) * multiplier
    return _dct1(y).reshape(-1) / scale


def _dct1(y: np.ndarray) -> np.ndarray:
    """Unnormalised DCT-I along every axis; applied twice it multiplies by
    the product of 2(N - 1) over the axes."""
    for axis in range(y.ndim):
        mirror = (slice(None),) * axis + (slice(-2, 0, -1),)
        y = np.fft.rfft(np.concatenate((y, y[mirror]), axis=axis), axis=axis).real
    return y
