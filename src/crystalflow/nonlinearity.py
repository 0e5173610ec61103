"""Nonlinearity variants for the surface-growth equation family.

The equation is d/dt u - Laplacian f(w) = 0 with w the (regularized)
negative Laplacian of u. The Metropolis-rate model gives f = sinh; the
Arrhenius-rate analogue gives f = exp; the inverse-temperature model gives
f = sinh(K s), exposed here normalized as sinh(K s)/K so that K -> 0
approaches the linear equation; and the L^p-interaction model replaces the
exponent -Laplacian u by the 1-D p-Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ArgumentError, OverflowCapError

__all__ = [
    "Variant",
    "sinh_variant",
    "exp_variant",
    "scaled_sinh_variant",
    "p_exponent_variant",
    "linear_variant",
    "make_variant",
]


@dataclass(frozen=True)
class Variant:
    """One choice of current nonlinearity f.

    Attributes:
        name: stable identifier used in configs and reports
        p: p-Laplacian exponent when the variant replaces -Laplacian u by
            -Laplacian_p u (1-D only), else None
        arg_scale: K of f = sinh(K s)/K; 1 for every variant but scaled_sinh
    """

    name: str
    p: float | None = None
    arg_scale: float = 1.0

    @property
    def hyperbolic(self) -> bool:
        """True when f is odd with f' >= 1, i.e. the structure the discrete
        energy estimates require: every sinh(K s)/K variant."""
        return self.name not in ("exp", "linear")

    # -- evaluation ----------------------------------------------------------

    def check_cap(self, w: np.ndarray, cap: float, step_index=None) -> None:
        scaled = np.abs(w).max() * abs(self.arg_scale)
        if scaled > cap:
            raise OverflowCapError(
                f"|argument| = {scaled:.6g} exceeds sinh_arg_cap = {cap:.6g}; "
                "reduce the timestep or the initial data",
                max_abs=float(scaled),
                cap=cap,
                step_index=step_index,
            )

    # the hyperbolic branches divide by K = 1 for sinh and the p-variant,
    # which is exact, so they share scaled_sinh's expressions bit for bit

    def f(self, w: np.ndarray) -> np.ndarray:
        if self.name == "exp":
            return np.exp(w)
        if self.name == "linear":
            return np.asarray(w, dtype=float)
        k = self.arg_scale
        return np.sinh(k * w) / k

    def df(self, w: np.ndarray) -> np.ndarray:
        """Derivative f'; the diffusion weight of the linearized sub-problem."""
        if self.name == "exp":
            return np.exp(w)
        if self.name == "linear":
            return np.ones_like(np.asarray(w, dtype=float))
        return np.cosh(self.arg_scale * w)

    def antiderivative(self, w: np.ndarray) -> np.ndarray:
        """F with F' = f and F(0) = f's natural energy density (cosh-like)."""
        if self.name == "exp":
            return np.exp(w)
        if self.name == "linear":
            return 0.5 * np.asarray(w, dtype=float) ** 2
        k = self.arg_scale
        return np.cosh(k * w) / k / k


def sinh_variant() -> Variant:
    return Variant(name="sinh")


def exp_variant() -> Variant:
    return Variant(name="exp")


def scaled_sinh_variant(k: float) -> Variant:
    if k <= 0:
        raise ValueError(f"scale K must be positive, got {k}")
    return Variant(name="scaled_sinh", arg_scale=float(k))


def p_exponent_variant(p: float) -> Variant:
    if p < 2:
        raise ValueError(f"p-Laplacian exponent must satisfy p >= 2, got {p}")
    return Variant(name="p_exponent", p=float(p))


def linear_variant() -> Variant:
    """f(s) = s; the K -> 0 limit of scaled_sinh."""
    return Variant(name="linear")


# the parameter each parametrized kind cannot be built without
_REQUIRED_PARAM = {"scaled_sinh": "K", "p_exponent": "p"}


def make_variant(kind: str, **kwargs) -> Variant:
    needed = _REQUIRED_PARAM.get(kind)
    if needed is not None and needed not in kwargs:
        raise ArgumentError(f"variant kind {kind!r} needs its parameter {needed}")
    if kind == "sinh":
        return sinh_variant()
    if kind == "exp":
        return exp_variant()
    if kind == "scaled_sinh":
        return scaled_sinh_variant(kwargs["K"])
    if kind == "p_exponent":
        return p_exponent_variant(kwargs["p"])
    if kind == "linear":
        return linear_variant()
    raise ArgumentError(f"unknown variant kind {kind!r}")
