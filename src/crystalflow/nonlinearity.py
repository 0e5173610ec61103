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
        hyperbolic: True when f is odd with f' >= 1, i.e. the structure the
            discrete energy estimates require
        p: p-Laplacian exponent when the variant replaces -Laplacian u by
            -Laplacian_p u (1-D only), else None
        arg_scale: internal scaling of the argument (K for scaled sinh)
        normalized: for scaled sinh, whether f is sinh(K s)/K or raw sinh(K s)
    """

    name: str
    hyperbolic: bool
    p: float | None = None
    arg_scale: float = 1.0
    normalized: bool = True

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

    def f(self, w: np.ndarray) -> np.ndarray:
        k = self.arg_scale
        if self.name == "exp":
            return np.exp(w)
        if self.name == "linear":
            return np.asarray(w, dtype=float)
        out = np.sinh(k * w)
        if self.name == "scaled_sinh" and self.normalized:
            out = out / k
        return out

    def df(self, w: np.ndarray) -> np.ndarray:
        """Derivative f'; the diffusion weight of the linearized sub-problem."""
        k = self.arg_scale
        if self.name == "exp":
            return np.exp(w)
        if self.name == "linear":
            return np.ones_like(np.asarray(w, dtype=float))
        out = np.cosh(k * w)
        if self.name == "scaled_sinh" and not self.normalized:
            out = out * k
        return out

    def antiderivative(self, w: np.ndarray) -> np.ndarray:
        """F with F' = f and F(0) = f's natural energy density (cosh-like)."""
        k = self.arg_scale
        if self.name == "exp":
            return np.exp(w)
        if self.name == "linear":
            return 0.5 * np.asarray(w, dtype=float) ** 2
        out = np.cosh(k * w) / k
        if self.name == "scaled_sinh" and self.normalized:
            out = out / k
        return out


def sinh_variant() -> Variant:
    return Variant(name="sinh", hyperbolic=True)


def exp_variant() -> Variant:
    return Variant(name="exp", hyperbolic=False)


def scaled_sinh_variant(k: float, normalized: bool = True) -> Variant:
    if k <= 0:
        raise ValueError(f"scale K must be positive, got {k}")
    return Variant(
        name="scaled_sinh",
        hyperbolic=normalized,
        arg_scale=float(k),
        normalized=normalized,
    )


def p_exponent_variant(p: float) -> Variant:
    if p < 2:
        raise ValueError(f"p-Laplacian exponent must satisfy p >= 2, got {p}")
    return Variant(name="p_exponent", hyperbolic=True, p=float(p))


def linear_variant() -> Variant:
    """f(s) = s; the K -> 0 limit used as the reference in scaled-sinh sweeps."""
    return Variant(name="linear", hyperbolic=False)


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
        return scaled_sinh_variant(kwargs["K"], kwargs.get("normalized", True))
    if kind == "p_exponent":
        return p_exponent_variant(kwargs["p"])
    if kind == "linear":
        return linear_variant()
    raise ArgumentError(f"unknown variant kind {kind!r}")
