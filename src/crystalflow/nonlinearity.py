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
    "EXP_ARG_BOUND",
    "VARIANT_PARAMS",
    "Variant",
    "sinh_variant",
    "make_variant",
]

# every variant kind, with the config key of its one parameter, if any
VARIANT_PARAMS = {"sinh": None, "exp": None, "scaled_sinh": "K", "p_exponent": "p",
                  "linear": None}

# the bound on |K w| for the sinh variants and on max w for exp: sinh, cosh
# and exp overflow above ln(max double), about 709.78; the margin keeps a
# product such as the reports' w f(w) (at most 700 sinh(700), 3.5e306) finite
EXP_ARG_BOUND = 700.0

# linear's bound on |w|: above it F = w^2/2 and the reports' w f(w) overflow
_LINEAR_MAX_W = float(np.sqrt(np.finfo(float).max))


@dataclass(frozen=True)
class Variant:
    """One choice of current nonlinearity f.

    Attributes:
        name: stable identifier used in configs and reports; a VARIANT_PARAMS kind
        param: the kind's parameter (K of scaled_sinh, p of p_exponent), else None
    """

    name: str
    param: float | None = None

    def __post_init__(self):
        if self.name not in VARIANT_PARAMS:
            kinds = ", ".join(VARIANT_PARAMS)
            raise ArgumentError(f"unknown kind {self.name!r}; choose from {kinds}")
        key = VARIANT_PARAMS[self.name]
        if (key is None) != (self.param is None):
            need = f"needs its parameter {key}" if key else "takes no parameter"
            raise ArgumentError(f"variant kind {self.name!r} {need}")
        if key is not None:
            object.__setattr__(self, "param", float(self.param))
        if key == "p" and self.param < 2:
            raise ArgumentError(f"p-Laplacian exponent must satisfy p >= 2, got {self.param}")
        if key == "K" and self.param <= 0:
            raise ArgumentError(f"scale K must be positive, got {self.param}")
        # the energy density cosh(K w)/K/K must be finite even at w = 0
        if key == "K" and not np.isfinite(1.0 / self.param / self.param):
            raise ArgumentError(
                f"scale K = {self.param} is too small for cosh(K w)/K^2; "
                "kind = linear is the K -> 0 limit"
            )

    @property
    def p(self) -> float | None:
        """p-Laplacian exponent of the 1-D p_exponent variant, else None."""
        return self.param if self.name == "p_exponent" else None

    @property
    def arg_scale(self) -> float:
        """K of f = sinh(K s)/K; 1 for every variant but scaled_sinh."""
        return self.param if self.name == "scaled_sinh" else 1.0

    @property
    def coercive(self) -> bool:
        """True when f is odd with f' >= 1, so F is convex, and the exponent
        is the plain -Laplacian u: sinh, scaled_sinh and linear. It picks
        newton_step's PCG direction, whose condition bound rests on f' >= 1
        and a linear second equation, and it admits the run to
        standard_reports, whose three inequalities rest on all of it."""
        return self.name in ("sinh", "scaled_sinh", "linear")

    # -- evaluation ----------------------------------------------------------

    def check_cap(self, w: np.ndarray) -> None:
        """Raise OverflowCapError where f, f' or F may overflow: |K w| above
        EXP_ARG_BOUND for the sinh variants, max w above it for exp (e^w
        cannot overflow for negative w), and for linear, which takes no
        exponential, |w| above sqrt(max double), where w^2 overflows."""
        if self.name == "linear":
            top, bound, name = np.abs(w).max(), _LINEAR_MAX_W, "sqrt(max double)"
        else:
            top = w.max() if self.name == "exp" else np.abs(w).max()
            top, bound, name = top * abs(self.arg_scale), EXP_ARG_BOUND, "the overflow bound"
        if top > bound:
            raise OverflowCapError(
                f"|argument| = {top:.6g} exceeds {name} = {bound:.6g}; "
                "reduce the timestep or the initial data",
                max_abs=float(top),
                cap=bound,
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


def make_variant(kind: str, **params) -> Variant:
    """The variant of kind, its parameter passed by config key:
    make_variant("exp"), make_variant("scaled_sinh", K=2.0)."""
    variant = Variant(kind, params.pop(VARIANT_PARAMS.get(kind), None))
    if params:
        raise ArgumentError(f"variant kind {kind!r} takes no parameter {', '.join(params)}")
    return variant
