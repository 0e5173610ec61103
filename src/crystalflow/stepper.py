"""Implicit time stepping for the regularized surface-growth system.

One step from v to (u, w) solves

    (u - v)/tau - Laplacian f(w) + tau' w = 0
    -Laplacian u + tau' u = w            (p-variant: -Laplacian_p u + tau' u = w)

with zero-flux boundaries, where tau' is the regularization weight (equal
to the timestep by default, or an independent epsilon when decoupled for
convergence studies).

Each step is one Newton solve of the coupled residual with a halving line
search, started from the previous step's pair (u, w). Only the linear solve
for each Newton direction depends on the variant, and each variant has one
path, whatever tau, h or box. A step is accepted by one rule, in run and
in verify's re-check (check_scheme) alike: the _residual_norm of its two
stencil residuals is at most picard_tol.

- sinh, scaled_sinh and linear (Variant.coercive: f' >= 1, linear second
  equation): the u-update is eliminated through u = B^-1 w with
  B = -Laplacian + tau' I, and the w-update is split into its quadrature
  mean, which has a closed form, and a mean-zero part. Symmetrized by the pseudo-inverse of -Laplacian, the
  system for the mean-zero part is K + P diag(f'(w)), self-adjoint and
  positive definite in the trapezoid inner product, with
  K = (-Laplacian)^+ (B^-1/tau + tau' I). Since f' >= 1, Jacobi
  preconditioning bounds its condition number by
  1 + 1/(tau mu_1^2) + tau'/mu_1 (mu_1 the smallest nonzero eigenvalue of
  -Laplacian), about 11 at tau = 1e-3 on the unit box, whatever h or
  max f'. K, (-Laplacian)^+ and the B^-1 in the system's data are
  multiplies in the DCT-I basis, where -Laplacian is diagonal on every grid
  (spectral.apply, one cached cosine-matrix product per axis of up to 257
  nodes). B^-1 of du alone takes the constant mode in closed form and the
  rest through one LU factor made once per grid and tau'
  (_helmholtz_inverse), and no matrix is factored per iteration. Newton is
  inexact on this path: PCG solves each direction only to an
  Eisenstat-Walker forcing term (_forcing_term).
- exp (f' = e^w has no floor) and the p-variant (nonlinear second
  equation): the w-update is eliminated through the second equation and
  the n x n Schur matrix left for the u-update is factored afresh each
  iteration.

Every sparse factorization goes through elliptic.lu_factor: SuperLU's
minimum-degree ordering on A + A^T (MMD_AT_PLUS_A) in symmetric mode,
diagonal pivot threshold 1e-3.

The damped fixed-point map (fixed_point_step) is off the run path. It
takes the variants with a linear second equation, whose u-solve is
_helmholtz_inverse, and hands a p-variant step to newton_step. It remains
until the benchmark stops tracing it (ROADMAP item 2).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import spectral
from .elliptic import helmholtz_matrix, lu_factor, weighted_helmholtz_matrix
from .exceptions import OverflowCapError, SolverFailure, StepFailure, UnsupportedDimensionError
from .grid import Field, Grid, laplacian_matrix, p_laplacian_1d, p_laplacian_jacobian_1d
from .nonlinearity import Variant, sinh_variant

__all__ = [
    "SchemeParams",
    "StepDiagnostics",
    "StepRecord",
    "Trajectory",
    "init_w0",
    "check_scheme",
    "newton_step",
    "run",
]

@dataclass(frozen=True)
class SchemeParams:
    """Timestep, horizon, regularization coupling and step tolerance.

    reg_eps = None keeps the fully coupled scheme where the timestep itself is
    the regularization weight in both zero-order terms; a positive reg_eps
    decouples them so the timestep can be refined at fixed regularization.
    picard_tol bounds the sup-norm of both stencil residuals of an accepted
    step. The bound on the exponent's argument is the variant's own
    (Variant.check_cap).
    """

    tau: float
    horizon: float
    reg_eps: float | None = None
    picard_tol: float = 1e-10

    def __post_init__(self):
        for name in ("tau", "horizon", "reg_eps", "picard_tol"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        steps = self.horizon / self.tau
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"tau = {self.tau} must divide horizon = {self.horizon} "
                "into an integer number of steps"
            )
        if self.num_steps < 1:
            raise ValueError(
                f"tau = {self.tau} exceeds horizon = {self.horizon}; a run needs at least one step"
            )
        if self.reg_eps is not None and self.reg_eps <= 0:
            raise ValueError(f"reg_eps must be positive when given, got {self.reg_eps}")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")

    @property
    def num_steps(self) -> int:
        return int(round(self.horizon / self.tau))

    @property
    def reg_weight(self) -> float:
        """Effective tau' multiplying the regularization terms."""
        return self.tau if self.reg_eps is None else self.reg_eps


@dataclass
class StepDiagnostics:
    """What a step's solver did. cg_iters holds the PCG iterations of each
    Newton direction on the PCG path and is empty on the LU path."""

    picard_iters: int
    newton_used: bool
    residual_inf: float
    residual_history: list = field(default_factory=list)
    cg_iters: list = field(default_factory=list)


@dataclass
class StepRecord:
    """One stored step. cg_iters is the step's total of PCG iterations: 0 on
    the LU path, at step 0 and for a run reloaded from its snapshots."""

    k: int
    u: Field
    w: Field
    newton_iters: int
    residual_inf: float
    cg_iters: int = 0


@dataclass
class Trajectory:
    params: SchemeParams
    grid: Grid
    variant: Variant
    records: list[StepRecord]

    @property
    def num_steps(self) -> int:
        return len(self.records) - 1

    def times(self) -> np.ndarray:
        return self.params.tau * np.arange(len(self.records))


@lru_cache(maxsize=16)
def _helmholtz_inverse(grid: Grid, tau_reg: float):
    """x -> B^-1 x for B = -Laplacian + tau' I, made once per grid and tau'.

    B maps constants to tau' times themselves and quadrature-mean-zero
    fields to mean-zero fields, so B^-1 x = mean(x)/tau' + P LU^-1 (x - mean(x)),
    P the removal of the mean. The constant mode, whose condition in B is
    about lambda_max/tau', takes the closed form; the LU factor of B serves
    the rest, and P drops the constant its rounding leaves there. The PCG
    Newton direction applies it to du alone, once per direction; the
    fixed-point map solves its second equation with it, once per trial.
    """
    factor = lu_factor(helmholtz_matrix(grid, tau_reg))
    q = _mean_weights(grid)

    def solve(x):
        mean = q @ x
        y = factor.solve(x - mean)
        return y + (mean / tau_reg - q @ y)

    return solve


_PICARD_MAX_ITER = 200


def _apply_exponent_op(grid: Grid, tau_reg: float, u: np.ndarray, variant: Variant) -> np.ndarray:
    """The operator defining w: -Laplacian(_p) u + tau' u."""
    if variant.p is not None:
        return -p_laplacian_1d(Field(grid, u), variant.p).values + tau_reg * u
    return -(laplacian_matrix(grid) @ u) + tau_reg * u


def _stencil_residuals(
    grid: Grid,
    tau: float,
    tau_reg: float,
    v: np.ndarray,
    u: np.ndarray,
    w: np.ndarray,
    variant: Variant,
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the two step equations at (u, w), stepping from v.

    Raises OverflowCapError first when w exceeds the variant's bound.
    """
    variant.check_cap(w)
    r1 = (u - v) / tau - laplacian_matrix(grid) @ variant.f(w) + tau_reg * w
    r2 = _apply_exponent_op(grid, tau_reg, u, variant) - w
    return r1, r2


def _residual_norm(r1: np.ndarray, r2: np.ndarray) -> float:
    """The step's residual norm, the larger sup-norm of the two stencil
    residuals: a step is accepted when it is at most picard_tol."""
    return float(max(np.abs(r1).max(), np.abs(r2).max()))


def _step_residual(
    grid: Grid,
    tau: float,
    tau_reg: float,
    v: np.ndarray,
    u: np.ndarray,
    w: np.ndarray,
    variant: Variant,
) -> float:
    """_residual_norm of the stencil residuals at (u, w), stepping from v."""
    return _residual_norm(*_stencil_residuals(grid, tau, tau_reg, v, u, w, variant))


def init_w0(u0: Field, params: SchemeParams, variant: Variant | None = None) -> Field:
    """Exponent field at t = 0, defined so the w-equation holds exactly."""
    variant = variant or sinh_variant()
    values = _apply_exponent_op(u0.grid, params.reg_weight, u0.values, variant)
    return Field(u0.grid, values)


def fixed_point_step(
    v: Field,
    params: SchemeParams,
    phi_init: Field,
    variant: Variant | None = None,
) -> tuple[Field, Field, StepDiagnostics]:
    """One implicit step via the damped two-solve fixed-point map.

    The map takes variants whose second equation is linear: it sends phi
    to the solution w of the f'(phi)-weighted Helmholtz problem whose data
    comes from the u-solve u = B^-1 phi; a defect correction term makes its
    fixed point satisfy the stencil equations to the Picard tolerance.
    Damping starts at 1 and is halved whenever the combined residual
    increases, and a trial is rejected the same way when its argument
    exceeds the variant's bound. On stagnation, or after _PICARD_MAX_ITER
    iterations, newton_step takes over from the last iterate. A p-variant
    step, whose second equation is nonlinear, goes to newton_step from
    (v, phi_init) at once.

    run does not call this map: Newton alone reaches the same fields in
    fewer iterations. It remains, off the run path, until the benchmark
    change of ROADMAP item 2 stops tracing it.
    """
    variant = variant or sinh_variant()
    if variant.p is not None:
        return newton_step(v, params, (v, phi_init), variant)
    grid = v.grid
    tau, tau_reg = params.tau, params.reg_weight
    tol = params.picard_tol
    lap = laplacian_matrix(grid)
    solve = _helmholtz_inverse(grid, tau_reg)

    phi = phi_init.values.copy()
    variant.check_cap(phi)
    u = solve(phi)
    res = _step_residual(grid, tau, tau_reg, v.values, u, phi, variant)
    theta = 1.0
    history = [res]
    iters = 0

    while iters < _PICARD_MAX_ITER and res > tol:
        weight = Field(grid, variant.df(phi))
        # defect correction: shift the data so the *stencil* equation
        # -Lap f(w) + tau' w = -(u - v)/tau holds at the fixed point even
        # though the iteration operator uses half-node averaged weights
        op = weighted_helmholtz_matrix(grid, tau_reg, weight)
        target = -(u - v.values) / tau
        defect = op @ phi - (-(lap @ variant.f(phi)) + tau_reg * phi)
        w_hat = lu_factor(op).solve(target + defect)

        accepted = False
        while theta >= 1e-4:
            phi_try = (1 - theta) * phi + theta * w_hat
            u_try = solve(phi_try)
            try:
                res_try = _step_residual(grid, tau, tau_reg, v.values, u_try, phi_try, variant)
            except OverflowCapError:
                theta /= 2
                continue
            if res_try < res or res_try <= tol:
                phi, u, res = phi_try, u_try, res_try
                accepted = True
                break
            theta /= 2
        iters += 1
        history.append(res)
        if not accepted:
            break

    if res > tol:
        u_f, w_f, diag = newton_step(v, params, (Field(grid, u), Field(grid, phi)), variant)
        diag.picard_iters += iters
        return u_f, w_f, diag

    diag = StepDiagnostics(iters, False, res, history)
    return Field(grid, u), Field(grid, phi), diag


# Newton iterations allowed per step. Converging steps of the benchmark
# configs take at most 13; a step that hits the limit reports its first and
# last residual, so a slow descent is told apart from a divergence.
_NEWTON_MAX_ITER = 60

# PCG of the Newton direction stops when its preconditioned residual norm
# has fallen by a relative tolerance, at least _CG_RTOL, with respect to the
# whole direction (_pcg). Since K + diag(f') >= diag(f'), the full solve
# bounds the relative energy-norm error of the direction by
# sqrt(cond) * _CG_RTOL, with cond at most 1 + 1/(tau mu_1^2) + tau'/mu_1
# (about 11 at tau = 1e-3 on the unit box, 4-9 iterations per direction to
# _CG_RTOL). That bound grows as tau mu_1^2 shrinks, at tiny steps or on
# large extents, and the iterations with it. Over the 4115 directions of 480
# sinh and scaled_sinh (K = 2) runs of 3 steps (1-D 33, 65 and 257 nodes,
# 2-D 17^2 to 65^2, 3-D 9^3 and 17^3; extents 1, 3 and 10; tau 1e-3 to 1e-7;
# cosine amplitude 0.01 and 0.1; bounds from 11 to 1.1e9), the most one
# direction took was 1574 (2-D 65^2 on a 10 x 10 box at tau = 1e-7). The cap
# is a guard that no converging direction reached there.
_CG_RTOL = 1e-10
_CG_MAX_ITER = 2000

# Inexact Newton (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996, choice
# 2; Kelley, Iterative Methods for Linear and Nonlinear Equations, 1995,
# ch. 6): PCG solves each direction only to the relative tolerance eta_k of
# _forcing_term. Within _FULL_SOLVE_FACTOR of the step tolerance every
# direction is solved to _CG_RTOL again: with forcing terms alone, 2 of 140
# jittered 2-D 65^2 starts at amplitude 0.5 stagnated at step 1 at a
# residual of 1.016e-10 against 1.010e-10 (the round-off floor of ROADMAP
# item 1), and 0 of 140 with this rule.
_EW_GAMMA = 0.9
_ETA_MAX = 0.1
_FULL_SOLVE_FACTOR = 1e3


@lru_cache(maxsize=16)
def _lu_operators(grid: Grid, tau_reg: float):
    """The identity and B = -Laplacian + tau' I, made once per grid and tau'."""
    return sp.identity(grid.num_nodes, format="csr"), helmholtz_matrix(grid, tau_reg)


def _lu_direction(grid: Grid, tau: float, tau_reg: float, variant: Variant, u, w, r1, r2):
    """Newton direction from the factored Schur matrix of the u-update.

    The w-row of the Jacobian gives dw = B du + r2, which leaves the n x n
    system (I/tau + A B) du = -r1 - A r2, A = -Laplacian diag(f'(w)) + tau' I.
    u is read only by the p-variant, whose B is rebuilt at u each iteration.
    """
    eye, block_uu = _lu_operators(grid, tau_reg)
    if variant.p is not None:
        block_uu = -p_laplacian_jacobian_1d(Field(grid, u), variant.p) + tau_reg * eye
    block_uw = -laplacian_matrix(grid) @ sp.diags(variant.df(w)) + tau_reg * eye
    schur = eye / tau + block_uw @ block_uu
    du = lu_factor(schur).solve(-r1 - block_uw @ r2)
    dw = block_uu @ du + r2
    return du, dw


@lru_cache(maxsize=16)
def _mean_weights(grid: Grid) -> np.ndarray:
    """Quadrature weights over their sum, read-only: q @ x is the mean of x."""
    q = grid.quad_weights() / grid.quad_weights().sum()
    q.setflags(write=False)
    return q


def _remove_mean(grid: Grid, x: np.ndarray) -> np.ndarray:
    return x - _mean_weights(grid) @ x


@lru_cache(maxsize=16)
def _direction_multipliers(grid: Grid, tau: float, tau_reg: float):
    """The read-only DCT-I multipliers of _pcg_direction: -1/lambda and
    1/(tau lambda (lambda + tau')), which take r1 and r2 to (-Laplacian)^+ g,
    and kappa, each 0 on the constant mode."""
    lam = spectral.eigenvalues(grid)
    pinv = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0)
    b_inv = 1.0 / (tau * (lam + tau_reg))
    out = np.stack((-pinv, b_inv * pinv, (b_inv + tau_reg) * pinv))
    out.setflags(write=False)
    return out


def _forcing_term(history: list, tol: float) -> float:
    """Relative PCG tolerance of the next Newton direction, given the
    residual history (the current residual last): Eisenstat-Walker choice 2,
    eta_0 = _ETA_MAX, then eta_k = gamma (res_k/res_{k-1})^2 clipped to
    [_CG_RTOL, _ETA_MAX], and _CG_RTOL once res_k <= _FULL_SOLVE_FACTOR tol.
    Their safeguard max(eta_k, gamma eta_{k-1}^2) is left out: it applies
    only where gamma eta_{k-1}^2 > 0.1, never with eta_{k-1} <= 0.1.
    """
    res = history[-1]
    if res <= _FULL_SOLVE_FACTOR * tol:
        return _CG_RTOL
    if len(history) == 1:
        return _ETA_MAX
    eta = _EW_GAMMA * (res / history[-2]) ** 2
    return min(max(eta, _CG_RTOL), _ETA_MAX)


def _pcg_direction(
    grid: Grid, tau: float, tau_reg: float, variant: Variant, w, r1, r2, rtol: float
):
    """Newton direction by eliminating du and solving for dw with PCG to the
    relative tolerance rtol.

    The u-row gives du = B^-1 (dw - r2), leaving J_w dw = g with
    J_w = B^-1/tau + tau' I - Laplacian diag(f'(w)) and g = -r1 + B^-1 r2/tau.
    The quadrature mean of J_w dw is mean(dw) (1/(tau' tau) + tau'), which
    fixes the mean m of dw. Applying (-Laplacian)^+ to the rest leaves, for
    the mean-zero part z, the system
    (K + P diag(f')) z = (-Laplacian)^+ g - m P f'
    with K = (-Laplacian)^+ (B^-1/tau + tau' I) and P the removal of the
    mean; it is self-adjoint and positive definite in the quadrature inner
    product. K is a multiply in the DCT-I basis by
    kappa(lambda) = (1/(tau (lambda + tau')) + tau')/lambda (0 on the
    constant mode), and so is B^-1, by 1/(lambda + tau'): g is never formed.
    (-Laplacian)^+ g is one inverse transform of the r1 and r2 terms, and
    mean(g) = mean(r2)/(tau tau') - mean(r1), as B^-1 maps constants to 1/tau'
    times themselves. Only du goes through _helmholtz_inverse.
    Returns du, dw and the number of PCG iterations; a direction whose
    arithmetic overflows or is not finite raises SolverFailure.
    """
    # made before the transforms' arrays, so SuperLU's factor lies below them
    # in the heap: made after them, it raised solve2d-65's peak RSS by 0.8 MB
    b_solve = _helmholtz_inverse(grid, tau_reg)
    q = _mean_weights(grid)
    neg_pinv, pinv_b, kappa = _direction_multipliers(grid, tau, tau_reg)
    d = variant.df(w)

    def apply(z):
        return spectral.apply(grid, kappa, z) + _remove_mean(grid, d * z)

    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            m = (q @ r2 - tau * tau_reg * (q @ r1)) / (1.0 + tau * tau_reg**2)
            b = spectral.apply(grid, neg_pinv, r1, pinv_b, r2) - m * _remove_mean(grid, d)
            z, iters = _pcg(apply, b, d, m, grid, rtol)
            dw = m + z
            du = b_solve(dw - r2)
        if not (np.isfinite(du).all() and np.isfinite(dw).all()):
            raise FloatingPointError("non-finite entries")
    except FloatingPointError as err:
        raise SolverFailure(
            f"PCG Newton direction is not finite ({err}); max f'(w) = {d.max():.3e}"
        ) from err
    return du, dw, iters


def _pcg(apply, b: np.ndarray, d: np.ndarray, m: float, grid: Grid, rtol: float):
    """Jacobi-preconditioned CG on the quadrature-mean-zero fields.

    Conjugate in the trapezoid inner product, preconditioned by diag(d)^-1
    followed by the removal of the mean. It stops once the preconditioned
    residual norm has fallen by rtol relative to the whole direction,
    the known mean m included in the same d-weighted norm: where the
    mean-zero part is round-off (a constant state), a stop relative to it
    alone would chase noise. Returns the iterate and the number of
    iterations taken.
    """
    q = grid.quad_weights()
    x = np.zeros_like(b)
    r = b
    s = _remove_mean(grid, r / d)
    rs = q @ (r * s)
    stop = rtol**2 * (rs + m * m * (q @ d))
    p = s
    for k in range(_CG_MAX_ITER):
        if rs <= stop:
            return x, k
        ap = apply(p)
        alpha = rs / (q @ (p * ap))
        x = x + alpha * p
        r = r - alpha * ap
        s = _remove_mean(grid, r / d)
        rs, rs_prev = q @ (r * s), rs
        p = s + (rs / rs_prev) * p
    return x, _CG_MAX_ITER


def newton_step(
    v: Field,
    params: SchemeParams,
    guess: tuple[Field, Field],
    variant: Variant | None = None,
) -> tuple[Field, Field, StepDiagnostics]:
    """One implicit step via Newton on the coupled residual, with line search.

    With residuals r1, r2 of the two equations, the Jacobian has the blocks
    [[I/tau, A], [B, -I]], where A = -Laplacian diag(f'(w)) + tau' I and
    B = -Laplacian + tau' I (minus the p-Laplacian's Jacobian, plus tau' I,
    rebuilt every iteration for the p-variant). The variant alone picks
    the path of every direction, whatever tau, h or box:

    - Variants with f' >= 1 and a linear B (Variant.coercive): sinh,
      scaled_sinh and linear. _pcg_direction eliminates du and
      solves for dw by Jacobi PCG, whose iterations per direction do not
      grow with the grid (the condition bound of the module docstring).
      Each direction is solved only to the forcing term of _forcing_term,
      and to _CG_RTOL once the residual is within _FULL_SOLVE_FACTOR of
      picard_tol, where a looser direction stagnates against round-off.
    - exp and the p-variant: _lu_direction assembles B and factors the
      Schur matrix I/tau + A B of the u-update afresh each iteration.

    Whatever the path, the step ends once _residual_norm is at most
    picard_tol; every trial's residuals check w against the variant's
    overflow bound first. A
    PCG direction whose arithmetic overflows raises SolverFailure.
    """
    variant = variant or sinh_variant()
    grid = v.grid
    tau, tau_reg = params.tau, params.reg_weight
    tol = params.picard_tol

    def residuals(u, w):
        return _stencil_residuals(grid, tau, tau_reg, v.values, u, w, variant)

    u = guess[0].values.copy()
    w = guess[1].values.copy()
    r1, r2 = residuals(u, w)
    res = _residual_norm(r1, r2)
    history = [res]
    cg_iters = []

    for _ in range(_NEWTON_MAX_ITER):
        if res <= tol:
            break
        if variant.coercive:
            eta = _forcing_term(history, tol)
            du, dw, its = _pcg_direction(grid, tau, tau_reg, variant, w, r1, r2, eta)
            cg_iters.append(its)
        else:
            du, dw = _lu_direction(grid, tau, tau_reg, variant, u, w, r1, r2)
        lam = 1.0
        while lam >= 1e-8:
            u_try = u + lam * du
            w_try = w + lam * dw
            try:
                r_try = residuals(u_try, w_try)
            except OverflowCapError:
                lam /= 2
                continue
            res_try = _residual_norm(*r_try)
            if res_try < res:
                u, w, (r1, r2), res = u_try, w_try, r_try, res_try
                break
            lam /= 2
        else:
            raise StepFailure(
                f"Newton line search stagnated: residual {res:.3e}, "
                f"smallest step tried {2 * lam:.1e}",
                residual=res,
                residual_history=history,
            )
        history.append(res)

    if res > tol:
        raise StepFailure(
            f"Newton did not reach tolerance: residual {res:.3e} after the "
            f"{_NEWTON_MAX_ITER}-iteration limit (first residual {history[0]:.3e})",
            residual=res,
            residual_history=history,
        )
    diag = StepDiagnostics(0, True, res, history, cg_iters)
    return Field(grid, u), Field(grid, w), diag


@contextmanager
def _at_step(k: int):
    """Label a step failure raised inside as step k's: step_index and a "step k: " prefix."""
    try:
        yield
    except (StepFailure, OverflowCapError, SolverFailure) as err:
        err.step_index = k
        err.args = (f"step {k}: {err.args[0]}",) + err.args[1:]
        raise


def run(u0: Field, params: SchemeParams, variant: Variant | None = None) -> Trajectory:
    """Integrate the recursion from u0 over the whole horizon.

    The k = 0 record holds the supplied initial field (bit-exact) and the
    exponent field derived from it. Step k is newton_step started from the
    pair of step k - 1, and its record is accepted only when both stencil
    equations hold to the step tolerance. A failed step k, or a w_0 over the
    variant's overflow bound (step 0), raises StepFailure, OverflowCapError or SolverFailure
    labelled by _at_step(k).
    """
    variant = variant or sinh_variant()
    grid = u0.grid
    if variant.p is not None and grid.dim != 1:
        raise UnsupportedDimensionError("the p-exponent variant requires a 1-D grid")

    w0 = init_w0(u0, params, variant)
    with _at_step(0):
        variant.check_cap(w0.values)

    records = [StepRecord(0, u0, w0, 0, 0.0)]
    u, w = u0, w0
    for k in range(1, params.num_steps + 1):
        with _at_step(k):
            u, w, diag = newton_step(u, params, (u, w), variant)
        records.append(
            StepRecord(k, u, w, len(diag.residual_history) - 1, diag.residual_inf,
                       sum(diag.cg_iters))
        )
    return Trajectory(params=params, grid=grid, variant=variant, records=records)


def check_scheme(traj: Trajectory) -> list[float]:
    """Re-check a stored trajectory against the scheme, as verify does.

    w_0 must be init_w0(u_0) bit for bit, and each step k must pass
    newton_step's acceptance, recomputed from u_{k-1}, u_k and w_k; the
    first step off the scheme raises, labelled by _at_step(k) as in run.
    Returns the recomputed norms of steps 1..K, which on a run's own
    records are their residual_inf bit for bit.
    """
    params, variant, first = traj.params, traj.variant, traj.records[0]
    with _at_step(0):
        if not np.array_equal(first.w.values, init_w0(first.u, params, variant).values):
            raise StepFailure("stored w_0 is not the exponent field of u_0")
    residuals = []
    for prev, rec in zip(traj.records, traj.records[1:]):
        with _at_step(rec.k):
            res = _step_residual(traj.grid, params.tau, params.reg_weight, prev.u.values,
                                 rec.u.values, rec.w.values, variant)
            if res > params.picard_tol:
                raise StepFailure(f"stored fields leave residual {res:.3e} above "
                                  f"picard_tol = {params.picard_tol:.3e}", res)
        residuals.append(res)
    return residuals
