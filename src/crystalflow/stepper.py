"""Implicit time stepping for the regularized surface-growth system.

One step from v to (u, w) solves

    (u - v)/tau - Laplacian f(w) + tau' w = 0
    -Laplacian u + tau' u = w            (p-variant: -Laplacian_p u + tau' u = w)

with zero-flux boundaries, where tau' is the regularization weight (equal
to the timestep by default, or an independent epsilon when decoupled for
convergence studies).

Each step is one Newton solve of the coupled residual with a halving line
search, started from the previous step's pair (u, w). Every Newton
iteration eliminates the w-update through the second equation and factors
only the n x n system left for the u-update. Every sparse system of the
step goes through elliptic.lu_factor: SuperLU's minimum-degree ordering on
A + A^T (MMD_AT_PLUS_A) in symmetric mode, diagonal pivot threshold 1e-3.

The damped fixed-point map (fixed_point_step) is off the run path. It
remains, with the helpers only it reaches, until the benchmark stops
tracing it (ROADMAP item 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    "newton_step",
    "run",
]


@dataclass(frozen=True)
class SchemeParams:
    """Timestep, horizon, regularization coupling, step tolerance and the
    overflow cap on the exponent's argument.

    reg_eps = None keeps the fully coupled scheme where the timestep itself is
    the regularization weight in both zero-order terms; a positive reg_eps
    decouples them so the timestep can be refined at fixed regularization.
    picard_tol bounds the sup-norm of both stencil residuals of an accepted
    step.
    """

    tau: float
    horizon: float
    reg_eps: float | None = None
    picard_tol: float = 1e-10
    sinh_arg_cap: float = 700.0

    def __post_init__(self):
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
    picard_iters: int
    newton_used: bool
    residual_inf: float
    residual_history: list = field(default_factory=list)


@dataclass
class StepRecord:
    k: int
    u: Field
    w: Field
    newton_iters: int
    residual_inf: float


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
def _helmholtz_factor(grid: Grid, tau_reg: float):
    """LU of -Laplacian + tau' I. Only fixed_point_step reaches it; it
    remains until the benchmark change of ROADMAP item 2."""
    return lu_factor(helmholtz_matrix(grid, tau_reg))


_PICARD_MAX_ITER = 200


def _apply_exponent_op(grid: Grid, tau_reg: float, u: np.ndarray, variant: Variant) -> np.ndarray:
    """The operator defining w: -Laplacian(_p) u + tau' u."""
    if variant.p is not None:
        return -p_laplacian_1d(Field(grid, u), variant.p).values + tau_reg * u
    return -(laplacian_matrix(grid) @ u) + tau_reg * u


# stalled p = 3 inner solves on 65 nodes were measured at 0.12-0.46 of
# eps * (||J|| ||u|| + ||phi||), so a factor 4 leaves room without hiding
# an iteration that is still converging
_FLOOR_FACTOR = 4.0


def _residual_floor(jac: sp.spmatrix, u: np.ndarray, phi: np.ndarray) -> float:
    """Round-off floor of a residual A(u) - phi whose Jacobian at u is jac.

    Normwise backward-error scale (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 7.1): perturbing u and phi by one unit in the
    last place each moves the residual by up to
    eps * (||J||_inf ||u||_inf + ||phi||_inf), so no iterate can be relied
    on to get below a small multiple of that.
    """
    scale = spla.norm(jac, np.inf) * np.abs(u).max() + np.abs(phi).max()
    return _FLOOR_FACTOR * np.finfo(float).eps * float(scale)


def _solve_exponent_problem(
    grid: Grid, tau_reg: float, phi: np.ndarray, variant: Variant, guess: np.ndarray, tol: float
) -> np.ndarray:
    """Solve -Laplacian(_p) u + tau' u = phi for u.

    The p-Laplacian case runs Newton from guess. It returns the first
    iterate whose residual sup-norm is at most tol. Failing that, it returns
    the previous iterate once the residual has stopped decreasing while it
    lies within the round-off floor of _residual_floor: a large mean of u
    can put that floor above tol, and no further iterate would do better.
    A residual above both after 60 iterations raises StepFailure carrying
    the residual history and the floor.

    Only fixed_point_step reaches this solve; it remains until the benchmark
    change of ROADMAP item 2.
    """
    if variant.p is None:
        return _helmholtz_factor(grid, tau_reg).solve(phi)
    # p-Laplacian: small Newton loop, tridiagonal Jacobian
    u = guess.copy()
    n = grid.num_nodes
    eye = sp.identity(n, format="csr")
    history = []
    for _ in range(60):
        r = _apply_exponent_op(grid, tau_reg, u, variant) - phi
        res = float(np.abs(r).max())
        if res <= tol:
            return u
        J = -p_laplacian_jacobian_1d(Field(grid, u), variant.p) + tau_reg * eye
        floor = _residual_floor(J, u, phi)
        if history and history[-1] <= res <= floor:
            return u_prev
        history.append(res)
        u_prev = u
        u = u - lu_factor(J).solve(r)
    raise StepFailure(
        f"inner p-Laplacian solve did not converge: residual {res:.3e} "
        f"against floor {floor:.3e} (tolerance {tol:.3e})",
        residual=res,
        residual_history=history,
    )


def _stencil_residuals(
    grid: Grid,
    tau: float,
    tau_reg: float,
    v: np.ndarray,
    u: np.ndarray,
    w: np.ndarray,
    variant: Variant,
    cap: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the two step equations at (u, w), stepping from v.

    Raises OverflowCapError first when w exceeds the cap.
    """
    variant.check_cap(w, cap)
    r1 = (u - v) / tau - laplacian_matrix(grid) @ variant.f(w) + tau_reg * w
    r2 = _apply_exponent_op(grid, tau_reg, u, variant) - w
    return r1, r2


def _step_residual(
    grid: Grid,
    tau: float,
    tau_reg: float,
    v: np.ndarray,
    u: np.ndarray,
    w: np.ndarray,
    variant: Variant,
    cap: float,
) -> float:
    """Sup-norm of both stencil residuals."""
    r1, r2 = _stencil_residuals(grid, tau, tau_reg, v, u, w, variant, cap)
    return float(max(np.abs(r1).max(), np.abs(r2).max()))


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

    The map sends phi to the solution w of the f'(phi)-weighted Helmholtz
    problem whose data comes from the u-solve with exponent phi; a defect
    correction term makes its fixed point satisfy the stencil equations to
    the Picard tolerance. Damping starts at 1 and is halved whenever the
    combined residual increases, and a trial is rejected the same way when
    its argument exceeds the cap or its inner u-solve raises StepFailure.
    On stagnation, or after _PICARD_MAX_ITER iterations, newton_step takes
    over from the last iterate.

    run does not call this map: Newton alone reaches the same fields in
    fewer iterations. It remains, off the run path, until the benchmark
    change of ROADMAP item 2 stops tracing it.
    """
    variant = variant or sinh_variant()
    grid = v.grid
    tau, tau_reg, cap = params.tau, params.reg_weight, params.sinh_arg_cap
    tol = params.picard_tol
    lap = laplacian_matrix(grid)

    phi = phi_init.values.copy()
    variant.check_cap(phi, cap)
    u = _solve_exponent_problem(grid, tau_reg, phi, variant, v.values, tol / 10)
    res = _step_residual(grid, tau, tau_reg, v.values, u, phi, variant, cap)
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
            try:
                u_try = _solve_exponent_problem(grid, tau_reg, phi_try, variant, u, tol / 10)
                res_try = _step_residual(
                    grid, tau, tau_reg, v.values, u_try, phi_try, variant, cap
                )
            except (OverflowCapError, StepFailure):
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


def newton_step(
    v: Field,
    params: SchemeParams,
    guess: tuple[Field, Field],
    variant: Variant | None = None,
) -> tuple[Field, Field, StepDiagnostics]:
    """One implicit step via Newton on the coupled residual, with line search.

    With residuals r1, r2 of the two equations, the Jacobian has the blocks
    [[I/tau, A], [B, -I]], where A = block_uw = -Laplacian diag(f'(w)) + tau' I
    and B = block_uu = -Laplacian + tau' I, which elliptic.helmholtz_matrix
    assembles once per step (minus the p-Laplacian's Jacobian, plus tau' I,
    rebuilt every iteration for the p-variant). Its w-row gives
    dw = B du + r2, which leaves the n x n system
    (I/tau + A B) du = -r1 - A r2. That matrix has a structurally symmetric
    pattern and a large positive diagonal, so it is factored afresh each
    iteration by lu_factor: MMD_AT_PLUS_A ordering in symmetric mode,
    diagonal pivot threshold 1e-3. On the step-1 matrix of a cosine start
    (amplitude 0.5, tau = 1e-3) that leaves 0.43M L+U nonzeros at 65 x 65
    and 2.28M at 129 x 129, against 0.50M and 3.19M under the same ordering
    with partial pivoting, and it factors about twice as fast as COLAMD on
    the same matrix or on the 2n x 2n block.
    """
    variant = variant or sinh_variant()
    grid = v.grid
    tau, tau_reg, cap = params.tau, params.reg_weight, params.sinh_arg_cap
    tol = params.picard_tol
    n = grid.num_nodes
    lap = laplacian_matrix(grid)
    eye = sp.identity(n, format="csr")

    u = guess[0].values.copy()
    w = guess[1].values.copy()

    def residual_vec(uu, ww):
        r1, r2 = _stencil_residuals(grid, tau, tau_reg, v.values, uu, ww, variant, cap)
        return np.concatenate([r1, r2])

    r = residual_vec(u, w)
    res = np.abs(r).max()
    history = [float(res)]
    if variant.p is None:
        block_uu = helmholtz_matrix(grid, tau_reg)

    for _ in range(_NEWTON_MAX_ITER):
        if res <= tol:
            break
        if variant.p is not None:
            block_uu = -p_laplacian_jacobian_1d(Field(grid, u), variant.p) + tau_reg * eye
        block_uw = -lap @ sp.diags(variant.df(w)) + tau_reg * eye
        schur = eye / tau + block_uw @ block_uu
        du = lu_factor(schur).solve(-r[:n] - block_uw @ r[n:])
        dw = block_uu @ du + r[n:]
        lam = 1.0
        while lam >= 1e-8:
            u_try = u + lam * du
            w_try = w + lam * dw
            try:
                r_try = residual_vec(u_try, w_try)
            except OverflowCapError:
                lam /= 2
                continue
            res_try = np.abs(r_try).max()
            if res_try < res:
                u, w, r, res = u_try, w_try, r_try, res_try
                break
            lam /= 2
        else:
            raise StepFailure(
                f"Newton line search stagnated: residual {res:.3e}, "
                f"smallest step tried {2 * lam:.1e}",
                residual=float(res),
                residual_history=history,
            )
        history.append(float(res))

    if res > tol:
        raise StepFailure(
            f"Newton did not reach tolerance: residual {res:.3e} after the "
            f"{_NEWTON_MAX_ITER}-iteration limit (first residual {history[0]:.3e})",
            residual=float(res),
            residual_history=history,
        )

    # the converged w must genuinely respect the cap, not just the trials
    variant.check_cap(w, cap)
    diag = StepDiagnostics(0, True, float(res), history)
    return Field(grid, u), Field(grid, w), diag


def run(u0: Field, params: SchemeParams, variant: Variant | None = None) -> Trajectory:
    """Integrate the recursion from u0 over the whole horizon.

    The k = 0 record holds the supplied initial field (bit-exact) and the
    exponent field derived from it. Step k is newton_step started from the
    pair of step k - 1, and its record is accepted only when both stencil
    equations hold to the step tolerance. A failed step raises StepFailure,
    OverflowCapError or SolverFailure with step_index = k and its message
    prefixed "step k: ".
    """
    variant = variant or sinh_variant()
    grid = u0.grid
    if variant.p is not None and grid.dim != 1:
        raise UnsupportedDimensionError("the p-exponent variant requires a 1-D grid")

    w0 = init_w0(u0, params, variant)
    variant.check_cap(w0.values, params.sinh_arg_cap, step_index=0)

    records = [StepRecord(0, u0, w0, 0, 0.0)]
    u, w = u0, w0
    for k in range(1, params.num_steps + 1):
        try:
            u, w, diag = newton_step(u, params, (u, w), variant)
        except (StepFailure, OverflowCapError, SolverFailure) as err:
            err.step_index = k
            err.args = (f"step {k}: {err.args[0]}",) + err.args[1:]
            raise
        records.append(
            StepRecord(k, u, w, len(diag.residual_history) - 1, diag.residual_inf)
        )
    return Trajectory(params=params, grid=grid, variant=variant, records=records)
