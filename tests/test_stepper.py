"""Time stepping: closed forms, solver agreement, structural identities."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from crystalflow import elliptic, stepper
from crystalflow.config import _random_smooth, build_initial_field, parse_config
from crystalflow.elliptic import helmholtz_matrix, lu_factor
from crystalflow.exceptions import OverflowCapError, StepFailure
from crystalflow.grid import (
    Field,
    Grid,
    integrate,
    laplacian_matrix,
    p_laplacian_jacobian_1d,
)
from crystalflow.nonlinearity import exp_variant, make_variant, sinh_variant
from crystalflow.stepper import (
    SchemeParams,
    fixed_point_step,
    init_w0,
    newton_step,
    run,
)


@pytest.fixture
def grid1d():
    return Grid(1, (1.0,), (65,))


class TestSchemeParams:
    def test_defaults(self):
        p = SchemeParams(tau=0.01, horizon=0.1)
        assert p.num_steps == 10
        assert p.reg_weight == 0.01
        assert p.picard_tol == 1e-10
        assert p.sinh_arg_cap == 700.0

    def test_decoupled_reg_weight(self):
        p = SchemeParams(tau=0.01, horizon=0.1, reg_eps=1e-4)
        assert p.reg_weight == 1e-4

    def test_rejects_nonintegral_horizon(self):
        with pytest.raises(ValueError, match="integer number of steps"):
            SchemeParams(tau=0.03, horizon=0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": -1.0, "horizon": 1.0},
            {"tau": 0.1, "horizon": 0.0},
            {"tau": 0.1, "horizon": 1.0, "reg_eps": 0.0},
            {"tau": 0.1, "horizon": 1.0, "picard_tol": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SchemeParams(**kwargs)


class TestInitW0:
    def test_constant(self, grid1d):
        params = SchemeParams(tau=0.5, horizon=1.0)
        w0 = init_w0(Field.constant(grid1d, 3.0), params)
        np.testing.assert_allclose(w0.values, 0.5 * 3.0, rtol=1e-13)

    def test_zero(self, grid1d):
        params = SchemeParams(tau=0.1, horizon=1.0)
        w0 = init_w0(Field.constant(grid1d, 0.0), params)
        assert np.abs(w0.values).max() == 0.0

    def test_cosine_small_regularization(self):
        grid = Grid(1, (1.0,), (257,))
        params = SchemeParams(tau=0.01, horizon=0.1, reg_eps=1e-10)
        u0 = Field.from_function(grid, lambda x: np.cos(np.pi * x))
        w0 = init_w0(u0, params)
        assert np.abs(w0.values - np.pi**2 * u0.values).max() < 2e-3


class TestFixedPointStep:
    def test_zero_fixed_point(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.1)
        v = Field.constant(grid1d, 0.0)
        u, w, diag = fixed_point_step(v, params, init_w0(v, params))
        assert np.abs(u.values).max() == 0.0
        assert np.abs(w.values).max() == 0.0

    def test_constant_mode_closed_form(self, grid1d):
        # constants solve (u - v)/tau + tau^2 u = 0, so u = v/(1 + tau^3)
        params = SchemeParams(tau=0.5, horizon=1.0)
        v = Field.constant(grid1d, 2.0)
        u, w, _ = fixed_point_step(v, params, init_w0(v, params))
        np.testing.assert_allclose(u.values, 2.0 / 1.125, rtol=1e-10)
        np.testing.assert_allclose(w.values, 0.5 * 2.0 / 1.125, rtol=1e-10)

    def test_residuals_within_tolerance(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.1)
        v = _random_smooth(grid1d, 0.3, seed=11)
        u, w, diag = fixed_point_step(v, params, init_w0(v, params))
        assert diag.residual_inf <= params.picard_tol

    def test_overflow_raises(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.1, sinh_arg_cap=700.0)
        v = Field.from_function(grid1d, lambda x: 200.0 * np.cos(np.pi * x))
        with pytest.raises(OverflowCapError):
            fixed_point_step(v, params, init_w0(v, params))

    @pytest.fixture
    def failing_trials(self, monkeypatch):
        """Let the initial inner solve through and make every trial's solve fail."""
        solve = stepper._solve_exponent_problem
        calls = []

        def flaky(*args):
            calls.append(args)
            if len(calls) > 1:
                raise StepFailure("inner p-Laplacian solve did not converge", residual=1.0)
            return solve(*args)

        monkeypatch.setattr(stepper, "_solve_exponent_problem", flaky)
        return calls

    def test_failed_trial_falls_back_to_newton(self, grid1d, failing_trials):
        params = SchemeParams(tau=0.01, horizon=0.1)
        variant = make_variant("p_exponent", p=3.0)
        v = Field.from_function(grid1d, lambda x: 0.1 * np.cos(np.pi * x))
        u, w, diag = fixed_point_step(v, params, init_w0(v, params, variant), variant)
        assert len(failing_trials) > 1
        assert diag.newton_used
        assert diag.residual_inf <= params.picard_tol
        # the returned pair itself satisfies both stencil equations
        res = stepper._step_residual(
            grid1d, params.tau, params.reg_weight, v.values, u.values, w.values, variant, 700.0
        )
        assert res <= params.picard_tol


class TestInnerExponentSolve:
    """Newton for -Laplacian_p u + tau' u = phi when u has a large mean."""

    tau_reg = 0.01
    tol = 1e-11

    @pytest.fixture
    def problem(self, grid1d):
        x = grid1d.coords()[0]
        phi = -1.36 + 0.02 * np.cos(np.pi * x)
        guess = 0.03 * np.cos(np.pi * x)
        return phi, guess, make_variant("p_exponent", p=3.0)

    def test_stops_at_roundoff_floor(self, grid1d, problem):
        # the mean of u is about -136, which puts the residual's round-off
        # floor above tol; Newton stalls there instead of reaching tol
        phi, guess, variant = problem
        u = stepper._solve_exponent_problem(
            grid1d, self.tau_reg, phi, variant, guess, self.tol
        )
        res = np.abs(stepper._apply_exponent_op(grid1d, self.tau_reg, u, variant) - phi).max()
        eye = sp.identity(grid1d.num_nodes)
        jac = -p_laplacian_jacobian_1d(Field(grid1d, u), variant.p) + self.tau_reg * eye
        floor = stepper._residual_floor(jac, u, phi)
        assert res <= floor
        # the floor is a few units of round-off, not a loose acceptance
        assert floor < 1e-9
        np.testing.assert_allclose(u.mean(), phi.mean() / self.tau_reg, rtol=1e-6)

    def test_failure_reports_history_and_floor(self, grid1d, problem, monkeypatch):
        # with no round-off allowance the same stall exhausts the iterations
        monkeypatch.setattr(stepper, "_residual_floor", lambda jac, u, phi: 0.0)
        phi, guess, variant = problem
        with pytest.raises(StepFailure, match="against floor") as exc:
            stepper._solve_exponent_problem(
                grid1d, self.tau_reg, phi, variant, guess, self.tol
            )
        hist = exc.value.residual_history
        assert len(hist) == 60
        assert exc.value.residual == hist[-1] > self.tol


def _tail_slopes(hist):
    """log-ratio contraction orders of the last two Newton iterations,
    taken where the residual is already below 1e-2 (the test_quadratic_tail rule)."""
    return [np.log(b) / np.log(a) for a, b in zip(hist[-3:-1], hist[-2:]) if a < 1e-2]


def _helmholtz_solve(grid, tau_reg, rhs):
    """u with (-Laplacian + tau' I) u = rhs, through the step's own LU."""
    return Field(grid, lu_factor(helmholtz_matrix(grid, tau_reg)).solve(rhs.values))


class TestNewtonStep:
    def test_constant_mode(self, grid1d):
        params = SchemeParams(tau=0.5, horizon=1.0)
        v = Field.constant(grid1d, 2.0)
        w0 = init_w0(v, params)
        u, w, diag = newton_step(v, params, (v, w0))
        np.testing.assert_allclose(u.values, 2.0 / 1.125, rtol=1e-10)
        assert diag.newton_used

    def test_exact_guess_converges_immediately(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.1)
        v = _random_smooth(grid1d, 0.2, seed=13)
        u, w, _ = fixed_point_step(v, params, init_w0(v, params))
        _, _, diag = newton_step(v, params, (u, w))
        assert len(diag.residual_history) <= 2

    def test_quadratic_tail(self, grid1d):
        """Final Newton iterations contract at least quadratically."""
        params = SchemeParams(tau=0.01, horizon=0.1)
        v = _random_smooth(grid1d, 0.3, seed=14)
        w_guess = init_w0(v, params)
        u_guess = _helmholtz_solve(grid1d, params.reg_weight, w_guess)
        _, _, diag = newton_step(v, params, (u_guess, w_guess))
        hist = [r for r in diag.residual_history if r > 1e-14]
        slopes = [
            np.log(b) / np.log(a)
            for a, b in zip(hist[-3:-1], hist[-2:])
            if a < 1e-2
        ]
        assert slopes and min(slopes) >= 1.8

    def test_quadratic_tail_2d(self):
        """The 2-D tail contracts at least quadratically down to round-off."""
        grid = Grid(2, (1.0, 1.0), (33, 33))
        params = SchemeParams(tau=1e-3, horizon=0.01)
        v = Field.from_function(grid, lambda x, y: 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y))
        w_guess = init_w0(v, params)
        u_guess = _helmholtz_solve(grid, params.reg_weight, w_guess)
        u, w, diag = newton_step(v, params, (u_guess, w_guess))
        assert diag.residual_inf <= params.picard_tol
        # here the last iterate lands below one unit of round-off of the
        # coupled residual, eps * (||J|| ||(u, w)|| + ||v/tau||), where no
        # contraction rate is defined, so that is the cut-off in place of 1e-14
        n, tau = grid.num_nodes, params.tau
        lap = laplacian_matrix(grid)
        eye = sp.identity(n)
        jac = sp.bmat(
            [[eye / tau, -lap @ sp.diags(np.cosh(w.values)) + tau * eye], [-lap + tau * eye, -eye]]
        )
        scale = spla.norm(jac, np.inf) * max(np.abs(u.values).max(), np.abs(w.values).max())
        floor = np.finfo(float).eps * (scale + np.abs(v.values).max() / tau)
        slopes = _tail_slopes([r for r in diag.residual_history if r > floor])
        assert slopes and min(slopes) >= 1.8

    def test_symmetric_mode_factor_on_step_one(self, monkeypatch):
        """The Newton systems that fixed_point_step's fallback solves on step 1
        of a 65 x 65 cosine start: one fresh factor per iteration, less fill
        than the same ordering with partial pivoting, and the solutions of
        spsolve under that ordering. These are not the systems run takes,
        whose Newton starts from the previous pair; the first two of those
        have a condition estimate near 1.6e10, too large to decide a 1e-9
        forward match."""
        grid = Grid(2, (1.0, 1.0), (65, 65))
        params = SchemeParams(tau=1e-3, horizon=0.01)
        v = Field.from_function(grid, lambda x, y: 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y))
        systems = []

        class RecordedFactor:
            def __init__(self, mat):
                self.mat, self.lu = mat, elliptic.lu_factor(mat)

            def solve(self, rhs):
                systems.append((self.mat, self.lu, rhs))
                return self.lu.solve(rhs)

        def recording_newton_step(*args, **kwargs):
            monkeypatch.setattr(stepper, "lu_factor", RecordedFactor)
            return newton_step(*args, **kwargs)

        monkeypatch.setattr(stepper, "newton_step", recording_newton_step)
        _, _, diag = fixed_point_step(v, params, init_w0(v, params))
        assert diag.newton_used
        assert len(systems) == len(diag.residual_history) - 1 > 0

        schur, lu, _ = systems[0]
        partial = spla.splu(schur.tocsc(), permc_spec="MMD_AT_PLUS_A")
        assert lu.L.nnz + lu.U.nnz < partial.L.nnz + partial.U.nnz
        for schur, lu, rhs in systems:
            ref = spla.spsolve(schur.tocsc(), rhs, permc_spec="MMD_AT_PLUS_A")
            assert np.abs(lu.solve(rhs) - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_pinned_iteration_counts_2d(self, monkeypatch):
        """Five chained steps on 33 x 33 (cosine amplitude 0.5, tau 1e-3) take
        the Newton iterations of the partial-pivoting solve, one factor each."""
        grid = Grid(2, (1.0, 1.0), (33, 33))
        params = SchemeParams(tau=1e-3, horizon=0.005)
        v = Field.from_function(grid, lambda x, y: 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y))
        w = init_w0(v, params)
        factors = []

        def counting_factor(mat):
            factors.append(mat.shape)
            return elliptic.lu_factor(mat)

        monkeypatch.setattr(stepper, "lu_factor", counting_factor)
        iters, num_factors = [], []
        for _ in range(5):
            factors.clear()
            v, w, diag = newton_step(v, params, (v, w))
            iters.append(len(diag.residual_history) - 1)
            num_factors.append(len(factors))
        assert iters == [12, 5, 5, 4, 4]
        assert num_factors == iters

    def test_p_variant(self, grid1d):
        """Newton called directly on the p = 3 variant, whose u-block is the
        p-Laplacian Jacobian, converges with a quadratic tail."""
        params = SchemeParams(tau=0.01, horizon=0.1)
        variant = make_variant("p_exponent", p=3.0)
        v = Field.from_function(grid1d, lambda x: 0.1 * np.cos(np.pi * x))
        u, w, diag = newton_step(v, params, (v, init_w0(v, params, variant)), variant)
        assert diag.newton_used
        assert diag.residual_inf <= params.picard_tol
        res = stepper._step_residual(
            grid1d, params.tau, params.reg_weight, v.values, u.values, w.values, variant, 700.0
        )
        assert res <= params.picard_tol
        slopes = _tail_slopes(diag.residual_history)
        assert slopes and min(slopes) >= 1.8

    def test_stagnation_reports_residual_and_step(self, grid1d):
        # no iterate can reach this tolerance, so the line search stalls at round-off
        params = SchemeParams(tau=0.01, horizon=0.1, picard_tol=1e-300)
        v = _random_smooth(grid1d, 0.3, seed=14)
        w_guess = init_w0(v, params)
        u_guess = _helmholtz_solve(grid1d, params.reg_weight, w_guess)
        with pytest.raises(
            StepFailure,
            match=r"^Newton line search stagnated: residual \S+, smallest step tried \S+$",
        ) as exc:
            newton_step(v, params, (u_guess, w_guess))
        assert f"residual {exc.value.residual:.3e}," in str(exc.value)

    def test_iteration_limit_names_limit_and_first_residual(self):
        """A steady but slow descent (50 x 11 on 3.0 x 0.3, max|w0| = 54.9)
        stops at the iteration limit and says so; it is not a divergence."""
        cfg = parse_config(
            "[grid]\ndim = 2\nnodes = 50,11\nextent = 3.0,0.3\n"
            "[initial]\nprofile = cosine\namplitude = 0.5\n"
            "[scheme]\ntau = 0.001\nhorizon = 0.001\n[output]\ndirectory = unused\n"
        )
        v = build_initial_field(cfg)
        with pytest.raises(StepFailure, match=r"^Newton did not reach tolerance: ") as exc:
            newton_step(v, cfg.scheme, (v, init_w0(v, cfg.scheme)))
        history = exc.value.residual_history
        assert len(history) == stepper._NEWTON_MAX_ITER + 1
        assert np.all(np.diff(history) < 0)
        assert exc.value.residual == history[-1]
        assert str(exc.value) == (
            f"Newton did not reach tolerance: residual {history[-1]:.3e} after the "
            f"{stepper._NEWTON_MAX_ITER}-iteration limit (first residual {history[0]:.3e})"
        )

    def test_agrees_with_fixed_point(self, grid1d):
        """The map's route and run's route, Newton from the previous pair,
        reach the same step."""
        params = SchemeParams(tau=0.01, horizon=0.1)
        v = _random_smooth(grid1d, 0.3, seed=15)
        w_prev = init_w0(v, params)
        u_pic, w_pic, _ = fixed_point_step(v, params, w_prev)
        u_new, w_new, _ = newton_step(v, params, (v, w_prev))
        tol = 10 * params.picard_tol
        assert np.abs(u_pic.values - u_new.values).max() <= tol
        assert np.abs(w_pic.values - w_new.values).max() <= tol


class TestRun:
    def test_zero_trajectory(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.1)
        traj = run(Field.constant(grid1d, 0.0), params)
        assert len(traj.records) == 11
        for rec in traj.records:
            assert np.abs(rec.u.values).max() == 0.0
            assert np.abs(rec.w.values).max() == 0.0

    def test_initial_record_bit_exact(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.05)
        u0 = _random_smooth(grid1d, 0.3, seed=16)
        traj = run(u0, params)
        assert traj.records[0].u is u0

    def test_constant_recursion(self, grid1d):
        params = SchemeParams(tau=0.5, horizon=4.0)
        traj = run(Field.constant(grid1d, 2.0), params)
        for k, rec in enumerate(traj.records):
            expected = 2.0 / (1 + 0.5**3) ** k
            assert np.abs(rec.u.values - expected).max() <= 1e-9

    def test_step_records_satisfy_residual_invariant(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.05)
        traj = run(_random_smooth(grid1d, 0.4, seed=17), params)
        for rec in traj.records[1:]:
            assert rec.residual_inf <= 10 * params.picard_tol

    def test_mass_identity(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.05)
        traj = run(_random_smooth(grid1d, 0.4, seed=18), params)
        r = params.reg_weight
        for prev, rec in zip(traj.records, traj.records[1:]):
            drift = (integrate(rec.u) - integrate(prev.u)) / params.tau
            assert abs(drift + r * integrate(rec.w)) < 1e-10

    def test_zero_mean_echo(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.05)
        traj = run(_random_smooth(grid1d, 0.4, seed=19), params)
        r = params.reg_weight
        for rec in traj.records:
            assert abs(integrate(rec.w) - r * integrate(rec.u)) < 1e-10

    def test_symmetry_preserved(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.05)
        u0 = Field.from_function(
            grid1d, lambda x: 0.2 * np.cos(np.pi * x) ** 2 - 0.1 * np.cos(2 * np.pi * x)
        )
        traj = run(u0, params)
        for rec in traj.records:
            assert np.abs(rec.u.values - rec.u.values[::-1]).max() < 1e-9

    @pytest.mark.parametrize(
        "grid, variant",
        [
            (Grid(2, (1.0, 1.0), (17, 17)), sinh_variant()),
            (Grid(1, (1.0,), (33,)), make_variant("p_exponent", p=3.0)),
            (Grid(1, (1.0,), (33,)), exp_variant()),
        ],
        ids=["sinh-2d", "p3-1d", "exp-1d"],
    )
    def test_steps_with_newton_alone(self, grid, variant, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run called the fixed-point map")

        monkeypatch.setattr(stepper, "fixed_point_step", fail)
        params = SchemeParams(tau=1e-3, horizon=3e-3)
        u0 = Field.from_function(
            grid, lambda *xs: 0.3 * np.prod([np.cos(np.pi * x) for x in xs], axis=0)
        )
        traj = run(u0, params, variant)
        assert traj.num_steps == 3
        for rec in traj.records[1:]:
            assert rec.newton_iters > 0
            assert rec.residual_inf <= params.picard_tol

    def test_step_failure_annotated_with_index(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.1, sinh_arg_cap=700.0)
        u0 = Field.from_function(grid1d, lambda x: 200.0 * np.cos(np.pi * x))
        with pytest.raises(OverflowCapError) as exc:
            run(u0, params)
        assert exc.value.step_index == 0

    def test_exp_variant_runs(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.05)
        traj = run(_random_smooth(grid1d, 0.3, seed=20), params, exp_variant())
        assert all(rec.residual_inf <= 10 * params.picard_tol for rec in traj.records[1:])

    def test_p_variant_requires_1d(self):
        grid = Grid(2, (1.0, 1.0), (9, 9))
        params = SchemeParams(tau=0.01, horizon=0.02)
        from crystalflow.exceptions import UnsupportedDimensionError

        with pytest.raises(UnsupportedDimensionError):
            run(Field.constant(grid, 0.1), params, make_variant("p_exponent", p=3.0))

    def test_p_variant_constant_recursion(self, grid1d):
        # for constants the p-Laplacian vanishes, so the same closed form holds
        params = SchemeParams(tau=0.5, horizon=2.0)
        traj = run(Field.constant(grid1d, 1.0), params, make_variant("p_exponent", p=3.0))
        for k, rec in enumerate(traj.records):
            assert np.abs(rec.u.values - 1.0 / 1.125**k).max() <= 1e-9

    def test_scaled_sinh_runs(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.05)
        traj = run(
            _random_smooth(grid1d, 0.3, seed=21), params, make_variant("scaled_sinh", K=0.5)
        )
        assert all(rec.residual_inf <= 10 * params.picard_tol for rec in traj.records[1:])


class TestVariantFactories:
    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            make_variant("scaled_sinh", K=-1.0)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            make_variant("p_exponent", p=1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            make_variant("tanh")

    def test_sinh_cap_check(self):
        v = sinh_variant()
        with pytest.raises(OverflowCapError) as exc:
            v.check_cap(np.array([800.0]), 700.0, step_index=3)
        assert exc.value.step_index == 3
        assert exc.value.max_abs == 800.0

    def test_scaled_cap_uses_scaled_argument(self):
        v = make_variant("scaled_sinh", K=2.0)
        with pytest.raises(OverflowCapError):
            v.check_cap(np.array([400.0]), 700.0)
