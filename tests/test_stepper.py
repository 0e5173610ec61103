"""Time stepping: closed forms, solver agreement, structural identities."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from crystalflow import elliptic, spectral, stepper
from crystalflow.config import _random_smooth, build_initial_field, parse_config
from crystalflow.elliptic import helmholtz_matrix, lu_factor
from crystalflow.exceptions import ArgumentError, OverflowCapError, SolverFailure, StepFailure
from crystalflow.grid import (
    Field,
    Grid,
    integrate,
    laplacian_matrix,
)
from crystalflow.nonlinearity import Variant, make_variant, sinh_variant
from crystalflow.stepper import (
    SchemeParams,
    _at_step,
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
        # the overflow bound is the variant's own (Variant.check_cap)
        with pytest.raises(TypeError):
            SchemeParams(tau=0.01, horizon=0.1, sinh_arg_cap=700.0)

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
            {"tau": 1e10, "horizon": 0.1, "reg_eps": 1.0},
            {"tau": float("inf"), "horizon": 1.0},
            {"tau": 0.1, "horizon": 1.0, "reg_eps": float("inf")},
            {"tau": 0.1, "horizon": float("inf")},
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
        params = SchemeParams(tau=0.01, horizon=0.1)
        v = Field.from_function(grid1d, lambda x: 200.0 * np.cos(np.pi * x))
        with pytest.raises(OverflowCapError):
            fixed_point_step(v, params, init_w0(v, params))

    @pytest.fixture
    def failing_trials(self, monkeypatch):
        """Let the initial residual through and make every trial's residual
        overflow; returns the calls and the unpatched _step_residual."""
        step_residual = stepper._step_residual
        calls = []

        def flaky(*args):
            calls.append(args)
            if len(calls) > 1:
                raise OverflowCapError("trial argument over the bound")
            return step_residual(*args)

        monkeypatch.setattr(stepper, "_step_residual", flaky)
        return calls, step_residual

    def test_failed_trial_falls_back_to_newton(self, grid1d, failing_trials):
        calls, step_residual = failing_trials
        params = SchemeParams(tau=0.01, horizon=0.1)
        variant = sinh_variant()
        v = Field.from_function(grid1d, lambda x: 0.1 * np.cos(np.pi * x))
        u, w, diag = fixed_point_step(v, params, init_w0(v, params, variant), variant)
        assert len(calls) > 1
        assert diag.newton_used
        assert diag.residual_inf <= params.picard_tol
        # the returned pair itself satisfies both stencil equations
        res = step_residual(
            grid1d, params.tau, params.reg_weight, v.values, u.values, w.values, variant
        )
        assert res <= params.picard_tol

    def test_p_variant_goes_to_newton(self, grid1d):
        """The map takes linear second equations only: a p-variant step is
        newton_step from (v, phi_init), bit for bit, with no Picard iteration."""
        params = SchemeParams(tau=0.01, horizon=0.1)
        variant = make_variant("p_exponent", p=3.0)
        v = Field.from_function(grid1d, lambda x: 0.1 * np.cos(np.pi * x))
        w0 = init_w0(v, params, variant)
        u, w, diag = fixed_point_step(v, params, w0, variant)
        u_ref, w_ref, diag_ref = newton_step(v, params, (v, w0), variant)
        assert diag.newton_used and diag.picard_iters == 0
        assert np.array_equal(u.values, u_ref.values)
        assert np.array_equal(w.values, w_ref.values)
        assert diag.residual_history == diag_ref.residual_history


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
        u, w, _ = newton_step(v, params, (v, init_w0(v, params)))
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
        """The Schur systems that fixed_point_step's Newton fallback solves on
        step 1 of a 65 x 65 cosine start under exp, the variant whose
        directions still come from a factored Schur matrix: one fresh factor
        per iteration, less fill than the same ordering with partial
        pivoting, and the solutions of spsolve under that ordering. These are
        not the systems run takes, whose Newton starts from the previous
        pair; under sinh the first two of those have a condition estimate
        near 1.6e10, too large to decide a 1e-9 forward match."""
        grid = Grid(2, (1.0, 1.0), (65, 65))
        params = SchemeParams(tau=1e-3, horizon=0.01)
        variant = make_variant("exp")
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
        _, _, diag = fixed_point_step(v, params, init_w0(v, params, variant), variant)
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
        pinned Newton iterations; the inexact PCG directions cost step 2 one
        more than exact ones. No Schur matrix is factored: the one factor made
        is the cached one of B, once."""
        grid = Grid(2, (1.0, 1.0), (33, 33))
        params = SchemeParams(tau=1e-3, horizon=0.005)
        v = Field.from_function(grid, lambda x, y: 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y))
        w = init_w0(v, params)
        stepper._helmholtz_inverse.cache_clear()
        factored = []

        def counting_factor(mat):
            factored.append(mat)
            return elliptic.lu_factor(mat)

        monkeypatch.setattr(stepper, "lu_factor", counting_factor)
        iters = []
        for _ in range(5):
            v, w, diag = newton_step(v, params, (v, w))
            iters.append(len(diag.residual_history) - 1)
        assert iters == [12, 6, 5, 4, 4]
        b_matrix = helmholtz_matrix(grid, params.reg_weight)
        assert len(factored) == 1
        assert factored[0].shape == b_matrix.shape and (factored[0] != b_matrix).nnz == 0

    @pytest.mark.parametrize(
        "amplitude", [0.4999999547585931, 0.5000000307447144], ids=["seed-86", "seed-128"]
    )
    def test_near_floor_start_completes(self, amplitude):
        """Step 1 on 65 x 65 from amplitude cos(pi x) cos(pi y), tau 1e-3, at
        the amplitudes that jitter seeds 86 and 128 give the benchmark's
        solve2d-65 config when its nominal amplitude is 0.5. With
        inexact directions all the way down, both stagnate against the
        round-off floor (residual 1.016e-10 and 1.010e-10); solving to
        _CG_RTOL within _FULL_SOLVE_FACTOR of the tolerance lets them finish."""
        grid = Grid(2, (1.0, 1.0), (65, 65))
        params = SchemeParams(tau=1e-3, horizon=1e-3)
        v = Field.from_function(
            grid, lambda x, y: amplitude * np.cos(np.pi * x) * np.cos(np.pi * y)
        )
        _, _, diag = newton_step(v, params, (v, init_w0(v, params)))
        assert diag.residual_inf <= params.picard_tol

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
            grid1d, params.tau, params.reg_weight, v.values, u.values, w.values, variant
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

    def test_iteration_limit_names_limit_and_first_residual(self, monkeypatch):
        """A steady but slow descent (33 x 33 Gaussian bump, amplitude 0.05,
        width 0.1, max|w0| = 78.1) stops at the iteration limit and says so;
        it is not a divergence. The limit is lowered to 20: the residual
        falls monotonically for the first 30 or so iterations (from 1.7e37 to
        about 3.5e29, where the line search stalls at round-off), and a
        limit inside that stretch is what this test is about."""
        monkeypatch.setattr(stepper, "_NEWTON_MAX_ITER", 20)
        cfg = parse_config(
            "[grid]\ndim = 2\nnodes = 33,33\n"
            "[initial]\nprofile = gaussian_bump\namplitude = 0.05\nwidth = 0.1\n"
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


def _bump_config(dim, nodes, amplitude, horizon):
    """Gaussian bump of width 0.1 at tau = 1e-3 under sinh."""
    return parse_config(
        f"[grid]\ndim = {dim}\nnodes = {nodes}\n"
        f"[initial]\nprofile = gaussian_bump\namplitude = {amplitude}\nwidth = 0.1\n"
        f"[scheme]\ntau = 0.001\nhorizon = {horizon}\n[output]\ndirectory = unused\n"
    )


def _profile(grid, profile):
    """v from "cosine a" (a times the product of cos(pi x_i)) or "random a"."""
    kind, amplitude = profile.split()
    if kind == "cosine":
        return Field.from_function(
            grid, lambda *xs: float(amplitude) * np.prod([np.cos(np.pi * x) for x in xs], axis=0)
        )
    return _random_smooth(grid, float(amplitude), seed=21)


def _pcg_residual_ratio(apply, b, d, m, grid, x):
    """The preconditioned residual norm of x relative to the whole direction,
    the norm in which _pcg stops."""
    q = grid.quad_weights()

    def pnorm2(r):
        return q @ (r * stepper._remove_mean(grid, r / d))

    return np.sqrt(pnorm2(b - apply(x)) / (pnorm2(b) + m * m * (q @ d)))


class TestPCGDirection:
    """The Newton direction of every f' >= 1 variant from Jacobi PCG, with K
    and the B^-1 in its data applied in the DCT-I basis and the B^-1 of du
    through _helmholtz_inverse."""

    @pytest.mark.parametrize(
        "grid, variant, tau, reg_eps, profile",
        [
            (Grid(1, (1.0,), (65,)), sinh_variant(), 1e-3, None, "cosine 0.5"),
            (Grid(2, (1.0, 1.0), (33, 33)), sinh_variant(), 1e-3, None, "cosine 0.5"),
            (Grid(2, (1.3, 0.7), (21, 13)), sinh_variant(), 1e-3, 0.01, "random 0.5"),
            (Grid(1, (1.0,), (65,)), make_variant("scaled_sinh", K=2.0), 1e-3, None, "cosine 0.3"),
            (Grid(2, (3.0, 3.0), (17, 17)), sinh_variant(), 5e-5, None, "cosine 0.1"),
            (Grid(1, (1.0,), (65,)), sinh_variant(), 1e-3, 1e-7, "cosine 0.5"),
        ],
        ids=["1d-65", "2d-33", "2d-21x13", "scaled-sinh-K2", "2d-17-on-3x3-tau-5e-5",
             "1d-65-reg-1e-7"],
    )
    def test_matches_lu_direction(self, grid, variant, tau, reg_eps, profile, monkeypatch):
        """At every state step 1's Newton visits, the PCG direction solved to
        _CG_RTOL is the direction of the factored Schur matrix to 1e-8
        relative in du and dw. Newton itself solves most of these directions
        only to its forcing term, so each state is solved again here. States
        whose residual is within 100 times the step tolerance are left out:
        their directions are of the size of the fields' round-off (du about
        2e-16 on 2-D 33), where a relative comparison measures nothing. The
        17 x 17 state on a 3 x 3 box at tau = 5e-5 has the condition bound
        1 + 1/(tau mu_1^2) + tau'/mu_1 of about 16700."""
        params = SchemeParams(tau=tau, horizon=tau, reg_eps=reg_eps)
        v = _profile(grid, profile)
        pcg_direction = stepper._pcg_direction
        states = []

        def recording(*args):
            states.append(args)
            return pcg_direction(*args)

        monkeypatch.setattr(stepper, "_pcg_direction", recording)
        newton_step(v, params, (v, init_w0(v, params, variant)), variant)
        compared = 0
        for *args, w, r1, r2, _ in states:
            if max(np.abs(r1).max(), np.abs(r2).max()) <= 100 * params.picard_tol:
                continue
            du, dw, _ = pcg_direction(*args, w, r1, r2, stepper._CG_RTOL)
            # B is linear for these variants, so _lu_direction reads no u
            du_lu, dw_lu = stepper._lu_direction(*args, None, w, r1, r2)
            assert np.abs(du - du_lu).max() <= 1e-8 * np.abs(du_lu).max()
            assert np.abs(dw - dw_lu).max() <= 1e-8 * np.abs(dw_lu).max()
            compared += 1
        assert compared >= 4

    @pytest.mark.parametrize(
        "grid, tau, reg_eps",
        [
            (Grid(1, (1.0,), (65,)), 1e-7, None),
            (Grid(2, (1.3, 0.7), (21, 13)), 1e-3, 0.01),
            (Grid(3, (1.0, 1.0, 1.0), (9, 9, 9)), 1e-3, None),
            (Grid(2, (2.0, 0.5), (301, 5)), 1e-3, 1.0),
        ],
        ids=["1d-65-tau-1e-7", "2d-21x13-decoupled", "3d-9", "2d-301x5"],
    )
    def test_folded_rhs_matches_helmholtz_inverse(self, grid, tau, reg_eps, monkeypatch):
        """The direction's data, (-Laplacian)^+ g and the mean m of dw, are
        built from r1 and r2 without forming g = -r1 + B^-1 r2/tau. Both
        match the explicit form through _helmholtz_inverse to 1e-12
        relative. The explicit (-Laplacian)^+ g takes B^-1 of the mean-zero
        part of r2, which gives the same field, since B^-1 maps constants to
        constants and (-Laplacian)^+ drops them: with the constant left in,
        g's constant mean(r2)/(tau tau') is lambda_1/tau' times the rest
        (about 1e8 on 1-D 65 at tau' = 1e-7) and its rounding leaks into the
        other modes. On 301 x 5 the LU solve of B itself is off by about 1e-12 at
        tau' = 1e-3 (condition about 3.6e4 on the mean-zero fields), so that
        grid is checked at tau' = 1. The linear variant has f' = 1, whose
        mean-zero part is round-off, so the data PCG receives is
        (-Laplacian)^+ g itself."""
        params = SchemeParams(tau=tau, horizon=tau, reg_eps=reg_eps)
        tau_reg = params.reg_weight
        r1, r2 = np.random.default_rng(4).standard_normal((2, grid.num_nodes))
        seen = {}
        pcg = stepper._pcg

        def recording(apply, b, d, m, *args):
            seen.update(b=b, d=d, m=m)
            return pcg(apply, b, d, m, *args)

        monkeypatch.setattr(stepper, "_pcg", recording)
        stepper._pcg_direction(
            grid, tau, tau_reg, make_variant("linear"), np.zeros(grid.num_nodes), r1, r2, 1e-10
        )
        folded = seen["b"] + seen["m"] * stepper._remove_mean(grid, seen["d"])

        b_solve = stepper._helmholtz_inverse(grid, tau_reg)
        lam = spectral.eigenvalues(grid)
        pinv = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0)
        explicit = spectral.apply(grid, pinv, -r1 + b_solve(stepper._remove_mean(grid, r2)) / tau)
        q = grid.quad_weights()
        m = (q @ (-r1 + b_solve(r2) / tau)) / q.sum() / (1.0 / (tau * tau_reg) + tau_reg)
        assert np.abs(folded - explicit).max() <= 1e-12 * np.abs(explicit).max()
        assert abs(seen["m"] - m) <= 1e-12 * abs(m)

    def test_one_helmholtz_solve_per_direction(self, monkeypatch):
        """Each PCG direction applies B^-1 once, to dw - r2 for du: g's
        B^-1 r2 is folded into the DCT-I multiply."""
        helmholtz_inverse = stepper._helmholtz_inverse
        calls = []

        def counting(grid, tau_reg):
            solve = helmholtz_inverse(grid, tau_reg)

            def counted(x):
                calls.append(x)
                return solve(x)

            return counted

        monkeypatch.setattr(stepper, "_helmholtz_inverse", counting)
        grid = Grid(2, (1.0, 1.0), (17, 17))
        params = SchemeParams(tau=1e-3, horizon=1e-3, reg_eps=1e-4)
        v = _profile(grid, "cosine 0.5")
        _, _, diag = newton_step(v, params, (v, init_w0(v, params)))
        assert len(calls) == len(diag.cg_iters) == len(diag.residual_history) - 1 > 0

    @pytest.mark.parametrize(
        "grid, profile",
        [(Grid(1, (1.0,), (65,)), "random 0.5"), (Grid(2, (1.0, 1.0), (33, 33)), "cosine 0.5")],
        ids=["1d-65", "2d-33"],
    )
    def test_forcing_contract(self, grid, profile, monkeypatch):
        """Over two steps, each direction's tolerance eta lies in
        [_CG_RTOL, _ETA_MAX], is _ETA_MAX on a step's first direction and
        _CG_RTOL once the residual is within _FULL_SOLVE_FACTOR of the step
        tolerance. _pcg stops at the first iterate whose preconditioned
        residual has fallen by eta relative to the whole direction, in that
        same norm: it meets eta (up to the drift of the recursive residual,
        1e-6 relative) and, cut one iteration short, it does not."""
        params = SchemeParams(tau=1e-3, horizon=2e-3)
        tol = params.picard_tol
        v = _profile(grid, profile)
        pcg, pcg_direction = stepper._pcg, stepper._pcg_direction
        directions, solves = [], []

        def recording_direction(*args):
            directions.append(args)
            return pcg_direction(*args)

        def recording_pcg(*args):
            out = pcg(*args)
            solves.append((args, out))
            return out

        monkeypatch.setattr(stepper, "_pcg_direction", recording_direction)
        monkeypatch.setattr(stepper, "_pcg", recording_pcg)
        w = init_w0(v, params)
        firsts = []
        for _ in range(2):
            firsts.append(len(directions))
            v, w, _ = newton_step(v, params, (v, w))
        assert len(solves) == len(directions) > 0
        etas = [args[-1] for args in directions]
        assert all(stepper._CG_RTOL <= eta <= stepper._ETA_MAX for eta in etas)
        assert all(etas[i] == stepper._ETA_MAX for i in firsts)
        full = [max(np.abs(r1).max(), np.abs(r2).max()) <= stepper._FULL_SOLVE_FACTOR * tol
                for *_, r1, r2, _ in directions]
        assert any(full) and not all(full)
        assert all(eta == stepper._CG_RTOL for eta, f in zip(etas, full) if f)
        assert any(eta > stepper._CG_RTOL for eta in etas)

        for (apply, b, d, m, grid_, rtol), (x, iters) in solves:
            assert _pcg_residual_ratio(apply, b, d, m, grid_, x) <= rtol * (1 + 1e-6)
            if iters > 0:
                with monkeypatch.context() as mp:
                    mp.setattr(stepper, "_CG_MAX_ITER", iters - 1)
                    short, _ = pcg(apply, b, d, m, grid_, rtol)
                assert _pcg_residual_ratio(apply, b, d, m, grid_, short) > rtol

    def test_forcing_term(self):
        """Eisenstat-Walker choice 2, clipped to [_CG_RTOL, _ETA_MAX], and
        _CG_RTOL near the step tolerance."""
        tol, eta_max, gamma = 1e-10, stepper._ETA_MAX, stepper._EW_GAMMA
        assert stepper._forcing_term([1.0], tol) == eta_max
        assert stepper._forcing_term([1.0, 0.1], tol) == pytest.approx(gamma * 0.01)
        assert stepper._forcing_term([1.0, 0.9], tol) == eta_max
        assert stepper._forcing_term([1.0, 1e-6], tol) == stepper._CG_RTOL
        assert stepper._forcing_term([1.0, 1e3 * tol], tol) == stepper._CG_RTOL

    @pytest.mark.parametrize("nodes", [17, 33, 65])
    def test_cg_iterations_independent_of_h(self, nodes):
        """f' >= 1 bounds the preconditioned condition number by
        1 + 1/(tau mu_1^2) + tau'/mu_1 whatever h: step 1 of a cosine start
        at amplitude 0.4 takes at most 10 PCG iterations per Newton
        iteration on every grid (6.3-6.5 on average)."""
        grid = Grid(2, (1.0, 1.0), (nodes, nodes))
        params = SchemeParams(tau=1e-3, horizon=1e-3)
        v = Field.from_function(grid, lambda x, y: 0.4 * np.cos(np.pi * x) * np.cos(np.pi * y))
        _, _, diag = newton_step(v, params, (v, init_w0(v, params)))
        assert len(diag.cg_iters) == len(diag.residual_history) - 1 > 0
        assert max(diag.cg_iters) <= 10

    def test_lu_path_records_no_cg(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.01)
        v, variant = _random_smooth(grid1d, 0.3, seed=20), make_variant("exp")
        _, _, diag = newton_step(v, params, (v, init_w0(v, params, variant)), variant)
        assert len(diag.residual_history) > 1
        assert diag.cg_iters == []

    def test_constant_state_takes_no_cg_iteration(self, grid1d):
        """From a constant state (1-D 65, tau = 0.5) each direction is its
        closed-form mean alone: its mean-zero part is round-off, and PCG,
        which stops relative to the whole direction, takes no iteration on
        it. Eight steps follow the constant-mode recursion."""
        params = SchemeParams(tau=0.5, horizon=4.0)
        v = Field.constant(grid1d, 2.0)
        w = init_w0(v, params)
        for k in range(1, 9):
            v, w, diag = newton_step(v, params, (v, w))
            assert diag.cg_iters and set(diag.cg_iters) == {0}
            assert np.abs(v.values - 2.0 / (1 + 0.5**3) ** k).max() <= 1e-9

    @pytest.mark.parametrize(
        "grid, reg_eps",
        [
            (Grid(2, (1.0, 1.0), (17, 17)), None),
            (Grid(1, (1.0,), (65,)), None),
            (Grid(2, (1.3, 0.7), (21, 13)), 0.01),
            (Grid(3, (1.0, 1.0, 1.0), (9, 9, 9)), None),
        ],
        ids=["2d-17", "1d-65", "2d-21x13-decoupled", "3d-9"],
    )
    def test_linear_step_maps_each_mode(self, grid, reg_eps):
        """With f(w) = w the step is linear: u + tau B^2 u = v, so it maps
        DCT-I mode k by 1/(1 + tau (lambda_k + tau')^2). Three steps on the
        PCG path follow that closed form to 1e-12 relative; the step
        tolerance allows about tau picard_tol = 1e-13 per step."""
        params = SchemeParams(tau=1e-3, horizon=3e-3, reg_eps=reg_eps)
        traj = run(_profile(grid, "random 0.5"), params, make_variant("linear"))
        lam = spectral.eigenvalues(grid)
        multiplier = 1.0 / (1.0 + params.tau * (lam + params.reg_weight) ** 2)
        u = traj.records[0].u.values
        for rec in traj.records[1:]:
            u = spectral.apply(grid, multiplier, u)
            assert rec.cg_iters > 0
            assert np.abs(rec.u.values - u).max() <= 1e-12 * np.abs(u).max()

    @pytest.mark.parametrize("nodes", [65, 129, 257])
    def test_small_tau_steps_take_pcg(self, nodes):
        """At tau = 1e-7 on 1-D grids the condition bound
        1 + 1/(tau mu_1^2) + tau'/mu_1 is about 1e5: every step still takes
        the PCG path and reaches the step tolerance. With B^-1 applied by a
        plain LU solve, whose constant mode has condition lambda_max/tau',
        Newton stagnated here at step 1 with residuals of 4.2e-9 to 5.3e-8."""
        grid = Grid(1, (1.0,), (nodes,))
        params = SchemeParams(tau=1e-7, horizon=3e-7)
        v = _profile(grid, "cosine 0.01")
        w = init_w0(v, params)
        for _ in range(params.num_steps):
            v, w, diag = newton_step(v, params, (v, w))
            assert len(diag.cg_iters) == len(diag.residual_history) - 1 > 0
            assert diag.residual_inf <= params.picard_tol

    def test_bump_that_factor_rejected_completes(self):
        """1-D 65 bump, amplitude 0.05 (max|w0| = 46.5): the factored Schur
        matrix of step 1 is exactly singular for SuperLU; PCG needs no Schur
        matrix, and the three steps complete in 59 Newton iterations."""
        cfg = _bump_config(1, "65", 0.05, 0.003)
        traj = run(build_initial_field(cfg), cfg.scheme)
        assert traj.num_steps == 3
        assert sum(rec.newton_iters for rec in traj.records) == 59
        assert all(rec.residual_inf <= cfg.scheme.picard_tol for rec in traj.records[1:])

    @pytest.mark.parametrize(
        "dim, nodes, amplitude",
        [(1, "65", 0.3), (2, "33,33", 0.2)],
        ids=["1d-65-max-w0-279", "2d-33-max-w0-312"],
    )
    def test_overflowing_direction_is_step_indexed_failure(self, dim, nodes, amplitude):
        """Where cosh(w0) reaches 1e121 or more, the PCG arithmetic overflows.
        That ends as a SolverFailure on step 1, not as a RuntimeWarning (an
        error under this suite's warning filter) or a NaN direction."""
        cfg = _bump_config(dim, nodes, amplitude, 0.003)
        with pytest.raises(SolverFailure, match=r"^step 1: PCG Newton direction is not finite") as exc:
            run(build_initial_field(cfg), cfg.scheme)
        assert exc.value.step_index == 1


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
            (Grid(1, (1.0,), (33,)), make_variant("exp")),
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

    @pytest.mark.parametrize(
        "variant",
        [sinh_variant(), make_variant("scaled_sinh", K=2.0), make_variant("exp")],
        ids=["sinh", "scaled_sinh-K2", "exp"],
    )
    def test_late_decay_reaches_linear_factor(self, grid1d, variant):
        """f'(0) = 1, so near its mean a run follows the linear scheme, which
        maps the first DCT-I mode by 1/(1 + tau (lambda_1 + tau')^2) =
        0.9112533005 per step here: a reference-free oracle for the whole
        Newton path. With c_k the quadrature product of u_k minus its mean
        and cos(pi x), c_150/c_149 is that factor to 1e-10 relative
        (measured 5.4e-14, 6.8e-14 and 3.2e-13), and the deviation falls as
        the squared mode: dev(100)/dev(50) over (c_100/c_50)^2 was measured
        at 0.97, 0.97 and 1.00."""
        params = SchemeParams(tau=1e-3, horizon=0.15)
        traj = run(_profile(grid1d, "cosine 0.5"), params, variant)
        assert traj.num_steps == 150
        lam1 = spectral.eigenvalues(grid1d)[1]
        factor = 1.0 / (1.0 + params.tau * (lam1 + params.reg_weight) ** 2)
        mode = np.cos(np.pi * grid1d.axis_coords(0))
        q = grid1d.quad_weights()
        c = np.array([q @ ((rec.u.values - integrate(rec.u)) * mode) for rec in traj.records])
        dev = np.abs(c[1:] / c[:-1] / factor - 1.0)  # dev[k - 1] is step k's

        assert dev[149] <= 1e-10
        assert 0.5 <= (dev[99] / dev[49]) / (c[100] / c[50]) ** 2 <= 2.0

    def test_step_failure_annotated_with_index(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.1)
        u0 = Field.from_function(grid1d, lambda x: 200.0 * np.cos(np.pi * x))
        with pytest.raises(OverflowCapError) as exc:
            run(u0, params)
        assert exc.value.step_index == 0

    def test_initial_cap_failure_names_step_0(self):
        # w_0 over the cap is step 0's failure, labelled as a failed step k is
        grid = Grid(1, (1.0,), (65,))
        u0 = Field.from_function(grid, lambda x: 20.0 * np.cos(8 * np.pi * x))
        with pytest.raises(OverflowCapError) as exc:
            run(u0, SchemeParams(tau=0.01, horizon=0.1))
        assert str(exc.value).startswith("step 0: |argument| = 12471.8 exceeds the overflow bound = 700")

    def test_exp_variant_runs(self, grid1d):
        params = SchemeParams(tau=0.01, horizon=0.05)
        traj = run(_random_smooth(grid1d, 0.3, seed=20), params, make_variant("exp"))
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

    @pytest.mark.parametrize(
        "name, param",
        [("tanh", None), ("sinh", 3.0), ("exp", 1.0), ("scaled_sinh", None), ("p_exponent", None)],
    )
    def test_variant_checks_name_and_parameter(self, name, param):
        with pytest.raises(ArgumentError):
            Variant(name, param)

    def test_rejects_scale_whose_energy_overflows(self):
        # cosh(K w)/K/K is infinite already at w = 0; linear is the K -> 0 limit
        with pytest.raises(ArgumentError, match="linear"):
            make_variant("scaled_sinh", K=1e-200)

    def test_exp_cap_is_one_sided(self):
        # e^w cannot overflow for negative w, sinh(w) can
        make_variant("exp").check_cap(np.array([-800.0]))
        for variant in (make_variant("exp"), sinh_variant()):
            with pytest.raises(OverflowCapError):
                variant.check_cap(np.array([800.0]))
        with pytest.raises(OverflowCapError):
            sinh_variant().check_cap(np.array([-800.0]))

    def test_sinh_cap_check(self):
        v = sinh_variant()
        with pytest.raises(OverflowCapError) as exc, _at_step(3):
            v.check_cap(np.array([800.0]))
        assert exc.value.step_index == 3
        assert exc.value.max_abs == 800.0

    def test_scaled_sinh_k1_is_sinh_bit_for_bit(self):
        w = np.random.default_rng(0).uniform(-40.0, 40.0, 1001)
        scaled, plain = make_variant("scaled_sinh", K=1.0), sinh_variant()
        assert scaled.coercive and plain.coercive
        for name in ("f", "df", "antiderivative"):
            np.testing.assert_array_equal(getattr(scaled, name)(w), getattr(plain, name)(w))

    def test_scaled_cap_uses_scaled_argument(self):
        v = make_variant("scaled_sinh", K=2.0)
        with pytest.raises(OverflowCapError):
            v.check_cap(np.array([400.0]))
