"""Estimate reports: closed-form oracles, invariants, monitors."""

import io

import numpy as np
import pytest

from crystalflow.config import _random_smooth
from crystalflow.estimates import (
    EstimateReport,
    continuum_monitors,
    p_variant_energy,
    standard_reports,
    write_reports_csv,
    write_terms_csv,
)
from crystalflow.exceptions import InvalidInputError, OverflowCapError
from crystalflow.grid import Field, Grid, integrate
from crystalflow.nonlinearity import make_variant, sinh_variant
from crystalflow.stepper import SchemeParams, run


@pytest.fixture
def grid1d():
    return Grid(1, (1.0,), (65,))


def _cosh_energy(w: Field) -> float:
    """int F(w) for f = sinh, the energy C of the reports."""
    return integrate(Field(w.grid, sinh_variant().antiderivative(w.values)))


class TestCoshEnergy:
    def test_zero_field(self, grid1d):
        assert _cosh_energy(Field.constant(grid1d, 0.0)) == pytest.approx(1.0, rel=1e-14)

    def test_unit_field(self, grid1d):
        assert _cosh_energy(Field.constant(grid1d, 1.0)) == pytest.approx(
            np.cosh(1.0), rel=1e-13
        )

    def test_lower_bound(self, grid1d):
        rng = np.random.default_rng(0)
        f = Field(grid1d, rng.standard_normal(grid1d.num_nodes))
        assert _cosh_energy(f) >= grid1d.measure

    def test_cap_enforced(self, grid1d):
        with pytest.raises(OverflowCapError):
            sinh_variant().check_cap(Field.constant(grid1d, 800.0).values)


@pytest.fixture(scope="module")
def zero_traj():
    grid = Grid(1, (1.0,), (33,))
    return run(Field.constant(grid, 0.0), SchemeParams(tau=0.01, horizon=0.1))


@pytest.fixture(scope="module")
def constant_traj():
    grid = Grid(1, (1.0,), (33,))
    return run(Field.constant(grid, 2.0), SchemeParams(tau=0.5, horizon=4.0))


@pytest.fixture(scope="module")
def cosine_traj():
    grid = Grid(1, (1.0,), (65,))
    u0 = Field.from_function(grid, lambda x: 0.1 * np.cos(np.pi * x))
    return run(u0, SchemeParams(tau=0.01, horizon=0.1))


@pytest.fixture(scope="module")
def p3_traj():
    grid = Grid(1, (1.0,), (65,))
    u0 = Field.from_function(grid, lambda x: 0.1 * np.cos(np.pi * x))
    return run(u0, SchemeParams(tau=0.01, horizon=0.1), make_variant("p_exponent", p=3.0))


# the rows of report_terms.csv, per report, in the order they are written
TERM_LAYOUT = {
    "prop31": [
        "time_derivative_sq", "laplacian_flux_sq", "reg_w_sq", "flux_gradient_sq",
        "reg_w_flux", "w_gradient_sq", "energy_endpoint", "dirichlet_endpoint",
        "mass_endpoint", "rhs_energy_initial", "rhs_dirichlet_initial", "rhs_mass_initial",
    ],
    "prop32": [
        "dirichlet_endpoint", "mass_endpoint", "w_gradient_sq", "laplacian_u_sq",
        "dirichlet_time_integral", "mass_time_integral", "rhs_dirichlet_initial",
        "rhs_mass_initial",
    ],
    "prop33": [
        "w_time_derivative_sq", "rate_endpoint", "flux_gradient_endpoint",
        "w_flux_gap_endpoint", "rate_gradient_time_integral", "rate_time_integral",
        "rhs_initial_rate_sq", "rhs_flux_gradient_initial", "rhs_w_flux_initial",
    ],
    "p_variant_energy": [
        "p_dirichlet_endpoint", "mass_endpoint", "flux_gradient_time_integral",
        "reg_w_sq_time_integral", "rhs_p_dirichlet_initial", "rhs_mass_initial",
    ],
}


class TestZeroTrajectory:
    """u0 = 0 stays at the vacuum; every inequality is tight there."""

    def test_prop31_margin_zero(self, zero_traj):
        (rep,) = standard_reports(zero_traj, ("prop31",))
        assert rep.lhs == pytest.approx(2.0, rel=1e-14)
        assert rep.rhs == pytest.approx(2.0, rel=1e-14)
        assert rep.margin == pytest.approx(0.0, abs=1e-13)
        assert rep.passed

    def test_prop32_margin_zero(self, zero_traj):
        (rep,) = standard_reports(zero_traj, ("prop32",))
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.passed

    def test_prop33_margin_zero(self, zero_traj):
        (rep,) = standard_reports(zero_traj, ("prop33",))
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.passed


def constant_mode_oracle(c, tau, omega, steps, which):
    """Both sides of an inequality for u0 = c, computed from the scalar
    recursion u_k = c/(1+tau^3)^k, w_k = tau u_k, independent of the
    trajectory machinery."""
    r = tau
    u = [c / (1 + tau**3) ** k for k in range(steps + 1)]
    w = [r * uk for uk in u]
    M = [omega * uk**2 for uk in u]
    C = [omega * np.cosh(wk) for wk in w]
    W = [omega * wk * np.sinh(wk) for wk in w]
    E = [omega * (wk * np.sinh(wk) - np.cosh(wk) + 1.0) for wk in w]
    wsq = [omega * wk**2 for wk in w]
    du = [(u[k] - u[k - 1]) / tau for k in range(1, steps + 1)]
    dw = [(w[k] - w[k - 1]) / tau for k in range(1, steps + 1)]
    du0 = -r * w[0]  # the Laplacian of a constant vanishes

    if which == "prop31":
        best = -np.inf
        acc = 0.0
        for k in range(1, steps + 1):
            acc += tau * (
                omega * du[k - 1] ** 2 + r**2 * wsq[k] + 2 * r**2 * W[k]
            )
            best = max(best, acc + 2 * C[k] + r**2 * M[k])
        rhs = 2 * C[0] + 2 * r**2 * M[0]
        return best, rhs
    if which == "prop32":
        best = -np.inf
        acc = 0.0
        for k in range(1, steps + 1):
            acc += tau * r**3 * M[k]
            best = max(best, acc + 0.5 * r * M[k])
        return best, r * M[0]
    if which == "prop33":
        best = -np.inf
        acc = 0.0
        for k in range(1, steps + 1):
            acc += tau * (
                2 * omega * dw[k - 1] ** 2 + 2 * r**2 * omega * du[k - 1] ** 2
            )
            best = max(best, acc + omega * du[k - 1] ** 2 + 2 * r**2 * E[k])
        rhs = omega * du0**2 + 2 * r**2 * W[0]
        return best, rhs
    raise AssertionError(which)


class TestConstantModeOracle:
    @pytest.mark.parametrize("name", ["prop31", "prop32", "prop33"])
    def test_both_sides_match_oracle(self, constant_traj, name):
        lhs, rhs = constant_mode_oracle(2.0, 0.5, 1.0, 8, name)
        (rep,) = standard_reports(constant_traj, (name,))
        assert rep.lhs == pytest.approx(lhs, rel=1e-8)
        assert rep.rhs == pytest.approx(rhs, rel=1e-10)
        assert rep.passed


class TestReportStructure:
    def test_cosine_run_passes_with_positive_margin(self, cosine_traj):
        for rep in standard_reports(cosine_traj):
            assert rep.passed
            assert rep.margin > 0

    def test_terms_sum_to_sides(self, cosine_traj, p3_traj):
        for rep in standard_reports(cosine_traj) + [p_variant_energy(p3_traj)]:
            lhs_sum = sum(v for k, v in rep.terms.items() if not k.startswith("rhs_"))
            rhs_sum = sum(v for k, v in rep.terms.items() if k.startswith("rhs_"))
            assert lhs_sum == pytest.approx(rep.lhs, rel=1e-12)
            assert rhs_sum == pytest.approx(rep.rhs, rel=1e-12)

    def test_term_layout_of_terms_csv(self, cosine_traj, p3_traj):
        reports = standard_reports(cosine_traj) + [p_variant_energy(p3_traj)]
        buf = io.StringIO()
        write_terms_csv(reports, buf)
        rows = [line.split(",")[:2] for line in buf.getvalue().splitlines()[1:]]
        assert rows == [[name, term] for name, terms in TERM_LAYOUT.items() for term in terms]

    def test_abs_tol_scales_with_rhs(self):
        rep = EstimateReport("x", 1.0, 5.0, {})
        assert rep.abs_tol == pytest.approx(5e-8)
        rep_small = EstimateReport("x", 0.0, 0.5, {})
        assert rep_small.abs_tol == pytest.approx(1e-8)

    def test_pure_and_deterministic(self, cosine_traj):
        a = standard_reports(cosine_traj)
        b = standard_reports(cosine_traj)
        for ra, rb in zip(a, b):
            assert ra.lhs == rb.lhs
            assert ra.rhs == rb.rhs
            assert ra.terms == rb.terms

    def test_named_reports_in_requested_order(self, cosine_traj):
        full = standard_reports(cosine_traj)
        subset = standard_reports(cosine_traj, ("prop33", "prop31"))
        assert [rep.name for rep in subset] == ["prop33", "prop31"]
        assert subset[0].terms == full[2].terms
        assert subset[1].terms == full[0].terms
        assert standard_reports(cosine_traj, ("prop32",))[0].terms == full[1].terms

    def test_rejects_exp_variant(self, grid1d):
        traj = run(
            _random_smooth(grid1d, 0.2, seed=1),
            SchemeParams(tau=0.01, horizon=0.02),
            make_variant("exp"),
        )
        with pytest.raises(InvalidInputError, match="variant"):
            standard_reports(traj, ("prop31",))

    def test_rejects_p_variant(self, grid1d):
        """f of the p-variant is odd with f' >= 1, but its exponent is the
        p-Laplacian, outside the three inequalities' derivations."""
        traj = run(
            _random_smooth(grid1d, 0.2, seed=1),
            SchemeParams(tau=0.01, horizon=0.02),
            make_variant("p_exponent", p=3),
        )
        with pytest.raises(InvalidInputError, match="p_exponent"):
            standard_reports(traj, ("prop31",))

    def test_csv_serialization(self, cosine_traj):
        reports = standard_reports(cosine_traj)
        buf = io.StringIO()
        write_reports_csv(reports, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "name,lhs,rhs,margin,pass"
        assert len(lines) == 4
        assert all(line.endswith(",true") for line in lines[1:])
        buf = io.StringIO()
        write_terms_csv(reports, buf)
        term_lines = buf.getvalue().splitlines()
        assert term_lines[0] == "name,term,value"
        assert len(term_lines) == 1 + sum(len(r.terms) for r in reports)


class TestMonitors:
    def test_vacuum_constants(self):
        grid = Grid(1, (1.0,), (33,))
        traj = run(Field.constant(grid, 0.0), SchemeParams(tau=0.01, horizon=0.05))
        mon = continuum_monitors(traj)
        assert np.all(mon.mass == 0.0)
        assert np.all(mon.dirichlet == 0.0)
        np.testing.assert_allclose(mon.cosh_energy, grid.measure, rtol=1e-14)
        assert np.all(mon.l2_time_derivative == 0.0)

    def test_constant_mass_recursion(self):
        grid = Grid(1, (1.0,), (33,))
        traj = run(Field.constant(grid, 2.0), SchemeParams(tau=0.5, horizon=2.0))
        mon = continuum_monitors(traj)
        expected = [2.0 / 1.125**k for k in range(5)]
        np.testing.assert_allclose(mon.mass, expected, rtol=1e-9)

    def test_cosh_energy_monotone_on_smooth_run(self, grid1d):
        u0 = Field.from_function(grid1d, lambda x: 0.1 * np.cos(np.pi * x))
        traj = run(u0, SchemeParams(tau=0.01, horizon=0.1))
        energy = continuum_monitors(traj).cosh_energy
        # non-increasing within relative round-off slack
        slack = 1e-12 * np.maximum(1.0, np.abs(energy[:-1]))
        assert np.all(np.diff(energy) <= slack)

    def test_mass_drift_shrinks_with_tau(self, grid1d):
        u0 = Field.from_function(grid1d, lambda x: 0.5 + 0.1 * np.cos(np.pi * x))
        drifts = []
        for tau in (0.01, 0.005):
            traj = run(u0, SchemeParams(tau=tau, horizon=0.1))
            mass = continuum_monitors(traj).mass
            drifts.append(np.abs(mass - mass[0]).max())
        assert drifts[1] < drifts[0] / 1.8


class TestPVariantEnergy:
    def test_requires_p_trajectory(self, grid1d):
        traj = run(
            _random_smooth(grid1d, 0.2, seed=2), SchemeParams(tau=0.01, horizon=0.02)
        )
        with pytest.raises(InvalidInputError):
            p_variant_energy(traj)

    def test_p3_dissipation_report(self, grid1d):
        u0 = Field.from_function(grid1d, lambda x: 0.1 * np.cos(np.pi * x))
        traj = run(
            u0, SchemeParams(tau=0.01, horizon=0.3), make_variant("p_exponent", p=3.0)
        )
        rep = p_variant_energy(traj)
        assert rep.passed


class TestIdentities:
    def test_mass_and_zero_mean_residuals(self, grid1d):
        traj = run(
            _random_smooth(grid1d, 0.4, seed=3), SchemeParams(tau=0.001, horizon=0.01)
        )
        tau, r = traj.params.tau, traj.params.reg_weight
        # |(int u_k - int u_{k-1})/tau + r int w_k| per step: the scheme only
        # moves mass through the regularization leak
        mass = [
            abs((integrate(rec.u) - integrate(prev.u)) / tau + r * integrate(rec.w))
            for prev, rec in zip(traj.records, traj.records[1:])
        ]
        assert max(mass) < 1e-10
        qw = grid1d.quad_weights()
        # |int w_k - r int u_k| per record; vanishes as the regularization does
        zero_mean = [abs(qw @ rec.w.values - r * (qw @ rec.u.values)) for rec in traj.records]
        assert max(zero_mean) < 1e-10
