"""A-priori estimate verification and monitor series over trajectories.

Three discrete energy inequalities are checked, each bounding solution
norms by the initial data alone. Each is verified in its telescoped
"running partial sum" form: for every truncation K the accumulated
dissipation up to K plus the energy state at K must stay below the bound
from the initial data. That form follows step by step from the scheme's
two equations and exact summation by parts, so the margin is nonnegative
up to linear-solver round-off; the reported left side is the worst (the
largest) truncation. The right side is stated purely in terms of the
initial fields.

Writing tau for the timestep, r for the regularization weight, and
F for the antiderivative of the current f (F = cosh for f = sinh), the
per-record functionals are

    M = int u^2          G = int |grad u|^2      C = int F(w)
    S = int |grad f(w)|^2                        W = int w f(w)
    E = int (w f(w) - F(w) + F(0))               (convexity gap, >= 0)

with difference quotients du_k = (u_k - u_{k-1})/tau and likewise dw_k.

Every inequality, the p-variant's dissipation law included, has the shape

    tau sum_{1<=k<=K} (running terms at k) + (endpoint terms at K)
        <= (initial terms at 0),

so each report is one declaration: the list of its terms, each with its
kind (RUNNING, ENDPOINT or INITIAL), its coefficient and its per-record
series, handed to _telescoped. That builder alone sums the series, finds
the worst truncation and records every term at it, so the list can be
checked line by line against the inequality in its _prop3x docstring,
and it is also the row order of report_terms.csv. standard_reports is the
one entry point to the three; p_variant_energy states the p-law.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields

import numpy as np

from .exceptions import InvalidInputError
from .grid import _grad_sq, csv_line, laplacian_matrix
from .stepper import Trajectory

__all__ = [
    "REPORT_NAMES",
    "EstimateReport",
    "MonitorSeries",
    "standard_reports",
    "continuum_monitors",
    "p_variant_energy",
    "write_reports_csv",
    "write_terms_csv",
]

# term kinds of a telescoped inequality (see _telescoped)
RUNNING, ENDPOINT, INITIAL = "running", "endpoint", "initial"


@dataclass
class EstimateReport:
    """Outcome of one inequality check.

    margin = rhs - lhs; the check passes when margin >= -abs_tol with
    abs_tol = 1e-8 * max(1, rhs), so the tolerance only absorbs round-off
    and scales sensibly across magnitudes. terms maps each contribution of
    the inequality (left and right side) to its value; LHS terms sum to
    lhs and RHS terms to rhs.
    """

    name: str
    lhs: float
    rhs: float
    terms: dict

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def abs_tol(self) -> float:
        return 1e-8 * max(1.0, self.rhs)

    @property
    def passed(self) -> bool:
        return self.margin >= -self.abs_tol


@dataclass
class _Functionals:
    """Per-record quadrature functionals of one trajectory, k = 0..j."""

    tau: float
    r: float  # regularization weight
    M: np.ndarray
    G: np.ndarray
    C: np.ndarray
    S: np.ndarray
    W: np.ndarray
    E: np.ndarray
    wsq: np.ndarray  # int w^2
    gradw: np.ndarray  # int |grad w|^2
    lap_u_sq: np.ndarray  # int (Lap u)^2
    lap_f_sq: np.ndarray  # int (Lap f(w))^2
    du_sq: np.ndarray  # ||du_k||^2, k >= 1; slot 0 holds the defining rate
    dw_sq: np.ndarray  # ||dw_k||^2, k >= 1
    grad_du: np.ndarray  # int |grad du_k|^2, k >= 1


def _functionals(traj: Trajectory) -> _Functionals:
    grid = traj.grid
    qw = grid.quad_weights()
    lap = laplacian_matrix(grid)
    f = traj.variant.f
    F = traj.variant.antiderivative
    F0 = float(F(np.zeros(1))[0])
    tau = traj.params.tau
    r = traj.params.reg_weight

    def l2sq(x):
        return float(qw @ (x * x))

    n = len(traj.records)
    series = {fd.name: np.zeros(n) for fd in fields(_Functionals) if fd.name not in ("tau", "r")}
    out = _Functionals(tau=tau, r=r, **series)
    for k, rec in enumerate(traj.records):
        u, w = rec.u.values, rec.w.values
        fw, Fw = f(w), F(w)
        out.M[k] = l2sq(u)
        out.G[k] = _grad_sq(grid, u)
        out.C[k] = float(qw @ Fw)
        out.S[k] = _grad_sq(grid, fw)
        out.W[k] = float(qw @ (w * fw))
        out.E[k] = float(qw @ (w * fw - Fw + F0))
        out.wsq[k] = l2sq(w)
        out.gradw[k] = _grad_sq(grid, w)
        out.lap_u_sq[k] = l2sq(lap @ u)
        out.lap_f_sq[k] = l2sq(lap @ fw)
        if k > 0:
            prev = traj.records[k - 1]
            du = (u - prev.u.values) / tau
            dw = (w - prev.w.values) / tau
            out.du_sq[k] = l2sq(du)
            out.dw_sq[k] = l2sq(dw)
            out.grad_du[k] = _grad_sq(grid, du)
    # the k = 0 rate is the one the scheme's startup choice defines:
    # du_0 = Lap f(w_0) - r w_0, so the first difference equation closes
    w0 = traj.records[0].w.values
    du0 = lap @ f(w0) - r * w0
    out.du_sq[0] = l2sq(du0)
    return out


def _telescoped(name: str, tau: float, terms) -> EstimateReport:
    """Report of one telescoped inequality, declared term by term.

    terms lists (term name, kind, coefficient, per-record series) in report
    order. A RUNNING term contributes tau * coefficient * series[k] for
    every step k >= 1 up to the truncation, an ENDPOINT term
    coefficient * series[K] at the truncation K, and an INITIAL term
    coefficient * series[0] to the right side. The reported K >= 1 is the
    one with the largest running sum plus endpoint sum; terms holds every
    contribution at that K, so its left-side entries add up to lhs (to
    round-off) and its INITIAL entries to rhs.
    """

    def weighted_sum(kind):
        return sum(coef * series for _, term_kind, coef, series in terms if term_kind == kind)

    per_step = weighted_sum(RUNNING)
    per_step[0] = 0.0
    running = tau * np.cumsum(per_step)
    endpoint = weighted_sum(ENDPOINT)
    K = int(np.argmax((running + endpoint)[1:])) + 1

    def at_K(kind, coef, series):
        if kind == RUNNING:
            return tau * coef * series[1 : K + 1].sum()
        return coef * series[K if kind == ENDPOINT else 0]

    values = {term: at_K(kind, coef, series) for term, kind, coef, series in terms}
    rhs = sum(values[term] for term, kind, _, _ in terms if kind == INITIAL)
    return EstimateReport(name, float(running[K] + endpoint[K]), float(rhs), values)


def _prop31(fn: _Functionals) -> EstimateReport:
    """First energy inequality: rate + flux dissipation against initial energy.

    For every K >= 1,

        sum_{k<=K} tau [ ||du_k||^2 + ||Lap f(w_k)||^2 + r^2 ||w_k||^2
                         + 2 r S_k + 2 r^2 W_k + 2 r int|grad w_k|^2 ]
        + 2 C_K + r G_K + r^2 M_K
            <= 2 C_0 + 2 r G_0 + 2 r^2 M_0.

    Reported lhs is the worst truncation K; rhs is the initial-data bound.
    """
    r = fn.r
    return _telescoped("prop31", fn.tau, [
        ("time_derivative_sq", RUNNING, 1, fn.du_sq),
        ("laplacian_flux_sq", RUNNING, 1, fn.lap_f_sq),
        ("reg_w_sq", RUNNING, r**2, fn.wsq),
        ("flux_gradient_sq", RUNNING, 2 * r, fn.S),
        ("reg_w_flux", RUNNING, 2 * r**2, fn.W),
        ("w_gradient_sq", RUNNING, 2 * r, fn.gradw),
        ("energy_endpoint", ENDPOINT, 2, fn.C),
        ("dirichlet_endpoint", ENDPOINT, r, fn.G),
        ("mass_endpoint", ENDPOINT, r**2, fn.M),
        ("rhs_energy_initial", INITIAL, 2, fn.C),
        ("rhs_dirichlet_initial", INITIAL, 2 * r, fn.G),
        ("rhs_mass_initial", INITIAL, 2 * r**2, fn.M),
    ])


def _prop32(fn: _Functionals) -> EstimateReport:
    """Second energy inequality: Dirichlet decay plus exponent-gradient control.

    For every K >= 1,

        (G_K + r M_K)/2
        + sum_{k<=K} tau [ int|grad w_k|^2 + r ||Lap u_k||^2
                           + 2 r^2 G_k + r^3 M_k ]
            <= G_0 + r M_0.
    """
    r = fn.r
    return _telescoped("prop32", fn.tau, [
        ("dirichlet_endpoint", ENDPOINT, 0.5, fn.G),
        ("mass_endpoint", ENDPOINT, 0.5 * r, fn.M),
        ("w_gradient_sq", RUNNING, 1, fn.gradw),
        ("laplacian_u_sq", RUNNING, r, fn.lap_u_sq),
        ("dirichlet_time_integral", RUNNING, 2 * r**2, fn.G),
        ("mass_time_integral", RUNNING, r**3, fn.M),
        ("rhs_dirichlet_initial", INITIAL, 1, fn.G),
        ("rhs_mass_initial", INITIAL, r, fn.M),
    ])


def _prop33(fn: _Functionals) -> EstimateReport:
    """Third energy inequality: control of the time derivatives.

    For every K >= 1,

        2 sum_{k<=K} tau ||dw_k||^2 + ||du_K||^2 + r S_K + 2 r^2 E_K
        + 2 r sum_{k<=K} tau int|grad du_k|^2 + 2 r^2 sum_{k<=K} tau ||du_k||^2
            <= ||du_0||^2 + r S_0 + 2 r^2 W_0

    with the startup rate du_0 = Lap f(w_0) - r w_0. The endpoint uses the
    convexity gap E (which is what the telescoping actually produces and
    never exceeds W), while the right side keeps the plain W_0 form.
    """
    r = fn.r
    return _telescoped("prop33", fn.tau, [
        ("w_time_derivative_sq", RUNNING, 2, fn.dw_sq),
        ("rate_endpoint", ENDPOINT, 1, fn.du_sq),
        ("flux_gradient_endpoint", ENDPOINT, r, fn.S),
        ("w_flux_gap_endpoint", ENDPOINT, 2 * r**2, fn.E),
        ("rate_gradient_time_integral", RUNNING, 2 * r, fn.grad_du),
        ("rate_time_integral", RUNNING, 2 * r**2, fn.du_sq),
        ("rhs_initial_rate_sq", INITIAL, 1, fn.du_sq),
        ("rhs_flux_gradient_initial", INITIAL, r, fn.S),
        ("rhs_w_flux_initial", INITIAL, 2 * r**2, fn.W),
    ])


_REPORTS = {"prop31": _prop31, "prop32": _prop32, "prop33": _prop33}
REPORT_NAMES = tuple(_REPORTS)


def standard_reports(traj: Trajectory, names=REPORT_NAMES) -> list[EstimateReport]:
    """The energy-inequality reports `names`, in that order.

    The per-record functionals are computed once, in one pass over the
    records, and shared by every report. Raises InvalidInputError unless
    the variant is odd with f' >= 1 and uses the plain Laplacian exponent
    (Variant.coercive).
    """
    if not traj.variant.coercive:
        raise InvalidInputError(
            f"energy inequality verification requires an odd nonlinearity with "
            f"f' >= 1 and the plain Laplacian exponent; got variant {traj.variant.name!r}"
        )
    fn = _functionals(traj)
    return [_REPORTS[name](fn) for name in names]


@dataclass
class MonitorSeries:
    """Per-record columns of trajectory.csv and variant_comparison.csv."""

    t: np.ndarray
    mass: np.ndarray
    dirichlet: np.ndarray
    cosh_energy: np.ndarray  # int F(w) of the trajectory's own variant
    l2_time_derivative: np.ndarray
    w_sup: np.ndarray


def continuum_monitors(traj: Trajectory) -> MonitorSeries:
    """Mass, Dirichlet energy, int F(w), L2 rate and sup |w| per record.

    The one pass every per-record output column comes from. F is the
    antiderivative of the run's own variant, the C of the reports; for sinh
    it is cosh bit for bit, whence the name cosh_energy.
    """
    grid = traj.grid
    qw = grid.quad_weights()
    F = traj.variant.antiderivative
    tau = traj.params.tau
    n = len(traj.records)
    mass = np.zeros(n)
    dirichlet = np.zeros(n)
    energy = np.zeros(n)
    rate = np.zeros(n)
    w_sup = np.zeros(n)
    for k, rec in enumerate(traj.records):
        w = rec.w.values
        mass[k] = qw @ rec.u.values
        dirichlet[k] = _grad_sq(grid, rec.u.values)
        energy[k] = qw @ F(w)
        w_sup[k] = np.abs(w).max()
        if k > 0:
            du = (rec.u.values - traj.records[k - 1].u.values) / tau
            rate[k] = np.sqrt(qw @ (du * du))
    return MonitorSeries(traj.times(), mass, dirichlet, energy, rate, w_sup)


def p_variant_energy(traj: Trajectory) -> EstimateReport:
    """Dissipation law for the p-Laplacian exponent variant (1-D).

    For every K >= 1,

        Phi_K + (p r / 2) M_K
        + p sum_{k<=K} tau [ int grad f(w_k) . grad w_k + r ||w_k||^2 ]
            <= Phi_0 + (p r / 2) M_0

    with p the exponent of the trajectory's variant and Phi = int |grad u|^p
    over half-node gradients. The mixed-gradient integral is the discrete
    stand-in for the flux-Laplacian dissipation and is nonnegative since f
    is increasing, so Phi itself is non-increasing along the run.
    """
    v = traj.variant
    if v.p is None or traj.grid.dim != 1:
        raise InvalidInputError(
            f"p_variant_energy applies to 1-D p-exponent trajectories, got "
            f"variant {v.name!r} on a {traj.grid.dim}-D grid"
        )
    p = v.p
    grid = traj.grid
    qw = grid.quad_weights()
    lap = laplacian_matrix(grid)
    h = grid.spacing[0]
    tau = traj.params.tau
    r = traj.params.reg_weight
    n = len(traj.records)

    phi = np.zeros(n)
    M = np.zeros(n)
    Q = np.zeros(n)
    wsq = np.zeros(n)
    for k, rec in enumerate(traj.records):
        slope = np.diff(rec.u.values) / h
        phi[k] = h * np.sum(np.abs(slope) ** p)
        M[k] = qw @ (rec.u.values ** 2)
        w = rec.w.values
        fw = traj.variant.f(w)
        # int grad f(w) . grad w = -<f(w), Lap w>, exact by parts
        Q[k] = -float(qw @ (fw * (lap @ w)))
        wsq[k] = qw @ (w * w)

    return _telescoped("p_variant_energy", tau, [
        ("p_dirichlet_endpoint", ENDPOINT, 1, phi),
        ("mass_endpoint", ENDPOINT, 0.5 * p * r, M),
        ("flux_gradient_time_integral", RUNNING, p, Q),
        ("reg_w_sq_time_integral", RUNNING, p * r, wsq),
        ("rhs_p_dirichlet_initial", INITIAL, 1, phi),
        ("rhs_mass_initial", INITIAL, 0.5 * p * r, M),
    ])


def write_reports_csv(reports: list[EstimateReport], stream: io.TextIOBase) -> None:
    stream.write(csv_line(("name", "lhs", "rhs", "margin", "pass")))
    for rep in reports:
        stream.write(csv_line((rep.name, rep.lhs, rep.rhs, rep.margin, str(rep.passed).lower())))


def write_terms_csv(reports: list[EstimateReport], stream: io.TextIOBase) -> None:
    stream.write(csv_line(("name", "term", "value")))
    for rep in reports:
        for term, value in rep.terms.items():
            stream.write(csv_line((rep.name, term, value)))
