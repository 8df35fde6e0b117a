"""Equilibrium and thermal equilibrium measures of a confined Coulomb gas.

Two variational problems over probability densities on a box grid:

* ``solve_equilibrium`` minimizes  I_V(mu) = E(mu) + int V dmu
  by ``_projected_gradient`` (Barzilai-Borwein steps, a nonmonotone line
  search and a simplex projection).
  At the minimizer the Euler-Lagrange conditions hold: 2 h^mu + V = k on the
  support, >= k off it. For V = |x|^2 in d = 3 the density is the constant
  Delta V / (2 |c_d|) = 3/(4 pi) on the unit ball.

* ``solve_thermal`` minimizes  E_beta(mu) = I_V(mu) + 1/(N beta) * ent[mu]
  by the damped fixed point  mu <- normalize(exp(-N beta (2 h^mu + V))),
  run in log space by ``_mirror_descent`` (this is mirror descent on E_beta,
  so a backtracking line search on the objective gives monotone
  convergence). The density is
  strictly positive everywhere and the Euler-Lagrange equation
  2 h^mu + V + (1/(N beta)) log mu = k  holds with
  k = 2 E(mu) + int V dmu + (1/(N beta)) ent[mu]  (multiply by mu and
  integrate; mass one).

The two loops are shared with ``rates``: ``phi_rate`` runs the projected
gradient and ``t_rate`` the mirror descent, each with its own closures.

The solution object keeps the log density: downstream rate functionals need
log mu_beta far into the tail, where the density itself underflows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coulomb import SpaceParams, grid_kernel
from .grids import Box, GridMeasure


@dataclass(frozen=True)
class Potential:
    """Confining potential: V(x) = coef * |x|^2, or tabulated cell values."""

    kind: str = "quadratic"
    coef: float = 1.0
    table: GridMeasure | None = None

    def __post_init__(self):
        if self.kind not in ("quadratic", "tabulated"):
            raise ValueError("potential kind must be 'quadratic' or 'tabulated'")
        if self.kind == "tabulated" and self.table is None:
            raise ValueError("tabulated potential requires a table")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "quadratic":
            return self.coef * np.einsum("ik,ik->i", pts, pts)
        if not np.all(self.table.box.contains(pts)):
            raise ValueError("tabulated potential evaluated outside its box")
        return self.table.density_at(pts)

    def on_grid(self, like: GridMeasure) -> np.ndarray:
        return self(like.cell_centers()).reshape(like.density.shape)

    def equilibrium_density(self, d: int) -> float:
        """Density d coef / |c_d| of the equilibrium measure (quadratic V)."""
        if self.kind != "quadratic":
            raise ValueError("analytic density known only for quadratic V")
        return d * self.coef / abs(SpaceParams(d).c_d)

    def equilibrium_radius(self, d: int) -> float:
        """Support radius of the equilibrium measure (quadratic V, analytic)."""
        dens = self.equilibrium_density(d)
        return (1.0 / (SpaceParams(d).ball_volume * dens)) ** (1.0 / d)

    def to_json(self) -> dict:
        if self.kind == "quadratic":
            return {"kind": "quadratic", "coef": self.coef}
        from .grids import measure_to_json
        return {"kind": "tabulated", "table": measure_to_json(self.table)}


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    kind: str                      # "equilibrium" | "thermal"
    measure: GridMeasure
    potential: Potential
    k: float
    el_residual: float
    iterations: int
    objective: float
    converged: bool
    log_density: np.ndarray | None = None
    N: float | None = None
    beta: float | None = None
    support_min: float = 0.0
    support_max: float = 0.0

    def log_density_at(self, points: np.ndarray, dilation: float = 1.0) -> np.ndarray:
        """log density of a thermal solution at points of the measure
        dilated by `dilation`.

        Nearest-cell evaluation; stays finite deep in the thermal tail where
        exp would underflow. Points outside the (dilated) box map to -inf.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float)) / dilation
        holder = self.measure.with_density(self.log_density)
        return holder.density_at(pts, fill=-np.inf)

    def log_density_smooth(self, points: np.ndarray) -> np.ndarray:
        """log density between cell centers, through the optimality field.

        The thermal density satisfies log mu = -N beta (2 h + V - k), and
        the right-hand side is evaluable at any point (h by smeared point
        evaluation, V exactly), which extends log mu off the lattice far
        more faithfully than a nearest-cell lookup. Agrees with the cell
        values up to the solver residual plus the self-cell quadrature gap.
        """
        if self.log_density is None:
            raise ValueError("pointwise log density needs a thermal solution")
        from .coulomb import potential_at_points
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        h = potential_at_points(self.measure, pts)
        nb = self.N * self.beta
        return -nb * (2.0 * h + self.potential(pts) - self.k)

    def to_json(self) -> dict:
        from .grids import measure_to_json
        return {
            "kind": self.kind,
            "measure": measure_to_json(self.measure),
            "potential": self.potential.to_json(),
            "k": self.k,
            "el_residual": self.el_residual,
            "iterations": self.iterations,
            "objective": self.objective,
            "converged": self.converged,
            "N": self.N,
            "beta": self.beta,
            "support_min": self.support_min,
            "support_max": self.support_max,
        }


def _project_simplex(z: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of z onto {x >= 0, sum x = total}."""
    if total <= 0:
        return np.zeros_like(z)
    srt = np.sort(z)[::-1]
    csum = np.cumsum(srt) - total
    idx = np.arange(1, z.size + 1)
    cond = srt - csum / idx > 0
    rho = idx[cond][-1]
    theta = csum[cond][-1] / rho
    return np.maximum(z - theta, 0.0)


def check_confining(V: Potential, like: GridMeasure) -> float:
    """Margin by which the boundary repels mass, for quadratic potentials.

    The quadratic-V equilibrium is the uniform ball of known radius r and
    Euler-Lagrange constant k = d r^{2-d}, so the effective field
    2 h + V - k is exactly computable: zero on the support, positive beyond.
    Returns its minimum over boundary cell centers. Nonpositive means the box
    does not strictly contain the equilibrium support; solvers warn.
    Tabulated potentials return +inf here (the post-solve boundary-support
    check covers them).
    """
    if V.kind != "quadratic":
        return np.inf
    from .coulomb import ball_potential
    d = like.d
    r = V.equilibrium_radius(d)
    k = d * r ** (2 - d)
    bpts = like.cell_centers()[_boundary_mask(like.density.shape).ravel()]
    field = 2.0 * ball_potential(np.linalg.norm(bpts, axis=1), r, d) + V(bpts)
    return float(np.min(field)) - k


def _boundary_mask(shape: tuple) -> np.ndarray:
    """True on the cells of the outermost layer of a lattice of `shape`."""
    mask = np.zeros(shape, dtype=bool)
    for k in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[k] = 0
        mask[tuple(sl)] = True
        sl[k] = shape[k] - 1
        mask[tuple(sl)] = True
    return mask


def _projected_gradient(x, evaluate, gradient, project, residual,
                        lip: float, tol: float, max_iter: int):
    """Projected gradient with Barzilai-Borwein steps and a nonmonotone
    (Grippo-Lampariello-Lucidi, memory 10) backtracking line search.

    evaluate(x) -> (objective, aux); gradient(aux) is the gradient at the
    point aux was evaluated at; project(z) maps onto the feasible set. The
    first step is 1/lip. Every 5 iterations (and at the last) the loop stops
    once residual(x, aux) < tol. Returns (x, aux, objective, iterations).
    """
    obj, aux = evaluate(x)
    step = 1.0 / lip
    memory = [obj]
    x_prev = g_prev = None
    it = 0
    for it in range(1, max_iter + 1):
        g = gradient(aux)
        if x_prev is not None:
            ds, dg = x - x_prev, g - g_prev
            denom = float(ds @ dg)
            if denom > 0:
                step = float(ds @ ds) / denom
        x_prev, g_prev = x, g
        ref = max(memory[-10:])
        while True:
            cand = project(x - step * g)
            obj_c, aux_c = evaluate(cand)
            if obj_c <= ref + 1e-14 * abs(ref) or step < 1e-18:
                break
            step *= 0.5
        x, aux, obj = cand, aux_c, obj_c
        memory.append(obj)
        if (it % 5 == 0 or it == max_iter) and residual(x, aux) < tol:
            break
    return x, aux, obj, it


def _log_normalize(L: np.ndarray, dv: float, log_mass: float = 0.0) -> np.ndarray:
    """Shift the log density L so that its integral is exp(log_mass)."""
    m = L.max()
    z = m + np.log(np.sum(np.exp(L - m)) * dv)
    return L - z + log_mass


def _mirror_descent(L, evaluate, target, normalize, residual, tol: float,
                    max_iter: int, s_min: float, s_max: float, grow: float):
    """Entropic mirror descent (Beck-Teboulle 2003) on a log density L.

    Each step is the damped fixed point L <- normalize((1-s) L + s t) with
    t = target(aux): L - t is the objective's gradient in log coordinates,
    up to a positive factor and a constant that normalize() removes.
    evaluate(L) -> (objective, aux). The step s starts at 0.5, halves until
    the objective does not increase, and grows by `grow` (up to s_max) after
    three accepted steps in a row. The loop stops when the line search fails
    (s < s_min), when an accepted step moves L by less than 1e-13, or when
    residual(L, aux) < tol, checked every 5 iterations.
    Returns (L, aux, objective, iterations).
    """
    obj, aux = evaluate(L)
    s = 0.5
    streak = 0
    it = 0
    for it in range(1, max_iter + 1):
        t = target(aux)
        while s >= s_min:
            cand = normalize((1.0 - s) * L + s * t)
            obj_c, aux_c = evaluate(cand)
            if obj_c <= obj + 1e-14 * abs(obj):
                break
            s *= 0.5
            streak = 0
        else:
            break
        delta = float(np.max(np.abs(cand - L)))
        L, aux, obj = cand, aux_c, obj_c
        streak += 1
        if streak >= 3:
            s = min(s * grow, s_max)
            streak = 0
        if delta < 1e-13 or (it % 5 == 0 and residual(L, aux) < tol):
            break
    return L, aux, obj, it


def solve_equilibrium(V: Potential, box: Box, cells_per_axis: int,
                      tol: float = 1e-4) -> EquilibriumSolution:
    """Minimize I_V over probability measures on the box grid."""
    like = GridMeasure.zeros(box, cells_per_axis)
    ker = grid_kernel(like)
    margin = check_confining(V, like)
    if margin <= 1e-9:
        warnings.warn("potential may not confine the gas inside the box "
                      f"(margin {margin:.3g})")
    vgrid = V.on_grid(like)
    shape = vgrid.shape
    dv = like.cell_volume
    total = 1.0 / dv

    def evaluate(x):
        r = x.reshape(shape)
        h = ker.potential(r)
        return float(np.sum(r * h) * dv + np.sum(vgrid * r) * dv), h

    def el_of(x, h):
        r = x.reshape(shape)
        field = 2.0 * h + vgrid
        supp = r > 1e-6 * r.max()
        k = float(np.sum(field[supp] * r[supp]) / np.sum(r[supp]))
        return k, float(np.max(np.abs(field[supp] - k))), supp

    x, h, obj, it = _projected_gradient(
        np.full(vgrid.size, total / vgrid.size), evaluate,
        lambda h: (dv * (2.0 * h + vgrid)).ravel(),
        lambda z: _project_simplex(z, total),
        lambda x, h: el_of(x, h)[1],
        2.0 * dv * dv * ker.lipschitz, tol, 4000)
    rho = x.reshape(shape)
    k, el, supp = el_of(x, h)
    edge = rho[_boundary_mask(shape)]
    if cells_per_axis > 2 and float(np.max(edge)) > 1e-6 * rho.max():
        warnings.warn("equilibrium support touches the box boundary; "
                      "enlarge the box")
    meas = like.with_density(rho)
    return EquilibriumSolution(
        kind="equilibrium", measure=meas, potential=V, k=k, el_residual=el,
        iterations=it, objective=obj, converged=el < tol,
        support_min=float(rho[supp].min()), support_max=float(rho[supp].max()))


def thermal_box(V: Potential, N: float, beta: float, d: int) -> Box:
    """Box on which the thermal density at the boundary is negligible.

    The thermal density behaves like exp(-N beta (2h + V - k)), so the box
    half-width solves V(hw) - k = -log(1e-12) / (N beta), a density ratio
    of 1e-12 against the support, dropping the nonnegative 2h term (which
    only suppresses further). k is the analytic Euler-Lagrange constant
    d r^{2-d} of the quadratic equilibrium. The equilibrium support also
    fits with margin.
    """
    if V.kind != "quadratic":
        raise ValueError("automatic box sizing requires a quadratic potential")
    r = V.equilibrium_radius(d)
    k = d * r ** (2 - d)
    hw_tail = math.sqrt((k - math.log(1e-12) / (N * beta)) / V.coef)
    hw_supp = 1.3 * r
    return Box.cube(np.zeros(d), max(hw_tail, hw_supp))


def solve_thermal(V: Potential, N: float, beta: float,
                  box: Box | None = None, cells_per_axis: int = 32, d: int = 3,
                  tol: float = 1e-9) -> EquilibriumSolution:
    """Minimize E_beta = I_V + 1/(N beta) ent by a damped log-space fixed point."""
    if N < 1 or beta <= 0:
        raise ValueError("need N >= 1 and beta > 0")
    nb = N * beta
    if box is None:
        box = thermal_box(V, N, beta, d)
    like = GridMeasure.zeros(box, cells_per_axis)
    ker = grid_kernel(like)
    vgrid = V.on_grid(like)
    dv = like.cell_volume

    def evaluate(L):
        rho = np.exp(L)
        h = ker.potential(rho)
        obj = float(np.sum(rho * h) * dv + np.sum(vgrid * rho) * dv
                    + np.sum(rho * L) * dv / nb)
        return obj, (rho, h)

    def el_of(L, aux):
        rho, h = aux
        k = (2.0 * float(np.sum(rho * h) * dv) + float(np.sum(vgrid * rho) * dv)
             + float(np.sum(rho * L) * dv) / nb)
        return k, float(np.max(np.abs(2.0 * h + vgrid + L / nb - k)))

    L, (rho, h), obj, it = _mirror_descent(
        _log_normalize(-nb * vgrid, dv), evaluate,
        lambda aux: -nb * (2.0 * aux[1] + vgrid),
        lambda L: _log_normalize(L, dv),
        lambda L, aux: el_of(L, aux)[1],
        tol, 4000, s_min=1e-4, s_max=0.95, grow=1.3)
    k, el = el_of(L, (rho, h))
    if cells_per_axis > 2:
        ratio = float(np.max(rho[_boundary_mask(rho.shape)])) / float(rho.max())
        if ratio > 1e-10:
            warnings.warn("thermal density is not negligible at the box "
                          f"boundary (ratio {ratio:.2e}); enlarge the box")
    meas = like.with_density(rho)
    return EquilibriumSolution(
        kind="thermal", measure=meas, potential=V, k=k, el_residual=el,
        iterations=it, objective=obj, converged=el < max(tol, 1e-6),
        log_density=L, N=float(N), beta=float(beta),
        support_min=float(rho.min()), support_max=float(rho.max()))


def blowup(sol: EquilibriumSolution, N: float, lam: float) -> GridMeasure:
    """mu_beta^{N^lambda}: the thermal measure dilated by N^lambda (mass N^{lambda d})."""
    from .grids import dilate
    return dilate(sol.measure, float(N) ** lam)
