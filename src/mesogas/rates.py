"""Rate functionals for mesoscopic deviations of the gas density.

Three functionals measure the cost of seeing a density ``mu`` in the window
cube, each matched to a temperature regime:

* ``n_rate``: the entropy functional  N[mu | nu] = ent[mu|nu] + |nu| - |mu|
  against a constant reference density on the window. Closed form.

* ``phi_rate``: the screened Coulomb energy
  Phi^alpha(mu) = min_phi  E(mu - alpha 1_window + (phi - alpha) 1_exterior)
  over exterior screening densities phi >= 0, a convex QP in phi solved by
  the Barzilai-Borwein projected gradient ``equilibrium._projected_gradient``
  that ``solve_equilibrium`` also runs.

* ``t_rate``: the combined functional
  T(mu) = min_nu  E(mu + nu - w) + ent[nu | w]
  over positive exterior measures nu with the mass constraint
  |nu| = |w| - |mu|, where w is the dilated thermal measure. The entropy
  pair -int log(w) dnu + ent[nu] collapses to the relative entropy
  ent[nu|w], so the no-energy problem has the closed-form solution
  nu = kappa w exposed as ``kappa_minimizer``; with the energy on, the
  problem is solved by entropic mirror descent warm-started there, the loop
  ``equilibrium._mirror_descent`` that ``solve_thermal`` also runs.

All minimizations happen over a truncated exterior: a cube ``factor`` times
the window, carved into the same lattice so window cells and exterior cells
never overlap. Truncation error is a real modeling error; double the factor
and compare values to bound it (the reported minimizer and integrals always
refer to the truncated exterior).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coulomb import grid_kernel
from .equilibrium import _log_normalize, _mirror_descent, _projected_gradient
from .grids import Box, GridMeasure, box_mass, mass, relative_entropy


@dataclass(frozen=True, eq=False)
class ExteriorDomain:
    """Window cube plus a truncated exterior, on one shared lattice.

    The truncation box is `factor` times the window, with the window
    occupying a centered block of whole cells; every lattice cell is either
    a window cell or an exterior cell.
    """

    interior: Box
    truncation: Box
    layout: GridMeasure            # zeros on the truncation lattice
    interior_mask: np.ndarray      # bool, full lattice shape
    cells_interior: int

    @classmethod
    def build(cls, interior: Box, cells_interior: int, factor: int = 4
              ) -> "ExteriorDomain":
        if factor < 2:
            raise ValueError("truncation factor must be at least 2")
        hw = interior.half_width
        if not np.allclose(hw, hw[0]):
            raise ValueError("interior must be a cube")
        n_total = factor * cells_interior
        if (n_total - cells_interior) % 2 != 0:
            raise ValueError("factor and cells_interior must align the "
                             "window with whole cells (make one of them even)")
        truncation = Box(center=interior.center.copy(),
                         half_width=hw * factor)
        layout = GridMeasure.zeros(truncation, n_total)
        off = (n_total - cells_interior) // 2
        mask = np.zeros(layout.density.shape, dtype=bool)
        mask[tuple(slice(off, off + cells_interior)
                   for _ in range(interior.d))] = True
        return cls(interior=interior, truncation=truncation, layout=layout,
                   interior_mask=mask, cells_interior=cells_interior)

    @property
    def d(self) -> int:
        return self.interior.d

    @property
    def exterior_mask(self) -> np.ndarray:
        return ~self.interior_mask

    def embed(self, mu: GridMeasure) -> np.ndarray:
        """Density of a window measure placed on the full lattice."""
        if not mu.box.same_geometry(self.interior):
            raise ValueError("measure box does not match the window")
        if mu.cells_per_axis != self.cells_interior:
            raise ValueError("measure lattice does not match the window grid")
        full = np.zeros(self.layout.density.shape)
        full[self.interior_mask] = mu.density.ravel()
        return full

    def exterior_measure(self, density_full: np.ndarray) -> GridMeasure:
        dens = np.where(self.interior_mask, 0.0, density_full)
        return self.layout.with_density(dens, signed=bool(np.any(dens < 0)))

    def scaled(self, x: float) -> "ExteriorDomain":
        return ExteriorDomain.build(self.interior.scaled(x),
                                    self.cells_interior,
                                    round(self.layout.cells_per_axis
                                          / self.cells_interior))


@dataclass(frozen=True, eq=False)
class RateReport:
    functional: str                # "N" | "Phi" | "T"
    value: float
    minimizer: GridMeasure | None
    iterations: int
    kkt_residual: float
    mass_error: float
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        from .grids import measure_to_json
        return {
            "functional": self.functional,
            "value": self.value,
            "mass_error": self.mass_error,
            "kkt_residual": self.kkt_residual,
            "iterations": self.iterations,
            "minimizer": (None if self.minimizer is None
                          else measure_to_json(self.minimizer)),
            **self.extras,
        }


def n_rate(mu: GridMeasure, ref_density: float) -> float:
    """ent[mu | ref 1_box] + ref*vol(box) - |mu|, in closed form, on mu's box.

    The reference is strictly positive on the box, so every grid measure on
    the box is absolutely continuous with respect to it. mu = 0 gives the
    pure mass term ref*vol.
    """
    if ref_density <= 0:
        raise ValueError("reference density must be positive")
    if mu.signed and np.any(mu.density < 0):
        raise ValueError("n_rate needs a positive measure")
    dv = mu.cell_volume
    dens = mu.density
    pos = dens > 0
    rel = float(np.sum(dens[pos] * np.log(dens[pos] / ref_density)) * dv)
    return rel + ref_density * mu.box.volume - float(np.sum(dens) * dv)


def _background_full(background, domain: ExteriorDomain) -> np.ndarray:
    if np.isscalar(background):
        return np.full(domain.layout.density.shape, float(background))
    bg = np.asarray(background, dtype=float)
    if bg.shape != domain.layout.density.shape:
        raise ValueError("background array must match the full lattice")
    return bg


def phi_rate(mu: GridMeasure, alpha, domain: ExteriorDomain,
             tol: float = 1e-8, max_iter: int = 5000) -> RateReport:
    """Phi^alpha of a window measure; alpha is a scalar or a full-lattice
    background density array (used for the thermal-background variant)."""
    ker = grid_kernel(domain.layout)
    dv = domain.layout.cell_volume
    bg = _background_full(alpha, domain)
    ext = domain.exterior_mask
    q_fix = domain.embed(mu) - bg

    # the iterate is phi on the exterior cells; phi vanishes in the window
    def full(x):
        p = np.zeros(ext.shape)
        p[ext] = x
        return p

    def project(z):
        return np.maximum(z, 0.0)

    def evaluate(x):
        q = q_fix + full(x)
        h = ker.potential(q)
        return float(np.sum(q * h) * dv), h

    def kkt(x, h):
        g = 2.0 * dv * h[ext]
        free = x > 0
        r = float(np.max(np.abs(g[free]))) if np.any(free) else 0.0
        if not np.all(free):
            r = max(r, -float(np.min(g[~free])))
        return r

    x, h, obj, it = _projected_gradient(
        project(bg[ext]), evaluate,
        lambda h: 2.0 * dv * h[ext], project, kkt,
        2.0 * dv * dv * ker.lipschitz, tol, max_iter)
    phi = full(x)
    return RateReport(functional="Phi", value=obj,
                      minimizer=domain.exterior_measure(phi),
                      iterations=it, kkt_residual=kkt(x, h), mass_error=0.0,
                      extras={"screening_mass": float(phi.sum() * dv)})


def phi_scaling_check(mu: GridMeasure, alpha, domain: ExteriorDomain,
                      x: float) -> tuple[float, float]:
    """Both sides of Phi^alpha(mu) = x^{-(d+2)} Phi^alpha_{x window}(mu^x).

    Dilation preserves density values, so the background stays alpha; the
    lattice dilates exactly, so the two sides agree to solver tolerance.
    """
    from .grids import dilate
    d = domain.d
    lhs = phi_rate(mu, alpha, domain).value
    rhs_raw = phi_rate(dilate(mu, x), alpha, domain.scaled(x),
                       1e-8 * x ** (d + 2)).value
    return lhs, float(x ** (-(d + 2)) * rhs_raw)


def blowup_on_domain(thermal_sol, N: float, lam: float,
                     domain: ExteriorDomain) -> tuple[np.ndarray, np.ndarray]:
    """Dilated thermal density and its log on the domain lattice.

    Evaluated through the stored log density, so the log stays finite in
    the far exterior where the density itself underflows. Cells outside the
    dilated box get log = -inf (density 0).
    """
    xfac = float(N) ** lam
    centers = domain.layout.cell_centers()
    logw = thermal_sol.log_density_at(centers, dilation=xfac)
    logw = logw.reshape(domain.layout.density.shape)
    with np.errstate(over="ignore"):
        w = np.exp(logw)
    return w, logw


def kappa_minimizer(nu_bar_mass: float, blowup_measure: GridMeasure,
                    domain: ExteriorDomain) -> tuple[float, GridMeasure, float]:
    """Closed-form minimizer of ent[nu | w] over exterior nu of fixed mass.

    The constraint is |nu| = |w| - nu_bar_mass, and the minimizer is the
    scaled restriction nu = kappa w 1_exterior with
    kappa = (|w| - nu_bar_mass) / int_exterior w; the value is
    kappa log(kappa) * int_exterior w. All integrals refer to the truncated
    exterior lattice, the same feasible set every numeric solver here uses.
    The mass of w outside the truncation box is ignored; when the box holds
    under 99.9% of |w| (``t_rate``'s rule), a warning reports that mass.
    """
    w_dom = blowup_measure.density_at(domain.layout.cell_centers())
    w_dom = w_dom.reshape(domain.layout.density.shape)
    dv = domain.layout.cell_volume
    total = float(np.sum(w_dom) * dv)
    exact = mass(blowup_measure)
    held = box_mass(blowup_measure, domain.truncation)
    if held < 0.999 * exact:
        warnings.warn("dilated measure extends past the truncation box "
                      f"({exact - held:.3g} of its {exact:.3g} mass ignored)")
    i_ext = float(np.sum(w_dom[domain.exterior_mask]) * dv)
    if i_ext <= 0:
        raise ValueError("exterior integral of the dilated measure vanishes")
    kappa = (total - nu_bar_mass) / i_ext
    if kappa < 0:
        raise ValueError("window mass exceeds the total mass; "
                         "no positive exterior measure can balance it")
    dens = np.where(domain.interior_mask, 0.0, kappa * w_dom)
    mu_star = domain.layout.with_density(dens, signed=False)
    value = kappa * math.log(kappa) * i_ext if kappa > 0 else 0.0
    return float(kappa), mu_star, float(value)


def alpha_minimizer(i_N: float, N: float, thermal_sol,
                    excluded: Box) -> tuple[float, GridMeasure]:
    """Closed-form minimizer of ent[rho | mu_beta] outside the excluded box.

    The constraint is |rho| = 1 - i_N/N; the minimizer is the scaled
    restriction rho* = alpha mu_beta 1_exterior with
    alpha = (1 - i_N/N) / int_exterior mu_beta.
    """
    if not 0 <= i_N <= N:
        raise ValueError("need 0 <= i_N <= N")
    meas = thermal_sol.measure
    centers = meas.cell_centers()
    inside = excluded.contains(centers).reshape(meas.density.shape)
    dv = meas.cell_volume
    i_ext = float(np.sum(meas.density[~inside]) * dv)
    if i_ext <= 0:
        raise ValueError("thermal measure has no mass outside the box")
    alpha = (1.0 - i_N / N) / i_ext
    dens = np.where(inside, 0.0, alpha * meas.density)
    rho_star = meas.with_density(dens, signed=False)
    return float(alpha), rho_star


def _t_minimize(q_fixed: np.ndarray, logw: np.ndarray, target_mass: float,
                domain: ExteriorDomain, include_energy: bool,
                tol: float, max_iter: int
                ) -> tuple[np.ndarray, np.ndarray | None, float, float, int]:
    """Entropic mirror descent for min_nu E(q_fixed+nu) + ent[nu|w].

    nu lives on exterior cells with exact mass target_mass (renormalized
    every step). The iterate is kept as log nu on the cells where w > 0
    (elsewhere nu must vanish), so every array stays finite. The gradient
    in log coordinates is log nu - log w + 1 + 2 h, so the mirror-descent
    target is log w - 1 - 2 h.
    Returns (nu_full, h, objective, kkt_residual, iterations), where h is
    the potential of q_fixed + nu_full (None without the energy term).
    """
    ker = grid_kernel(domain.layout)
    dv = domain.layout.cell_volume
    flat_idx = np.flatnonzero(domain.exterior_mask.ravel())
    logw_ext = logw.ravel()[flat_idx]
    keep = np.isfinite(logw_ext)
    if not np.any(keep):
        raise ValueError("dilated measure vanishes on the whole exterior")
    flat_idx = flat_idx[keep]
    logw_c = logw_ext[keep]
    log_mass = np.log(target_mass)

    def evaluate(Lv):
        nu_c = np.exp(Lv)
        nu = np.zeros(domain.layout.density.shape)
        nu.flat[flat_idx] = nu_c
        val = float(np.sum(nu_c * (Lv - logw_c)) * dv)
        h = None
        if include_energy:
            q = q_fixed + nu
            h = ker.potential(q)
            val += float(np.sum(q * h) * dv)
        return val, (nu, h)

    def target(aux):
        t = logw_c - 1.0
        if include_energy:
            t = t - 2.0 * aux[1].ravel()[flat_idx]
        return t

    def kkt(Lv, aux):
        g = Lv - target(aux)
        wts = np.exp(Lv - Lv.max())
        gbar = float(np.sum(g * wts) / np.sum(wts))
        live = wts > 1e-15
        return float(np.max(np.abs(g[live] - gbar)))

    L, aux, obj, it = _mirror_descent(
        _log_normalize(logw_c, dv, log_mass), evaluate, target,
        lambda Lv: _log_normalize(Lv, dv, log_mass), kkt,
        tol, max_iter, s_min=1e-7, s_max=2.0, grow=1.5)
    return aux[0], aux[1], obj, kkt(L, aux), it


def t_rate(mu: GridMeasure, params, thermal_sol, domain: ExteriorDomain,
           include_energy: bool = True,
           tol: float = 1e-8, max_iter: int = 2000) -> RateReport:
    """T(mu) = min_nu E(mu + nu - w) + ent[nu|w] with |nu| = |w| - |mu|.

    w is the thermal measure dilated by N^lambda (params supplies N and lam).
    The report's value is T; extras carry the energy/entropy split and, for
    a quadratic potential, the script variant T + ent[mu | mu_v0 1_window]
    with mu_v0 its equilibrium density. ``include_energy=False`` drops the
    quadratic term, which reduces the problem to the closed-form kappa
    minimizer (used as an oracle in tests). A dilated thermal mass off
    N^(lambda d) by over 0.1% warns, blaming truncation when the truncation
    box pulled back by N^-lambda holds under 99.9% of the thermal mass.
    """
    N, lam = float(params.N), float(params.lam)
    w, logw = blowup_on_domain(thermal_sol, N, lam, domain)
    dv = domain.layout.cell_volume
    total = float(N ** (lam * domain.d))
    covered = float(np.sum(w) * dv)
    if abs(covered / total - 1.0) > 1e-3:
        held = box_mass(thermal_sol.measure,
                        domain.truncation.scaled(N ** -lam))
        cause = ("truncation drops part of it; enlarge the truncation factor"
                 if held < 0.999 else "the gap is the nearest-cell "
                 "resampling of the thermal lattice onto the rate lattice")
        warnings.warn(f"the rate lattice carries {covered / total:.3%} of "
                      "the dilated thermal mass N^(lambda d); the truncation "
                      f"box holds {held:.3%} of the thermal mass, so {cause}")
    mu_mass = mass(mu)
    target = covered - mu_mass
    if target <= 0:
        raise ValueError("window mass exceeds the dilated thermal mass")

    q_fixed = domain.embed(mu) - w
    nu, h, obj, kkt, it = _t_minimize(
        q_fixed, logw, target, domain, include_energy, tol, max_iter)

    ker = grid_kernel(domain.layout)
    q = q_fixed + nu
    # the minimizer's own potential: the same floats as ker.energy(q)
    energy_term = (ker.energy(q) if h is None
                   else float(np.sum(q * h) * ker.cell_volume))
    extras = {"energy_term": energy_term,
              "entropy_term": obj - (energy_term if include_energy else 0.0)}

    if getattr(thermal_sol.potential, "kind", None) == "quadratic":
        mu_v0 = thermal_sol.potential.equilibrium_density(domain.d)
        ref = GridMeasure.uniform(domain.interior, mu.cells_per_axis,
                                  value=float(mu_v0))
        extras["t_script"] = obj + relative_entropy(mu, ref)
        extras["mu_v0"] = float(mu_v0)
    minimizer = domain.exterior_measure(nu)
    return RateReport(functional="T", value=obj, minimizer=minimizer,
                      iterations=it, kkt_residual=kkt,
                      mass_error=abs(float(np.sum(nu) * dv) - target),
                      extras=extras)

