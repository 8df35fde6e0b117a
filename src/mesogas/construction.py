"""Well-separated point configurations approximating a target measure.

The generator tiles the target's box into cubes of side ``eta_bar``, held
as an empty ``grids.GridMeasure`` whose cell j is cube j (``cube_lattice``).
It assigns each cube an integer count by rounding N times its share of the
target mass, and fills each cube with points drawn uniformly from the cube
shrunk by a boundary layer tau_j, rejecting draws that land closer than
tau_j to a point already accepted. With

    tau_j = separation * eta_bar * n_j^(-1/d)

the layer scales like the typical interparticle distance inside the cube, so
placement succeeds for small separation factors. Points in the same cube are
at distance >= tau_j by construction, and points in different cubes are at
distance >= tau_i + tau_j because each respects its own boundary layer; the
global minimum separation is therefore at least min_j tau_j, exactly.

Three certificates accompany a configuration, all computed by ``certify``
in one pass over the once-normalized target:

* proximity: bounded-Lipschitz distance between the empirical measure and
  the (normalized) target;
* energy: the Coulomb energy of (empirical - target), with every atom
  replaced by a uniform ball of radius tau_min/2. The separation guarantees
  make the ball-ball cross terms equal to the raw kernel (Newton), so only
  the self-energies change and the quantity is finite and exactly computable;
* potential: the sup over lattice nodes of |h^(empirical* - target)|, with
  the atoms smeared at the same radius, compared against a bound of the form
  C/(N eta^d) + C eta + c eta^2 whose constants are fitted on calibration
  runs and then held out.

A separate volume estimate quantifies how much product-reference-measure
volume the constrained placement retains, as a per-N log against the
relative-entropy target -ent[target | reference], for a reference on the
target's own lattice: the combinatorial factor is evaluated exactly with
log-gamma, the volume lost to boundary layers and separation balls is
estimated by Monte Carlo, and the finite-N gap between the exact
combinatorics and its large-N limit is reported separately so the deficit
is never hidden inside the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from . import kernels
from .coulomb import (SpaceParams, ball_self_energy, energy_offdiag,
                      potential_field)
from .grids import (AtomicMeasure, Box, GridMeasure, bl_distance, mass,
                    relative_entropy, resample)

# largest BL LP that `certify` solves; above it the target is coarsened
BL_MAX_SITES = 1200


# ---------------------------------------------------------------------------
# tiling
# ---------------------------------------------------------------------------

def cube_lattice(box: Box, cube_size: float) -> GridMeasure:
    """The tiling of a cube-shaped box by cubes of side cube_size, as an
    empty lattice of ``grids``: cube j is cell j."""
    sides = 2.0 * box.half_width
    if np.ptp(sides) > 1e-9 * sides[0]:
        raise ValueError("tiling requires a cube-shaped box")
    m = sides[0] / cube_size
    per_axis = int(round(m))
    if per_axis < 1 or abs(m - per_axis) > 1e-9 * max(m, 1.0):
        raise ValueError(
            f"cube size {cube_size} does not divide the box side {sides[0]}")
    return GridMeasure.zeros(box, per_axis)


def cube_masses(nu: GridMeasure, cubes: GridMeasure) -> np.ndarray:
    """Target mass per cube; each lattice cell counts toward the cube
    holding its center, so the values partition the total mass exactly."""
    idx = cubes.cell_index(nu.cell_centers())
    w = nu.density.ravel() * nu.cell_volume
    out = np.zeros(cubes.density.size)
    ok = idx >= 0
    np.add.at(out, idx[ok], w[ok])
    return out


# ---------------------------------------------------------------------------
# parameters and report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionParams:
    """Inputs of the generator.

    ``target`` is treated as a probability measure (normalized by its mass).
    ``truncate_quantile``, when set, caps the target density at that quantile
    of its positive values and renormalizes before any counting, taming
    targets with extreme peaks; the cap actually applied is recorded in the
    report.
    """

    target: GridMeasure
    N: int
    cube_size: float
    separation: float
    truncate_quantile: float | None = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("need at least one point")
        if not 0.0 < self.separation < 1.0:
            raise ValueError("separation factor must lie in (0, 1)")
        if self.truncate_quantile is not None \
                and not 0.0 <= self.truncate_quantile <= 1.0:
            raise ValueError("truncate_quantile must lie in [0, 1]")
        if np.any(self.target.density < 0):
            raise ValueError("target must be a positive measure")
        if mass(self.target) <= 0:
            raise ValueError("target must carry positive mass")
        cube_lattice(self.target.box, self.cube_size)
        sites = self.N + min(self.target.density.size, 2 ** self.target.d)
        if sites > BL_MAX_SITES:  # certify's coarsest target: 2 cells/axis
            raise ValueError(f"N={self.N} needs a BL LP of at least {sites} "
                             f"sites, above the cap of {BL_MAX_SITES}")

    def effective_target(self) -> tuple[GridMeasure, float | None]:
        """Target after optional quantile truncation, plus the cap used."""
        if self.truncate_quantile is None:
            return self.target, None
        rho = self.target.density
        pos = rho[rho > 0]
        level = float(np.quantile(pos, self.truncate_quantile))
        capped = np.minimum(rho, level)
        total = mass(self.target)
        scale = total / (capped.sum() * self.target.cell_volume)
        return self.target.with_density(capped * scale, signed=False), level


@dataclass
class ConstructionReport:
    """Certified summary of one generated configuration."""

    configuration: AtomicMeasure
    min_separation: float
    tau_min: float
    bl_to_target: float
    energy_gap: float
    max_potential_gap: float
    log_volume_estimate: float = math.nan
    separation_ok: bool = True
    boundary_ok: bool = True
    potential_bound: dict | None = None
    truncation_level: float | None = None
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "points": self.configuration.points.tolist(),
            "weight": self.configuration.weight,
            "min_separation": self.min_separation,
            "tau_min": self.tau_min,
            "bl_to_target": self.bl_to_target,
            "energy_gap": self.energy_gap,
            "max_potential_gap": self.max_potential_gap,
            "log_volume_estimate": self.log_volume_estimate,
            "separation_ok": self.separation_ok,
            "boundary_ok": self.boundary_ok,
            "truncation_level": self.truncation_level,
        }
        if self.potential_bound is not None:
            out["potential_bound"] = self.potential_bound
        if self.extras:
            out["extras"] = self.extras
        return out


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def round_counts(weights: np.ndarray, N: int) -> np.ndarray:
    """Integer counts n_j in {floor(N w_j), ceil(N w_j)} with sum exactly N.

    Cubes ranked by descending fractional part of N w_j receive the
    ceilings; ties break by cube index, so the rounding is deterministic.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must carry positive mass")
    shares = N * w / total
    base = np.floor(shares).astype(np.int64)
    frac = shares - base
    deficit = int(round(N - base.sum()))
    if deficit:
        order = np.argsort(-frac, kind="stable")
        base[order[:deficit]] += 1
    return base


def tau_values(counts: np.ndarray, cube_size: float, separation: float,
               d: int) -> np.ndarray:
    """Boundary-layer/separation radius per cube; zero where the count is."""
    n = np.asarray(counts, dtype=float)
    tau = np.zeros_like(n)
    occ = n > 0
    tau[occ] = separation * cube_size * n[occ] ** (-1.0 / d)
    return tau


def _occupied_cubes(counts: np.ndarray, cubes: GridMeasure,
                    separation: float):
    """Yield (j, n_j, tau_j, center_j, half) for each occupied cube j in
    index order, where half is the half side of cube j shrunk by its
    boundary layer tau_j. Raises on reaching a cube whose layer swallows it
    or whose n_j disjoint balls of radius tau_j/2 cannot fit in it."""
    d, eta = cubes.d, float(cubes.spacing[0])
    taus = tau_values(counts, eta, separation, d)
    centers = cubes.cell_centers()
    ball_volume = SpaceParams(d).ball_volume
    for j in np.flatnonzero(counts > 0):
        n_j, tau = int(counts[j]), taus[j]
        if eta - 2.0 * tau <= 0:
            raise ValueError(
                f"placement infeasible in cube {j}: boundary layer "
                f"{tau:.4g} swallows the cube of side {eta:.4g}; "
                "reduce the separation factor")
        if n_j * (ball_volume * (0.5 * tau) ** d) > (eta - tau) ** d:
            raise ValueError(
                f"placement infeasible in cube {j}: {n_j} disjoint "
                f"balls of radius {0.5 * tau:.4g} cannot fit; "
                "reduce the separation factor")
        yield int(j), n_j, tau, centers[j], 0.5 * eta - tau


def place_points(counts: np.ndarray, cubes: GridMeasure, separation: float,
                 seed: int) -> AtomicMeasure:
    """Sequential rejection placement, cube by cube.

    Each cube uses its own RNG stream derived from (seed, cube index), so
    the output is deterministic and cubes could be filled in any order (or
    in parallel) without changing it. A cube's budget is 100 attempts per
    requested point; exhausting it raises with the same advice as the
    packing pre-check.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (cubes.density.size,):
        raise ValueError("counts do not match the tiling")
    d = cubes.d
    total = int(counts.sum())
    out = np.empty((total, d))
    pos = 0
    for j, n_j, tau, center, half in _occupied_cubes(counts, cubes,
                                                     separation):
        rng = default_rng((seed, j))
        placed = np.empty((n_j, d))
        got = 0
        budget = 100 * n_j
        while got < n_j:
            if budget <= 0:
                raise ValueError(
                    f"placement budget exhausted in cube {j} after accepting "
                    f"{got}/{n_j} points; reduce the separation factor")
            y = center + rng.uniform(-half, half, size=d)
            budget -= 1
            if got == 0 or np.min(
                    np.linalg.norm(placed[:got] - y, axis=1)) >= tau:
                placed[got] = y
                got += 1
        out[pos:pos + n_j] = placed
        pos += n_j
    return AtomicMeasure(points=out, weight=1.0 / max(total, 1))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _normalized(nu: GridMeasure) -> GridMeasure:
    m = mass(nu)
    return nu if abs(m - 1.0) < 1e-12 else nu.with_density(nu.density * (1.0 / m))


def separation_radius(counts: np.ndarray, cube_size: float,
                      separation: float, d: int) -> float:
    """min_j tau_j over occupied cubes: the guaranteed global separation."""
    taus = tau_values(counts, cube_size, separation, d)
    occ = np.asarray(counts) > 0
    if not occ.any():
        return 0.0
    return float(taus[occ].min())


def certify(configuration: AtomicMeasure, nu: GridMeasure, cube_size: float,
            separation: float, bound_constants: tuple[float, float] | None = None,
            truncation_level: float | None = None) -> ConstructionReport:
    """Measure everything the construction promises, for any candidate.

    Exact checks (no tolerance): the global minimum pairwise distance is at
    least min_j tau_j, and every point keeps distance tau_j to its cube's
    boundary, where the counts n_j are read off the configuration itself.
    Quantitative certificates: BL distance to the normalized target (on a
    coarsened lattice when the exact LP would exceed ``BL_MAX_SITES``), the
    energy gap and the sup-node potential gap, optionally compared against
    C/(N eta^d) + C eta + c eta^2 with the given constants. The target is
    normalized once, and both gaps smear the atoms at one radius, tau_min/2
    (a quarter of the target's spacing when tau_min is 0).
    """
    nu = _normalized(nu)
    cubes = cube_lattice(nu.box, cube_size)
    d = cubes.d
    eta = float(cubes.spacing[0])
    pts = configuration.points
    n_pts = configuration.count

    cube_idx = cubes.cell_index(pts)
    counts = np.zeros(cubes.density.size, dtype=np.int64)
    inside = cube_idx >= 0
    np.add.at(counts, cube_idx[inside], 1)
    taus = tau_values(counts, eta, separation, d)
    tau_min = separation_radius(counts, eta, separation, d)

    min_sep = kernels.min_pairwise_distance(np.ascontiguousarray(pts)) \
        if n_pts > 1 else math.inf
    separation_ok = bool(inside.all()) and min_sep >= tau_min

    centers = cubes.cell_centers()
    boundary_ok = bool(inside.all())
    if boundary_ok and n_pts > 0:
        gap_to_wall = 0.5 * eta - np.max(
            np.abs(pts - centers[cube_idx]), axis=1)
        boundary_ok = bool(np.all(gap_to_wall >= taus[cube_idx] - 1e-12))

    # proximity
    bl_nu = nu
    if nu.density.size + n_pts > BL_MAX_SITES:
        budget = max(BL_MAX_SITES - n_pts, 8)
        cpa = max(int(budget ** (1.0 / d)), 2)
        bl_nu = _normalized(resample(nu, nu.box, cpa))
    bl = bl_distance(configuration, bl_nu, max_sites=BL_MAX_SITES)

    # energy: E^{neq}(empirical - nu) plus the smeared atoms' self-energies
    r_s = 0.5 * tau_min if tau_min > 0 else 0.25 * nu.spacing[0]
    e_gap = energy_offdiag(configuration,
                           nu.with_density(-nu.density, signed=True),
                           smear_radius=r_s) \
        + n_pts * configuration.weight ** 2 * ball_self_energy(r_s, d)
    h_gap = potential_field(configuration, nu, smear_radius=r_s) \
        - potential_field(nu, nu)
    max_gap = float(np.max(np.abs(h_gap)))

    bound = None
    if bound_constants is not None:
        C, c_lam = bound_constants
        value = C * (1.0 / (n_pts * eta ** d) + eta) + c_lam * eta ** 2
        bound = {"C": C, "c_lambda": c_lam, "value": value,
                 "satisfied": bool(max_gap <= value)}

    return ConstructionReport(
        configuration=configuration,
        min_separation=float(min_sep),
        tau_min=float(tau_min),
        bl_to_target=float(bl),
        energy_gap=float(e_gap),
        max_potential_gap=max_gap,
        separation_ok=separation_ok,
        boundary_ok=boundary_ok,
        potential_bound=bound,
        truncation_level=truncation_level,
        extras={"counts_nonzero": int(np.count_nonzero(counts)),
                "smear_radius": r_s, "cube_size": eta},
    )


def fit_potential_bound(records) -> tuple[float, float]:
    """Fit (C, c_lambda) so that gap <= C (1/(N eta^d) + eta) + c_lambda eta^2.

    ``records`` holds (N, eta, measured_gap) triples from calibration runs.
    A nonnegative least-squares fit sets the shape; the result is then
    scaled up so the bound envelopes every calibration point, which makes
    the held-out comparison a genuine certificate rather than a regression.
    """
    rows = [(float(n), float(e), float(g)) for n, e, g in records]
    if len(rows) < 2:
        raise ValueError("need at least two calibration records")
    A = np.array([[1.0 / (n * e ** 3) + e, e ** 2] for n, e, _ in rows])
    y = np.array([g for _, _, g in rows])
    from scipy.optimize import nnls
    coef, _ = nnls(A, y)
    if np.all(coef == 0):
        coef = np.array([y.max(), 0.0])
    pred = A @ coef
    ok = pred > 0
    scale = float(np.max(y[ok] / pred[ok])) if ok.any() else 1.0
    coef = coef * max(scale, 1.0)
    return float(coef[0]), float(coef[1])


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

@dataclass
class VolumeEstimate:
    """Per-N log-volume of the constrained placements, with its anatomy.

    log_volume_per_N = multinomial_per_N + separation_loss_per_N. The
    multinomial term is exact (log-gamma); its deviation from the Sanov
    evaluation of the same count histogram is the finite-N combinatorial
    gap, reported as stirling_gap_per_N (nonpositive).
    """

    log_volume_per_N: float
    target: float
    multinomial_per_N: float
    stirling_gap_per_N: float
    separation_loss_per_N: float


def volume_estimate(nu: GridMeasure, mu_ref: GridMeasure, N: int,
                    cube_size: float, separation: float, trials: int,
                    seed: int) -> VolumeEstimate:
    """Estimate (1/N) log of the reference-product volume of the placements.

    The combinatorial factor N! / prod n_j! times prod mu_ref(K_j)^{n_j}
    is evaluated exactly. The volume each cube loses to its boundary layer
    and to the sequential separation balls is estimated by Monte Carlo:
    within a trial the points are placed sequentially and the admissible
    fraction before each placement is measured with 128 uniform probes. The
    reference lives on the target's lattice and is assumed close to
    constant within cubes (the volume sees its cube masses only).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    probes = 128
    if not mu_ref.same_lattice(nu):
        raise ValueError("reference must live on the target's lattice")
    nu = _normalized(nu)
    cubes = cube_lattice(nu.box, cube_size)
    d, eta = cubes.d, float(cubes.spacing[0])
    counts = round_counts(cube_masses(nu, cubes), N)
    q = cube_masses(mu_ref, cubes)
    q = q / q.sum()

    occ = counts > 0
    if np.any(q[occ] <= 0):
        raise ValueError("reference mass vanishes on a cube that needs points")
    log_factorials = np.array([math.lgamma(c + 1.0) for c in counts])
    log_multi = float(math.lgamma(N + 1.0) - log_factorials.sum()
                      + (counts[occ] * np.log(q[occ])).sum())
    p = counts / N
    sanov = float(-(p[occ] * np.log(p[occ] / q[occ])).sum())

    rng = default_rng(seed)
    loss = 0.0
    for _, n_j, tau, center, half in _occupied_cubes(counts, cubes,
                                                     separation):
        loss += n_j * d * math.log(2.0 * half / eta)
        if n_j == 1:
            continue
        per_trial = np.zeros(trials)
        for t in range(trials):
            placed = np.empty((n_j, d))
            placed[0] = center + rng.uniform(-half, half, size=d)
            acc = 0.0
            for pth in range(1, n_j):
                cand = center + rng.uniform(-half, half, size=(probes, d))
                dist = np.linalg.norm(
                    cand[:, None, :] - placed[None, :pth, :], axis=2)
                ok = np.all(dist >= tau, axis=1)
                frac = ok.mean()
                if frac == 0.0:
                    frac = 0.5 / probes
                    cand_ok = center + rng.uniform(-half, half, size=d)
                else:
                    cand_ok = cand[np.flatnonzero(ok)[0]]
                acc += math.log(frac)
                placed[pth] = cand_ok
            per_trial[t] = acc
        loss += float(per_trial.mean())

    multinomial_per_N = log_multi / N
    sep_loss_per_N = loss / N
    return VolumeEstimate(
        log_volume_per_N=multinomial_per_N + sep_loss_per_N,
        target=float(-relative_entropy(nu, _normalized(mu_ref))),
        multinomial_per_N=multinomial_per_N,
        stirling_gap_per_N=multinomial_per_N - sanov,
        separation_loss_per_N=sep_loss_per_N,
    )


# ---------------------------------------------------------------------------
# one-call pipeline
# ---------------------------------------------------------------------------

def construct(params: ConstructionParams, seed: int,
              bound_constants: tuple[float, float] | None = None,
              volume_trials: int = 0) -> ConstructionReport:
    """Counts, placement, and certification in one call.

    ``volume_trials > 0`` additionally runs the Monte-Carlo volume estimate
    against the target's own box-uniform reference and stores the per-N log
    in the report.
    """
    target, level = params.effective_target()
    cubes = cube_lattice(target.box, params.cube_size)
    counts = round_counts(cube_masses(target, cubes), params.N)
    config = place_points(counts, cubes, params.separation, seed)
    report = certify(config, target, params.cube_size, params.separation,
                     bound_constants=bound_constants,
                     truncation_level=level)
    if volume_trials > 0:
        ref = GridMeasure.uniform(target.box, target.cells_per_axis,
                                  1.0 / target.box.volume)
        est = volume_estimate(target, ref, params.N, params.cube_size,
                              params.separation, volume_trials, seed + 1)
        report.log_volume_estimate = est.log_volume_per_N
        report.extras["volume"] = {
            "target": est.target,
            "multinomial_per_N": est.multinomial_per_N,
            "stirling_gap_per_N": est.stirling_gap_per_N,
            "separation_loss_per_N": est.separation_loss_per_N,
        }
    return report
