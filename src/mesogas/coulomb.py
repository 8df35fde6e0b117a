"""Coulomb kernel g(x) = |x|^(2-d), potentials, energies, and smearing (d >= 3).

Quadrature policy
-----------------
Grid-grid quadratic forms are midpoint cell-to-cell sums with the analytic
kernel. On a regular lattice that sum is a discrete convolution, so it is
evaluated exactly (up to roundoff) with FFTs; ``GridKernel`` caches the
transformed lattice kernel per geometry. The transform is pruned: it runs
only over the 1-D lines that the zero padding leaves non-zero and keeps only
the outputs the caller reads, in pocketfft's own ``rfftn``/``irfftn`` pass
order and with its one final scale, so its output is bit-identical to the
full padded transform. The transforms are calls into scipy's compiled
pocketfft binding, made with the arguments ``scipy.fft`` would pass; the
binding is loaded without ``scipy.fft``'s package imports (about 0.3 s of
start-up, ``kernels._scipy_extension``). The zero-offset coefficient is the
self-interaction of the uniform ball with the cell's volume,

    E(ball of radius a, unit mass) = 2d/(d+2) * a^(2-d),

which keeps the quadratic form positive definite and finite.

Atoms entering any grid form are smeared as uniform balls of radius one cell
diagonal (overridable); by Newton's theorem the smeared kernel

    g_ball(z; r) = |z|^(2-d)                          for |z| >= r
                 = (|z|^2 + d(r^2-|z|^2)/2) / r^d     for |z| <  r

is exact, so no rasterization error enters mixed forms. A grid measure's
field at points and the atoms' field on a lattice are the one smeared sum
``kernels.grid_potential_at_points``, with the cells or the atoms as its
sources. Pure atomic sums are O(N^2) direct evaluations of g;
``energy_offdiag`` adds them to the grid forms as E^{neq}(atoms + grid), for
atoms of either sign.

Sphere smearing (uniform measure on a boundary sphere) has the classical
closed forms  h_shell(z; R) = g(max(|z|, R))  and  E(shell_R) = g(R); two
shells of radius R interact at exactly g(s) once their centers are s >= 2R
apart, and strictly below g(s) when the surfaces intersect (0 < s < 2R).
The smeared energy of an atomic measure is assembled from these shell pairs,
so it is available for sphere smearing only.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels
from .grids import AtomicMeasure, GridMeasure, Measure

# scipy's pocketfft binding, without scipy.fft's package imports
_pocketfft = kernels._scipy_extension("scipy.fft._pocketfft.pypocketfft")


@dataclass(frozen=True)
class SpaceParams:
    """Dimension bookkeeping for the kernel g(x) = |x|^(2-d).

    ``c_d`` is the constant in  Delta g = c_d * delta_0  (negative);
    ``Potential.equilibrium_density`` divides by it.
    """

    d: int

    def __post_init__(self):
        if int(self.d) < 3:
            raise ValueError("the kernel |x|^(2-d) requires d >= 3")
        object.__setattr__(self, "d", int(self.d))

    @property
    def sphere_area(self) -> float:
        """Surface area 2 pi^(d/2) / Gamma(d/2) of the unit sphere S^(d-1).

        Gamma(d/2) takes its closed form: (k-1)! for d = 2k and
        sqrt(pi) (2k)! / (4^k k!) for d = 2k + 1.
        """
        k = self.d // 2
        if self.d % 2 == 0:
            half_gamma = float(math.factorial(k - 1))
        else:
            half_gamma = (math.sqrt(math.pi) * math.factorial(2 * k)
                          / (4 ** k * math.factorial(k)))
        return 2.0 * math.pi ** (self.d / 2.0) / half_gamma

    @property
    def ball_volume(self) -> float:
        """Volume of the unit ball in R^d."""
        return self.sphere_area / self.d

    @property
    def c_d(self) -> float:
        return -(self.d - 2) * self.sphere_area


@dataclass(frozen=True)
class SmearKind:
    """Uniform smearing measure on the sphere of the given radius; 'sphere'
    is the only kind."""

    kind: str
    radius: float

    def __post_init__(self):
        if self.kind != "sphere":
            raise ValueError("smear kind must be 'sphere'")
        if self.radius <= 0:
            raise ValueError("smear radius must be positive")


# ---------------------------------------------------------------------------
# pointwise kernel and analytic potentials
# ---------------------------------------------------------------------------

def g_radial(r, d: int):
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        out = r ** (2.0 - d)
    return out if out.ndim else float(out)


def shell_potential(r, R: float, d: int):
    """Potential of the unit-mass uniform sphere of radius R: g(max(r, R))."""
    r = np.asarray(r, dtype=float)
    out = g_radial(np.maximum(r, R), d)
    return out if np.ndim(out) else float(out)


def ball_potential(r, R: float, d: int):
    """Potential of the unit-mass uniform ball of radius R (Newton)."""
    r = np.asarray(r, dtype=float)
    r2 = r * r
    inside = (r2 + 0.5 * d * (R * R - r2)) / R ** d
    out = np.where(r >= R, g_radial(np.maximum(r, R), d), inside)
    return out if out.ndim else float(out)


def shell_self_energy(R: float, d: int) -> float:
    return float(g_radial(R, d))


def ball_self_energy(R: float, d: int) -> float:
    return 2.0 * d / (d + 2.0) * R ** (2.0 - d)


def cell_self_interaction(cell_volume: float, d: int) -> float:
    """Self-interaction coefficient of one cell: equivalent-volume ball."""
    a = (cell_volume / SpaceParams(d).ball_volume) ** (1.0 / d)
    return ball_self_energy(a, d)


def sphere_average(fn, s: float, r: float, d: int) -> float:
    """Average of the radial function fn(|y|) over the sphere |y - x| = r, |x| = s.

    Uses the cosine-angle density (1-t^2)^((d-3)/2) on [-1, 1].
    """
    if r == 0.0:
        return float(fn(s))
    from scipy.integrate import quad
    norm = quad(lambda t: (1.0 - t * t) ** ((d - 3) / 2.0), -1.0, 1.0)[0]
    val = quad(
        lambda t: fn(math.sqrt(max(s * s + r * r - 2.0 * s * r * t, 0.0)))
        * (1.0 - t * t) ** ((d - 3) / 2.0),
        -1.0, 1.0, limit=200,
    )[0]
    return float(val / norm)


def shell_shell_interaction(s: float, Ra: float, Rb: float, d: int) -> float:
    """Interaction of two unit-mass spheres (radii Ra, Rb) at center distance s.

    Exactly g(s) when s >= Ra + Rb; g(max(Ra, Rb)) at s = 0; a one-dimensional
    quadrature in the intersecting range.
    """
    if s >= Ra + Rb:
        return float(g_radial(s, d))
    if s == 0.0:
        return float(g_radial(max(Ra, Rb), d))
    return sphere_average(lambda rr: shell_potential(rr, Ra, d), s, Rb, d)


# ---------------------------------------------------------------------------
# lattice kernel (FFT-backed quadratic forms)
# ---------------------------------------------------------------------------

def _padded_length(n: int) -> int:
    """Length of each axis of an n-cell lattice's zero-padded convolution:
    ``scipy.fft.next_fast_len(2n - 1)``, pocketfft's complex good size."""
    return _pocketfft.good_size(2 * n - 1, False)


class GridKernel:
    """Midpoint cell-to-cell Coulomb form on one lattice geometry, via FFT.

    potential(rho)[i] = cellvol * sum_j K[i-j] rho[j]   (h includes one cellvol)
    energy(rho)       = cellvol * sum_i rho[i] * potential(rho)[i]
    """

    def __init__(self, cells_per_axis: int, spacing: np.ndarray, d: int):
        n = int(cells_per_axis)
        spacing = np.asarray(spacing, dtype=float)
        self.n = n
        self.spacing = spacing
        self.d = d
        self.cell_volume = float(np.prod(spacing))
        self.shape = (n,) * d
        self._pad = (_padded_length(n),) * d
        offs = []
        for k in range(d):
            m = self._pad[k]
            o = np.zeros(m)
            idx = np.arange(m)
            o[idx <= n - 1] = idx[idx <= n - 1]
            neg = idx >= m - (n - 1)
            o[neg] = idx[neg] - m
            valid = (idx <= n - 1) | neg
            offs.append((o * spacing[k], valid))
        r2 = np.zeros(self._pad)
        valid = np.ones(self._pad, dtype=bool)
        for k in range(d):
            shape1 = [1] * d
            shape1[k] = self._pad[k]
            r2 = r2 + (offs[k][0] ** 2).reshape(shape1)
            valid = valid & offs[k][1].reshape(shape1)
        K = np.zeros(self._pad)
        nz = valid & (r2 > 0)
        K[nz] = r2[nz] ** (0.5 * (2.0 - d))
        K[tuple([0] * d)] = cell_self_interaction(self.cell_volume, d)
        # scipy.fft.rfftn(K): r2c over every axis, unscaled, one thread
        self._Kf = _pocketfft.r2c(K, tuple(range(d)), True, 0, None, 1)
        # the inverse scale pocketfft applies, 1/size rounded via long double
        # (1.0 / size in double differs in the last bit for some sizes)
        self._inv_size = float(1 / np.longdouble(math.prod(self._pad)))

    def potential(self, rho: np.ndarray) -> np.ndarray:
        """Zero-padded convolution of rho with K, pruned to non-zero lines.

        Forward: r2c on the last axis over the n^(d-1) input lines, then c2c
        on axes 0..d-2, each pass only over lines not yet known to be zero.
        Inverse: unscaled c2c on axes 0..d-2 and c2r on the last axis, each
        keeping its first n outputs, then the one 1/size scale. This is
        ``irfftn(rfftn(padded) * Kf)`` restricted to the n^d corner, float
        for float. The pocketfft calls take the arrays, axes, scaling
        (none) and in-place outputs that ``scipy.fft``'s ``rfft``, ``fft``
        (zero-padded to ``n``), ``ifft`` and ``irfft`` would pass them.
        """
        n, last, pad = self.n, self.d - 1, self._pad
        # float64 as in the padded array, even for a float32 rho
        a = _zero_padded(np.asarray(rho, dtype=float), last, pad[-1])
        a = _pocketfft.r2c(a, (last,), True, 0, None, 1)
        for k in range(last):
            a = _zero_padded(a, k, pad[k])
            a = _pocketfft.c2c(a, (k,), True, 0, a, 1)
        a *= self._Kf
        for k in range(last):
            a = _pocketfft.c2c(a, (k,), False, 0, a, 1)
            a = a[(slice(None),) * k + (slice(0, n),)]
        h = _pocketfft.c2r(a, (last,), pad[-1], False, 0, None, 1)[..., :n]
        out = h * self._inv_size
        out *= self.cell_volume
        return out

    @property
    def lipschitz(self) -> float:
        """Largest |eigenvalue| of the padded circulant kernel K.

        potential() is linear with norm at most cell_volume * lipschitz, so
        the gradient of energy() is Lipschitz with 2 cell_volume^2 * lipschitz.
        """
        return float(np.max(np.abs(self._Kf)))

    def energy(self, rho: np.ndarray) -> float:
        return float(np.sum(rho * self.potential(rho)) * self.cell_volume)


def _zero_padded(a: np.ndarray, axis: int, size: int) -> np.ndarray:
    """A new array: `a` followed by zeros up to `size` along `axis`."""
    shape = list(a.shape)
    shape[axis] = size
    out = np.zeros(shape, dtype=a.dtype)
    out[(slice(None),) * axis + (slice(0, a.shape[axis]),)] = a
    return out


_KERNEL_CACHE: dict = {}


def grid_kernel(m: GridMeasure) -> GridKernel:
    key = (m.cells_per_axis, m.d, tuple(np.round(m.spacing, 15)))
    ker = _KERNEL_CACHE.get(key)
    if ker is None:
        ker = GridKernel(m.cells_per_axis, m.spacing, m.d)
        if len(_KERNEL_CACHE) > 32:
            _KERNEL_CACHE.clear()
        _KERNEL_CACHE[key] = ker
    return ker


def dense_kernel_matrix(like: GridMeasure) -> np.ndarray:
    """Dense (ncells, ncells) midpoint kernel matrix; small grids only."""
    centers = like.cell_centers()
    n = centers.shape[0]
    if n > 20000:
        raise ValueError("dense kernel matrix requested for a large grid")
    diff = centers[:, None, :] - centers[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    K = np.zeros((n, n))
    nz = r2 > 0
    K[nz] = r2[nz] ** (0.5 * (2.0 - like.d))
    np.fill_diagonal(K, cell_self_interaction(like.cell_volume, like.d))
    return K


# ---------------------------------------------------------------------------
# fields and energies
# ---------------------------------------------------------------------------

def default_smear_radius(like: GridMeasure) -> float:
    return like.cell_diagonal


def potential_field(atoms: AtomicMeasure, like: GridMeasure,
                    smear_radius: float) -> np.ndarray:
    """h^atoms at the cell centers of `like` (array shaped like its density).

    Each atom is smeared at `smear_radius`, exactly via Newton's theorem;
    radius 0 is the raw kernel. A grid measure's own field on its lattice
    is ``grid_kernel(m).potential(m.density)``.
    """
    # the atoms are the sources, with unit weights scaled by their common one
    return kernels.grid_potential_at_points(
        np.ones(atoms.count), like.cell_axes(), atoms.weight, atoms.points,
        float(smear_radius), float(like.d))


def potential_at_points(m: GridMeasure, points: np.ndarray,
                        smear_radius: float | None = None) -> np.ndarray:
    """h^m at arbitrary points, each evaluation smeared at `smear_radius`.

    `smear_radius=0` evaluates the raw kernel against cell centers. Each
    distinct point is evaluated once (snapshots of one chain share every
    particle that did not move) and its value copied to its repeats.
    """
    radius = default_smear_radius(m) if smear_radius is None else float(smear_radius)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    distinct, inverse = np.unique(pts, axis=0, return_inverse=True)
    out = kernels.grid_potential_at_points(
        m.density, m.cell_axes(), m.cell_volume, distinct, radius, float(m.d))
    # the inverse's shape differs across numpy versions
    return out[inverse.reshape(-1)]


def energy(m: Measure, smear: SmearKind | None = None) -> float:
    """E(m) = double integral of g against m x m, over the whole space.

    Grid measures (signed allowed) evaluate via the lattice form. Raw atomic
    input carries infinite diagonal self-energy: +inf is returned. With a
    `smear`, each atom is replaced by the uniform sphere of that radius and
    the energy is assembled from the closed-form shell pair interactions.
    """
    if isinstance(m, GridMeasure):
        return grid_kernel(m).energy(m.density)
    if smear is None:
        return math.inf
    pts, w, n, R = m.points, m.weight, m.count, smear.radius
    total = n * shell_self_energy(R, m.d)
    for i in range(n):
        for j in range(i + 1, n):
            s = float(np.linalg.norm(pts[i] - pts[j]))
            total += 2.0 * shell_shell_interaction(s, R, R, m.d)
    return float(w * w * total)


def energy_offdiag(configs: Sequence[AtomicMeasure], grid: GridMeasure,
                   smear_radius: float | None = None) -> np.ndarray:
    """E^{neq}(atoms + grid) for each configuration of atoms: the energy
    with atomic self-pairs removed, one entry per configuration.

    The atoms' common weight may be negative: E^{neq}(grid - nu) is the
    entry of ``AtomicMeasure(nu.points, -nu.weight)``. Self-pairs are
    removed for every atom, wherever it lies. Cross terms smear atoms at
    `smear_radius` (default: one cell diagonal of the grid). E(grid) is
    evaluated once, and one potential evaluation covers the atoms of every
    configuration; an empty configuration scores E(grid).
    """
    total = np.zeros(len(configs))
    crossed = []
    for j, a in enumerate(configs):
        if a.count == 0:
            continue
        total[j] = a.weight ** 2 * kernels.pairwise_g_sum(
            np.ascontiguousarray(a.points), float(a.d))
        crossed.append(j)
    total += energy(grid)
    if crossed:
        vals = potential_at_points(
            grid, np.concatenate([configs[j].points for j in crossed]),
            smear_radius=smear_radius)
        start = 0
        for j in crossed:
            part = vals[start:start + configs[j].count]
            total[j] += 2.0 * float(configs[j].weight * np.sum(part))
            start += configs[j].count
    return total


def smeared_energy_bound(m: AtomicMeasure, eps: float) -> tuple[float, float]:
    """Both sides of the sphere-smearing energy bound for the empirical field.

    lhs = (1/N^2) sum_{i != j} g(x_i - x_j)
    rhs = G(phi_eps, phi_eps) - g(eps) * G(lambda_1, lambda_1) / N,

    where phi_eps smears each atom of the empirical measure (weight 1/N) by
    the uniform unit-mass sphere of radius eps and G(lambda_1, lambda_1) =
    E(unit sphere) = 1 in every d >= 3. Always lhs >= rhs; equality holds
    exactly when all pairs are at distance >= 2*eps (the stated sufficient
    condition "eps <= min distance" is loose by the factor 2: intersecting
    spheres interact strictly below g).
    """
    n, d, pts = m.count, m.d, np.ascontiguousarray(m.points)
    lhs = kernels.pairwise_g_sum(pts, float(d)) / n ** 2
    smeared = energy(AtomicMeasure(pts, 1.0 / n), SmearKind("sphere", eps))
    rhs = smeared - shell_self_energy(eps, d) * shell_self_energy(1.0, d) / n
    return float(lhs), float(rhs)
