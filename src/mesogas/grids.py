"""Measures on boxes (grid densities, atomic configurations) and operations.

Two concrete measure types cover everything the laboratory needs:

* ``GridMeasure`` -- a (possibly signed) density that is piecewise constant on
  a regular lattice over an open box. All integrals are exact cellwise sums.
  It is ``signed`` when a cell is negative or when built with ``signed=True``;
  ``with_density`` decides the flag from the new density alone.
* ``AtomicMeasure`` -- a finite point configuration with one common weight.

Geometric conventions:

* boxes are open, ``box(x, R) = x + (-R, R)^d``, with *geometric* volume
  ``prod(2R)``. (Some asymptotic mass bookkeeping in the literature writes
  ``R^d`` times a density for this window's mass; we use the geometric volume
  everywhere and the discrepancy is a constant ``2^d`` absorbed by limits.)
* membership is strict; a grid cell belongs to a box iff its center does.
* dilation by ``x`` maps ``mu`` to ``mu^x(U) = x^d mu(U/x)``: the support
  scales by ``x``, density values are unchanged, mass scales by ``x^d``.
  ``dilate`` and ``measure_to_json`` take grid measures only.
* ``0 * log 0 = 0`` in every entropy.

The bounded-Lipschitz distance is computed exactly on the discrete support
(union of atoms and cell centers) as a min-cost-flow linear program; callers
pick the resolution they can afford.

Importing this module loads numpy alone. The LP stack (the HiGHS binding
and the compiled kernel of ``scipy.spatial.distance.cdist``) loads on the
first call of ``_lp_stack``, as two bare compiled modules: their packages,
``scipy.optimize`` and ``scipy.spatial``, would bring ``scipy.sparse``,
``scipy.linalg`` and ``scipy.special`` with them, about 0.6 s of start-up
on a shared 2-CPU VM against about 10 ms for the two modules.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Box:
    """Open axis-aligned box given by center and per-axis half width."""

    center: np.ndarray
    half_width: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        h = np.atleast_1d(np.asarray(self.half_width, dtype=float))
        if h.shape != c.shape:
            h = np.broadcast_to(h, c.shape).copy()
        if np.any(h <= 0):
            raise ValueError("box half widths must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "half_width", h)

    @property
    def d(self) -> int:
        return self.center.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(2.0 * self.half_width))

    @property
    def low(self) -> np.ndarray:
        return self.center - self.half_width

    @property
    def high(self) -> np.ndarray:
        return self.center + self.half_width

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all(np.abs(pts - self.center) < self.half_width, axis=1)

    def scaled(self, x: float) -> "Box":
        return Box(self.center * x, self.half_width * x)

    def same_geometry(self, other: "Box", tol: float = 1e-12) -> bool:
        return (
            self.d == other.d
            and bool(np.all(np.abs(self.center - other.center) <= tol))
            and bool(np.all(np.abs(self.half_width - other.half_width) <= tol))
        )

    def to_json(self) -> dict:
        return {"center": self.center.tolist(), "half_width": self.half_width.tolist()}

    @staticmethod
    def cube(center, R: float) -> "Box":
        c = np.atleast_1d(np.asarray(center, dtype=float))
        return Box(c, np.full(c.shape[0], float(R)))


def _lattice_centers(low: np.ndarray, spacing: np.ndarray, n: int) -> np.ndarray:
    """(n^d, d) centers of an n-per-axis lattice, row-major cell order."""
    axes = [low[k] + (np.arange(n) + 0.5) * spacing[k] for k in range(len(low))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GridMeasure:
    """Piecewise-constant density on a regular lattice over an open box."""

    box: Box
    cells_per_axis: int
    density: np.ndarray
    signed: bool = False

    def __post_init__(self):
        n = int(self.cells_per_axis)
        d = self.box.d
        rho = np.asarray(self.density, dtype=float)
        if rho.size != n ** d:
            raise ValueError("density size does not match cells_per_axis^d")
        rho = rho.reshape((n,) * d)
        object.__setattr__(self, "cells_per_axis", n)
        object.__setattr__(self, "density", rho)
        object.__setattr__(self, "signed", bool(self.signed or np.any(rho < 0)))

    # -- geometry -----------------------------------------------------------

    @property
    def d(self) -> int:
        return self.box.d

    @property
    def spacing(self) -> np.ndarray:
        return 2.0 * self.box.half_width / self.cells_per_axis

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def cell_diagonal(self) -> float:
        return float(np.linalg.norm(self.spacing))

    def cell_centers(self) -> np.ndarray:
        return _lattice_centers(self.box.low, self.spacing, self.cells_per_axis)

    def cell_index(self, points: np.ndarray) -> np.ndarray:
        """Flat row-major index of the cell containing each point, -1 outside."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rel = (pts - self.box.low) / self.spacing
        idx = np.floor(rel).astype(np.int64)
        inside = np.all((idx >= 0) & (idx < self.cells_per_axis), axis=1)
        flat = np.zeros(pts.shape[0], dtype=np.int64)
        mult = 1
        for k in range(self.d - 1, -1, -1):
            flat += idx[:, k] * mult
            mult *= self.cells_per_axis
        flat[~inside] = -1
        return flat

    def density_at(self, points: np.ndarray, fill: float = 0.0) -> np.ndarray:
        flat = self.cell_index(points)
        out = np.full(flat.shape[0], fill, dtype=float)
        ok = flat >= 0
        out[ok] = self.density.ravel()[flat[ok]]
        return out

    def same_lattice(self, other: "GridMeasure") -> bool:
        return (self.cells_per_axis == other.cells_per_axis
                and self.box.same_geometry(other.box, 1e-10))

    # -- new densities on the same lattice ----------------------------------

    def _check_lattice(self, other: "GridMeasure"):
        if not self.same_lattice(other):
            raise ValueError("grid measures live on different lattices")

    def with_density(self, rho: np.ndarray) -> "GridMeasure":
        """`rho` on this lattice, signed exactly when a cell is negative."""
        return replace(self, density=rho, signed=False)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def uniform(box: Box, cells_per_axis: int, value: float = 1.0) -> "GridMeasure":
        n = int(cells_per_axis)
        rho = np.full((n,) * box.d, float(value))
        return GridMeasure(box, n, rho)

    @staticmethod
    def zeros(box: Box, cells_per_axis: int) -> "GridMeasure":
        return GridMeasure.uniform(box, cells_per_axis, 0.0)

    @staticmethod
    def from_function(box: Box, cells_per_axis: int, fn) -> "GridMeasure":
        n = int(cells_per_axis)
        tmp = GridMeasure.zeros(box, n)
        vals = np.asarray(fn(tmp.cell_centers()), dtype=float).reshape((n,) * box.d)
        return GridMeasure(box, n, vals)


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finite configuration of equal-weight atoms."""

    points: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weight", float(self.weight))

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]


Measure = GridMeasure | AtomicMeasure


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def mass(m: Measure) -> float:
    if isinstance(m, GridMeasure):
        return float(m.density.sum() * m.cell_volume)
    return float(m.count * m.weight)


def relative_entropy(m: GridMeasure, ref: GridMeasure) -> float:
    """ent[mu|nu] = integral of log(dmu/dnu) dmu; +inf off the reference."""
    m._check_lattice(ref)
    rho, sig = m.density, ref.density
    if np.any(rho < 0) or np.any(sig < 0):
        raise ValueError("relative entropy requires nonnegative densities")
    pos = rho > 0
    if np.any(sig[pos] == 0):
        return np.inf
    return float(np.sum(rho[pos] * np.log(rho[pos] / sig[pos])) * m.cell_volume)


def dilate(m: GridMeasure, x: float) -> GridMeasure:
    """mu^x(U) = x^d mu(U/x); support scales by x, mass by x^d."""
    if x <= 0:
        raise ValueError("dilation factor must be positive")
    return GridMeasure(m.box.scaled(x), m.cells_per_axis, m.density.copy())


def box_mass(m: GridMeasure, box: Box) -> float:
    """Exact integral of the piecewise-constant density over `box`.

    Cells straddling the boundary count with their true overlap fraction,
    so the result varies smoothly as the box moves or scales. The box may
    extend past the lattice; the density is zero there.
    """
    if box.d != m.box.d:
        raise ValueError("dimension mismatch")
    total = np.asarray(m.density, dtype=float)
    for axis in range(m.box.d):
        edges = m.box.low[axis] + m.spacing[axis] * np.arange(m.cells_per_axis + 1)
        lo = np.maximum(edges[:-1], box.low[axis])
        hi = np.minimum(edges[1:], box.high[axis])
        overlap = np.clip(hi - lo, 0.0, None)
        total = np.tensordot(total, overlap, axes=([0], [0]))
    return float(total)


def resample(m: GridMeasure, box: Box, cells_per_axis: int) -> GridMeasure:
    """Sample the piecewise-constant density at the centers of a new lattice."""
    out = GridMeasure.zeros(box, cells_per_axis)
    vals = m.density_at(out.cell_centers(), fill=0.0)
    return out.with_density(vals.reshape(out.density.shape))


def _site_list(m: Measure) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(m, GridMeasure):
        w = m.density.ravel() * m.cell_volume
        keep = w != 0.0
        return m.cell_centers()[keep], w[keep]
    return m.points, np.full(m.count, m.weight)


def _lp_stack():
    """The LP stack for ``bl_distance``: (HiGHS core module, cdist).

    The HiGHS module is scipy's own binding of the solver,
    ``scipy.optimize._highspy._core`` (scipy >= 1.15), and cdist is
    ``scipy.spatial._distance_pybind.cdist_euclidean``, the kernel that
    ``scipy.spatial.distance.cdist`` calls for the Euclidean metric, with
    the same result bit for bit. Both compiled modules are loaded without
    their packages' imports (``kernels._scipy_extension``); this is the one
    place they are named. ``cli.load_config`` calls it too, for a config
    whose run solves a BL LP, so that start-up pays for the load and forked
    sweep helpers inherit the loaded modules.
    """
    highs = kernels._scipy_extension("scipy.optimize._highspy._core")
    distance = kernels._scipy_extension("scipy.spatial._distance_pybind")
    return highs, distance.cdist_euclidean


def bl_distance(a: Measure, b: Measure, max_sites: int = 4000) -> float:
    """Bounded-Lipschitz distance sup{ integral f d(a-b) : |f|<=1, Lip(f)<=1 }.

    Exact on the union of the two supports, solved as the dual of the LP in
    the site values of f: a min-cost flow with one balance row per site.
    Mass w_i = (a - b)({x_i}) leaves each source (w > 0) along arcs of cost
    |x_i - x_j| to sinks (w < 0), or goes to a ground node at cost 1; each
    sink takes what it lacks from ground at cost 1. The cost min(|x - y|, 2)
    with ground at distance 1 is a metric, so a flow through an intermediate
    site, or from source to source, shortcuts at no extra cost, and an arc of
    length >= 2 is never cheaper than two trips through ground. Source->sink
    arcs shorter than 2 and the ground columns therefore carry the optimum.

    The LP goes to HiGHS's dual simplex as column-wise arrays, in one call
    of the binding's array ``passModel``; the README's benchmark section
    has the gain over ``linprog`` and a ``HighsLp``. A model it rejects
    raises ``RuntimeError``, since ``run`` would then report 0 or crash.

    During ``run`` HiGHS's copy of the model is the only one: ``start`` and
    ``index`` are filled in place as the int32 the binding takes without a
    copy, cdist's matrix and the arc indices go before ``passModel`` and
    the column arrays after it, so what stays grows with the sites alone:
    about 40 KB traced on the 536-site LP, against 4.4 MB before; a call's
    peak RSS fell by 11-18 MB at 985-1,112 sites in the same time.

    HiGHS runs without presolve, which cannot reduce this LP (each column
    has one or two unit entries in distinct rows and a positive cost; it
    logs "Not reduced") and costs about as much as the solve after it.
    """
    pa, wa = _site_list(a)
    pb, wb = _site_list(b)
    # merge coincident sites: their masses cancel before any transport
    pts, site = np.unique(np.vstack([pa, pb]), axis=0, return_inverse=True)
    w = np.bincount(site.ravel(), weights=np.concatenate([wa, -wb]),
                    minlength=pts.shape[0])
    nz = w != 0.0
    pts, w = pts[nz], w[nz]
    n = pts.shape[0]
    if n == 0:
        return 0.0
    if n > max_sites:
        raise ValueError(
            f"bl_distance: {n} sites exceed max_sites={max_sites}; "
            "coarsen the measures or raise the cap")
    highs, cdist = _lp_stack()
    src, snk = np.flatnonzero(w > 0.0), np.flatnonzero(w < 0.0)
    dd = cdist(pts[src], pts[snk])
    i, j = np.nonzero(dd < 2.0)
    m = i.size
    cost = np.concatenate([dd[i, j], np.ones(n)])
    # arc k is column k, with its two unit rows in ascending order; the
    # ground column of site k is column m + k, with row k alone
    start = np.arange(m + n, dtype=np.int32)
    start += np.minimum(start, m)
    index = np.empty(2 * m + n, dtype=np.int32)
    np.minimum(src[i], snk[j], out=index[0:2 * m:2])
    np.maximum(src[i], snk[j], out=index[1:2 * m:2])
    index[2 * m:] = np.arange(n)
    del dd, i, j
    rhs = np.abs(w)
    dual = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options = {"output_flag": False, "log_to_console": False,
               "presolve": "off", "simplex_strategy": int(dual)}
    solver = highs._Highs()
    for option, value in options.items():
        if solver.setOptionValue(option, value) != highs.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejected option {option}={value!r}")
    # the array overload of C++ Highs::passModel, argument for argument
    passed = solver.passModel(
        m + n,                                  # num_col
        n,                                      # num_row
        2 * m + n,                              # a_num_nz
        int(highs.MatrixFormat.kColwise),       # a_format
        int(highs.ObjSense.kMinimize),          # sense
        0.0,                                    # offset
        cost,                                   # col_cost
        np.zeros(m + n),                        # col_lower
        np.full(m + n, highs.kHighsInf),        # col_upper
        rhs,                                    # row_lower
        rhs,                                    # row_upper
        start,                                  # a_start, no end marker
        index,                                  # a_index
        np.ones(2 * m + n),                     # a_value
        np.zeros(m + n, dtype=np.int32))        # integrality: continuous
    if passed != highs.HighsStatus.kOk:
        raise RuntimeError(f"HiGHS rejected the bl_distance LP: {passed.name}")
    del cost, start, index
    solver.run()
    status = solver.getModelStatus()
    # the ground columns keep the LP feasible and every cost is positive
    if status != highs.HighsModelStatus.kOptimal:  # pragma: no cover
        raise RuntimeError(
            f"bl_distance LP failed: {solver.modelStatusToString(status)}")
    return float(solver.getInfo().objective_function_value)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def measure_to_json(m: GridMeasure) -> dict:
    return {
        "box": m.box.to_json(),
        "cells_per_axis": m.cells_per_axis,
        "density": m.density.ravel().tolist(),
        "signed": bool(m.signed),
    }

