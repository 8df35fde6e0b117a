"""Solver and sampler outputs pinned to recorded values.

Each solver is deterministic, so a refactor that keeps its arithmetic keeps
these numbers to the last few bits; 1e-10 relative leaves room only for
reassociated floating-point sums. Metropolis chains are pinned exactly:
their accept decisions, and so every later state, would drift with any
change to the step arithmetic. The FFT lattice potential is pinned exactly
too: it feeds every solver, and its float order is part of their outputs.
"""

import csv
import hashlib
import io
import json
import math
import warnings
from contextlib import redirect_stderr

import numpy as np
import pytest

from mesogas.cli import main
from mesogas.construction import ConstructionParams, construct
from mesogas.coulomb import (GridKernel, default_smear_radius, grid_kernel,
                             potential_at_points, potential_field)
from mesogas.equilibrium import (Potential, solve_equilibrium, solve_thermal,
                                 thermal_box)
from mesogas.grids import Box, GridMeasure
from mesogas.rates import ExteriorDomain, blowup_on_domain, phi_rate, t_rate
from mesogas.sampler import RegimeParams, gibbs_sample
from test_cli import base_config

REL = 1e-10


def test_solve_equilibrium_pinned(quad):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve_equilibrium(quad, Box.cube(np.zeros(3), 1.3), 16, tol=1e-5)
    assert sol.k == pytest.approx(2.9946023211413912, rel=REL)
    assert sol.objective == pytest.approx(1.794614390507689, rel=REL)


def test_solve_thermal_pinned(thermal):
    sol = thermal(64, cells=16)
    assert sol.k == pytest.approx(2.846207981693091, rel=REL)


@pytest.fixture(scope="module")
def sweep_t_instance(quad):
    """The sweep_energy instance of the benchmark at N = 64: the arguments
    of its t_rate call."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # gamma = 0.3 is exploratory
        params = RegimeParams(64, 0.3, 0.05)
    th = solve_thermal(quad, 64, params.beta, cells_per_axis=16, tol=1e-8)
    domain = ExteriorDomain.build(params.window, 8, 4)
    mu = GridMeasure.uniform(params.window, 8, 0.1)
    return mu, params, th, domain


@pytest.fixture(scope="module")
def sweep_t_rate(sweep_t_instance):
    return t_rate(*sweep_t_instance, tol=1e-7)


def test_t_rate_pinned(sweep_t_rate):
    assert sweep_t_rate.value == pytest.approx(1.7056743281602564, rel=REL)


def test_t_rate_energy_term_pinned(sweep_t_instance, sweep_t_rate):
    """The energy term is formed from the potential of the last accepted
    mirror-descent step, on the 20-cell cube that T solves on, so it is the
    float that cube's GridKernel.energy gives, to the last bit. The whole
    32-cell lattice's GridKernel.energy of the same charge agrees to
    rounding: the charge vanishes outside the cube."""
    assert sweep_t_rate.extras["energy_term"] == 0.18293761164990305
    mu, params, th, domain = sweep_t_instance
    w, _ = blowup_on_domain(th, params.N, params.lam, domain)
    q = domain.embed(mu) - w + sweep_t_rate.minimizer.density
    assert sweep_t_rate.extras["energy_term"] == pytest.approx(
        grid_kernel(domain.layout).energy(q), rel=1e-14)


def test_t_rate_never_transforms_the_whole_lattice(sweep_t_instance,
                                                   monkeypatch):
    """A guard on the size of T's transforms, with no timing in it: every
    kernel t_rate builds is at most the 20-cell cube that holds the window
    and the dilated thermal box, never the 32-cell lattice."""
    sizes = []
    build = GridKernel.__init__

    def counting(self, cells_per_axis, spacing, d):
        sizes.append(cells_per_axis)
        build(self, cells_per_axis, spacing, d)

    monkeypatch.setattr(GridKernel, "__init__", counting)
    rep = t_rate(*sweep_t_instance, tol=1e-7)
    assert sizes and max(sizes) <= 20, sizes
    assert rep.extras["solve_cells"] == 20


def test_phi_rate_pinned():
    alpha = 3.0 / (4.0 * math.pi)
    window = Box.cube(np.zeros(3), 1.0)
    domain = ExteriorDomain.build(window, 4, 4)
    mu = GridMeasure.from_function(
        window, 4, lambda x: alpha * (1.0 + 0.5 * np.prod(np.cos(x), axis=1)))
    rep = phi_rate(mu, alpha, domain, tol=1e-10)
    assert rep.value == pytest.approx(0.09054999632517027, rel=REL)


def _potential_digest(ker: GridKernel) -> str:
    rng = np.random.default_rng(2026)
    h = ker.potential(rng.standard_normal(ker.shape))
    return hashlib.sha256(h.tobytes()).hexdigest()


def _sweep_energy_layout() -> GridMeasure:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # gamma = 0.3 is exploratory
        params = RegimeParams(64, 0.3, 0.05)
    return ExteriorDomain.build(params.window, 8, 4).layout


def test_grid_potential_pinned_on_t_rate_lattice():
    """The 32 cells of sweep_energy's 4x truncation box at N = 64 (a 63^3
    padded transform), the lattice phi_rate solves on."""
    assert _potential_digest(grid_kernel(_sweep_energy_layout())) == (
        "35af7e4ec7bc6bcba6987c7384ea54e16e48c72c55de8695e352dda4d5221cc4")


def test_grid_potential_pinned_on_t_rate_cube():
    """The 20-cell cube of that lattice that T solves on at N = 64 (a 40^3
    padded transform), built from the lattice's spacing."""
    layout = _sweep_energy_layout()
    assert _potential_digest(GridKernel(20, layout.spacing, 3)) == (
        "210368d117c8a24ab304ff6310d9d739eaba508c0ea3db68a90ad2b4eee95bce")


def test_grid_potential_pinned_on_criterion_1_lattice(quad):
    """The 48-cell thermal lattice of acceptance criterion 1 at N = 64
    (a 96^3 padded transform)."""
    box = thermal_box(quad, 64, 64.0 ** -0.3, 3)
    assert _potential_digest(grid_kernel(GridMeasure.zeros(box, 48))) == (
        "7a840b5f8b04cf239e9bcc532ca96621e06bdff16a0c8206fffc2b5bb303c38d")


def test_smeared_potential_pinned_on_criterion_1_lattice(quad):
    """potential_at_points on the 48-cell thermal lattice of acceptance
    criterion 1 at N = 64, at the default smear radius, for 64 points
    drawn as that criterion draws them; a third of the cells are empty."""
    box = thermal_box(quad, 64, 64.0 ** -0.3, 3)
    rng = np.random.default_rng(2026)
    density = rng.uniform(0.0, 1.0, (48,) * 3)
    density[rng.random(density.shape) < 1.0 / 3.0] = 0.0
    hw = 0.9 * box.half_width[0]
    h = potential_at_points(GridMeasure(box, 48, density),
                            rng.uniform(-hw, hw, (64, 3)))
    assert hashlib.sha256(h.tobytes()).hexdigest() == (
        "b2fb61ce81f125ac2d72a8d1a7be766b3589298843485ba3ac3573920c0d46d2")


@pytest.fixture(scope="module")
def construct_report():
    """The construct workload of the benchmark: N = 320 on a 6-cell target,
    cubes of side 0.25, separation 0.2, 4 volume trials, seed 0."""
    box = Box.cube(np.zeros(3), 1.0)
    params = ConstructionParams(
        target=GridMeasure.uniform(box, 6, 1.0 / box.volume), N=320,
        cube_size=0.25, separation=0.2)
    return construct(params, seed=0, volume_trials=4)


def test_construction_placement_pinned(construct_report):
    """Every bit of the placed points: the per-cube RNG streams and the
    order in which the cubes are filled."""
    points = construct_report.configuration.points
    assert hashlib.sha256(points.tobytes()).hexdigest() == (
        "4bd31201c9b0b318fdc772e2e47fb0dc72ebb9c0518472c8a7505bf1ffa85132")


def test_construction_energy_gap_pinned(construct_report):
    assert construct_report.energy_gap == pytest.approx(0.1849626073463101,
                                                        rel=REL)


def test_construction_bl_to_target_pinned(construct_report):
    """The 536-site BL LP; 1e-9 absolute is the benchmark's bl_ tolerance."""
    assert construct_report.bl_to_target == pytest.approx(
        0.22792132064819687, rel=0, abs=1e-9)


def test_construction_outputs_pinned(construct_report):
    """The rest of what the benchmark compares in construction.json."""
    report = construct_report
    assert report.log_volume_estimate == pytest.approx(-2.1144093640931403,
                                                       rel=REL)
    assert report.max_potential_gap == pytest.approx(0.19321956019522213,
                                                     rel=REL)
    assert report.min_separation == pytest.approx(0.04047025630600889,
                                                  rel=REL)
    assert report.tau_min == pytest.approx(0.03968502629920499, rel=REL)


def test_construction_atoms_field_pinned(construct_report):
    """potential_field of the placed atoms on the 6-cell target lattice, at
    the smear radius certify uses and at one cell diagonal."""
    like = GridMeasure.zeros(Box.cube(np.zeros(3), 1.0), 6)
    atoms = construct_report.configuration
    h = hashlib.sha256()
    for radius in (0.5 * construct_report.tau_min,
                   default_smear_radius(like)):
        h.update(potential_field(atoms, like, radius).tobytes())
    assert h.hexdigest() == (
        "0b10bd2d946642d02837cdc1f7f71e0a51379723fed278b23c2f2d3dcab42527")


def _sweep_energy_config():
    """The sweep_energy workload of the benchmark."""
    return {"d": 3, "potential": {"kind": "quadratic", "coef": 1.0},
            "grid": {"N": [16, 32, 64], "gamma": [0.3], "lambda": [0.05]},
            "R": 1.0, "ball": {"type": "energy", "epsilon": 0.5, "k": 0.0},
            "target": {"kind": "uniform", "value": 0.1},
            "solver": {"cells_per_axis": 16, "tol": 1e-8, "window_cells": 8,
                       "exterior_factor": 4},
            "sampler": {"chains": 4, "steps": 2400, "burn_in": 1200},
            "rate": {"functional": "t"}, "seed": 0}


def test_sweep_chain_pinned(quad):
    """Chain 3 of the N = 64 row of sweep_energy at seed 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # gamma = 0.3 is exploratory
        params = RegimeParams(64, 0.3, 0.05)
    states = gibbs_sample(params, quad, 2400, 1200, seed=0, chain_index=3)
    assert [s.accepted for s in states] == [
        768, 801, 838, 870, 897, 924, 950, 980, 1008, 1036, 1063, 1086,
        1114, 1139, 1166, 1200, 1224, 1251, 1262]
    points = np.stack([s.points for s in states]).tobytes()
    assert hashlib.sha256(points).hexdigest() == (
        "799cf269ab7d2a92acafef5cf2c1450f42c91502caf52c37c1d2bbea6e40ae9e")
    assert states[-1].hamiltonian == 7089.39912544931


def _quartic(points):
    return np.einsum("ik,ik->i", points, points) ** 2


@pytest.mark.parametrize("N, potential, chain_index, digest", [
    (1, "quadratic", 7,
     "c8ffb48c8da2a2277e874174dfa23600f2314e41110089c34e25f996d6f1dea7"),
    (1, "quadratic", range(3),
     "67faf1919a9bf28cee04be2c4275d37ecb0d4d42d4e2025eb30470cc64726d44"),
    (1, "quartic", 7,
     "693f34fada4673925a5cbea6627f13bc4d44f5a04137e9616b53acc33a51c462"),
    (1, "quartic", range(3),
     "1972b26914b8e664afdd74aef71cb9ebdc11cf9bd1ef8531a03bd1e329564eb6"),
    (2, "quadratic", range(3),
     "f20c131d7578a46d6f0b64e3234484e1cb9a7197889637ca1c540d0e7b4fd2e0")],
    ids=["N1-quadratic", "N1-quadratic-lockstep", "N1-quartic",
         "N1-quartic-lockstep", "N2-quadratic-lockstep"])
def test_few_particle_chains_pinned(quad, N, potential, chain_index, digest):
    """At N = 1 there are no pairs, nothing to draw a site from, and every
    proposal is a kernel call of its own; N = 2 has one pair and two sites.
    Pinned: the positions, Hamiltonians and acceptance counts of every
    snapshot, alone and in lockstep, for the quadratic V and a general one."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # lambda = 0.1 is exploratory
        params = RegimeParams(N=N, gamma=0.5, lam=0.1)
    V = quad if potential == "quadratic" else _quartic
    runs = gibbs_sample(params, V, 3000, 300, seed=5, chain_index=chain_index)
    h = hashlib.sha256()
    for states in [runs] if isinstance(chain_index, int) else runs:
        h.update(np.stack([s.points for s in states]).tobytes())
        h.update(np.array([s.hamiltonian for s in states]).tobytes())
        h.update(np.array([s.accepted for s in states]).tobytes())
    assert h.hexdigest() == digest


def _lockstep_digest(runs) -> str:
    h = hashlib.sha256()
    for states in runs:
        h.update(np.stack([s.points for s in states]).tobytes())
        h.update(np.array([s.hamiltonian for s in states]).tobytes())
        h.update(np.array([s.accepted for s in states]).tobytes())
    return h.hexdigest()


def test_four_dimensional_lockstep_chains_pinned(quad):
    """Three chains of N = 8 in d = 4, where each pair distance sums four
    squares: the positions, Hamiltonians and acceptance counts of every
    snapshot."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # lambda = 0.1 is exploratory
        params = RegimeParams(N=8, gamma=0.5, lam=0.1, d=4)
    runs = gibbs_sample(params, quad, 1600, 400, seed=5,
                        chain_index=range(3))
    assert _lockstep_digest(runs) == (
        "4389127455a4b69629be88c001d11ebd3ae81085599ffa4d9dc42a3c054c3e30")


def test_tabulated_potential_chains_pinned(quad):
    """Two chains of N = 8 under a tabulated V, whose box is small enough
    that some proposals leave it: V is called on the moving points, not
    formed from their squared norms."""
    like = GridMeasure.zeros(Box.cube(np.zeros(3), 1.5), 8)
    V = Potential("tabulated", table=like.with_density(quad.on_grid(like)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # gamma = 0.3 is exploratory
        params = RegimeParams(N=8, gamma=0.3, lam=0.05)
    runs = gibbs_sample(params, V, 1600, 400, seed=6, chain_index=range(2))
    assert _lockstep_digest(runs) == (
        "5ec927c6123f699fa08fd843aa45a5a432bbe4d053b3d030360a17eb7ff32fb8")


@pytest.fixture(scope="module")
def sweep_energy_run(tmp_path_factory):
    """The rows of sweep_energy at seed 0, as `mesogas sweep` writes them
    (on a host with two or more CPUs a helper runs some of their stages),
    and what the sweep printed to stderr."""
    out = tmp_path_factory.mktemp("sweep_energy")
    path = out / "config.json"
    path.write_text(json.dumps(_sweep_energy_config()))
    with warnings.catch_warnings(), redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("ignore")
        assert main(["sweep", "--config", str(path),
                     "--out", str(out / "out")]) == 0
    with open(out / "out" / "sweep.csv") as fh:
        return list(csv.DictReader(fh)), err.getvalue()


@pytest.fixture(scope="module")
def sweep_energy_rows(sweep_energy_run):
    return sweep_energy_run[0]


def test_sweep_p_hat_pinned(sweep_energy_rows):
    """The benchmark compares these estimates exactly."""
    p_hat = [float(row["p_hat"]) for row in sweep_energy_rows]
    assert p_hat == [1.0, 1.0, 0.5657894736842105]


def test_sweep_row_columns_pinned(sweep_energy_rows):
    """The standard errors and acceptance rates come from the chains and
    are pinned exactly; the T rate is a solver output."""
    column = {key: [float(row[key]) for row in sweep_energy_rows]
              for key in ("stderr", "acceptance", "rate_value")}
    assert column["stderr"] == [0.0, 0.0, 0.05685528086757625]
    assert column["acceptance"] == [0.3933333333333333, 0.4421875,
                                    0.5246875]
    assert column["rate_value"] == pytest.approx(
        [0.628342280735389, 1.0930169656870037, 1.7056743281602573],
        rel=REL)
    assert [row["error"] for row in sweep_energy_rows] == ["", "", ""]


def test_sweep_notes_rows_without_a_large_deviation(sweep_energy_run):
    """p_hat = 1 at N = 16 and 32: those two rows, and only they, get a
    note."""
    notes = [line for line in sweep_energy_run[1].splitlines()
             if " note: " in line]
    assert notes == [
        f"row (N={n}, gamma=0.3, lambda=0.05) note: p_hat = 1, so the row "
        "measured no large deviation" for n in (16, 32)]


def test_sample_chain_files_pinned(tmp_path):
    """Every byte `mesogas sample` writes for the CLI tests' base config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["sample", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    digest = hashlib.sha256()
    for chain in sorted((tmp_path / "out").glob("chain_*.jsonl")):
        digest.update(chain.read_bytes())
    assert digest.hexdigest() == (
        "f9cb632e6df63ffe0d9a591d63a3f46d094a0e6dd6873b4a8cbc23869061833a")
