"""Kernel math: potentials, smearing identities, grid energies, kernels."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.special import gamma

from mesogas import coulomb, kernels
from mesogas.coulomb import (GridKernel, SmearKind, SpaceParams,
                             ball_potential, ball_self_energy,
                             default_smear_radius, dense_kernel_matrix,
                             energy, energy_offdiag, g_radial, grid_kernel,
                             potential_at_points, potential_field,
                             shell_potential,
                             shell_self_energy, shell_shell_interaction,
                             smeared_energy_bound, sphere_average)
from mesogas.grids import AtomicMeasure, Box, GridMeasure


def test_space_params_d3_constants():
    sp = SpaceParams(3)
    assert sp.sphere_area == pytest.approx(4.0 * math.pi)
    assert sp.ball_volume == pytest.approx(4.0 * math.pi / 3.0)
    assert sp.c_d == pytest.approx(-4.0 * math.pi)
    with pytest.raises(ValueError):
        SpaceParams(2)


def test_sphere_area_is_the_gamma_function_form():
    """The closed form of Gamma(d/2) gives scipy.special.gamma's area bit
    for bit at d = 3..6. Up to d = 12 it is within 2 ulp of it and never
    further from the exact area, 2 pi^k / (k-1)! at d = 2k and
    2^(2k+1) pi^k k! / (2k)! at d = 2k + 1, in 60-digit decimals: at d = 9
    scipy's value is 1.94 ulp low, the closed form's 0.06 ulp."""
    pi = Decimal("3.14159265358979323846264338327950288419716939937510582097")
    with localcontext() as ctx:
        ctx.prec = 60
        for d in range(3, 13):
            got = SpaceParams(d).sphere_area
            scipys = 2.0 * math.pi ** (d / 2.0) / gamma(d / 2.0)
            k = d // 2
            exact = (2 * pi ** k / math.factorial(k - 1) if d % 2 == 0 else
                     2 ** (2 * k + 1) * pi ** k * math.factorial(k)
                     / math.factorial(2 * k))
            if d <= 6:
                assert got == scipys, d
            assert abs(got - scipys) <= 2 * math.ulp(scipys), d
            assert abs(Decimal(got) - exact) <= abs(Decimal(scipys) - exact), d


def test_kernel_values():
    assert g_radial(2.0, 3) == pytest.approx(0.5)
    assert g_radial(2.0, 5) == pytest.approx(0.125)
    assert g_radial(np.array([5.0]), 3)[0] == pytest.approx(0.2)


def test_newton_theorem_for_shell_and_ball():
    """Outside the smearing radius both look like a point charge."""
    for r in (0.5, 1.0, 2.5):
        assert shell_potential(max(r, 0.4), 0.4, 3) == pytest.approx(
            g_radial(max(r, 0.4), 3), rel=1e-14)
        assert ball_potential(2.5, 0.4, 3) == pytest.approx(
            g_radial(2.5, 3), rel=1e-14)
    # inside: shell is constant, ball is the parabolic profile at the center
    assert shell_potential(0.1, 0.4, 3) == pytest.approx(g_radial(0.4, 3))
    assert ball_potential(0.0, 1.0, 3) == pytest.approx(1.5)


def test_self_energies_d3():
    assert shell_self_energy(0.5, 3) == pytest.approx(2.0)
    assert ball_self_energy(1.0, 3) == pytest.approx(1.2)
    assert ball_self_energy(0.5, 3) == pytest.approx(2.4)


def test_shell_interaction_far_field_is_exact():
    for s in (1.0, 2.0, 7.5):
        got = shell_shell_interaction(s, 0.3, 0.6, 3)
        assert got == pytest.approx(g_radial(s, 3), rel=1e-13)


def test_shell_interaction_scale_invariance():
    """G at scale R equals g(R) times G at scale one, any separation."""
    sp = 3
    for R in (0.5, 2.0):
        for s_unit in (0.0, 0.4, 1.1, 2.5):
            lhs = shell_shell_interaction(s_unit * R, R, R, sp)
            rhs = g_radial(R, sp) * shell_shell_interaction(s_unit, 1.0, 1.0,
                                                            sp)
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_sphere_average_superharmonic_mean_value():
    """Averaging g over a sphere gives g(max(s, R)) by Newton's theorem."""
    for s, R in ((2.0, 0.5), (0.2, 0.5)):
        avg = sphere_average(lambda rr: g_radial(rr, 3), s, R, 3)
        assert avg == pytest.approx(g_radial(max(s, R), 3), rel=1e-8)


def test_grid_energy_matches_dense_quadratic_form():
    rng = np.random.default_rng(12)
    m = GridMeasure(Box.cube(np.zeros(3), 1.0), 4,
                    rng.uniform(0, 1, (4, 4, 4)))
    K = dense_kernel_matrix(m)
    q = m.density.ravel()
    dense = float(q @ K @ q) * m.cell_volume ** 2
    assert energy(m) == pytest.approx(dense, rel=1e-12)


def test_energy_is_positive_definite():
    rng = np.random.default_rng(13)
    box = Box.cube(np.zeros(3), 1.0)
    for _ in range(10):
        diff = GridMeasure(box, 5, rng.standard_normal((5, 5, 5)), signed=True)
        assert energy(diff) > 0.0


def test_grid_kernel_potential_matches_dense_kernel():
    rng = np.random.default_rng(15)
    m = GridMeasure(Box.cube(np.zeros(3), 1.0), 4,
                    rng.uniform(0, 1, (4, 4, 4)))
    h = grid_kernel(m).potential(m.density)
    K = dense_kernel_matrix(m)
    want = K @ m.density.ravel() * m.cell_volume
    assert np.allclose(np.asarray(h).ravel(), want, rtol=1e-12)


def _padded_convolution(ker: GridKernel, rho: np.ndarray) -> np.ndarray:
    """Oracle: the full zero-padded transform that the pruned one replaces."""
    corner = (slice(0, ker.n),) * ker.d
    pad = np.zeros(ker._pad)
    pad[corner] = rho
    return irfftn(rfftn(pad) * ker._Kf, s=ker._pad)[corner] * ker.cell_volume


def _density(kind: str, shape, rng) -> np.ndarray:
    if kind == "signed":
        return rng.standard_normal(shape)
    if kind == "positive":
        return rng.uniform(0.0, 1.0, shape)
    # a tail that runs through the subnormals down to exact zeros
    return np.exp(-40.0 * rng.uniform(0.0, 20.0, shape))


def _assert_matches_padded_convolution(ker: GridKernel, rho: np.ndarray):
    before = rho.copy()
    got = ker.potential(rho)
    assert np.array_equal(rho, before)        # the caller's rho is untouched
    assert got.shape == rho.shape
    assert np.array_equal(got, _padded_convolution(ker, rho))


def test_pad_is_scipys_next_fast_len():
    """The padded convolution oracle pads to ``ker._pad`` itself, so the
    pad is pinned here: pocketfft's real good size would pad 11 to 12 at
    n = 6 and 63 to 64 at n = 32. Kernels are built up to n = 64 at d = 3
    and n = 16 at d = 4 (a 128^4 kernel would take 2 GB)."""
    for n in range(1, 65):
        assert coulomb._padded_length(n) == next_fast_len(2 * n - 1), n
    for d, top in ((3, 64), (4, 16)):
        for n in range(1, top + 1):
            ker = GridKernel(n, np.full(d, 0.1), d)
            assert ker._pad == (next_fast_len(2 * n - 1),) * d, (d, n)


@pytest.mark.parametrize("d, sizes", [(3, (1, 2, 3, 5, 8, 16, 32)),
                                      (4, (1, 2, 3, 5, 8, 16)),
                                      (5, (1, 2, 3, 5, 8))])
def test_pruned_potential_equals_padded_convolution(d, sizes):
    """Bit for bit, on pads 1, 3, 5, 9, 15, 32 (2n - 1 = 31) and 63."""
    rng = np.random.default_rng((31, d))
    for n in sizes:
        ker = GridKernel(n, np.linspace(0.05, 0.4, d)[::-1] / n, d)
        for kind in ("signed", "positive", "tail"):
            _assert_matches_padded_convolution(
                ker, _density(kind, ker.shape, rng))
        # single precision is transformed in double, as in the padded array
        _assert_matches_padded_convolution(
            ker, rng.standard_normal(ker.shape).astype(np.float32))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(3, 4), n=st.integers(1, 12),
       spacing=st.lists(st.floats(0.01, 3.0), min_size=4, max_size=4),
       kind=st.sampled_from(["signed", "positive", "tail"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pruned_potential_property(d, n, spacing, kind, seed):
    ker = GridKernel(n, np.array(spacing[:d]), d)
    rho = _density(kind, ker.shape, np.random.default_rng(seed))
    _assert_matches_padded_convolution(ker, rho)


@pytest.mark.parametrize("d, n, m, start", [(3, 32, 20, (6, 6, 6)),
                                             (3, 12, 7, (0, 5, 3)),
                                             (4, 10, 6, (2, 2, 4, 0))])
def test_sub_cube_potential_is_the_lattice_potential_on_it(d, n, m, start):
    """A charge supported in an m-cell sub-cube has, on that sub-cube, the
    same free-space potential from the sub-cube's kernel (same spacing) as
    from the whole lattice's: the convolution reaches no cell outside. The
    two transforms round differently, so they agree to 1e-13 of the
    potential's largest value (a signed charge cancels at some cells)."""
    spacing = np.linspace(0.05, 0.4, d)[::-1] / n
    cube = tuple(slice(s, s + m) for s in start)
    q = np.zeros((n,) * d)
    q[cube] = np.random.default_rng((7, d)).standard_normal((m,) * d)
    whole = GridKernel(n, spacing, d).potential(q)[cube]
    part = GridKernel(m, spacing, d).potential(q[cube])
    assert np.max(np.abs(part - whole)) <= 1e-13 * np.max(np.abs(whole))


def test_potential_at_points_matches_bruteforce():
    rng = np.random.default_rng(23)
    m = GridMeasure(Box.cube(np.zeros(3), 1.0), 4,
                    rng.uniform(0, 1, (4, 4, 4)))
    centers = m.cell_centers()
    weights = m.density.ravel() * m.cell_volume
    pts = rng.uniform(-0.8, 0.8, (5, 3))
    radius = 0.2
    got = potential_at_points(m, pts, radius)
    for p, val in zip(pts, got):
        r = np.linalg.norm(centers - p, axis=1)
        want = float(sum(w * ball_potential(ri, radius, 3)
                         for w, ri in zip(weights, r)))
        assert val == pytest.approx(want, rel=1e-9)


def test_potential_field_of_atoms_equals_its_single_point_evaluations():
    """The atoms' field at every cell centre in one call equals each centre
    evaluated alone, to the last bit."""
    rng = np.random.default_rng(29)
    like = GridMeasure.zeros(Box.cube(np.zeros(3), 1.0), 6)
    atoms = AtomicMeasure(rng.uniform(-1.0, 1.0, (64, 3)), 0.25)
    radius = default_smear_radius(like)
    alone = [kernels.grid_potential_at_points(
        np.ones(atoms.count), centre[:, None], atoms.weight, atoms.points,
        radius, 3.0).item() for centre in like.cell_centers()]
    assert np.array_equal(potential_field(atoms, like, radius).ravel(), alone)


def test_potential_at_repeated_points_equals_each_point_alone():
    """Repeated points, as chain snapshots share unmoved particles, are
    evaluated once and copied back with the value of each point alone."""
    rng = np.random.default_rng(31)
    m = GridMeasure(Box.cube(np.zeros(3), 1.0), 4,
                    rng.uniform(0.0, 1.0, (4, 4, 4)))
    base = rng.uniform(-0.8, 0.8, (5, 3))
    pts = base[rng.integers(0, 5, size=40)]
    alone = [potential_at_points(m, p)[0] for p in pts]
    assert np.array_equal(potential_at_points(m, pts), alone)


def test_smeared_energy_equality_iff_separated():
    """Ball smearing changes nothing while the balls stay disjoint."""
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1, 1, (12, 3))
    atoms = AtomicMeasure(pts, 1.0 / 12)
    dmin = kernels.min_pairwise_distance(pts)
    lhs, rhs = smeared_energy_bound(atoms, 0.49 * dmin)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # once spheres intersect the smeared side drops strictly below
    lhs2, rhs2 = smeared_energy_bound(atoms, 0.9 * dmin)
    assert rhs2 < lhs2 * (1 - 1e-9)


def test_energy_offdiag_two_far_atoms():
    """With the diagonal dropped, two atoms interact like point charges and
    the grid terms cancel when the grid measure is zero; with it kept, the
    raw atomic energy is infinite."""
    grid = GridMeasure.zeros(Box.cube(np.zeros(3), 2.0), 8)
    pts = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    atoms = AtomicMeasure(pts, 0.5)
    got = energy_offdiag([atoms], grid)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(2.0 * 0.25 * g_radial(2.0, 3), rel=1e-9)
    assert energy(atoms) == math.inf


def test_empty_configuration_in_a_stack_scores_the_grid_energy():
    """An empty window has no atoms to pair or cross, so its entry is
    E(grid) alone, and its neighbours score as they would alone."""
    rng = np.random.default_rng(33)
    grid = GridMeasure(Box.cube(np.zeros(3), 1.0), 4,
                       rng.uniform(0.0, 1.0, (4, 4, 4)))
    empty = AtomicMeasure(np.empty((0, 3)), -0.25)
    atoms = AtomicMeasure(rng.uniform(-0.8, 0.8, (5, 3)), -0.25)
    got = energy_offdiag([empty, atoms, empty], grid)
    assert got[0] == got[2] == energy(grid)
    assert got[1] == energy_offdiag([atoms], grid)[0]


def test_pairwise_kernel_sum_matches_bruteforce():
    rng = np.random.default_rng(18)
    pts = rng.uniform(-1, 1, (15, 3))
    acc = 0.0
    for i in range(15):
        for j in range(15):
            if i != j:
                acc += 1.0 / np.linalg.norm(pts[i] - pts[j])
    assert kernels.pairwise_g_sum(pts, 3) == pytest.approx(acc, rel=1e-12)


def test_min_pairwise_distance_matches_bruteforce():
    rng = np.random.default_rng(19)
    pts = rng.uniform(-1, 1, (30, 3))
    want = min(np.linalg.norm(pts[i] - pts[j])
               for i in range(30) for j in range(i + 1, 30))
    assert kernels.min_pairwise_distance(pts) == pytest.approx(want,
                                                               rel=1e-12)


def test_default_smear_radius_is_cell_diagonal():
    m = GridMeasure.zeros(Box.cube(np.zeros(3), 1.0), 10)
    assert default_smear_radius(m) == pytest.approx(m.cell_diagonal)


def test_smear_kind_validation():
    for kind, radius in (("cube", 0.1), ("ball", 0.1), ("sphere", -1.0)):
        with pytest.raises(ValueError):
            SmearKind(kind, radius)


def test_raw_kernel_is_infinite_only_at_a_coincident_center():
    """Radius 0 is the raw kernel: an atom on a cell centre makes that one
    centre infinite, with the sign of the atom's weight."""
    like = GridMeasure.zeros(Box.cube(np.zeros(3), 1.0), 4)
    atoms = AtomicMeasure(like.cell_centers()[[5]], -1.0)
    h = potential_field(atoms, like, smear_radius=0.0).ravel()
    assert h[5] == -math.inf
    assert np.all(np.isfinite(np.delete(h, 5)))
