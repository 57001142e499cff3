import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydicke import (
    InvalidSystemError,
    PhaseGrid,
    collective_boundary,
    condensate,
    ehrenfest_probe,
    minimize,
    normal_boundary,
    plane_boundaries,
    rwa_rescale,
    scan_grid,
    transition_order,
    vee_system,
)
from polydicke.phasemap import _zeta_boundary, sweep_observables
from polydicke.variational import region_pair, region_tag

from conftest import random_system

MU_STAR_12 = 0.5
MU_STAR_23 = math.sqrt(0.5) * (1.0 + math.sqrt(1.3)) / 2.0   # 0.7566662780


# 1-, 2- and 3-axis grids, with and without rwa
GRIDS = pytest.mark.parametrize("config, fixed, axes, res, rwa", [
    ("xi", {}, [((1, 2), (0.0, 2.0)), ((2, 3), (0.0, 2.0))], 9, False),
    ("xi", {}, [((1, 2), (0.0, 3.0)), ((2, 3), (0.0, 3.0))], 13, True),
    ("xi", {(2, 3): 0.9}, [((1, 2), (0.0, 2.0))], 41, False),
    ("xi", {(1, 2): 1.3}, [((2, 3), (0.0, 3.0))], 41, True),
    ("cascade4", {},
     [((1, 2), (0.0, 2.0)), ((2, 3), (0.0, 2.0)), ((3, 4), (0.0, 2.0))],
     (7, 8, 9), False),
    ("cascade4", {(2, 3): 1.4},
     [((3, 4), (0.0, 3.0)), ((1, 2), (0.0, 3.0))], 17, True),
    ("cascade4", {},
     [((1, 2), (0.0, 2.0)), ((2, 3), (0.0, 1e-5)), ((3, 4), (0.0, 2.0))],
     (4, 3, 5), True),
], ids=["xi", "xi-rwa", "xi-fixed", "xi-fixed-rwa", "cascade4-3axes",
        "cascade4-fixed-rwa", "cascade4-3axes-rwa"])


def _csv_per_cell(grid, header_lines=()):
    """The per-cell writer that PhaseGrid.to_csv replaced."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"mu_{p[0]}_{p[1]}" for p in grid.axes]
                    + ["region", "energy"])
    for index in np.ndindex(*grid.shape):
        row = [repr(grid.axis_values[m][index[m]])
               for m in range(len(grid.axes))]
        row.append(grid.labels[index])
        row.append(repr(float(grid.energies[index])))
        writer.writerow(row)
    return buf.getvalue()


def _bisect_reference(fn, lo, hi, tol):
    flo = fn(lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisection_roots(system, pair_a, pair_b, fixed_values, solve_range,
                     scan_points=64, tol=1e-10):
    """mu_b -> mu_a found by a sign scan and a scalar bisection per sample,
    the search that the closed form in collective_boundary replaced."""
    lo, hi = solve_range
    roots = {}
    grid = np.linspace(lo, hi, scan_points)
    scan = condensate(system, pair_a, grid).energy
    targets = condensate(system, pair_b, fixed_values).energy
    for mu_b, target in zip(fixed_values, targets.tolist()):
        if not math.isfinite(target):
            continue
        vals = scan - target
        hit = np.isfinite(vals[:-1]) & np.isfinite(vals[1:]) & (
            (vals[:-1] == 0.0) | ((vals[:-1] < 0.0) != (vals[1:] < 0.0)))
        if not hit.any():
            continue
        i = int(np.argmax(hit))

        def diff(mu_a):
            return float(condensate(system, pair_a, mu_a).energy) - target

        roots[float(mu_b)] = (
            float(grid[i]) if vals[i] == 0.0 else
            _bisect_reference(diff, float(grid[i]), float(grid[i + 1]), tol))
    return roots


def _assert_equal_energies(system, curve, scale=1.0):
    """Both condensate energies agree at every root, taken at scale times
    its couplings, relative to the larger of |E_b| and the top level (E_b
    near 0 cancels omega_j in E_a)."""
    for mu_a, mu_b in curve.points:
        e_a = float(condensate(system, curve.solve_pair, scale * mu_a).energy)
        e_b = float(condensate(system, curve.fixed_pair, scale * mu_b).energy)
        assert e_a == pytest.approx(e_b, rel=1e-12,
                                    abs=1e-12 * system.omega[-1])


def _assert_matches_bisection(system, pair_a, pair_b, fixed_values,
                              solve_range, **scan):
    """Every root that the bisection finds is a closed-form root within
    1e-9, and every closed-form root has equal condensate energies."""
    curve = collective_boundary(system, pair_a, pair_b, fixed_values,
                                solve_range)
    got = {b: a for a, b in curve.points}
    for mu_b, root in _bisection_roots(system, pair_a, pair_b, fixed_values,
                                       solve_range, **scan).items():
        assert got[mu_b] == pytest.approx(root, abs=1e-9)
    _assert_equal_energies(system, curve)
    if curve.points:
        assert curve.zeta_max_discrepancy <= 1e-12
    else:
        assert "no root" in curve.message
    return curve


def cascade_path(system, pair, fixed):
    def path(t):
        mu = dict(fixed)
        mu[pair] = t
        return mu
    return path


class TestNormalBoundary:
    def test_ground_pair_bifurcation(self, xi):
        assert normal_boundary(xi(), (1, 2)) == pytest.approx(0.5, abs=1e-15)

    def test_excited_pair_maxwell(self, xi):
        mu = normal_boundary(xi(), (2, 3))
        assert mu == pytest.approx(0.756667, abs=1e-5)
        assert mu == pytest.approx(MU_STAR_23, abs=1e-14)

    def test_degenerate_levels_condense_at_any_coupling(self):
        from polydicke import cascade_system
        system = cascade_system([0.0, 1e-12], [1.0], [0.0])
        assert normal_boundary(system, (1, 2)) < 1e-5

    def test_vee_and_lambda_boundaries(self, vee, lam):
        assert normal_boundary(vee(), (1, 2)) == pytest.approx(0.4, abs=1e-12)
        assert normal_boundary(vee(), (1, 3)) == pytest.approx(0.5, abs=1e-12)
        assert normal_boundary(lam(), (1, 3)) == pytest.approx(0.5, abs=1e-12)
        assert normal_boundary(lam(), (2, 3)) == pytest.approx(
            math.sqrt(0.8) * (math.sqrt(0.2) + 1.0) / 2.0, abs=1e-14)


class TestCollectiveBoundary:
    def test_root_matches_energy_equality(self, xi):
        curve = collective_boundary(xi(), (1, 2), (2, 3), (1.0,), (0.5, 2.0))
        assert len(curve.points) == 1
        root, fixed = curve.points[0]
        assert fixed == 1.0
        assert root == pytest.approx(1.142330, abs=1e-5)
        # energies really agree at the root
        e12 = -(4.0 * root ** 2 - 1.0) ** 2 / (16.0 * root ** 2)
        e23 = 1.0 - (4.0 - 0.15) ** 2 / 8.0
        assert e12 == pytest.approx(e23, abs=1e-8)
        assert curve.order == 1

    def test_algebraic_crosscheck_agrees(self, xi):
        curve = collective_boundary(xi(), (1, 2), (2, 3),
                                    tuple(np.linspace(0.8, 2.0, 13)),
                                    (0.5, 6.0))
        assert len(curve.points) == 13
        assert curve.zeta_max_discrepancy is not None
        assert curve.zeta_max_discrepancy < 1e-8

    def test_identical_regions_rejected(self, xi):
        with pytest.raises(ValueError):
            collective_boundary(xi(), (1, 2), (1, 2), (1.0,), (0.0, 2.0))

    def test_sweep_inside_normal_reports_no_root(self, xi):
        curve = collective_boundary(xi(), (1, 2), (2, 3), (0.05, 0.1),
                                    (0.0, 0.4))
        assert curve.points == ()
        assert "no root" in curve.message


class TestArrayBisection:
    """The closed-form separatrix against a scan-and-bisect search."""

    CONFIGS = ("xi", "vee", "lam", "cascade4")

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_sidecar_sweeps_match_scalar_bisection(self, request, config,
                                                   scale):
        # the sweeps the phase-diagram sidecar runs, at full and half
        # (rotating-wave) coupling, on random couplings and ranges
        make = request.getfixturevalue(config)
        rng = np.random.default_rng(11 if scale == 1.0 else 12)
        rooted = 0
        for _ in range(12):
            system = make(*rng.uniform(0.0, 2.0, 3 if config == "cascade4"
                                       else 2))
            pairs = system.pairs
            i, j = rng.choice(len(pairs), 2, replace=False)
            pa, pb = pairs[i], pairs[j]
            alo, blo = rng.uniform(0.0, 0.8, 2)
            ahi, bhi = rng.uniform(1.0, 3.0, 2)
            mb = normal_boundary(system, pb) / scale
            fixed = np.linspace(max(blo, mb), bhi, int(rng.integers(16, 60)))
            curve = _assert_matches_bisection(
                system, pa, pb, tuple(scale * v for v in fixed[1:]),
                (scale * alo, scale * ahi))
            rooted += bool(curve.points)
        assert rooted >= 6

    def test_random_systems_and_scan_widths(self):
        rng = np.random.default_rng(2026)
        for _ in range(40):
            system = random_system(rng, int(rng.integers(3, 5)))
            if len(system.pairs) < 2:
                continue
            i, j = rng.choice(len(system.pairs), 2, replace=False)
            lo = float(rng.uniform(0.0, 1.0))
            hi = lo + float(rng.uniform(0.1, 4.0))
            # a tol of 0 bisects until the bracket stops shrinking
            _assert_matches_bisection(
                system, system.pairs[i], system.pairs[j],
                tuple(rng.uniform(0.0, 3.0, 25)), (lo, hi),
                scan_points=int(rng.integers(2, 80)),
                tol=float(rng.choice([1e-10, 0.0])))

    def test_tiny_roots_are_exact(self):
        # both condensates exist from mu ~ 1e-100 and the roots lie near
        # 1e-75, where a bisection from a 1/63-wide scan cell stops after
        # 200 halvings still about 1e-62 wide
        system = vee_system(1e-200, 2e-200, Omega12=2.0, Omega13=1.0)
        curve = collective_boundary(system, (1, 2), (1, 3), (1e-75, 3e-75),
                                    (1e-100, 1.0))
        assert [b for _, b in curve.points] == [1e-75, 3e-75]
        roots = [a for a, _ in curve.points]
        assert roots == pytest.approx(
            [1.414213562373095e-75, 4.242640687119285e-75], rel=1e-15)
        for mu_a, mu_b in curve.points:
            assert float(condensate(system, (1, 2), mu_a).energy) == (
                pytest.approx(float(condensate(system, (1, 3), mu_b).energy),
                              rel=1e-15))
        # the algebraic cross-check agrees: there zj * zk = 2.6e-598
        # underflows to 0, so its cross term is sqrt(zj) * sqrt(zk); with
        # the product its root read 1e-75
        assert curve.zeta_max_discrepancy <= 1e-15
        plus, minus = _zeta_boundary(system, (1, 2), (1, 3), [1e-75])
        assert plus[0] == pytest.approx(math.sqrt(2.0) * 1e-75, rel=1e-15)
        assert math.isnan(minus[0])

    def test_root_next_to_the_triple_point(self, xi):
        # just above the 2-3 threshold the 1-2 root sits barely above its
        # own threshold 0.5, in the scan cell that straddles 0.5: the cell's
        # lower end has no 1-2 condensate, so the scan finds no bracket
        sweep = ((MU_STAR_23 + 1e-5,), (1e-9, 2.0))
        assert _bisection_roots(xi(), (1, 2), (2, 3), *sweep) == {}
        curve = _assert_matches_bisection(xi(), (1, 2), (2, 3), *sweep)
        (root, _), = curve.points
        assert root == pytest.approx(0.5027523936388418, abs=1e-15)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4))
    def test_equal_energies_on_random_systems(self, seed, n):
        rng = np.random.default_rng(seed)
        system = random_system(rng, n)
        if len(system.pairs) < 2:
            return
        i, j = rng.choice(len(system.pairs), 2, replace=False)
        lo = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        curve = collective_boundary(
            system, system.pairs[i], system.pairs[j],
            tuple(rng.uniform(0.0, 3.0, 25)),
            (lo, lo + float(rng.uniform(0.1, 4.0))))
        _assert_equal_energies(system, curve)
        if curve.points:
            assert curve.zeta_max_discrepancy <= 1e-12

    def test_no_sample_roots(self, xi):
        for sweep in (((), (0.0, 2.0)), ((math.nan, 0.1), (0.5, 2.0))):
            curve = _assert_matches_bisection(xi(), (1, 2), (2, 3), *sweep)
            assert curve.points == ()


class TestPlaneBoundaries:
    """Every curve of a scanned plane lies on the separatrix it names."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 4),
           res=st.integers(2, 60), rwa=st.booleans())
    def test_curves_on_random_planes(self, seed, n, res, rwa):
        rng = np.random.default_rng(seed)
        system = random_system(rng, n)
        if len(system.pairs) < 2:
            return
        axes = []
        for m in rng.choice(len(system.pairs), 2, replace=False):
            lo = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
            axes.append((system.pairs[m],
                         (lo, lo + float(rng.uniform(0.1, 4.0)))))
        pairs = [p for p, _ in axes]
        # under rwa every boundary sits at doubled coupling
        scale = 2.0 if rwa else 1.0
        normal, curves = plane_boundaries(system, axes, res, rwa=rwa)
        assert normal == {p: scale * normal_boundary(system, p)
                          for p in pairs}
        for curve in curves:
            assert [curve.solve_pair, curve.fixed_pair] == pairs
            if curve.kind == "normal-collective":
                pair = region_pair(curve.label_b)
                at = pairs.index(pair)
                assert curve.label_a == "N"
                assert curve.order == transition_order("N", curve.label_b)
                assert len(curve.points) == 2
                assert all(p[at] == normal[pair] for p in curve.points)
            else:
                assert curve.kind == "collective-collective"
                assert curve.points
                _assert_equal_energies(system, curve, scale=1.0 / scale)
                assert curve.zeta_max_discrepancy <= 1e-12


class TestTransitionOrder:
    def test_spec_table(self):
        assert transition_order("N", "S_1_2") == 2
        assert transition_order("N", "S_2_3") == 1
        assert transition_order("S_1_2", "S_2_3") == 1
        assert transition_order("S_1_3", "N") == 2

    def test_identical_labels_rejected(self):
        with pytest.raises(ValueError):
            transition_order("S_1_2", "S_1_2")

    def test_label_parse_roundtrip(self):
        for tag in ("N", "S_1_2", "S_12_34"):
            assert region_tag(region_pair(tag)) == tag
        for tag in ("S_1", "S_1_2_3", "S_a_2", "s_1_2", "", "X_1_2"):
            with pytest.raises(ValueError,
                               match=f"^not a region tag: {tag!r}$"):
                region_pair(tag)


class TestEhrenfestProbe:
    def test_second_order_at_bifurcation(self, xi):
        order = ehrenfest_probe(xi(), cascade_path(xi(), (1, 2), {(2, 3): 0.2}),
                                MU_STAR_12)
        assert order == 2

    def test_first_order_at_maxwell(self, xi):
        order = ehrenfest_probe(xi(), cascade_path(xi(), (2, 3), {(1, 2): 0.2}),
                                MU_STAR_23)
        assert order == 1

    def test_first_order_between_collective_regions(self, xi):
        curve = collective_boundary(xi(), (2, 3), (1, 2), (1.0,), (0.7, 2.0))
        crossing = curve.points[0][0]
        order = ehrenfest_probe(xi(), cascade_path(xi(), (2, 3), {(1, 2): 1.0}),
                                crossing)
        assert order == 1

    def test_no_discontinuity_inside_region(self, xi):
        order = ehrenfest_probe(xi(), cascade_path(xi(), (1, 2), {(2, 3): 0.2}),
                                1.2)
        assert order is None

    @pytest.mark.parametrize("name", ["max_order", "eps", "threshold"])
    def test_probe_settings_are_fixed(self, xi, name):
        with pytest.raises(TypeError, match=name):
            ehrenfest_probe(xi(), cascade_path(xi(), (1, 2), {(2, 3): 0.2}),
                            MU_STAR_12, **{name: 1})


class TestScanGrid:
    def test_cascade_grid_regions(self, xi):
        grid = scan_grid(xi(), [((1, 2), (0.0, 2.0)), ((2, 3), (0.0, 2.0))], 41)
        tags = set(grid.labels.ravel())
        assert tags == {"N", "S_1_2", "S_2_3"}
        # normal region is the expected rectangle, up to boundary cells
        cell = 2.0 / 40
        for index in np.ndindex(*grid.shape):
            mu12 = grid.axis_values[0][index[0]]
            mu23 = grid.axis_values[1][index[1]]
            inside = mu12 < MU_STAR_12 - cell and mu23 < MU_STAR_23 - cell
            outside = mu12 > MU_STAR_12 + cell or mu23 > MU_STAR_23 + cell
            if inside:
                assert grid.labels[index] == "N"
            if outside:
                assert grid.labels[index] != "N"

    def test_monochromatic_labels_only(self, xi):
        grid = scan_grid(xi(), [((1, 2), (0.0, 2.0)), ((2, 3), (0.0, 2.0))], 15)
        for tag in set(grid.labels.ravel()):
            pair = region_pair(tag)
            assert pair is None or pair in xi().pairs

    @GRIDS
    def test_label_energy_bit_for_bit(self, request, config, fixed, axes, res,
                                      rwa):
        system = request.getfixturevalue(config)().with_couplings(fixed)
        grid = scan_grid(system, axes, res, rwa=rwa)
        for index in np.ndindex(*grid.shape):
            cell = system.with_couplings(grid.cell_couplings(index))
            best = minimize(rwa_rescale(cell) if rwa else cell)
            assert best.region == grid.labels[index]
            assert best.energy == grid.energies[index]

    def test_label_flip_matches_boundary_root(self, xi):
        grid = scan_grid(xi(mu23=0.0), [((1, 2), (0.0, 2.0))], 101)
        labels = grid.labels
        flips = [i for i in range(100) if labels[i] != labels[i + 1]]
        assert len(flips) == 1
        cell = 2.0 / 100
        assert abs(grid.axis_values[0][flips[0]] - MU_STAR_12) <= cell

    def test_all_normal_grid(self, xi):
        grid = scan_grid(xi(), [((1, 2), (0.0, 0.4)), ((2, 3), (0.0, 0.6))], 7)
        assert set(grid.labels.ravel()) == {"N"}

    def test_resolution_two_still_valid(self, xi):
        grid = scan_grid(xi(), [((1, 2), (0.0, 2.0)), ((2, 3), (0.0, 2.0))], 2)
        assert grid.energies.size == 4

    def test_rejects_bad_resolution(self, xi):
        with pytest.raises(ValueError):
            scan_grid(xi(), [((1, 2), (0.0, 2.0))], 0)
        with pytest.raises(ValueError):
            scan_grid(xi(), [((1, 2), (0.0, 2.0))], -3)

    def test_rejects_invalid_axis_couplings(self, xi):
        for lo, hi in ((-0.5, 1.0), (0.0, math.nan)):
            with pytest.raises(InvalidSystemError):
                scan_grid(xi(), [((1, 2), (lo, hi))], 5)
        with pytest.raises(InvalidSystemError):
            scan_grid(xi(), [((2, 3), (-1.0, 1.0))], 5, rwa=True)

    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("hi", [1e100, 1e200])
    def test_rejects_axis_reaching_an_overflowing_coupling(self, xi, hi, rwa):
        with pytest.raises(InvalidSystemError, match="overflows"):
            scan_grid(xi(), [((1, 2), (0.0, hi)), ((2, 3), (0.0, 2.0))], 5,
                      rwa=rwa)

    # linspace warned (invalid value in multiply) before any validation
    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (-math.inf, 1.0)])
    def test_rejects_infinite_axis_bound(self, xi, bounds):
        with pytest.raises(ValueError, match="finite bounds"):
            scan_grid(xi(), [((1, 2), bounds)], 5)

    def test_rejects_repeated_axis(self, xi, cascade4):
        with pytest.raises(ValueError, match="repeated"):
            scan_grid(xi(), [((1, 2), (0.0, 2.0)), ((1, 2), (0.0, 1.0))], 5)
        with pytest.raises(ValueError, match="repeated"):
            scan_grid(cascade4(), [((1, 2), (0.0, 2.0)), ((2, 3), (0.0, 2.0)),
                                   ((1, 2), (0.0, 2.0))], 5)

    def test_rejects_unknown_axis(self, xi):
        with pytest.raises(KeyError):
            scan_grid(xi(), [((1, 3), (0.0, 2.0))], 5)

    def test_four_level_label_set(self, cascade4):
        grid = scan_grid(
            cascade4(),
            [((1, 2), (0.0, 2.0)), ((2, 3), (0.0, 2.0)), ((3, 4), (0.0, 2.0))],
            10,
        )
        assert set(grid.labels.ravel()) == {"N", "S_1_2", "S_2_3", "S_3_4"}

    @GRIDS
    def test_csv_matches_per_cell_writer(self, request, config, fixed, axes,
                                         res, rwa):
        system = request.getfixturevalue(config)().with_couplings(fixed)
        grid = scan_grid(system, axes, res, rwa=rwa)
        header = ["seed: 0", "rwa: " + str(rwa)]
        assert grid.to_csv(header_lines=header) == _csv_per_cell(grid, header)

    def test_csv_deterministic(self, xi):
        grid = scan_grid(xi(), [((1, 2), (0.0, 1.0)), ((2, 3), (0.0, 1.0))], 5)
        text = grid.to_csv(header_lines=["seed: 0"])
        assert text == grid.to_csv(header_lines=["seed: 0"])
        first = text.splitlines()
        assert first[0] == "# seed: 0"
        assert first[1] == "mu_1_2,mu_2_3,region,energy"
        assert "np." not in text


def _grids():
    """(system, axes, resolution): a random system and distinct swept pairs."""
    return st.builds(_grid_case, st.integers(0, 2 ** 32 - 1),
                     st.integers(2, 4), st.integers(1, 3), st.integers(2, 12))


def _grid_case(seed, n, count, res):
    rng = np.random.default_rng(seed)
    system = random_system(rng, n)
    count = min(count, len(system.pairs))
    picked = rng.choice(len(system.pairs), count, replace=False)
    axes = []
    for m in picked:
        lo = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        axes.append((system.pairs[m], (lo, lo + float(rng.uniform(0.1, 4.0)))))
    return system, axes, res


class TestCsvWriter:
    """to_csv formats each distinct float once; its text is the per-cell
    writer's."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(case=st.builds(_grid_case, st.integers(0, 2 ** 32 - 1),
                          st.integers(3, 4), st.integers(1, 3),
                          st.integers(2, 30)),
           rwa=st.booleans())
    def test_matches_per_cell_writer(self, case, rwa):
        system, axes, res = case
        grid = scan_grid(system, axes, res, rwa=rwa)
        header = ["rwa: " + str(rwa)]
        assert grid.to_csv(header_lines=header) == _csv_per_cell(grid, header)

    def test_signed_zeros_and_subnormals_keep_their_text(self):
        # formatting by float value instead of bit pattern would merge the
        # two zeros, and -0.25 stands under two region labels
        grid = PhaseGrid(
            axes=((1, 2),), axis_values=((-0.0, 0.0, 5e-324, 1.0, 2.0),),
            labels=np.array(["N", "N", "S_1_2", "S_1_2", "S_2_3"],
                            dtype=object),
            energies=np.array([0.0, -0.0, 5e-324, -0.25, -0.25]))
        text = grid.to_csv()
        assert text == _csv_per_cell(grid)
        assert text.splitlines() == [
            "mu_1_2,region,energy",
            "-0.0,N,0.0",
            "0.0,N,-0.0",
            "5e-324,S_1_2,5e-324",
            "1.0,S_1_2,-0.25",
            "2.0,S_2_3,-0.25",
        ]


class TestRotatingWaveAtHalfCoupling:
    """The rotating-wave closed forms are the full ones at halved couplings."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(case=_grids())
    def test_scan_grid(self, case):
        system, axes, res = case
        rwa = scan_grid(system, axes, res, rwa=True)
        half = scan_grid(rwa_rescale(system),
                         [(p, (lo / 2.0, hi / 2.0)) for p, (lo, hi) in axes],
                         res)
        assert np.array_equal(rwa.labels, half.labels)
        assert np.array_equal(rwa.energies, half.energies)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(case=_grids(), points=st.integers(2, 60))
    def test_observable_sweep_rows(self, case, points):
        system, axes, _ = case
        couplings = {p: np.linspace(lo, hi, points).tolist()
                     for p, (lo, hi) in axes}
        rows = sweep_observables(system, couplings, rwa=True)
        half = sweep_observables(
            rwa_rescale(system),
            {p: [v / 2.0 for v in values] for p, values in couplings.items()})
        assert rows == half
