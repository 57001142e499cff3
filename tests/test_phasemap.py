import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydicke import (
    BoundarySweep,
    InvalidSystemError,
    RegionLabel,
    SeparatrixCurve,
    collective_boundary,
    condensate,
    ehrenfest_probe,
    minimize,
    normal_boundary,
    rwa_rescale,
    scan_grid,
    transition_order,
    vee_system,
)
from polydicke.phasemap import _zeta_boundary, sweep_observables

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


def _collective_boundary_reference(system, pair_a, pair_b, sweep):
    """The per-sample scalar bisection that collective_boundary replaced."""
    lo, hi = sweep.solve_range
    points = []
    worst_zeta = None
    grid = np.linspace(lo, hi, sweep.scan_points)
    scan = condensate(system, pair_a, grid).energy
    targets = condensate(system, pair_b, sweep.fixed_values).energy
    for mu_b, target in zip(sweep.fixed_values, targets.tolist()):
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

        root = (float(grid[i]) if vals[i] == 0.0 else
                _bisect_reference(diff, float(grid[i]), float(grid[i + 1]),
                                  sweep.tol))
        points.append((root, float(mu_b)))
        dists = [abs(z - root)
                 for z in _zeta_boundary(system, pair_a, pair_b, float(mu_b))
                 if z is not None]
        if dists:
            d = min(dists)
            worst_zeta = d if worst_zeta is None else max(worst_zeta, d)
    message = "" if points else "no root: regions do not touch in the sweep range"
    return SeparatrixCurve(
        kind="collective-collective", label_a=str(RegionLabel(pair_a)),
        label_b=str(RegionLabel(pair_b)), order=1, solve_pair=pair_a,
        fixed_pair=pair_b, points=tuple(points),
        zeta_max_discrepancy=worst_zeta, message=message,
    )


def _assert_same_curve(system, pair_a, pair_b, sweep):
    """Array and scalar bisection give the same sidecar bytes."""
    got = collective_boundary(system, pair_a, pair_b, sweep)
    want = _collective_boundary_reference(system, pair_a, pair_b, sweep)
    assert (json.dumps(got.to_json_dict())
            == json.dumps(want.to_json_dict()))
    return got


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
        curve = collective_boundary(
            xi(), (1, 2), (2, 3),
            BoundarySweep(fixed_values=(1.0,), solve_range=(0.5, 2.0)),
        )
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
        curve = collective_boundary(
            xi(), (1, 2), (2, 3),
            BoundarySweep(fixed_values=tuple(np.linspace(0.8, 2.0, 13)),
                          solve_range=(0.5, 6.0)),
        )
        assert len(curve.points) == 13
        assert curve.zeta_max_discrepancy is not None
        assert curve.zeta_max_discrepancy < 1e-8

    def test_identical_regions_rejected(self, xi):
        with pytest.raises(ValueError):
            collective_boundary(xi(), (1, 2), (1, 2),
                                BoundarySweep((1.0,), (0.0, 2.0)))

    def test_sweep_inside_normal_reports_no_root(self, xi):
        curve = collective_boundary(
            xi(), (1, 2), (2, 3),
            BoundarySweep(fixed_values=(0.05, 0.1), solve_range=(0.0, 0.4)),
        )
        assert curve.points == ()
        assert "no root" in curve.message


class TestArrayBisection:
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
            curve = _assert_same_curve(system, pa, pb, BoundarySweep(
                fixed_values=tuple(scale * v for v in fixed[1:]),
                solve_range=(scale * max(alo, 1e-9), scale * ahi)))
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
            points = int(rng.integers(1, 80))
            # with tol at a scan cell's width over 2**20, cells whose widths
            # differ in the last bits close at different steps, so a sample
            # that has finished must stay frozen while the others go on
            grid = np.linspace(lo, hi, max(points, 2))
            tol = float(rng.choice([1e-10, 1e-6, 1e-3, 0.0,
                                    (grid[1] - grid[0]) / 2.0 ** 20]))
            _assert_same_curve(
                system, system.pairs[i], system.pairs[j], BoundarySweep(
                    fixed_values=tuple(rng.uniform(0.0, 3.0, 25)),
                    solve_range=(lo, hi), scan_points=points, tol=tol))

    def test_bracket_stops_at_exactly_tol(self, xi):
        # dyadic scan cells halve exactly: the brackets reach width 2**-10
        # after 9 steps and stop there, not a step later
        curve = _assert_same_curve(xi(), (1, 2), (2, 3), BoundarySweep(
            fixed_values=(1.0, 1.5), solve_range=(0.5, 1.5), scan_points=3,
            tol=2.0 ** -10))
        for root, _ in curve.points:
            assert (root * 2.0 ** 11) % 2.0 == 1.0

    def test_step_cap_binds_on_a_tiny_root(self):
        # both condensates exist from mu ~ 1e-100 and the root lies near
        # 1.4e-75: closing a 1/63-wide bracket to the spacing of floats
        # there takes about 295 halvings, so the 200-step cap decides it
        system = vee_system(1e-200, 2e-200, Omega12=2.0, Omega13=1.0)
        curve = _assert_same_curve(system, (1, 2), (1, 3), BoundarySweep(
            fixed_values=(1e-75, 3e-75), solve_range=(1e-100, 1.0), tol=0.0))
        assert [b for _, b in curve.points] == [1e-75, 3e-75]
        # the bracket is still (1/63) / 2**200 ~ 1e-62 wide when it stops
        assert all(1e-65 < a < 1e-60 for a, _ in curve.points)

    def test_exact_scan_hit_is_the_root(self, xi):
        # E_23 at this coupling equals E_12 at scan point 11 to the bit, so
        # the root is that scan point and no bisection runs
        sweep = BoundarySweep(fixed_values=(0.8166847849770655, 1.0),
                              solve_range=(0.5, 2.0))
        grid = np.linspace(0.5, 2.0, 64)
        assert (condensate(xi(), (1, 2), grid[11]).energy
                == condensate(xi(), (2, 3), 0.8166847849770655).energy)
        curve = _assert_same_curve(xi(), (1, 2), (2, 3), sweep)
        assert curve.points[0] == (float(grid[11]), 0.8166847849770655)

    def test_no_sample_roots(self, xi):
        for sweep in (BoundarySweep((), (0.0, 2.0)),
                      BoundarySweep((1.0, 2.0), (0.0, 2.0), scan_points=1),
                      BoundarySweep((math.nan, 0.1), (0.5, 2.0))):
            curve = _assert_same_curve(xi(), (1, 2), (2, 3), sweep)
            assert curve.points == () and "no root" in curve.message


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
            assert str(RegionLabel.parse(tag)) == tag
        with pytest.raises(ValueError):
            RegionLabel.parse("X_1_2")


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
        curve = collective_boundary(
            xi(), (2, 3), (1, 2),
            BoundarySweep(fixed_values=(1.0,), solve_range=(0.7, 2.0)),
        )
        crossing = curve.points[0][0]
        order = ehrenfest_probe(xi(), cascade_path(xi(), (2, 3), {(1, 2): 1.0}),
                                crossing)
        assert order == 1

    def test_no_discontinuity_inside_region(self, xi):
        order = ehrenfest_probe(xi(), cascade_path(xi(), (1, 2), {(2, 3): 0.2}),
                                1.2)
        assert order is None


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
            label = RegionLabel.parse(tag)
            assert label.is_normal or label.pair in xi().pairs

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
