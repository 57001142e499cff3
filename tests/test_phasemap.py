import csv
import io
import math

import numpy as np
import pytest

from polydicke import (
    BoundarySweep,
    InvalidSystemError,
    RegionLabel,
    collective_boundary,
    ehrenfest_probe,
    minimize,
    normal_boundary,
    rwa_rescale,
    scan_grid,
    transition_order,
)

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
