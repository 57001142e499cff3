"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line.  Tolerances are fixed here, not calibrated elsewhere."""

import json
import math

import numpy as np
import pytest

from polydicke import (
    BoundarySweep,
    SymmetryCharges,
    build_basis,
    build_hamiltonian,
    cascade_system,
    collective_boundary,
    converge_cutoff,
    delta_nu,
    ehrenfest_probe,
    expectations,
    ground_state,
    gradient,
    lambda_system,
    minimize,
    minimize_numeric,
    normal_boundary,
    reduced_energy,
    scan_grid,
    split_sectors,
    suggest_cutoffs,
    universal_relation_residual,
    vee_system,
)
from polydicke.cli import main as cli_main
from polydicke.variational import candidates
from conftest import random_system

MU_STAR_23 = math.sqrt(0.5) * (1.0 + math.sqrt(1.3)) / 2.0


def _report(num, description, ok):
    print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {description}")


def _xi(mu12, mu23, atom_count=1):
    return cascade_system([0.0, 1.0, 1.3], [1.0, 0.5], [mu12, mu23],
                          atom_count=atom_count)


def _vee(mu12, mu13):
    return vee_system(0.8, 1.0, Omega12=0.8, Omega13=1.0,
                      mu12=mu12, mu13=mu13)


def _lam(mu13, mu23):
    return lambda_system(0.2, 1.0, Omega13=1.0, Omega23=0.8,
                         mu13=mu13, mu23=mu23)


def test_criterion_01_closed_forms_match_numeric_oracle():
    ok = False
    try:
        grid = np.linspace(0.0, 2.0, 20)
        worst = 0.0
        for make in (_xi, _vee, _lam):
            for a in grid:
                for b in grid:
                    system = make(float(a), float(b))
                    closed = minimize(system).energy
                    numeric = minimize_numeric(system, starts=2, seed=0).energy
                    worst = max(worst, abs(closed - numeric))
        assert worst <= 1e-6, f"worst deviation {worst:.3e}"
        ok = True
    finally:
        _report(1, "closed-form minimum vs numeric oracle, 20x20 grids, "
                   "three 3-level configurations, 1e-6", ok)


def test_criterion_02_boundary_loci_and_four_level_labels():
    ok = False
    try:
        assert normal_boundary(_xi(1, 1), (1, 2)) == pytest.approx(
            0.500000, abs=1e-12)
        assert normal_boundary(_xi(1, 1), (2, 3)) == pytest.approx(
            0.756667, abs=1e-5)

        # grid label flips confirm both loci within one cell
        row = scan_grid(_xi(0.0, 0.0), [((1, 2), (0.0, 2.0))], 201)
        flips = [i for i in range(200)
                 if row.labels[i] != row.labels[i + 1]]
        cell = 2.0 / 200
        assert len(flips) == 1
        assert abs(row.axis_values[0][flips[0]] - 0.5) <= cell
        col = scan_grid(_xi(0.0, 0.0), [((2, 3), (0.0, 2.0))], 201)
        flips = [i for i in range(200)
                 if col.labels[i] != col.labels[i + 1]]
        assert len(flips) == 1
        assert abs(col.axis_values[0][flips[0]] - MU_STAR_23) <= cell

        four = cascade_system([0.0, 1.0, 1.7, 2.0], [1.0, 0.7, 0.3],
                              [0.0, 0.0, 0.0])
        grid = scan_grid(
            four,
            [((1, 2), (0.0, 2.0)), ((2, 3), (0.0, 2.0)), ((3, 4), (0.0, 2.0))],
            10,
        )
        assert set(grid.labels.ravel()) == {"N", "S_1_2", "S_2_3", "S_3_4"}
        ok = True
    finally:
        _report(2, "boundaries at mu=0.500000 and 0.756667, 4-level label set "
                   "{N, S_1_2, S_2_3, S_3_4}", ok)


def _probe_points(system_at, solve_pair, fixed_pair, fixed_values, crossing_at):
    """Ehrenfest orders at boundary points (one per fixed coupling value)."""
    orders = []
    for value in fixed_values:
        system = system_at(value)

        def path(t, _pair=solve_pair, _fixed=fixed_pair, _v=value):
            return {_pair: t, _fixed: _v}

        orders.append(ehrenfest_probe(system, path, crossing_at(value)))
    return orders


def test_criterion_03_transition_orders_by_probe():
    ok = False
    try:
        rng = np.random.default_rng(101)

        def crossing_for(system, solve_pair, fixed_pair, fixed_value,
                         solve_range):
            curve = collective_boundary(
                system, solve_pair, fixed_pair,
                BoundarySweep(fixed_values=(fixed_value,),
                              solve_range=solve_range),
            )
            return curve.points[0][0]

        checks = 0
        # cascade: N<->S12 second order, N<->S23 first, S12<->S23 first
        for v in rng.uniform(0.05, 0.70, 7):
            o = ehrenfest_probe(_xi(1, v), lambda t, v=v: {(1, 2): t, (2, 3): v},
                                0.5)
            assert o == 2, f"cascade N-S12 at mu23={v}: order {o}"
            checks += 1
        for v in rng.uniform(0.02, 0.45, 7):
            o = ehrenfest_probe(_xi(v, 1), lambda t, v=v: {(1, 2): v, (2, 3): t},
                                MU_STAR_23)
            assert o == 1, f"cascade N-S23 at mu12={v}: order {o}"
            checks += 1
        for v in rng.uniform(0.65, 1.9, 7):
            root = crossing_for(_xi(v, 1), (2, 3), (1, 2), v, (0.7, 4.0))
            o = ehrenfest_probe(_xi(v, 1), lambda t, v=v: {(1, 2): v, (2, 3): t},
                                root)
            assert o == 1, f"cascade S12-S23 at mu12={v}: order {o}"
            checks += 1
        assert checks >= 20

        checks = 0
        # V: both normal boundaries second order, S12<->S13 first
        for v in rng.uniform(0.02, 0.45, 7):
            o = ehrenfest_probe(_vee(1, v), lambda t, v=v: {(1, 2): t, (1, 3): v},
                                0.4)
            assert o == 2, f"V N-S12 at mu13={v}: order {o}"
            checks += 1
        for v in rng.uniform(0.02, 0.35, 7):
            o = ehrenfest_probe(_vee(v, 1), lambda t, v=v: {(1, 2): v, (1, 3): t},
                                0.5)
            assert o == 2, f"V N-S13 at mu12={v}: order {o}"
            checks += 1
        for v in rng.uniform(0.55, 1.9, 7):
            root = crossing_for(_vee(v, 1), (1, 3), (1, 2), v, (0.45, 4.0))
            o = ehrenfest_probe(_vee(v, 1), lambda t, v=v: {(1, 2): v, (1, 3): t},
                                root)
            assert o == 1, f"V S12-S13 at mu12={v}: order {o}"
            checks += 1
        assert checks >= 20

        checks = 0
        # Lambda: N<->S13 second, N<->S23 first, S13<->S23 first
        mu_star_23 = normal_boundary(_lam(1, 1), (2, 3))
        for v in rng.uniform(0.02, 0.58, 7):
            o = ehrenfest_probe(_lam(1, v), lambda t, v=v: {(1, 3): t, (2, 3): v},
                                0.5)
            assert o == 2, f"Lambda N-S13 at mu23={v}: order {o}"
            checks += 1
        for v in rng.uniform(0.02, 0.45, 7):
            o = ehrenfest_probe(_lam(v, 1), lambda t, v=v: {(1, 3): v, (2, 3): t},
                                mu_star_23)
            assert o == 1, f"Lambda N-S23 at mu13={v}: order {o}"
            checks += 1
        for v in rng.uniform(0.55, 1.9, 7):
            root = crossing_for(_lam(v, 1), (2, 3), (1, 3), v, (0.55, 4.0))
            o = ehrenfest_probe(_lam(v, 1), lambda t, v=v: {(1, 3): v, (2, 3): t},
                                root)
            assert o == 1, f"Lambda S13-S23 at mu13={v}: order {o}"
            checks += 1
        assert checks >= 20
        ok = True
    finally:
        _report(3, "Ehrenfest probe orders: 2 at normal-ground boundaries, "
                   "1 at Maxwell sets, >=20 points per configuration", ok)


def test_criterion_04_observable_identities():
    ok = False
    try:
        rng = np.random.default_rng(4)
        tested = 0
        while tested < 1000:
            n = int(rng.integers(2, 5))
            all_pairs = [(j, k) for j in range(1, n + 1)
                         for k in range(j + 1, n + 1)]
            pair = all_pairs[int(rng.integers(len(all_pairs)))]
            system = random_system(rng, n, collective_pair=pair)
            cand = {c.pair: c for c in candidates(system)}[pair]
            if not cand.exists:
                continue
            residual = universal_relation_residual(system, cand)
            assert abs(residual) <= 1e-12
            obs = expectations(system, cand)
            assert math.fsum(obs.pop) == 1.0
            assert obs.var_nu == obs.nu
            j, k = pair
            assert abs(obs.coh[pair]
                       - math.sqrt(obs.pop[j - 1] * obs.pop[k - 1])) <= 1e-12
            tested += 1
        ok = True
    finally:
        _report(4, "universal relation residual 0 (1e-12), population closure "
                   "exact, Poissonian field exact, coh = sqrt(p q), 1000 "
                   "random collective points", ok)


def test_criterion_05_gradient_vs_finite_differences():
    ok = False
    try:
        rng = np.random.default_rng(5)
        step = 1e-5
        for draw in range(100):
            n = 2 + draw % 3
            system = random_system(rng, n)
            rho = rng.uniform(0.0, 2.0, n - 1)
            g = gradient(system, rho)
            fd = np.empty_like(g)
            for i in range(n - 1):
                up, dn = rho.copy(), rho.copy()
                up[i] += step
                dn[i] -= step
                fd[i] = (reduced_energy(system, up)
                         - reduced_energy(system, dn)) / (2 * step)
            err = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-8)
            assert err <= 1e-6, f"draw {draw}: relative error {err:.3e}"
        ok = True
    finally:
        _report(5, "analytic gradient vs central finite differences, 1e-6 "
                   "relative, 100 draws, n in {2,3,4}", ok)


def test_criterion_06_rwa_grid_equals_full_at_doubled_couplings():
    ok = False
    try:
        axes_rwa = [((1, 2), (0.0, 2.0)), ((2, 3), (0.0, 2.0))]
        axes_full = [((1, 2), (0.0, 1.0)), ((2, 3), (0.0, 1.0))]
        rwa_grid = scan_grid(_xi(0, 0), axes_rwa, 20, rwa=True)
        full_grid = scan_grid(_xi(0, 0), axes_full, 20)
        assert np.array_equal(rwa_grid.labels, full_grid.labels)
        ok = True
    finally:
        _report(6, "rotating-wave phase-grid labels equal the full-model grid "
                   "with all couplings doubled, cell for cell", ok)


def test_criterion_07_sector_structure_and_rwa_charges():
    ok = False
    try:
        system = _xi(1.0, 1.0)
        basis = build_basis(system, 1, {(1, 2): 2, (2, 3): 2})
        sectors = split_sectors(system, basis)
        assert sorted(s.label for s in sectors) == ["ee", "eo", "oe", "oo"]
        owner = np.empty(basis.size, dtype=int)
        for s_id, sector in enumerate(sectors):
            owner[sector.indices] = s_id
        H = build_hamiltonian(system, basis).tocoo()
        for r, c, v in zip(H.row, H.col, H.data):
            if v != 0.0:
                assert owner[r] == owner[c], f"element {r},{c} crosses sectors"

        charges = SymmetryCharges.from_system(system)
        K = np.array([
            charges.of_occupations(basis.ket(i).nu_by_pair(), basis.ket(i).n)
            for i in range(basis.size)
        ])
        H_rwa = build_hamiltonian(system, basis, rwa=True).tocoo()
        for r, c, v in zip(H_rwa.row, H_rwa.col, H_rwa.data):
            if v != 0.0:
                assert np.array_equal(K[r], K[c]), \
                    f"rotating-wave element {r},{c} changes a charge"
        ok = True
    finally:
        _report(7, "no cross-sector elements at cutoffs (2,2) (exhaustive); "
                   "rotating-wave elements preserve all charges exactly", ok)


def test_criterion_08_variational_bound_and_atom_number_trend():
    ok = False
    try:
        grid = np.linspace(0.0, 2.0, 10)
        mean_gap = {}
        for atoms in (1, 2):
            gaps = []
            for a in grid:
                for b in grid:
                    system = _xi(float(a), float(b), atom_count=atoms)
                    start = suggest_cutoffs(system, atoms)
                    _, result = converge_cutoff(system, atoms, start, tol=1e-6)
                    e_var = minimize(system).energy
                    assert result.energy <= e_var + 1e-9, (
                        f"bound violated at mu=({a},{b}), atoms={atoms}: "
                        f"exact {result.energy} vs variational {e_var}"
                    )
                    gaps.append(e_var - result.energy)
            mean_gap[atoms] = float(np.mean(gaps))
        assert mean_gap[2] < mean_gap[1], f"mean gaps {mean_gap}"
        ok = True
    finally:
        _report(8, "exact <= variational + 1e-9 on converged 10x10 grids; "
                   "mean gap shrinks from one atom to two", ok)


def test_criterion_09_photon_imbalance_structure():
    ok = False
    try:
        cut = {(1, 2): 26, (2, 3): 45}
        deep_low = ground_state(_xi(1.5, 0.1, atom_count=2), 2, cut)
        assert delta_nu(deep_low, (1, 2), (2, 3)) < -0.9
        deep_high = ground_state(_xi(0.1, 1.5, atom_count=2), 2, cut)
        assert delta_nu(deep_high, (1, 2), (2, 3)) > 0.9
        normal = ground_state(_xi(0.0, 0.3, atom_count=2), 2, 8)
        assert delta_nu(normal, (1, 2), (2, 3)) is None

        # the zero crossing tracks the variational Maxwell separatrix
        curve = collective_boundary(
            _xi(1.0, 1.0), (2, 3), (1, 2),
            BoundarySweep(fixed_values=(1.0,), solve_range=(0.76, 2.0)),
        )
        separatrix_mu23 = curve.points[0][0]
        lo, hi = 0.80, 1.05
        cut = {(1, 2): 30, (2, 3): 45}
        for _ in range(14):
            mid = 0.5 * (lo + hi)
            result = ground_state(_xi(1.0, mid, atom_count=2), 2, cut)
            if delta_nu(result, (1, 2), (2, 3)) < 0.0:
                lo = mid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
        assert abs(crossing - separatrix_mu23) < 0.1, (
            f"delta-nu crossing {crossing} vs separatrix {separatrix_mu23}"
        )
        ok = True
    finally:
        _report(9, "photon imbalance: < -0.9 deep in S_1_2, > +0.9 deep in "
                   "S_2_3, undefined at mu12=0, zero crossing within 0.1 of "
                   "the Maxwell separatrix (two atoms)", ok)


def test_criterion_10_deterministic_outputs(tmp_path):
    ok = False
    try:
        system_path = tmp_path / "system.json"
        system_path.write_text(json.dumps(_xi(1.0, 1.0).to_dict()))
        system = ["--system", str(system_path)]
        runs = {
            "grid": ["phase-diagram", *system,
                     "--axes", "1-2", "--axes", "2-3", "--range", "0:2",
                     "--res", "7"],
            "sweep": ["observables", *system, "--axes", "2-3",
                      "--range", "0:2", "--res", "41"],
            "polar": ["observables", *system, "--zeta", "1-2,2-3",
                      "--mu", "1.2", "--res", "41"],
            "exact": ["exact", *system, "--na", "1", "--cutoff", "12"],
            "compare": ["compare", *system,
                        "--axes", "1-2", "--range", "0.2:1.4", "--res", "3",
                        "--na", "1", "--cutoff", "14"],
        }
        meta = ["tool", "version", "command", "config_sha256"]
        for name, args in runs.items():
            suffix = ".json" if args[0] in ("exact", "compare") else ".csv"
            first = tmp_path / f"{name}_first{suffix}"
            second = tmp_path / f"{name}_second{suffix}"
            assert cli_main(args + ["--out", str(first)]) == 0
            assert cli_main(args + ["--out", str(second)]) == 0
            outputs = [(first, second)]
            if name == "grid":
                outputs.append(tuple(
                    tmp_path / f"{name}_{run}.separatrix.json"
                    for run in ("first", "second")))
            for a, b in outputs:
                assert a.read_bytes() == b.read_bytes(), a.name
                text = a.read_text()
                assert "NaN" not in text and "Infinity" not in text
                if a.suffix == ".csv":
                    keys = [line[2:].split(":")[0]
                            for line in text.splitlines()
                            if line.startswith("#")]
                    assert keys == meta, a.name
                else:
                    assert sorted(json.loads(text)["meta"]) == sorted(meta)
        ok = True
    finally:
        _report(10, "repeated runs with the same inputs produce "
                    "byte-identical CSV/JSON (grid, sidecar, sweeps, exact, "
                    "compare) with metadata tool/version/command/config hash; "
                    "no non-finite values emitted", ok)
