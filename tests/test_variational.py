import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydicke import (
    AtomicSystem,
    FieldAmplitudes,
    MatterAmplitudes,
    Transition,
    candidates,
    condensate,
    energy_surface_full,
    gradient,
    minimize,
    minimize_numeric,
    photon_stationary_r,
    reduced_energy,
    variational_state_params,
)
from polydicke import quantum, variational

from conftest import random_system

RHO_C_12 = math.sqrt(3.0 / 5.0)          # cascade benchmark, mu12 = 1
E_12 = -0.5625
R_C_12 = 0.9682458365518543              # 2 * mu * rho / (Omega (1 + rho^2))
ETA_C_23 = math.sqrt(3.85 / 4.15)        # cascade benchmark, mu23 = 1
E_23 = -0.8528125
R_C_23 = 4.0 * ETA_C_23 / (1.0 + ETA_C_23 ** 2)   # 2 mu eta/(Omega (1+eta^2))


def _without_mode_loops(system):
    """The system with each mode that would close a loop of coupled levels
    dropped, in pair order."""
    root = list(range(system.n + 1))

    def find(level):
        while root[level] != level:
            level = root[level]
        return level

    kept = []
    for t in system.transitions:
        a, b = find(t.j), find(t.k)
        if a != b:
            root[a] = b
            kept.append(t)
    return AtomicSystem(n=system.n, omega=system.omega,
                        transitions=tuple(kept))


def zero_matter(n):
    return MatterAmplitudes.from_vector([0.0] * (n - 1))


def zero_field(system):
    return FieldAmplitudes(r={p: 0.0 for p in system.pairs},
                           theta={p: 0.0 for p in system.pairs})


def stationary_field(system, matter):
    return FieldAmplitudes(r=photon_stationary_r(system, matter),
                           theta={p: 0.0 for p in system.pairs})


class TestEnergySurface:
    def test_vacuum_energy_is_zero(self, xi):
        system = xi()
        assert energy_surface_full(system, zero_field(system),
                                   zero_matter(3)) == 0.0

    def test_quarter_turn_phases_kill_interaction(self, xi):
        system = xi()
        matter = MatterAmplitudes.from_vector([0.7, 0.4])
        field = FieldAmplitudes(r={p: 0.5 for p in system.pairs},
                                theta={p: math.pi / 2 for p in system.pairs})
        rho = matter.rho_vector(3)
        denom = 1.0 + rho @ rho
        diagonal = (sum(system.transition(p).Omega * 0.25 for p in system.pairs)
                    + np.dot(system.omega[1:], rho * rho) / denom)
        assert energy_surface_full(system, field, matter) == pytest.approx(
            diagonal, abs=1e-14)

    def test_low_branch_critical_point_energy(self, xi):
        # full surface at the stationary field of the (1,2) condensate
        system = xi(mu12=1.0, mu23=0.0)
        matter = MatterAmplitudes.from_vector([RHO_C_12, 0.0])
        field = stationary_field(system, matter)
        assert energy_surface_full(system, field, matter) == pytest.approx(
            E_12, abs=1e-12)

    def test_rejects_mismatched_dimensions(self, xi):
        system = xi()
        with pytest.raises(ValueError):
            energy_surface_full(system, zero_field(system),
                                MatterAmplitudes.from_vector([0.1]))
        with pytest.raises(ValueError):
            energy_surface_full(
                system,
                FieldAmplitudes(r={(1, 2): 0.0}, theta={(1, 2): 0.0}),
                zero_matter(3),
            )

    def test_phase_pair_flip_leaves_energy_unchanged(self, xi, vee):
        # flipping theta by pi together with the matching matter-phase flip
        # (applied to all levels on one side of the transition) is a symmetry
        rng = np.random.default_rng(42)
        for system, flip_pair, phi_flips in (
            (xi(), (2, 3), (3,)),       # cut between levels 2 and 3
            (xi(), (1, 2), (2, 3)),     # cut below level 2: flip both uppers
            (vee(), (1, 3), (3,)),
        ):
            rho = rng.uniform(0.1, 1.5, 2)
            r = {p: float(rng.uniform(0.0, 1.0)) for p in system.pairs}
            theta = {p: 0.0 for p in system.pairs}
            matter = MatterAmplitudes.from_vector(rho)
            base = energy_surface_full(
                system, FieldAmplitudes(r=r, theta=theta), matter)
            theta_f = dict(theta)
            theta_f[flip_pair] = theta_f[flip_pair] + math.pi
            phi = {k: (math.pi if k in phi_flips else 0.0) for k in (2, 3)}
            flipped = energy_surface_full(
                system, FieldAmplitudes(r=r, theta=theta_f),
                MatterAmplitudes(rho=matter.rho, phi=phi))
            assert flipped == pytest.approx(base, abs=1e-13)


class TestPhasesAndField:
    def test_zero_matter_gives_zero_field(self, xi):
        system = xi()
        r = photon_stationary_r(system, zero_matter(3))
        assert all(v == 0.0 for v in r.values())

    def test_two_level_critical_field(self):
        system = AtomicSystem(n=2, omega=(0.0, 1.0),
                              transitions=(Transition(1, 2, 1.0, 1.0),))
        rho_c = math.sqrt(3.0 / 5.0)
        r = photon_stationary_r(system, MatterAmplitudes.from_vector([rho_c]))
        assert r[(1, 2)] == pytest.approx(0.968246, abs=1e-6)
        assert r[(1, 2)] ** 2 == pytest.approx(0.9375, abs=1e-6)

    def test_equal_superposition_field(self):
        system = AtomicSystem(n=2, omega=(0.0, 1.0),
                              transitions=(Transition(1, 2, 1.0, 1.0),))
        r = photon_stationary_r(system, MatterAmplitudes.from_vector([1.0]))
        assert r[(1, 2)] == pytest.approx(1.0, abs=1e-15)


class TestReducedSurface:
    def test_normal_point(self, xi):
        assert reduced_energy(xi(), zero_matter(3)) == 0.0

    def test_matches_low_branch_closed_form(self, xi):
        system = xi(mu12=1.0, mu23=1.0)
        value = reduced_energy(system,
                               MatterAmplitudes.from_vector([RHO_C_12, 0.0]))
        assert value == pytest.approx(E_12, abs=1e-12)

    def test_rejects_non_finite_radii(self, xi):
        with pytest.raises(ValueError):
            reduced_energy(xi(), [math.inf, 0.0])

    def test_equals_full_surface_at_stationary_field(self, xi, vee, lam):
        rng = np.random.default_rng(7)
        for make in (xi, vee, lam):
            system = make(0.9, 1.3)
            for _ in range(5):
                matter = MatterAmplitudes.from_vector(rng.uniform(0, 2, 2))
                full = energy_surface_full(
                    system, stationary_field(system, matter), matter)
                assert reduced_energy(system, matter) == pytest.approx(
                    full, abs=1e-12)


class TestGradient:
    def test_zero_at_origin(self, xi):
        assert np.all(gradient(xi(), zero_matter(3)) == 0.0)

    def test_zero_at_two_level_critical_point(self):
        system = AtomicSystem(n=2, omega=(0.0, 1.0),
                              transitions=(Transition(1, 2, 1.0, 1.0),))
        g = gradient(system, [math.sqrt(3.0 / 5.0)])
        assert abs(g[0]) < 1e-12

    def test_matches_finite_differences(self, xi):
        system = xi()
        rng = np.random.default_rng(11)
        step = 1e-5
        for _ in range(10):
            rho = rng.uniform(0.05, 2.0, 2)
            g = gradient(system, rho)
            fd = np.empty_like(g)
            for i in range(2):
                up, dn = rho.copy(), rho.copy()
                up[i] += step
                dn[i] -= step
                fd[i] = (reduced_energy(system, up)
                         - reduced_energy(system, dn)) / (2 * step)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-8)


class TestSurfaceProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4))
    def test_random_systems(self, seed, n):
        # the reduced surface is the full one at the stationary field and
        # zero phases, its gradient matches central differences, and all
        # four stay finite out to radius 1e75, whose square is still finite
        rng = np.random.default_rng(seed)
        system = random_system(rng, n)
        cap = 1e75
        moderate = np.tan(0.45 * math.pi * rng.uniform(0.0, 1.0, (4, n - 1)))
        far = [np.full(n - 1, cap), cap * rng.uniform(0.0, 1.0, n - 1)]
        for rho in [*moderate, *far]:
            matter = MatterAmplitudes.from_vector(rho)
            energy = reduced_energy(system, rho)
            g = gradient(system, rho)
            field = stationary_field(system, matter)
            full = energy_surface_full(system, field, matter)
            assert np.all(np.isfinite([energy, full, *g, *field.r.values()]))
            assert full == pytest.approx(energy, abs=1e-12)
        step = 1e-5
        for rho in moderate:
            fd = [(reduced_energy(system, rho + h)
                   - reduced_energy(system, rho - h)) / (2 * step)
                  for h in step * np.eye(n - 1)]
            assert np.allclose(gradient(system, rho), fd, rtol=1e-6,
                               atol=1e-8)


class TestCandidates:
    def test_cascade_benchmark_candidate_set(self, xi):
        cands = {(c.kind, c.pair): c for c in candidates(xi(1.0, 1.0))}
        assert len(cands) == 3
        normal = cands[("normal", None)]
        assert normal.energy == 0.0 and normal.exists
        low = cands[("low", (1, 2))]
        assert low.exists
        assert low.energy == pytest.approx(E_12, abs=1e-12)
        assert low.matter_amp == pytest.approx(RHO_C_12, abs=1e-12)
        high = cands[("high", (2, 3))]
        assert high.exists
        assert high.energy == pytest.approx(E_23, abs=1e-12)
        assert high.matter_amp == pytest.approx(ETA_C_23, abs=1e-12)

    def test_boundary_candidate_has_zero_amplitude(self, xi):
        cands = {c.pair: c for c in candidates(xi(0.5, 0.0))}
        low = cands[(1, 2)]
        assert low.exists
        assert low.matter_amp == 0.0
        assert low.energy == 0.0

    def test_below_boundary_candidate_does_not_exist(self, xi):
        cands = {c.pair: c for c in candidates(xi(0.3, 0.0))}
        assert not cands[(1, 2)].exists
        assert not cands[(2, 3)].exists
        assert cands[(1, 2)].energy is None

    def test_candidate_count_is_one_plus_transitions(self, cascade4):
        assert len(candidates(cascade4())) == 4


def reference_candidates(system):
    """Scalar closed forms, one transition at a time (the kernel's reference)."""
    out = []
    for p in system.pairs:
        t = system.transition(p)
        dw = system.omega[t.k - 1] - system.omega[t.j - 1]
        a = 4.0 * t.mu * t.mu
        b = dw * t.Omega
        if t.mu == 0.0 or a < b:
            out.append((p, False, None, None, None))
            continue
        x = math.sqrt((a - b) / (a + b))
        r = 2.0 * t.mu * x / (t.Omega * (1.0 + x * x))
        energy = system.omega[t.j - 1] - (a - b) ** 2 / (16.0 * t.Omega * t.mu * t.mu)
        out.append((p, True, x, r, energy))
    return out


class TestCondensateKernel:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_scalar_reference(self, n):
        # the kernel squares by multiplication and the reference by pow, so
        # the two may differ in the last bit only
        rng = np.random.default_rng(40 + n)
        for _ in range(60):
            system = random_system(rng, n)
            got = candidates(system)[1:]
            for c, (p, exists, x, r, energy) in zip(got, reference_candidates(system)):
                assert c.pair == p and c.exists == exists
                if exists:
                    assert c.matter_amp == pytest.approx(x, rel=1e-14, abs=1e-300)
                    assert c.photon_amp == pytest.approx(r, rel=1e-14, abs=1e-300)
                    assert c.energy == pytest.approx(energy, rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_array_equals_scalar_bit_for_bit(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(20):
            system = random_system(rng, n)
            mu = np.concatenate(([0.0], rng.uniform(0.0, 3.0, 40)))
            for p in system.pairs:
                whole = condensate(system, p, mu)
                for i, m in enumerate(mu):
                    one = condensate(system, p, m)
                    assert one.exists == whole.exists[i]
                    assert one.energy == whole.energy[i]
                    if one.exists:
                        assert (one.x, one.r, one.b_over_a) == (
                            whole.x[i], whole.r[i], whole.b_over_a[i])

    def test_absent_condensate_has_infinite_energy(self, xi):
        c = condensate(xi(), (1, 2), [0.0, 0.3, 0.5, 1.0])
        assert c.exists.tolist() == [False, False, True, True]
        assert c.energy[0] == c.energy[1] == math.inf
        assert c.energy[2] == 0.0 and c.x[2] == 0.0
        assert c.energy[3] == pytest.approx(E_12, abs=1e-15)

    def test_defaults_to_own_coupling(self, xi):
        c = condensate(xi(1.0, 1.0), (2, 3))
        assert c.exists
        assert c.energy == pytest.approx(E_23, abs=1e-15)
        assert c.x == pytest.approx(ETA_C_23, abs=1e-15)
        assert c.r == pytest.approx(R_C_23, abs=1e-15)


class TestMinimize:
    def test_high_branch_wins_at_benchmark_point(self, xi):
        best = minimize(xi(1.0, 1.0))
        assert best.kind == "high" and best.pair == (2, 3)
        assert best.energy == pytest.approx(E_23, abs=1e-12)

    def test_normal_wins_at_weak_coupling(self, xi):
        best = minimize(xi(0.2, 0.2))
        assert best.region == "N" and best.energy == 0.0

    def test_low_branch_wins_alone(self, xi):
        best = minimize(xi(1.0, 0.0))
        assert best.region == "S_1_2"
        assert best.energy == pytest.approx(E_12, abs=1e-12)

    def test_tie_at_bifurcation_goes_to_normal(self, xi):
        # at the exact boundary both energies are 0; order prefers normal
        assert minimize(xi(0.5, 0.0)).region == "N"

    def test_scaling_property(self, xi, vee, lam):
        rng = np.random.default_rng(3)
        for make in (xi, vee, lam):
            system = make(1.1, 0.9)
            for _ in range(5):
                s = float(rng.uniform(0.2, 5.0))
                scaled = AtomicSystem(
                    n=system.n,
                    omega=tuple(w * s for w in system.omega),
                    transitions=tuple(
                        Transition(t.j, t.k, t.Omega * s, t.mu * s)
                        for t in system.transitions),
                    atom_count=system.atom_count,
                )
                for a, b in zip(candidates(system), candidates(scaled)):
                    assert a.exists == b.exists
                    if a.exists and a.energy is not None:
                        assert b.energy == pytest.approx(a.energy * s,
                                                         rel=1e-12, abs=1e-12)
                        if a.matter_amp is not None:
                            assert b.matter_amp == pytest.approx(
                                a.matter_amp, abs=1e-12)

    def test_low_branch_boundary_continuity(self, xi):
        mu_star = 0.5
        for eps in (1e-2, 1e-4, 1e-6):
            cand = {c.pair: c for c in
                    candidates(xi(mu_star * (1 + eps), 0.0))}[(1, 2)]
            assert cand.exists
            assert cand.matter_amp < 2.5 * math.sqrt(eps)
            assert abs(cand.energy) < 4.0 * eps ** 2


class TestCriticalPointAnnihilation:
    def test_gradient_vanishes_at_every_existing_candidate(self):
        # low candidates annihilate the full reduced gradient; high ones the
        # gradient of their equivalent two-level subsystem
        rng = np.random.default_rng(19)
        for _ in range(20):
            system = random_system(rng, int(rng.integers(2, 5)))
            for cand in candidates(system):
                if not cand.exists or cand.pair is None:
                    continue
                j, k = cand.pair
                boundary = 0.0 if cand.kind == "low" else system.omega[j - 1]
                assert cand.energy <= boundary + 1e-15
                if cand.kind == "low":
                    rho = np.zeros(system.n - 1)
                    rho[k - 2] = cand.matter_amp
                    g = gradient(system, rho)
                    assert np.max(np.abs(g)) < 1e-10
                else:
                    t = system.transition(cand.pair)
                    dw = system.omega[k - 1] - system.omega[j - 1]
                    sub = AtomicSystem(
                        n=2, omega=(0.0, dw),
                        transitions=(Transition(1, 2, t.Omega, t.mu),))
                    g = gradient(sub, [cand.matter_amp])
                    assert abs(g[0]) < 1e-10
                    sub_e = candidates(sub)[1].energy
                    assert cand.energy == pytest.approx(
                        system.omega[j - 1] + sub_e, abs=1e-12)


class TestNumericOracle:
    def test_low_branch_agrees(self, xi):
        result = minimize_numeric(xi(1.0, 0.0), seed=1)
        assert result.energy == pytest.approx(E_12, abs=1e-8)

    def test_all_zero_couplings(self, xi):
        result = minimize_numeric(xi(0.0, 0.0), seed=1)
        assert result.energy == pytest.approx(0.0, abs=1e-12)
        assert np.all(result.matter.rho_vector(3) < 1e-5)

    def test_high_branch_agrees_with_ratio(self, xi):
        result = minimize_numeric(xi(1.0, 1.0), seed=1)
        assert result.energy == pytest.approx(E_23, abs=1e-6)
        rho = result.matter.rho_vector(3)
        assert rho[0] > 100.0
        assert rho[1] / rho[0] == pytest.approx(ETA_C_23, abs=1e-3)

    def test_rejects_bad_start_count(self, xi):
        for starts in (0, -1, 2.5, 2.0, True, "2", None):
            with pytest.raises(ValueError, match="starts"):
                minimize_numeric(xi(), starts=starts)
        assert minimize_numeric(xi(), starts=np.int64(1)).energy == (
            pytest.approx(E_23, abs=1e-6))

    def test_radius_cap_is_fixed(self, xi):
        with pytest.raises(TypeError, match="rho_cap"):
            minimize_numeric(xi(1.0, 1.0), rho_cap=1e4)

    def test_loads_no_scipy_optimize(self, xi, tmp_path):
        # the closed-form commands load no scipy at all; the first exact
        # solve does, and _scipy_minimize still resolves to scipy's minimize
        # for code that wraps that name
        src = Path(__file__).resolve().parent.parent / "src"
        system = tmp_path / "sys.json"
        system.write_text(json.dumps(xi().to_dict()))
        given = ["--system", str(system)]
        plane = given + ["--axes", "1-2", "--axes", "2-3", "--range", "0:2",
                         "--res", "20"]
        commands = [
            ["validate", *given],
            ["phase-diagram", *plane, "--out", str(tmp_path / "pd.csv")],
            ["phase-diagram", *plane, "--rwa",
             "--out", str(tmp_path / "pd_rwa.csv")],
            ["observables", *given, "--axes", "1-2", "--range", "0:2",
             "--out", str(tmp_path / "sweep.csv")],
            ["observables", *given, "--zeta", "1-2,2-3",
             "--out", str(tmp_path / "polar.csv")],
        ]
        script = f"""
import sys
import polydicke, polydicke.cli
from polydicke import cascade_system, quantum, variational
for argv in {commands!r}:
    assert polydicke.cli.main(argv) == 0, argv
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
system = cascade_system([0.0, 1.0, 1.3], [1.0, 0.5], [1.0, 1.0])
print(repr(quantum.ground_state(system, 1, 4).energy))
assert "scipy.linalg" in sys.modules
import scipy.optimize
assert variational._scipy_minimize is scipy.optimize.minimize
"""
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        want = quantum.ground_state(xi(1.0, 1.0), 1, 4).energy
        assert float(out.stdout.splitlines()[-1]) == want

    def test_no_stopped_start_raises(self, xi, monkeypatch):
        monkeypatch.setattr(variational, "_SIMPLEX_ITERATIONS", 1)
        with pytest.raises(RuntimeError, match="no start stopped"):
            minimize_numeric(xi(1.0, 1.0))

    # the benchmark's configurations (the xi, lam and cascade4 fixtures) at
    # couplings where a local solver in u = (2/pi) atan(rho) stopped short on
    # the infinite-radius branch, by 1.1e-6 to 2.9e-4
    @pytest.mark.parametrize("make, mu", [
        ("lam", (0.17807086152106555, 0.7524911204329234)),
        ("xi", (0.14471599889579667, 0.7997070387035685)),
        ("xi", (0.06457929695478759, 0.7604311555783687)),
        ("cascade4", (0.9205875004302957, 0.9363464548027265,
                      0.8401110633667304)),
        ("cascade4", (0.7525468835341875, 1.0326814481871038,
                      0.5222460512785729)),
    ], ids=["lam-a", "xi-a", "xi-b", "cascade4-a", "cascade4-b"])
    def test_infinite_radius_branch_reaches_the_closed_form(self, request,
                                                            make, mu):
        system = request.getfixturevalue(make)(*mu)
        closed = minimize(system)
        assert closed.kind == variational.KIND_HIGH
        numeric = minimize_numeric(system, starts=2, seed=0)
        assert abs(numeric.energy - closed.energy) <= 1e-6

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4))
    def test_random_systems(self, seed, n):
        rng = np.random.default_rng(seed)
        system = random_system(rng, n)

        # the reduced surface is a quadratic on the simplex
        for u in rng.uniform(0.0, 0.999, (8, n - 1)):
            rho = np.tan(0.5 * math.pi * u)
            x = np.concatenate(([1.0], rho * rho)) / (1.0 + rho @ rho)
            quadratic = float(np.dot(system.omega, x)) - sum(
                4.0 * t.mu * t.mu / t.Omega * x[t.j - 1] * x[t.k - 1]
                for t in system.transitions)
            assert abs(quadratic - reduced_energy(system, rho)) <= 1e-13

        closed = minimize(system).energy
        numeric = minimize_numeric(system, starts=2, seed=seed % 7)
        rho = numeric.matter.rho_vector(n)
        assert np.all((rho >= 0.0) & (rho <= 1e4))
        assert abs(numeric.energy - reduced_energy(system, rho)) <= 1e-12
        # the closed-form minimum is a value (or limit) of the surface, so
        # the oracle never lies above it
        assert numeric.energy <= closed + 1e-6
        again = minimize_numeric(system, starts=2, seed=seed % 7)
        assert again.energy == numeric.energy
        assert np.array_equal(again.matter.rho_vector(n), rho)

        # the closed forms are the global minimum when the modes form no
        # loop; with a loop, a mixture of three levels can lie lower
        tree = _without_mode_loops(system)
        closed = minimize(tree).energy
        numeric = minimize_numeric(tree, starts=2, seed=0).energy
        assert closed - 1e-12 <= numeric <= closed + 1e-6

    def test_four_level_oracle_grid(self, cascade4):
        grid = np.linspace(0.0, 2.0, 10)
        worst = 0.0
        for a in grid:
            for b in grid:
                for c in grid:
                    system = cascade4(a, b, c)
                    worst = max(worst, abs(minimize(system).energy
                                           - minimize_numeric(system).energy))
        assert worst <= 1e-6


class TestStateRecipe:
    def test_normal_recipe(self, xi):
        recipe = variational_state_params(xi(0.1, 0.1), minimize(xi(0.1, 0.1)))
        assert recipe.levels == (1,)
        assert recipe.field_pair is None
        assert recipe.field_amplitude == 0.0

    def test_low_recipe(self, xi):
        system = xi(1.0, 0.0, atom_count=4)
        recipe = variational_state_params(system, minimize(system))
        assert recipe.levels == (1, 2)
        assert recipe.mixing == pytest.approx(RHO_C_12, abs=1e-12)
        assert recipe.field_amplitude == pytest.approx(2.0 * R_C_12, abs=1e-12)

    def test_high_recipe(self, xi):
        system = xi(0.0, 1.0)
        recipe = variational_state_params(system, minimize(system))
        assert recipe.levels == (2, 3)
        assert recipe.mixing == pytest.approx(ETA_C_23, abs=1e-12)
        assert recipe.field_amplitude == pytest.approx(R_C_23, abs=1e-9)

    def test_rejects_nonexistent_candidate(self, xi):
        cand = [c for c in candidates(xi(0.1, 0.1)) if not c.exists][0]
        with pytest.raises(ValueError):
            variational_state_params(xi(0.1, 0.1), cand)
