import math

import numpy as np
import pytest

from polydicke import (
    candidates,
    cascade_system,
    expectations,
    matter_distribution,
    minimize,
    photon_distribution,
    universal_relation_residual,
    variational_state_params,
)
from polydicke.observables import sweep_rows
from conftest import random_system


def candidate_for(system, pair):
    return {c.pair: c for c in candidates(system)}[pair]


class TestExpectations:
    def test_normal_region(self, xi):
        obs = expectations(xi(0.1, 0.1), minimize(xi(0.1, 0.1)))
        assert obs.pop == (1.0, 0.0, 0.0)
        assert all(v == 0.0 for v in obs.nu.values())
        assert all(v == 0.0 for v in obs.coh.values())

    def test_ground_pair_region_benchmark(self, xi):
        system = xi(1.0, 0.0)
        obs = expectations(system, minimize(system))
        assert obs.pop[0] == pytest.approx(0.625, abs=1e-12)
        assert obs.pop[1] == pytest.approx(0.375, abs=1e-12)
        assert obs.nu[(1, 2)] == pytest.approx(0.9375, abs=1e-12)
        assert obs.var_pop[0] == pytest.approx(0.234375, abs=1e-12)
        assert obs.var_pop[1] == pytest.approx(0.234375, abs=1e-12)

    def test_excited_pair_region_benchmark(self, xi):
        system = xi(0.0, 1.0)
        obs = expectations(system, minimize(system))
        assert obs.pop[1] == pytest.approx(0.51875, abs=1e-12)
        assert obs.pop[2] == pytest.approx(0.48125, abs=1e-12)
        assert obs.nu[(2, 3)] == pytest.approx(3.994375, abs=1e-12)
        assert obs.pop[0] == 0.0

    def test_photon_number_equals_field_radius_squared(self, xi, vee, lam):
        # guards the closed form against the stationary-field radius route
        rng = np.random.default_rng(5)
        for make in (xi, vee, lam):
            for _ in range(20):
                system = make(float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
                for cand in candidates(system):
                    if not cand.exists or cand.pair is None:
                        continue
                    obs = expectations(system, cand)
                    assert obs.nu[cand.pair] == pytest.approx(
                        cand.photon_amp ** 2, abs=1e-12)

    def test_rejects_nonexistent_candidate(self, xi):
        cand = candidate_for(xi(0.1, 0.1), (1, 2))
        with pytest.raises(ValueError):
            expectations(xi(0.1, 0.1), cand)

    def test_population_closure_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            system = random_system(rng, int(rng.integers(2, 5)))
            for cand in candidates(system):
                if cand.exists:
                    obs = expectations(system, cand)
                    assert math.fsum(obs.pop) == 1.0

    def test_poissonian_field_exact(self, xi):
        obs = expectations(xi(1.0, 0.0), minimize(xi(1.0, 0.0)))
        assert obs.var_nu == obs.nu

    def test_populations_pin_at_boundary_and_saturate(self, xi):
        at_boundary = expectations(xi(0.5, 0.0), candidate_for(xi(0.5, 0.0), (1, 2)))
        assert at_boundary.pop[0] == 1.0
        assert at_boundary.pop[1] == 0.0
        deep = expectations(xi(1e6, 0.0), candidate_for(xi(1e6, 0.0), (1, 2)))
        assert deep.pop[0] == pytest.approx(0.5, abs=1e-10)
        assert deep.pop[1] == pytest.approx(0.5, abs=1e-10)

    def test_coherence_is_sqrt_of_population_product(self, xi):
        rng = np.random.default_rng(31)
        for _ in range(25):
            system = xi(float(rng.uniform(0.5, 2)), float(rng.uniform(0.76, 2)))
            best = minimize(system)
            obs = expectations(system, best)
            j, k = best.pair
            assert obs.coh[best.pair] == pytest.approx(
                math.sqrt(obs.pop[j - 1] * obs.pop[k - 1]), abs=1e-12)
            assert obs.coh_phase[best.pair] == 0.0

    def test_continuity_across_second_order_boundary(self, xi):
        eps = 1e-7
        below = expectations(xi(0.5 - eps, 0.0), minimize(xi(0.5 - eps, 0.0)))
        above = expectations(xi(0.5 + eps, 0.0), minimize(xi(0.5 + eps, 0.0)))
        assert above.pop[0] - below.pop[0] == pytest.approx(0.0, abs=1e-5)
        assert above.nu[(1, 2)] == pytest.approx(0.0, abs=1e-5)

    def test_discontinuity_across_first_order_boundary(self, xi):
        eps = 1e-7
        mu_star = math.sqrt(0.5) * (1.0 + math.sqrt(1.3)) / 2.0
        below = expectations(xi(0.2, mu_star - eps),
                             minimize(xi(0.2, mu_star - eps)))
        above = expectations(xi(0.2, mu_star + eps),
                             minimize(xi(0.2, mu_star + eps)))
        assert below.pop[0] == 1.0
        assert above.pop[0] == 0.0
        assert above.nu[(2, 3)] > 1.5


class TestSweepRows:
    def test_rows_are_csv_rows_of_each_point(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            system = random_system(rng, int(rng.integers(2, 5)))
            pair = system.pairs[int(rng.integers(len(system.pairs)))]
            mu = rng.uniform(0.0, 3.0, 40)
            rows = sweep_rows(system, {pair: mu})
            for value, row in zip(mu.tolist(), rows):
                local = system.with_couplings({pair: value})
                assert row == expectations(local, minimize(local)).csv_row()

    def test_underflowing_photon_number_reports_no_pair(self):
        # (mu/Omega)^2 = 1e-326 underflows to 0 while the condensate still
        # wins; csv_row then names no active pair, and neither do the rows
        system = cascade_system([0.0, 1e-130], [1e200], [1e37])
        mu = np.array([1e37, 3e37, 1e20])
        rows = sweep_rows(system, {(1, 2): mu})
        for value, row in zip(mu.tolist(), rows):
            local = system.with_couplings({(1, 2): value})
            assert row == expectations(local, minimize(local)).csv_row()
        assert [row[:3] for row in rows] == [
            ["S_1_2", "-", "0.0"], ["S_1_2", "-", "0.0"], ["N", "-", "0.0"]]
        assert float(rows[0][3]) < 1.0


class TestDistributions:
    def test_normal_photon_distribution_is_vacuum(self, xi):
        p = photon_distribution(xi(0.1, 0.1), minimize(xi(0.1, 0.1)), 10)
        assert p[0] == 1.0
        assert np.all(p[1:] == 0.0)

    def test_poisson_identities(self, xi):
        system = xi(1.0, 0.0)
        p = photon_distribution(system, minimize(system), 60)
        m = np.arange(61)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (p * m).sum() == pytest.approx(0.9375, abs=1e-10)
        mean = (p * m).sum()
        assert (p * (m - mean) ** 2).sum() == pytest.approx(0.9375, abs=1e-10)

    @pytest.mark.parametrize("count", [2.5, 2.0, True, np.True_, "2", None])
    def test_photon_count_must_be_an_integer(self, xi, count):
        # 2.5 used to give 4 probabilities and True 2
        system = xi(1.0, 0.0)
        with pytest.raises(ValueError, match="count must be an integer"):
            photon_distribution(system, minimize(system), count)

    def test_photon_count_must_be_nonnegative(self, xi):
        system = xi(1.0, 0.0)
        with pytest.raises(ValueError, match="count must be nonnegative"):
            photon_distribution(system, minimize(system), -1)
        assert len(photon_distribution(system, minimize(system),
                                       np.int64(3))) == 4

    def test_partial_sums_monotone(self, xi):
        system = xi(1.0, 0.0)
        best = minimize(system)
        sums = [photon_distribution(system, best, c).sum() for c in (2, 5, 10, 40)]
        assert all(a < b for a, b in zip(sums, sums[1:]))
        assert sums[-1] <= 1.0 + 1e-12

    def test_binomial_matter_distribution(self, xi):
        system = xi(1.0, 0.0, atom_count=2)
        p = matter_distribution(system, minimize(system))
        assert p == pytest.approx([0.390625, 0.46875, 0.140625], abs=1e-12)

    def test_binomial_mean_is_upper_population(self, xi):
        system = xi(1.3, 0.0, atom_count=7)
        best = minimize(system)
        p = matter_distribution(system, best)
        obs = expectations(system, best)
        mean = float((p * np.arange(8)).sum())
        assert mean == pytest.approx(7 * obs.pop[1], abs=1e-10)

    def test_normal_matter_distribution(self, xi):
        system = xi(0.1, 0.1, atom_count=5)
        p = matter_distribution(system, minimize(system))
        assert p[0] == 1.0
        assert np.all(p[1:] == 0.0)

    def test_matter_and_field_moments_factorize(self, xi):
        # the recipe carries independent matter and field parts, so any joint
        # moment assembled from it is the product of the marginal moments
        system = xi(1.0, 0.0, atom_count=3)
        best = minimize(system)
        recipe = variational_state_params(system, best)
        assert recipe.field_pair == best.pair
        field_p = photon_distribution(system, best, 80)
        matter_p = matter_distribution(system, best)
        joint = np.outer(matter_p, field_p)
        x = np.arange(matter_p.size)
        m = np.arange(field_p.size)
        joint_moment = float((joint * np.outer(x, m)).sum())
        product = float((matter_p * x).sum() * (field_p * m).sum())
        assert joint_moment == pytest.approx(product, rel=1e-12)


class TestUniversalRelation:
    def test_zero_at_benchmark_points(self, xi):
        assert universal_relation_residual(
            xi(1.0, 0.0), candidate_for(xi(1.0, 0.0), (1, 2))) == 0.0
        assert universal_relation_residual(
            xi(0.0, 1.0), candidate_for(xi(0.0, 1.0), (2, 3))) == pytest.approx(
                0.0, abs=1e-12)

    def test_boundary_form(self, xi):
        # at the Maxwell boundary the relation reads
        # nu = (sqrt(w_j)+sqrt(w_k))^2/Omega * var_pop
        mu_star = math.sqrt(0.5) * (1.0 + math.sqrt(1.3)) / 2.0
        system = xi(0.0, mu_star)
        cand = candidate_for(system, (2, 3))
        obs = expectations(system, cand)
        lhs = obs.nu[(2, 3)]
        rhs = (math.sqrt(1.0) + math.sqrt(1.3)) ** 2 / 0.5 * obs.var_pop[1]
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_rejects_normal_region(self, xi):
        with pytest.raises(ValueError):
            universal_relation_residual(xi(0.1, 0.1), minimize(xi(0.1, 0.1)))
