import numpy as np
import pytest

from polydicke import (
    AtomicSystem,
    Transition,
    WeightError,
    charges,
    excitation_weights,
    minimize,
    rwa_rescale,
)
from conftest import random_system


class TestRwaRescale:
    def test_halves_every_coupling(self, xi):
        scaled = rwa_rescale(xi(1.0, 0.6))
        assert scaled.transition((1, 2)).mu == 0.5
        assert scaled.transition((2, 3)).mu == 0.3

    def test_zero_couplings_unchanged(self, xi):
        scaled = rwa_rescale(xi(0.0, 0.0))
        assert all(t.mu == 0.0 for t in scaled.transitions)

    def test_applying_twice_quarters(self, xi):
        scaled = rwa_rescale(rwa_rescale(xi(1.0, 1.0)))
        assert scaled.transition((1, 2)).mu == 0.25

    def test_boundary_moves_to_doubled_coupling(self, xi):
        # the rotating-wave ground-pair boundary sits at mu = 1.0
        assert minimize(rwa_rescale(xi(0.99, 0.0))).region == "N"
        assert minimize(rwa_rescale(xi(1.01, 0.0))).region == "S_1_2"


class TestExcitationWeights:
    def test_three_level_configurations(self, xi, vee, lam):
        assert excitation_weights(xi()) == (0, 1, 2)
        assert excitation_weights(vee()) == (0, 1, 1)
        assert excitation_weights(lam()) == (0, 0, 1)

    def test_four_level_cascade(self, cascade4):
        assert excitation_weights(cascade4()) == (0, 1, 2, 3)

    def test_inconsistent_loop_fails_loudly(self):
        system = AtomicSystem(
            n=3, omega=(0.0, 1.0, 1.3),
            transitions=(Transition(1, 2, 1.0, 0.5),
                         Transition(1, 3, 1.0, 0.5),
                         Transition(2, 3, 1.0, 0.5)),
        )
        with pytest.raises(WeightError, match="inconsistent weights"):
            excitation_weights(system)

    def test_consistent_diamond_loop(self):
        system = AtomicSystem(
            n=4, omega=(0.0, 1.0, 1.2, 2.0),
            transitions=(Transition(1, 2, 1.0, 0.5),
                         Transition(1, 3, 1.0, 0.5),
                         Transition(2, 4, 1.0, 0.5),
                         Transition(3, 4, 1.0, 0.5)),
        )
        assert excitation_weights(system) == (0, 1, 1, 2)

    def test_disconnected_level_reported(self):
        system = AtomicSystem(n=3, omega=(0.0, 1.0, 1.3),
                              transitions=(Transition(2, 3, 1.0, 0.5),))
        with pytest.raises(WeightError, match="not connected"):
            excitation_weights(system)


class TestCharges:
    def test_vacuum_all_ground(self, xi):
        K = charges(xi().pairs, (0, 0), (3, 0, 0))
        assert list(K) == [3, 0, 0]

    def test_one_photon_one_excited(self, xi):
        K = charges(xi().pairs, (1, 0), (0, 1, 0))
        assert list(K) == [-1, 2, 0]
        assert K.sum() == 1

    def test_upper_photon_top_level(self, xi):
        K = charges(xi().pairs, (0, 1), (0, 0, 1))
        assert list(K) == [0, -1, 2]
        assert K.sum() == 1

    def test_charge_sum_is_atom_number(self):
        # the kernel on a stacked (2, 3) array of kets equals its value ket
        # by ket, and every ket's charges sum to the atom number
        rng = np.random.default_rng(17)
        for _ in range(25):
            system = random_system(rng, int(rng.integers(2, 5)))
            na = int(rng.integers(1, 5))
            occ = rng.multinomial(na, np.ones(system.n) / system.n, (2, 3))
            nu = rng.integers(0, 5, (2, 3, len(system.pairs)))
            K = charges(system.pairs, nu, occ)
            assert K.shape == occ.shape
            for index in np.ndindex(2, 3):
                row = charges(system.pairs, tuple(nu[index].tolist()),
                              tuple(occ[index].tolist()))
                assert np.array_equal(K[index], row)
                assert row.sum() == na

    def test_total_excitation_identity(self, xi, vee, lam):
        # sum lam_l K_l == sum nu + sum lam_k A_kk on every basis ket
        rng = np.random.default_rng(29)
        for make in (xi, vee, lam):
            system = make()
            lam_w = np.array(excitation_weights(system))
            for _ in range(20):
                occ = tuple(int(v) for v in rng.multinomial(3, np.ones(3) / 3))
                nu = tuple(int(v) for v in rng.integers(0, 4, 2))
                K = charges(system.pairs, nu, occ)
                lhs = int(lam_w @ K)
                rhs = sum(nu) + int(lam_w @ np.array(occ))
                assert lhs == rhs
