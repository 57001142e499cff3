import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import random_system
from polydicke import (
    AtomicSystem,
    BudgetError,
    SolverConfig,
    Transition,
    build_basis,
    build_hamiltonian,
    cascade_system,
    charges,
    converge_cutoff,
    delta_nu,
    ground_state,
    minimize,
    rwa_rescale,
    split_sectors,
    suggest_cutoffs,
)
from polydicke import quantum
from polydicke.quantum import SectorVectors, SymmetrySector, _start_vector
from polydicke.symmetries import WeightError, excitation_weights

# dense-diagonalization oracle values for the cascade benchmark
# (Omega12=1, Omega23=0.5, omega2=1, omega3=1.3) at mu12 = mu23 = 1
E_EXACT_NA1 = -1.0453196250760117
E_VAR = -0.8528125


class TestBasis:
    def test_counting_small(self, xi):
        basis = build_basis(xi(), 1, {(1, 2): 1, (2, 3): 1})
        assert basis.size == 2 * 2 * 3 == 12

    def test_atomic_multiplicity(self, xi):
        basis = build_basis(xi(atom_count=2), 2, 0)
        assert basis.atomic_dim == 6  # C(4, 2)

    def test_desk_scale_counting(self, xi):
        basis = build_basis(xi(atom_count=2), 2, 30)
        assert basis.size == 31 * 31 * 6 == 5766

    def test_budget_rejection_is_informative(self, xi):
        with pytest.raises(BudgetError, match="budget"):
            build_basis(xi(), 1, 200, budget=1000)

    @pytest.mark.parametrize("atoms, cut, size", [
        # (2**32)**2 * 3 wrapped to 0 kets in int64 and passed the budget
        (1, 4294967295, 3 * 2 ** 64),
        # the compositions used to be enumerated before the budget check
        (5000, 4, 25 * math.comb(5002, 2)),
        (1_000_000, 4, 25 * math.comb(1_000_002, 2)),
    ], ids=["cutoff-2**32", "atoms-5000", "atoms-1e6"])
    def test_size_is_counted_before_enumeration(self, xi, atoms, cut, size):
        began = time.perf_counter()
        with pytest.raises(BudgetError, match=f"basis of {size} kets"):
            build_basis(xi(), atoms, cut)
        assert time.perf_counter() - began < 1.0

    @pytest.mark.parametrize("budget", [0, -1, 1.5, True, None])
    def test_budget_must_be_an_integer_from_one(self, xi, budget):
        with pytest.raises(ValueError, match="budget must be"):
            build_basis(xi(), 1, 4, budget=budget)

    def test_index_is_inverse_of_enumeration(self, xi):
        basis = build_basis(xi(), 2, {(1, 2): 2, (2, 3): 1})
        for i in range(basis.size):
            assert basis.index(basis.ket(i)) == i

    def test_enumeration_is_lexicographic(self, xi):
        basis = build_basis(xi(), 1, 2)
        seq = [basis.ket(i).nu + basis.ket(i).n for i in range(basis.size)]
        assert seq == sorted(seq)

    def test_rejects_negative_cutoffs(self, xi):
        with pytest.raises(ValueError):
            build_basis(xi(), 1, {(1, 2): -1, (2, 3): 2})

    @pytest.mark.parametrize("cutoffs", [
        True, np.True_, 3.0, 3.7, "3", None,
        {(1, 2): True, (2, 3): 3}, {(1, 2): 3.7, (2, 3): 3},
        {(1, 2): "3", (2, 3): 3}, {(1, 2): np.float64(3.0), (2, 3): 3}])
    def test_rejects_cutoffs_that_are_not_integers(self, xi, cutoffs):
        with pytest.raises(ValueError, match="cutoff of transition 1-2 must "
                                             "be an integer"):
            build_basis(xi(), 1, cutoffs)
        with pytest.raises(ValueError, match="transition 1-2"):
            ground_state(xi(), 1, cutoffs)

    def test_negative_cutoff_names_the_transition(self, xi):
        with pytest.raises(ValueError, match="transition 2-3 must be "
                                             "nonnegative, got -1"):
            build_basis(xi(), 1, {(1, 2): 2, (2, 3): -1})

    def test_numpy_integer_cutoffs(self, xi):
        want = ground_state(xi(), 1, {(1, 2): 4, (2, 3): 3})
        for cutoffs in ({(1, 2): np.int64(4), (2, 3): np.int32(3)},
                        {(1, 2): np.uint8(4), (2, 3): 3}):
            got = ground_state(xi(), 1, cutoffs)
            assert got == want
            assert all(type(c) is int for c in got.cutoffs.values())
        shared = ground_state(xi(), 1, np.int64(4))
        assert shared == ground_state(xi(), 1, 4)
        assert all(type(c) is int for c in shared.cutoffs.values())
        assert shared.to_json_dict()["cutoffs"] == {"1_2": 4, "2_3": 4}

    @pytest.mark.parametrize("atoms", [0, -1, -2, 1.5, True, np.True_, "2",
                                       None])
    def test_atom_count_must_be_an_integer_from_one(self, xi, atoms,
                                                    component_searches):
        # one check for every entry point: suggest_cutoffs used to return
        # cutoffs for 0 and 1.5 atoms and to fail with a math domain error
        # at -1, and ground_state solved one atom for True
        message = f"atom_count must be .*, got {re.escape(repr(atoms))}"
        for call in (lambda: build_basis(xi(), atoms, 4),
                     lambda: suggest_cutoffs(xi(), atoms),
                     lambda: ground_state(xi(), atoms, 4),
                     lambda: converge_cutoff(xi(), atoms, 4, tol=1e-6)):
            with pytest.raises(ValueError, match=message):
                call()
        assert component_searches == []

    @pytest.mark.parametrize("index", [10 ** 6, 54, -1, 2.5, True, None],
                             ids=["huge", "size", "negative", "float", "bool",
                                  "none"])
    def test_ket_rejects_an_index_outside_the_basis(self, xi, index):
        # 10**6 and -1 used to wrap round into a ket of the basis
        basis = build_basis(xi(), 2, 2)
        with pytest.raises(ValueError):
            basis.ket(index)

    @pytest.mark.parametrize("nu, n, pairs", [
        ((1,), (0, 1, 1), ((1, 2), (2, 3))),
        ((1, 1, 0), (0, 1, 1), ((1, 2), (2, 3))),
        ((1, 1), (0, 1, 1), ((1, 2), (1, 3))),
        ((1, 3), (0, 1, 1), ((1, 2), (2, 3))),
        ((-1, 1), (0, 1, 1), ((1, 2), (2, 3))),
        ((1, 1), (0, 2), ((1, 2), (2, 3))),
        ((1, 1), (0, 1, 1, 0), ((1, 2), (2, 3))),
        ((1, 1), (3, -1, 0), ((1, 2), (2, 3))),
        ((1, 1), (1, 0, 0), ((1, 2), (2, 3))),
        ((1, 1), (1, 1, 1), ((1, 2), (2, 3))),
    ], ids=["one-photon-number", "three-photon-numbers", "other-pairs",
            "above-cutoff", "negative-photons", "short-composition",
            "long-composition", "negative-atoms", "too-few-atoms",
            "too-many-atoms"])
    def test_index_rejects_a_ket_outside_the_basis(self, xi, nu, n, pairs):
        # the first and third used to give index 5, and every composition
        # of the wrong length or sum a KeyError; the closed-form rank would
        # give a wrong index for them, so index checks them all
        from polydicke import FockKet
        basis = build_basis(xi(), 2, 2)
        with pytest.raises(ValueError, match="no ket with photons"):
            basis.index(FockKet(nu=nu, n=n, pairs=pairs))

    @pytest.mark.parametrize("nu, n", [
        ((0, 0), (0.5, 0.5, 1.0)), ((0.5, 0), (0, 0, 2)),
        ((0, 0), (True, 0, 1)), ((True, 0), (0, 0, 2)),
    ], ids=["fractional-atoms", "fractional-photons", "bool-atoms",
            "bool-photons"])
    def test_index_rejects_non_integer_occupations(self, xi, nu, n):
        # the fractional atoms used to give index 0, the index of (0, 0, 2),
        # and the fractional photons a TypeError from np.ravel_multi_index
        from polydicke import FockKet
        basis = build_basis(xi(), 2, 2)
        with pytest.raises(ValueError, match="must be an integer"):
            basis.index(FockKet(nu=nu, n=n, pairs=basis.pairs))

    def test_index_accepts_numpy_integer_occupations(self, xi):
        from polydicke import FockKet
        basis = build_basis(xi(), 2, 2)
        ket = basis.ket(7)
        assert basis.index(FockKet(nu=tuple(np.int64(v) for v in ket.nu),
                                   n=tuple(np.int32(v) for v in ket.n),
                                   pairs=ket.pairs)) == 7

    @settings(max_examples=40, deadline=None)
    @given(atoms=st.integers(1, 40), levels=st.integers(2, 5))
    def test_composition_table_and_rank(self, atoms, levels):
        basis = quantum.TruncatedBasis(pairs=(), cutoffs=(),
                                       atom_count=atoms, n_levels=levels)
        table = basis.atomic_kets
        # the lexicographic enumeration: every count for the first
        # levels-1 levels, the last level taking the atoms left
        want = [head + (atoms - sum(head),) for head in itertools.product(
            range(atoms + 1), repeat=levels - 1) if sum(head) <= atoms]
        assert table.dtype == np.int64
        assert table.shape == (basis.atomic_dim, levels)
        assert [tuple(row) for row in table.tolist()] == want
        assert not table.flags.writeable
        np.testing.assert_array_equal(quantum._rank(table, atoms),
                                      np.arange(len(want)))
        for gone in range(levels):
            for dst in range(levels):
                if dst == gone:
                    continue
                moved = table[table[:, gone] > 0].copy()
                moved[:, gone] -= 1
                moved[:, dst] += 1
                np.testing.assert_array_equal(
                    table[quantum._rank(moved, atoms)], moved)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), levels=st.integers(2, 4),
           atoms=st.integers(1, 6), data=st.data())
    def test_index_inverts_ket_on_random_bases(self, seed, levels, atoms,
                                               data):
        system = random_system(np.random.default_rng(seed), levels)
        cutoffs = {p: data.draw(st.integers(0, 3), label=f"cutoff {p}")
                   for p in system.pairs}
        basis = build_basis(system, atoms, cutoffs)
        drawn = data.draw(st.lists(st.integers(0, basis.size - 1),
                                   min_size=1, max_size=20), label="i")
        photons, levels = basis.occupations(drawn)
        for i, nu, n in zip(drawn, photons.tolist(), levels.tolist()):
            assert basis.index(basis.ket(i)) == i
            assert (tuple(nu), tuple(n)) == (basis.ket(i).nu, basis.ket(i).n)
            assert [a.tolist() for a in basis.occupations([i])] == [[nu], [n]]

    def test_large_atom_count_without_photons(self, xi):
        # 180,901 compositions: the table and the hop ranks are array work
        result = ground_state(xi(atom_count=600), 600, 0)
        assert result.energy == 0.0
        assert result.populations == (1.0, 0.0, 0.0)
        basis = build_basis(xi(atom_count=600), 600, 0)
        assert basis.atomic_dim == basis.size == math.comb(602, 2) == 180_901


class TestHamiltonian:
    def test_zero_coupling_is_diagonal(self, xi):
        basis = build_basis(xi(0.0, 0.0), 1, 3)
        H = build_hamiltonian(xi(0.0, 0.0), basis)
        off = H - __import__("scipy.sparse", fromlist=["diags"]).diags(
            H.diagonal())
        assert abs(off).max() == 0.0

    def test_single_matrix_element(self, xi):
        system = xi(0.7, 0.3)
        basis = build_basis(system, 1, 2)
        H = build_hamiltonian(system, basis)
        from polydicke import FockKet
        src = basis.index(FockKet(nu=(0, 0), n=(1, 0, 0), pairs=basis.pairs))
        dst = basis.index(FockKet(nu=(1, 0), n=(0, 1, 0), pairs=basis.pairs))
        assert H[dst, src] == pytest.approx(-0.7, abs=1e-15)

    def test_exactly_symmetric(self, xi):
        system = xi(1.1, 0.8)
        basis = build_basis(system, 2, 4)
        H = build_hamiltonian(system, basis)
        assert abs(H - H.T).max() == 0.0

    def test_diagonal_matches_occupations(self, xi):
        system = xi(1.0, 1.0)
        basis = build_basis(system, 1, 2)
        H = build_hamiltonian(system, basis)
        for i in (0, 5, basis.size - 1):
            ket = basis.ket(i)
            expected = (1.0 * ket.nu[0] + 0.5 * ket.nu[1]
                        + np.dot(system.omega, ket.n))
            assert H[i, i] == pytest.approx(expected, abs=1e-14)

    def test_rwa_keeps_half_the_offdiagonal(self, xi):
        system = xi(1.0, 1.0)
        basis = build_basis(system, 1, 2)
        full = build_hamiltonian(system, basis).tocoo()
        rwa = build_hamiltonian(system, basis, rwa=True).tocoo()
        assert rwa.nnz < full.nnz


class TestSectors:
    def test_four_nonempty_sectors(self, xi):
        basis = build_basis(xi(), 1, 2)
        sectors = split_sectors(xi(), basis)
        assert sorted(s.label for s in sectors) == ["ee", "eo", "oe", "oo"]
        assert all(len(s.indices) > 0 for s in sectors)
        assert sum(len(s.indices) for s in sectors) == basis.size

    def test_partition_is_coupling_independent(self, xi):
        basis = build_basis(xi(1.0, 1.0), 1, 2)
        a = split_sectors(xi(1.0, 1.0), basis)
        b = split_sectors(xi(0.2, 1.7), basis)
        for sa, sb in zip(a, b):
            assert sa.label == sb.label
            assert np.array_equal(sa.indices, sb.indices)

    def test_no_cross_sector_elements_exhaustive(self, xi):
        system = xi(1.0, 1.0)
        basis = build_basis(system, 1, 2)
        sectors = split_sectors(system, basis)
        owner = np.empty(basis.size, dtype=int)
        for s_id, sector in enumerate(sectors):
            owner[sector.indices] = s_id
        H = build_hamiltonian(system, basis).tocoo()
        for r, c, v in zip(H.row, H.col, H.data):
            if v != 0.0:
                assert owner[r] == owner[c]

    def test_rwa_preserves_charges_exactly(self, xi):
        system = xi(1.0, 1.0)
        basis = build_basis(system, 1, 2)
        K = np.array([
            charges(system.pairs, basis.ket(i).nu, basis.ket(i).n)
            for i in range(basis.size)
        ])
        H = build_hamiltonian(system, basis, rwa=True).tocoo()
        for r, c, v in zip(H.row, H.col, H.data):
            if v != 0.0:
                assert np.array_equal(K[r], K[c])

    def test_four_level_uses_full_parity_labels(self, cascade4):
        basis = build_basis(cascade4(), 1, 1)
        sectors = split_sectors(cascade4(), basis)
        assert all(len(s.label) == 4 for s in sectors)
        assert len(sectors) == 8

    def test_random_vector_block_structure_at_large_cutoff(self, xi):
        # w^T H v vanishes exactly for vectors supported on different sectors
        system = xi(1.2, 0.9, atom_count=2)
        basis = build_basis(system, 2, 20)
        H = build_hamiltonian(system, basis)
        sectors = split_sectors(system, basis)
        rng = np.random.default_rng(41)
        for a in range(len(sectors)):
            for b in range(a + 1, len(sectors)):
                v = np.zeros(basis.size)
                w = np.zeros(basis.size)
                v[sectors[a].indices] = rng.standard_normal(
                    len(sectors[a].indices))
                w[sectors[b].indices] = rng.standard_normal(
                    len(sectors[b].indices))
                assert w @ (H @ v) == 0.0


class TestGroundState:
    def test_zero_coupling_vacuum(self, xi):
        result = ground_state(xi(0.0, 0.0), 1, 4)
        assert result.energy == pytest.approx(0.0, abs=1e-12)
        assert result.populations[0] == pytest.approx(1.0, abs=1e-12)
        assert result.delta_nu is None
        assert result.residual <= 1e-8

    def test_benchmark_energy_and_bound(self, xi):
        result = ground_state(xi(1.0, 1.0), 1, {(1, 2): 24, (2, 3): 40})
        assert result.energy <= E_VAR + 1e-9
        assert result.energy == pytest.approx(E_EXACT_NA1, abs=1e-6)
        assert result.converged
        assert result.residual <= 1e-8

    def test_dense_and_iterative_agree(self, xi):
        system = xi(1.0, 1.0)
        dense = ground_state(system, 1, 12,
                             config=SolverConfig(dense_threshold=10 ** 9))
        sparse = ground_state(system, 1, 12,
                              config=SolverConfig(dense_threshold=1))
        assert dense.energy == pytest.approx(sparse.energy, abs=1e-9)

    def test_truncation_monotonicity(self, xi):
        system = xi(1.3, 0.9)
        energies = [ground_state(system, 1, c).energy for c in (4, 8, 16)]
        assert energies[1] <= energies[0] + 1e-12
        assert energies[2] <= energies[1] + 1e-12

    def test_rayleigh_ritz_bound_random_points(self, xi):
        rng = np.random.default_rng(13)
        for _ in range(5):
            mu12, mu23 = rng.uniform(0.0, 1.6, 2)
            system = xi(float(mu12), float(mu23))
            cut = suggest_cutoffs(system, 1)
            result = ground_state(system, 1, cut)
            assert result.energy <= minimize(system).energy + 1e-9

    def test_unconverged_truncation_flagged(self, xi):
        result = ground_state(xi(2.0, 2.0), 1, 4)
        assert not result.converged
        assert result.boundary_weight > 1e-8

    def test_determinism(self, xi):
        a = ground_state(xi(1.0, 1.0), 1, 18,
                         config=SolverConfig(dense_threshold=8))
        b = ground_state(xi(1.0, 1.0), 1, 18,
                         config=SolverConfig(dense_threshold=8))
        assert a.energy == b.energy
        assert a.nu == b.nu

    def test_degenerate_report_contains_winner(self, xi):
        result = ground_state(xi(1.0, 1.0), 1, 16)
        assert result.sector in result.degenerate_sectors


class TestSolverConfig:
    def test_tolerances_are_fixed(self):
        config = SolverConfig()
        assert [f.name for f in dataclasses.fields(config)] == [
            "dense_threshold"]
        assert config.degeneracy_tol == 1e-10
        assert config.boundary_threshold == 1e-8
        for name in ("degeneracy_tol", "boundary_threshold"):
            with pytest.raises(TypeError, match=name):
                SolverConfig(**{name: 0.0})

    # a non-integer threshold used to construct, then fail inside the block
    # solve with a TypeError (NaN passed silently)
    @pytest.mark.parametrize("value", [2.5, 300.0, math.inf, math.nan,
                                       "300", True, None])
    def test_rejects_non_integer_dense_threshold(self, value):
        with pytest.raises(ValueError, match="dense_threshold"):
            SolverConfig(dense_threshold=value)

    @pytest.mark.parametrize("threshold", [0, -3])
    def test_nonpositive_dense_threshold_solves(self, xi, threshold):
        # every block above one state goes to Lanczos
        system = xi(1.3, 1.7, atom_count=2)
        for rwa in (False, True):
            got = ground_state(system, 2, 8, rwa=rwa,
                               config=SolverConfig(dense_threshold=threshold))
            want = ground_state(system, 2, 8, rwa=rwa)
            assert got.sector == want.sector
            assert got.energy == pytest.approx(want.energy, abs=1e-12)


class TestDeltaNu:
    def test_undefined_in_decoupled_normal_region(self, xi):
        result = ground_state(xi(0.0, 0.3), 1, 6)
        assert result.delta_nu is None
        assert delta_nu(result, (1, 2), (2, 3)) is None

    def test_mode_dominance_signs(self, xi):
        low = ground_state(xi(1.5, 0.1), 1, {(1, 2): 24, (2, 3): 8})
        assert delta_nu(low, (1, 2), (2, 3)) < -0.9
        high = ground_state(xi(0.1, 1.5), 1, {(1, 2): 8, (2, 3): 45})
        assert delta_nu(high, (1, 2), (2, 3)) > 0.9

    def test_json_uses_undefined_token(self, xi):
        result = ground_state(xi(0.0, 0.3), 1, 6)
        record = result.to_json_dict()
        assert record["delta_nu"] == "undefined"


class TestConvergeCutoff:
    def test_zero_coupling_converges_immediately(self, xi):
        cut, result = converge_cutoff(xi(0.0, 0.0), 1, 2, tol=1e-6)
        assert cut == {(1, 2): 4, (2, 3): 4}
        assert result.energy == pytest.approx(0.0, abs=1e-12)

    def test_zero_start_cutoffs_grow(self, xi):
        cut, result = converge_cutoff(xi(0.3, 0.3), 1, 0, tol=1e-6)
        assert all(c >= 1 for c in cut.values())
        assert result.converged
        assert result.energy <= minimize(xi(0.3, 0.3)).energy + 1e-12

    def test_incomplete_cutoff_map_names_the_pair(self, xi):
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            build_basis(xi(), 1, {(1, 2): 4})
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            converge_cutoff(xi(), 1, {(1, 2): 4}, tol=1e-6)

    def test_benchmark_point_converges(self, xi):
        start = suggest_cutoffs(xi(1.0, 1.0), 1)
        cut, result = converge_cutoff(xi(1.0, 1.0), 1, start, tol=1e-6)
        assert result.converged
        assert result.energy == pytest.approx(E_EXACT_NA1, abs=1e-6)

    def test_energy_nonincreasing_in_cutoff(self, xi):
        system = xi(1.0, 1.0)
        e_small = ground_state(system, 1, 10).energy
        e_big = ground_state(system, 1, 20).energy
        assert e_big <= e_small + 1e-12

    def test_budget_exhaustion_reported(self, xi):
        with mock.patch.object(quantum, "_MAX_DOUBLINGS", 1), \
                pytest.raises(BudgetError, match="after 1 doublings") as err:
            converge_cutoff(xi(2.0, 2.0), 1, 2, tol=1e-12)
        for cut in (2, 4):
            step = ground_state(xi(2.0, 2.0), 1, cut)
            assert f"cutoffs {step.cutoffs}: energy {step.energy:.12g}" in str(
                err.value)

    def test_doublings_are_fixed(self, xi):
        with pytest.raises(TypeError, match="max_doublings"):
            converge_cutoff(xi(0.0, 0.0), 1, 2, tol=1e-6, max_doublings=1)

    def test_rejects_nonpositive_tol(self, xi):
        with pytest.raises(ValueError):
            converge_cutoff(xi(), 1, 4, tol=0.0)

    @pytest.mark.parametrize("tol", [-1e-6, math.nan, math.inf, -math.inf])
    def test_rejects_negative_and_non_finite_tol(self, xi, tol,
                                                 component_searches):
        with pytest.raises(ValueError, match="finite and positive"):
            converge_cutoff(xi(), 1, 4, tol=tol)
        assert component_searches == []


@pytest.fixture
def eigsh_starts(monkeypatch):
    """Start vector of every Lanczos solve, in call order."""
    starts = []
    eigsh = quantum.eigsh

    def recording(H, **kwargs):
        starts.append(kwargs["v0"].copy())
        return eigsh(H, **kwargs)

    monkeypatch.setattr(quantum, "eigsh", recording)
    return starts


@pytest.fixture
def lanczos_starts(monkeypatch, block_solves):
    """(block, its basis indices, start vector) of every Lanczos solve.

    Each call is matched to its block by the matrix it solves, not by the
    order of the calls.
    """
    found = []
    eigsh = quantum.eigsh

    def recording(H, **kwargs):
        blocks = block_solves[-1]
        b, = [b for b in np.flatnonzero(blocks.sizes == H.shape[0])
              if abs(blocks.matrix(b) - H).max() == 0.0]
        found.append((b, blocks.members(b), kwargs["v0"].copy()))
        return eigsh(H, **kwargs)

    monkeypatch.setattr(quantum, "eigsh", recording)
    return found


def _sector_of(sectors, indices):
    """The sector holding every one of these basis indices."""
    sector, = [s for s in sectors if np.isin(indices, s.indices).all()]
    return sector


def _embedded(coarse, basis):
    """Index in basis of every state the coarse result's vector holds,
    matched ket by ket, and the vector's value there."""
    cb, vector = coarse.sector_vectors.basis, coarse.sector_vectors.vector
    held = np.flatnonzero(vector)
    fine = np.array([basis.index(cb.ket(int(i))) for i in held])
    return fine, vector[held]


class TestWarmStart:
    LANCZOS = SolverConfig(dense_threshold=8)

    def test_embedding_keeps_occupations(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            system = random_system(rng, int(rng.integers(2, 4)))
            atoms = int(rng.integers(1, 3))
            coarse_cut = {p: int(rng.integers(0, 3)) for p in system.pairs}
            fine_cut = {p: c + int(rng.integers(0, 3))
                        for p, c in coarse_cut.items()}
            coarse = build_basis(system, atoms, coarse_cut)
            fine = build_basis(system, atoms, fine_cut)
            vector = rng.standard_normal(coarse.size)
            v0 = _start_vector(SectorVectors(basis=coarse, vector=vector),
                               fine)
            want = np.zeros(fine.size)
            for i in range(coarse.size):
                want[fine.index(coarse.ket(i))] = vector[i]
            assert np.array_equal(v0, want)

    def test_fine_solve_starts_from_coarse_vectors(self, xi, lanczos_starts):
        system = xi(1.0, 1.0)
        coarse = ground_state(system, 1, 3, config=self.LANCZOS)
        lanczos_starts.clear()
        warm = ground_state(system, 1, 6, config=self.LANCZOS, start=coarse)
        calls = list(lanczos_starts)
        cold = ground_state(system, 1, 6, config=self.LANCZOS)
        basis = build_basis(system, 1, 6)
        sectors = split_sectors(system, basis)
        embedded, values = _embedded(coarse, basis)
        assert len(calls) == len(sectors)
        matched = []
        for _, members, v0 in calls:
            sector = _sector_of(sectors, members)
            matched.append(sector.label)
            mine = np.isin(embedded, sector.indices)
            fine, vec = embedded[mine], values[mine]
            assert np.array_equal(members[v0 != 0.0], np.sort(fine))
            assert len(fine) < len(v0)
            assert np.array_equal(v0[np.searchsorted(members, fine)], vec)
            v0 = v0 * np.sign(v0[np.argmax(abs(v0))])
            assert v0.min() > -1e-12
        assert sorted(matched) == [s.label for s in sectors]
        assert warm.energy == pytest.approx(cold.energy, abs=1e-12)
        assert warm.sector_energies == pytest.approx(cold.sector_energies,
                                                     abs=1e-12)

    @pytest.mark.parametrize("case", ["atoms", "finer", "rwa"])
    def test_mismatched_start_is_ignored(self, xi, eigsh_starts, case):
        system = xi(1.0, 1.0, atom_count=2)
        start = {
            # four atoms: the parity classes of two and four atoms coincide
            "atoms": ground_state(xi(1.0, 1.0, atom_count=4), 4, 3,
                                  config=self.LANCZOS),
            "finer": ground_state(system, 2, 8, config=self.LANCZOS),
            "rwa": ground_state(system, 2, 3, rwa=True, config=self.LANCZOS),
        }[case]
        eigsh_starts.clear()
        warm = ground_state(system, 2, 6, config=self.LANCZOS, start=start)
        assert eigsh_starts and all(np.all(v0 != 0.0) for v0 in eigsh_starts)
        assert warm == ground_state(system, 2, 6, config=self.LANCZOS)

    def test_sector_absent_from_start_starts_from_ones(self, xi,
                                                       lanczos_starts):
        system = xi(1.0, 1.0)
        # no photons: the single atom fixes the parities, three sectors of four
        coarse = ground_state(system, 1, 0, config=self.LANCZOS)
        lanczos_starts.clear()
        warm = ground_state(system, 1, 6, config=self.LANCZOS, start=coarse)
        calls = list(lanczos_starts)
        cold = ground_state(system, 1, 6, config=self.LANCZOS)
        basis = build_basis(system, 1, 6)
        sectors = split_sectors(system, basis)
        embedded, _ = _embedded(coarse, basis)
        absent = [s.label for s in sectors
                  if not np.isin(embedded, s.indices).any()]
        assert len(absent) == 1 and len(embedded) == 3
        assert len(calls) == len(sectors)
        for _, members, v0 in calls:
            sector = _sector_of(sectors, members)
            assert np.all(v0 != 0.0) == (sector.label in absent)
            if sector.label in absent:
                assert np.array_equal(v0, np.ones(len(members)))
        assert warm.sector_energies[absent[0]] == cold.sector_energies[absent[0]]
        assert warm.sector_energies == pytest.approx(cold.sector_energies,
                                                     abs=1e-12)

    def test_split_sector_warm_starts_one_block(self, lanczos_starts):
        # mu23 = 0 conserves nu23, so every sector splits into one chain per
        # nu23 value; at cutoff 14 each chain holds 15 states (Lanczos), and
        # the skip leaves at least three chains per sector to solve
        system = _xi(2.0, 0.0)
        coarse = ground_state(system, 1, 6, config=self.LANCZOS)
        lanczos_starts.clear()
        warm = ground_state(system, 1, 14, config=self.LANCZOS, start=coarse)
        calls = list(lanczos_starts)
        cold = ground_state(system, 1, 14, config=self.LANCZOS)
        basis = build_basis(system, 1, 14)
        sectors = split_sectors(system, basis)
        embedded, values = _embedded(coarse, basis)
        per_sector, warm_blocks = Counter(), Counter()
        for _, members, v0 in calls:
            sector = _sector_of(sectors, members)
            label = sector.label
            per_sector[label] += 1
            mine = np.isin(embedded, sector.indices)
            fine, vec = embedded[mine], values[mine]
            if np.isin(fine, members).any():
                # the whole coarse vector, zero on the states new at cutoff 14
                warm_blocks[label] += 1
                assert np.array_equal(members[v0 != 0.0], np.sort(fine))
                assert np.array_equal(v0[np.searchsorted(members, fine)], vec)
            else:
                assert np.array_equal(v0, np.ones(len(members)))
        assert min(per_sector.values()) >= 3
        assert warm_blocks == Counter(dict.fromkeys(per_sector, 1))
        assert warm.energy == pytest.approx(cold.energy, abs=1e-12)
        assert warm.sector_energies == pytest.approx(cold.sector_energies,
                                                     abs=1e-12)

    def test_vectors_stay_out_of_json_and_repr(self, xi):
        result = ground_state(xi(), 1, 4)
        assert result.sector_vectors is not None
        assert "sector_vectors" not in repr(result)
        assert "sector_vectors" not in result.to_json_dict()
        # no solve starts from a rotating-wave result, so it keeps no vector
        assert ground_state(xi(), 1, 4, rwa=True).sector_vectors is None


class TestAtomNumberTrend:
    def test_two_atoms_closer_to_variational(self, xi):
        # per-particle exact energy approaches the variational surface as the
        # atom number grows
        cut = {(1, 2): 20, (2, 3): 30}
        gap1 = minimize(xi(1.0, 1.0)).energy - ground_state(
            xi(1.0, 1.0, atom_count=1), 1, cut).energy
        gap2 = minimize(xi(1.0, 1.0)).energy - ground_state(
            xi(1.0, 1.0, atom_count=2), 2, cut).energy
        assert 0.0 < gap2 < gap1


def _split_sectors_reference(system, basis):
    """The row-by-row dict grouping that split_sectors replaced."""
    K = np.array([charges(basis.pairs, basis.ket(i).nu, basis.ket(i).n)
                  for i in range(basis.size)])
    parity = np.mod(K, 2)

    letters = {0: "e", 1: "o"}
    named = None
    try:
        weights = excitation_weights(system)
        lam = np.array(weights, dtype=np.int64)
        M = K @ lam
        short = np.stack([np.mod(M, 2), parity[:, -1]], axis=1)
        full_keys = [tuple(row) for row in parity]
        short_keys = [tuple(row) for row in short]
        mapping = {}
        ok = True
        for fk, sk in zip(full_keys, short_keys):
            if sk in mapping and mapping[sk] != fk:
                ok = False
                break
            mapping[sk] = fk
        if ok:
            named = short_keys
    except WeightError:
        named = None

    groups, names = {}, {}
    for i, row in enumerate(parity):
        key = tuple(row)
        groups.setdefault(key, []).append(i)
        if key not in names:
            if named is not None:
                names[key] = "".join(letters[v] for v in named[i])
            else:
                names[key] = "".join(letters[v] for v in key)
    sectors = [
        SymmetrySector(label=names[key], parity=key,
                       indices=np.array(ix, dtype=np.int64))
        for key, ix in groups.items()
    ]
    sectors.sort(key=lambda s: s.label)
    return sectors


def _xi(mu12, mu23):
    """The xi cascade of the `xi` fixture, for use in decorators."""
    return cascade_system([0.0, 1.0, 1.3], [1.0, 0.5], [mu12, mu23])


def _triangle():
    return AtomicSystem(n=3, omega=(0.0, 0.7, 1.6), transitions=(
        Transition(1, 2, 1.0, 0.5), Transition(2, 3, 0.8, 0.4),
        Transition(1, 3, 1.2, 0.3)))


class TestSplitSectorsPinned:
    def _assert_same(self, system, atoms, cutoffs):
        basis = build_basis(system, atoms, cutoffs)
        got = split_sectors(system, basis)
        want = _split_sectors_reference(system, basis)
        assert [s.label for s in got] == [s.label for s in want]
        assert [s.parity for s in got] == [s.parity for s in want]
        for a, b in zip(got, want):
            assert a.indices.dtype == b.indices.dtype
            assert np.array_equal(a.indices, b.indices)
        return got

    def test_random_systems(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            system = random_system(rng, n)
            cut = {p: int(rng.integers(0, 4)) for p in system.pairs}
            self._assert_same(system, int(rng.integers(1, 4)), cut)

    def test_inconsistent_weights_use_full_names(self):
        system = _triangle()
        with pytest.raises(WeightError):
            excitation_weights(system)
        sectors = self._assert_same(system, 2, 3)
        assert all(len(s.label) == 3 for s in sectors)

    def test_rejected_two_letter_names(self, cascade4):
        sectors = self._assert_same(cascade4(), 2, {(1, 2): 2, (2, 3): 3,
                                                    (3, 4): 1})
        assert all(len(s.label) == 4 for s in sectors)


def _block_matrix(rng, sizes, equal_pairs=0):
    """Symmetric block-diagonal matrix with its rows shuffled."""
    blocks = [rng.standard_normal((m, m)) for m in sizes]
    blocks = [b + b.T for b in blocks]
    for i in range(equal_pairs):
        blocks[2 * i + 1] = blocks[2 * i]
    dense = scipy.linalg.block_diag(*blocks)
    perm = rng.permutation(len(dense))
    return sp.csr_matrix(dense[np.ix_(perm, perm)])


def _block_solve(H, config):
    """Lowest eigenpair of sparse symmetric H through `_Blocks`, one block
    per connected component; ties go to the lowest component label."""
    n_comp, membership = connected_components(H, directed=False)
    lower = sp.tril(H, k=-1).tocoo()
    blocks = quantum._Blocks(quantum._Layout(membership, n_comp, lower.row),
                             H.diagonal(), lower.row, lower.col, lower.data,
                             config)
    energies = blocks.lowest()
    comp = int(np.argmin(energies))
    vec = np.zeros(H.shape[0])
    vec[blocks.members(comp)] = blocks.vector(comp)
    return float(energies[comp]), vec


class TestComponentSolver:
    @pytest.mark.parametrize("threshold", [1, 2, 4, 6, 300])
    def test_matches_dense_on_block_diagonal(self, threshold):
        rng = np.random.default_rng(threshold)
        config = SolverConfig(dense_threshold=threshold)
        for _ in range(10):
            sizes = rng.choice([1, 2, 3, 5], size=int(rng.integers(2, 12)))
            H = _block_matrix(rng, sizes)
            energy, vec = _block_solve(H, config)
            assert energy == pytest.approx(
                np.linalg.eigvalsh(H.toarray())[0], abs=1e-12)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(H @ vec - energy * vec) <= 1e-10

    @pytest.mark.parametrize("threshold", [2, 300])
    def test_tie_goes_to_lowest_component_label(self, threshold):
        # two identical 2x2 blocks on {0, 3} and {1, 2}; component labels
        # follow the lowest index, so the block on {0, 3} must win
        H = sp.csr_matrix(np.array([[1.0, 0.0, 0.0, 2.0],
                                    [0.0, 1.0, 2.0, 0.0],
                                    [0.0, 2.0, 1.0, 0.0],
                                    [2.0, 0.0, 0.0, 1.0]]))
        energy, vec = _block_solve(H, SolverConfig(dense_threshold=threshold))
        assert energy == pytest.approx(-1.0, abs=1e-14)
        assert np.flatnonzero(vec).tolist() == [0, 3]

    def test_large_components_reach_lanczos_sparse(self, monkeypatch):
        inputs = []
        eigsh = quantum.eigsh

        def recording(H, **kwargs):
            inputs.append((H.shape[0], sp.issparse(H)))
            return eigsh(H, **kwargs)

        monkeypatch.setattr(quantum, "eigsh", recording)
        H = _block_matrix(np.random.default_rng(3), [5, 5, 2, 1])
        energy, vec = _block_solve(H, SolverConfig(dense_threshold=3))
        assert inputs == [(5, True), (5, True)]
        assert energy == pytest.approx(np.linalg.eigvalsh(H.toarray())[0],
                                       abs=1e-12)
        assert np.linalg.norm(H @ vec - energy * vec) <= 1e-10

    def test_lone_dense_blocks_are_solved_once(self, xi, monkeypatch):
        # full-model sectors of 23, 26, 27 and 29 states: each is alone in
        # its stack and gets one lowest-eigenpair solve, vector included
        calls = Counter()
        for module, name in ((scipy.linalg, "eigh"), (np.linalg, "eigh"),
                             (np.linalg, "eigvalsh")):
            def recording(*args, _solve=getattr(module, name),
                          _key=f"{module.__name__}.{name}", **kwargs):
                calls[_key] += 1
                return _solve(*args, **kwargs)
            monkeypatch.setattr(module, name, recording)
        cut = {(1, 2): 4, (2, 3): 6}
        result = ground_state(xi(1.0, 1.0), 1, cut)
        assert calls == Counter({"scipy.linalg.eigh": 4})
        want = _component_route(xi(1.0, 1.0), 1, cut, SolverConfig(), False)
        assert result.sector_energies == pytest.approx(
            want["sector_energies"], abs=1e-12)
        assert result.nu == pytest.approx(want["nu"], abs=1e-12)

    def test_eigh_wrapped_before_the_first_solve_is_called(self, xi):
        # scipy loads on the first exact solve; a wrapper installed on
        # scipy.linalg.eigh before it is still the function the lone dense
        # blocks go through
        script = """
import sys
from polydicke import cascade_system, ground_state
assert "scipy" not in sys.modules
import scipy.linalg
sizes = []
solve = scipy.linalg.eigh
def recording(a, *args, **kwargs):
    sizes.append(a.shape[0])
    return solve(a, *args, **kwargs)
scipy.linalg.eigh = recording
system = cascade_system([0.0, 1.0, 1.3], [1.0, 0.5], [1.0, 1.0])
print(repr(ground_state(system, 1, {(1, 2): 4, (2, 3): 6}).energy))
print(*sorted(sizes))
"""
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        energy, sizes = out.stdout.splitlines()
        assert sizes == "23 26 27 29"
        cut = {(1, 2): 4, (2, 3): 6}
        assert float(energy) == ground_state(xi(1.0, 1.0), 1, cut).energy

    def test_tie_among_single_states(self):
        H = sp.csr_matrix(np.diag([2.0, -1.0, 0.5, -1.0]))
        energy, vec = _block_solve(H, SolverConfig())
        assert energy == -1.0
        assert vec.tolist() == [0.0, 1.0, 0.0, 0.0]


def _whole_sector_reference(system, atoms, cutoffs, rwa, tol):
    """Dense eigh on every whole sector, with no component split."""
    basis = build_basis(system, atoms, cutoffs)
    H = build_hamiltonian(system, basis, rwa=rwa)
    energies = {}
    for sector in split_sectors(system, basis):
        block = H[sector.indices][:, sector.indices].toarray()
        energies[sector.label] = scipy.linalg.eigh(
            block, eigvals_only=True, subset_by_index=[0, 0])[0] / atoms
    e_min = min(energies.values())
    winner = min(lab for lab, e in energies.items() if e - e_min <= tol)
    return energies[winner], winner


def _systems(levels):
    return st.builds(
        lambda seed, n, zero: (random_system(np.random.default_rng(seed), n),
                               zero),
        st.integers(0, 2 ** 32 - 1), levels, st.integers(0, 63))


def _with_zeros(system, zero):
    return system.with_couplings({
        t.pair: 0.0 for i, t in enumerate(system.transitions)
        if zero >> i & 1})


class TestSolverProperties:
    # at most 3**6 * 10 = 7290 states (n = 4, two atoms, cutoff 2)
    CAP = {2: 5, 3: 3, 4: 2}

    @settings(max_examples=50, deadline=None, derandomize=True,
              database=None)
    @given(drawn=_systems(st.integers(2, 4)), atoms=st.integers(1, 2), rwa=st.booleans(),
           cut=st.integers(1, 5))
    def test_ground_state_matches_whole_sector_dense(self, drawn, atoms,
                                                     rwa, cut):
        system, zero = drawn
        system = _with_zeros(system, zero)
        cut = min(cut, self.CAP[system.n])
        result = ground_state(system, atoms, cut, rwa=rwa)
        energy, sector = _whole_sector_reference(
            system, atoms, cut, rwa, SolverConfig().degeneracy_tol)
        assert result.energy == pytest.approx(energy, abs=1e-10)
        assert result.sector == sector

    @settings(max_examples=50, deadline=None, derandomize=True,
              database=None)
    @given(drawn=_systems(st.integers(2, 4)), atoms=st.integers(1, 3), rwa=st.booleans(),
           cut=st.integers(1, 5))
    def test_no_element_crosses_a_sector(self, drawn, atoms, rwa, cut):
        system, zero = drawn
        system = _with_zeros(system, zero)
        basis = build_basis(system, atoms, min(cut, self.CAP[system.n]))
        owner = np.empty(basis.size, dtype=np.int64)
        for s_id, sector in enumerate(split_sectors(system, basis)):
            owner[sector.indices] = s_id
        H = build_hamiltonian(system, basis, rwa=rwa).tocoo()
        nonzero = H.data != 0.0
        assert np.array_equal(owner[H.row[nonzero]], owner[H.col[nonzero]])

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(drawn=_systems(st.sampled_from([3, 2])), atoms=st.integers(1, 2), rwa=st.booleans(),
           start=st.integers(1, 3))
    def test_converge_cutoff_matches_cold_solve(self, drawn, atoms, rwa,
                                                start):
        system, zero = drawn
        system = _with_zeros(system, zero)
        config = SolverConfig(dense_threshold=8)
        # patched in the body: a function-scoped fixture fails Hypothesis's
        # health check under @given
        with mock.patch.object(SolverConfig, "boundary_threshold", 1e-6):
            try:
                cut, result = converge_cutoff(system, atoms, start, tol=1e-6,
                                              rwa=rwa, config=config,
                                              budget=30_000)
            except BudgetError:
                assume(False)
            cold = ground_state(system, atoms, cut, rwa=rwa, config=config)
        assert cut == cold.cutoffs
        assert result.sector == cold.sector
        assert result.degenerate_sectors == cold.degenerate_sectors
        assert result.energy == pytest.approx(cold.energy, abs=1e-12)


class _Counted:
    """A sparse matrix that counts its products with vectors."""

    def __init__(self, H):
        self.H, self.shape, self.products = H, H.shape, 0

    def __matmul__(self, v):
        self.products += 1
        return self.H @ v


def _sparse_block(seed, n, mixed):
    """Random connected sparse symmetric block: a chain plus about 3n random
    elements, nonpositive off the diagonal unless mixed."""
    rng = np.random.default_rng(seed)
    rows = np.concatenate([np.arange(n - 1), rng.integers(0, n, 3 * n)])
    cols = np.concatenate([np.arange(1, n), rng.integers(0, n, 3 * n)])
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    vals = rng.uniform(0.1, 1.0, len(rows))
    if mixed:
        vals *= rng.choice([-1.0, 1.0], len(rows))
    else:
        vals = -vals
    H = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return (H + H.T + sp.diags(rng.uniform(-3.0, 3.0, n))).tocsr()


class TestLanczos:
    @staticmethod
    def _assert_lowest(H, energy, vec):
        want = np.linalg.eigvalsh(H.toarray())[0]
        assert abs(energy - want) <= 1e-12 * max(1.0, abs(want))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(H @ vec - energy * vec) <= 1e-10

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 400),
           mixed=st.booleans(), warm=st.booleans())
    def test_matches_dense_on_random_blocks(self, seed, n, mixed, warm):
        H = _sparse_block(seed, n, mixed)
        rng = np.random.default_rng(seed + 1)
        v0 = rng.standard_normal(n)
        if warm:
            # the lowest vector of the leading half, zero on the rest, as a
            # coarse solve embeds it
            m = max(1, n // 2)
            v0 = np.zeros(n)
            v0[:m] = np.linalg.eigh(H[:m, :m].toarray())[1][:, 0]
        self._assert_lowest(H, *quantum.eigsh(H, v0=v0))
        if not mixed:
            # the cold start of a block; its positive lowest vector overlaps it
            self._assert_lowest(H, *quantum.eigsh(H, v0=np.ones(n)))

    @pytest.mark.parametrize("case", ["exact", "rounded"])
    def test_start_that_is_an_eigenvector_stops_at_once(self, case):
        if case == "exact":
            # H e_0 = -e_0 exactly, so beta vanishes at the first step
            H = sp.csr_matrix(np.array([[-1.0, 0.0, 0.0], [0.0, 2.0, 1.0],
                                        [0.0, 1.0, 2.0]]))
            v0, want = np.array([1.0, 0.0, 0.0]), -1.0
        else:
            # chain Laplacian + 3: the constant vector has eigenvalue 3, and
            # beta is rounding only
            n = 50
            lap = sp.diags([-np.ones(n - 1), np.r_[1.0, 2.0 * np.ones(n - 2),
                                                   1.0], -np.ones(n - 1)],
                           [-1, 0, 1])
            H, v0, want = (lap + 3.0 * sp.identity(n)).tocsr(), np.ones(n), 3.0
        counted = _Counted(H)
        energy, vec = quantum.eigsh(counted, v0=v0)
        assert counted.products == 1
        assert energy == pytest.approx(want, abs=1e-14)
        assert np.array_equal(vec, v0 / np.linalg.norm(v0))

    @pytest.mark.parametrize("start", ["zero", "nan", "inf", "overflow",
                                       "short", "long", "column"])
    def test_bad_start_is_rejected(self, start):
        # an all-zero start used to warn and then fail inside LAPACK
        n = 6
        H = _Counted(_sparse_block(2, n, mixed=False))
        v0 = {"zero": np.zeros(n), "nan": np.r_[np.ones(n - 1), np.nan],
              "inf": np.r_[np.ones(n - 1), -np.inf],
              "overflow": np.full(n, 1e200),
              "short": np.ones(n - 1), "long": np.ones(n + 1),
              "column": np.ones((n, 1))}[start]
        with pytest.raises(ValueError, match="Lanczos start v0"):
            quantum.eigsh(H, v0=v0)
        assert H.products == 0

    @staticmethod
    def _kept_and_replayed(H, v0, cap_vectors=0):
        """eigsh with the default cap and with room for cap_vectors Lanczos
        vectors: both results and both product counts."""
        kept, replayed = _Counted(H), _Counted(H)
        want = quantum.eigsh(kept, v0=v0)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(quantum, "_KRYLOV_BYTES",
                                8 * H.shape[0] * cap_vectors)
            got = quantum.eigsh(replayed, v0=v0)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        return kept.products, replayed.products

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 400),
           mixed=st.booleans(), cap=st.integers(0, 6))
    def test_replayed_vectors_are_bit_identical(self, seed, n, mixed, cap):
        H = _sparse_block(seed, n, mixed)
        v0 = np.random.default_rng(seed + 1).standard_normal(n)
        kept, replayed = self._kept_and_replayed(H, v0, cap)
        # k > 1 steps with every vector kept make k + 1 products; the
        # replay recomputes every vector past the first max(1, cap), so all
        # but the start at cap 0: 2k products
        steps = kept - 1
        if steps > 1:
            assert replayed == kept + steps - max(1, min(cap, steps))

    def test_replay_on_a_xi_sector_block(self, xi, monkeypatch):
        # blocks above 8 states go through Lanczos, the doubled solves from
        # the coarse vectors
        config = SolverConfig(dense_threshold=8)
        system = xi(0.9, 0.6, atom_count=2)
        solved = []
        eigsh = quantum.eigsh

        def recording(H, v0):
            solved.append((H, v0))
            return eigsh(H, v0=v0)

        monkeypatch.setattr(quantum, "eigsh", recording)
        cut, want = converge_cutoff(system, 2, 4, tol=1e-6, config=config)
        monkeypatch.setattr(quantum, "eigsh", eigsh)
        assert solved and max(H.shape[0] for H, _ in solved) > 100
        for H, v0 in solved:
            kept, replayed = self._kept_and_replayed(H, v0)
            assert replayed == 2 * (kept - 1) or kept == 1
        monkeypatch.setattr(quantum, "_KRYLOV_BYTES", 0)
        cut_replayed, got = converge_cutoff(system, 2, 4, tol=1e-6,
                                            config=config)
        assert cut_replayed == cut
        assert got == want
        assert np.array_equal(got.sector_vectors.vector,
                              want.sector_vectors.vector)

    def test_energy_never_below_the_dense_minimum(self):
        # a cold solve long enough to lose orthogonality: theta of the
        # tridiagonal fell 2.3e-12 below the sector minimum here
        system = random_system(np.random.default_rng(1), 3).with_couplings(
            {(1, 2): 0.0})
        result = ground_state(system, 2, 32,
                              config=SolverConfig(dense_threshold=8))
        basis = build_basis(system, 2, 32)
        H = build_hamiltonian(system, basis)
        sector, = [s for s in split_sectors(system, basis) if s.label == "ee"]
        dense = np.linalg.eigvalsh(
            H[sector.indices][:, sector.indices].toarray())[0] / 2
        assert dense == pytest.approx(-0.178752511047262, abs=1e-14)
        assert result.sector_energies["ee"] >= dense - 1e-14

    def test_two_state_block(self):
        H = sp.csr_matrix(np.array([[0.3, -0.8], [-0.8, 1.1]]))
        energy, vec = quantum.eigsh(H, v0=np.array([0.2, -1.0]))
        assert energy == pytest.approx(0.7 - math.sqrt(0.16 + 0.64),
                                       abs=1e-14)
        self._assert_lowest(H, energy, vec)

    def test_degenerate_lowest_eigenvalue(self):
        # minus the Laplacian of a 5-cycle: the lowest eigenvalue,
        # 2 cos(4 pi / 5) - 2, is doubly degenerate
        n = 5
        ring = sp.diags([np.ones(n - 1), np.ones(n - 1)], [-1, 1]).tolil()
        ring[0, n - 1] = ring[n - 1, 0] = 1.0
        H = (ring - 2.0 * sp.identity(n)).tocsr()
        v0 = np.random.default_rng(9).standard_normal(n)
        energy, vec = quantum.eigsh(H, v0=v0)
        assert energy == pytest.approx(2.0 * math.cos(0.8 * math.pi) - 2.0,
                                       abs=1e-13)
        self._assert_lowest(H, energy, vec)

    def test_repeated_calls_are_bit_identical(self):
        H = _sparse_block(4, 300, mixed=True)
        v0 = np.random.default_rng(4).standard_normal(300)
        first, again = quantum.eigsh(H, v0=v0), quantum.eigsh(H, v0=v0)
        assert first[0] == again[0]
        assert np.array_equal(first[1], again[1])

    def test_step_cap_raises_from_ground_state(self, xi, monkeypatch):
        monkeypatch.setattr(quantum, "_LANCZOS_STEPS", 3)
        with pytest.raises(RuntimeError, match=r"3 steps on a block of \d+ "
                                               r"states"):
            ground_state(xi(1.0, 1.0), 1, 6,
                         config=SolverConfig(dense_threshold=8))


class TestWarmLanczosProperties:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), atoms=st.integers(1, 2),
           start=st.integers(2, 3))
    def test_converged_exact_energy_below_variational(self, seed, atoms,
                                                      start):
        # full model, every coupling kept and blocks above 8 states on
        # Lanczos, so each doubled solve starts from the coarse vectors
        system = random_system(np.random.default_rng(seed), 3)
        tol = 1e-6
        try:
            _, result = converge_cutoff(
                system, atoms, start, tol=tol,
                config=SolverConfig(dense_threshold=8), budget=30_000)
        except BudgetError:
            assume(False)
        assert result.converged
        assert result.energy <= minimize(system).energy + tol


def _build_hamiltonian_reference(system, basis, rwa=False):
    """The Kronecker-chain assembly that build_hamiltonian replaced."""
    kets = [tuple(row) for row in basis.atomic_kets.tolist()]

    def atomic_hop(j, k):
        index = {ket: i for i, ket in enumerate(kets)}
        rows, cols, vals = [], [], []
        for i, ket in enumerate(kets):
            if ket[k - 1] > 0:
                target = list(ket)
                target[k - 1] -= 1
                target[j - 1] += 1
                rows.append(index[tuple(target)])
                cols.append(i)
                vals.append(math.sqrt((ket[j - 1] + 1) * ket[k - 1]))
        dim = basis.atomic_dim
        return sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()

    def kron_chain(ops):
        out = ops[0]
        for op in ops[1:]:
            out = sp.kron(out, op, format="csr")
        return out

    dims = basis.mode_dims
    eye_f = [sp.identity(d, format="csr") for d in dims]
    eye_a = sp.identity(basis.atomic_dim, format="csr")

    def placed(mode, fop, aop):
        ops = list(eye_f)
        ops[mode] = fop
        return kron_chain(ops + [aop])

    H = None
    for m, p in enumerate(basis.pairs):
        term = system.transition(p).Omega * placed(
            m, sp.diags(np.arange(dims[m], dtype=float)), eye_a)
        H = term if H is None else H + term
    atom_diag = sp.diags([
        float(sum(system.omega[j] * ket[j] for j in range(basis.n_levels)))
        for ket in basis.atomic_kets
    ])
    H = H + kron_chain(eye_f + [atom_diag])
    scale = 1.0 / math.sqrt(basis.atom_count)
    for m, p in enumerate(basis.pairs):
        t = system.transition(p)
        if t.mu == 0.0 or dims[m] == 1:
            continue
        a = sp.diags(np.sqrt(np.arange(1, dims[m], dtype=float)), 1)
        hop = atomic_hop(t.j, t.k)
        if rwa:
            term = placed(m, a.T, hop) + placed(m, a, hop.T)
        else:
            term = placed(m, (a + a.T).tocsr(), (hop + hop.T).tocsr())
        H = H - (t.mu * scale) * term
    return H.tocsr()


class TestBuilderPinned:
    @staticmethod
    def _assert_same(system, atoms, cutoffs):
        basis = build_basis(system, atoms, cutoffs)
        for rwa in (False, True):
            got = build_hamiltonian(system, basis, rwa=rwa)
            want = _build_hamiltonian_reference(system, basis, rwa=rwa)
            for H in (got, want):
                H.eliminate_zeros()
                H.sort_indices()
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.abs(got.data - want.data).max(initial=0.0) <= 1e-14

    def test_random_systems(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            system = random_system(rng, int(rng.integers(2, 5)))
            system = _with_zeros(system, int(rng.integers(0, 64)))
            cut = {p: int(rng.integers(0, 4)) for p in system.pairs}
            self._assert_same(system, int(rng.integers(1, 4)), cut)

    def test_triangle(self):
        self._assert_same(_triangle(), 2, {(1, 2): 3, (1, 3): 2, (2, 3): 4})
        self._assert_same(_triangle().with_couplings({(1, 3): 0.0}), 3, 2)


def _component_route(system, atoms, cutoffs, config, rwa):
    """Solve by sector and connected component, by hand: dense eigh on every
    component of every sliced sector, ties to the lowest component label."""
    basis = build_basis(system, atoms, cutoffs)
    H = build_hamiltonian(system, basis, rwa=rwa)
    H.eliminate_zeros()
    found = []
    for sector in split_sectors(system, basis):
        Hs = H[sector.indices][:, sector.indices]
        n_comp, label = connected_components(Hs, directed=False)
        best = None
        for comp in range(n_comp):
            idx = np.flatnonzero(label == comp)
            vals, vecs = scipy.linalg.eigh(Hs[idx][:, idx].toarray(),
                                           subset_by_index=[0, 0])
            if best is None or vals[0] < best[0]:
                best = (vals[0], vecs[:, 0], sector.indices[idx])
        found.append((sector.label,) + best)
    e_min = min(item[1] for item in found)
    degenerate = sorted(item[0] for item in found
                        if item[1] - e_min <= config.degeneracy_tol)
    _, energy, vec, indices = next(item for item in found
                                   if item[0] == degenerate[0])
    weights = vec * vec / (vec @ vec)
    nu_cols, occ = basis.occupations(indices)
    at_boundary = (nu_cols == np.array(basis.cutoffs)).any(axis=1)
    return {
        "energy": energy / atoms,
        "sector": degenerate[0],
        "sector_energies": {lab: e / atoms for lab, e, _, _ in found},
        "degenerate_sectors": tuple(degenerate),
        "nu": {p: float(weights @ nu_cols[:, m]) / atoms
               for m, p in enumerate(basis.pairs)},
        "populations": tuple(weights @ occ / atoms),
        "boundary_weight": float(weights[at_boundary].sum()),
    }


@pytest.fixture
def block_solves(monkeypatch):
    """Every _Blocks built by a solve, with the blocks each one solved."""
    made = []

    class Recording(quantum._Blocks):
        def __init__(self, *args):
            super().__init__(*args)
            self.solved = []
            made.append(self)

        def lowest(self, todo=None, start=None):
            self.solved.append(np.ones(len(self.sizes), dtype=bool)
                               if todo is None else todo.copy())
            return super().lowest(todo, start)

    monkeypatch.setattr(quantum, "_Blocks", Recording)
    return made


class TestChargeBlocks:
    CAP = {2: 5, 3: 3, 4: 2}

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(drawn=_systems(st.integers(2, 4)), atoms=st.integers(1, 3),
           cut=st.integers(0, 5))
    @example(drawn=(_triangle(), 0), atoms=2, cut=3)
    @example(drawn=(_triangle(), 4), atoms=3, cut=2)
    def test_rwa_elements_keep_every_charge(self, drawn, atoms, cut):
        system, zero = drawn
        system = _with_zeros(system, zero)
        basis = build_basis(system, atoms, min(cut, self.CAP[system.n]))
        K = charges(basis.pairs, *basis.occupations(np.arange(basis.size)))
        H = build_hamiltonian(system, basis, rwa=True).tocoo()
        nonzero = H.data != 0.0
        assert np.array_equal(K[H.row[nonzero]], K[H.col[nonzero]])

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(drawn=_systems(st.integers(2, 4)), atoms=st.integers(1, 3),
           cut=st.integers(0, 5), threshold=st.sampled_from([2, 8, 300]),
           rwa=st.booleans())
    @example(drawn=(_triangle(), 0), atoms=2, cut=4, threshold=300, rwa=True)
    @example(drawn=(_triangle(), 2), atoms=3, cut=3, threshold=2, rwa=True)
    # full model, sectors split by a zero coupling into several Lanczos blocks
    @example(drawn=(_xi(2.0, 0.0), 0), atoms=1, cut=3, threshold=2,
             rwa=False)
    @example(drawn=(_xi(0.0, 1.5), 0), atoms=2, cut=3, threshold=2,
             rwa=False)
    @example(drawn=(_triangle(), 4), atoms=2, cut=3, threshold=8, rwa=False)
    def test_matches_component_route(self, drawn, atoms, cut, threshold,
                                     rwa):
        system, zero = drawn
        system = _with_zeros(system, zero)
        cut = min(cut, self.CAP[system.n])
        if not rwa:  # full-model sectors solve densely in the reference
            atoms = min(atoms, 2)
        config = SolverConfig(dense_threshold=threshold)
        got = ground_state(system, atoms, cut, rwa=rwa, config=config)
        want = _component_route(system, atoms, cut, config, rwa)
        assert got.sector == want["sector"]
        assert got.degenerate_sectors == want["degenerate_sectors"]
        assert got.energy == pytest.approx(want["energy"], abs=1e-10)
        assert got.sector_energies == pytest.approx(want["sector_energies"],
                                                    abs=1e-10)
        assert got.nu == pytest.approx(want["nu"], abs=1e-10)
        assert got.populations == pytest.approx(want["populations"],
                                                abs=1e-10)
        assert got.boundary_weight == pytest.approx(want["boundary_weight"],
                                                    abs=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(drawn=_systems(st.integers(2, 4)), atoms=st.integers(1, 3))
    @example(drawn=(_triangle(), 0), atoms=2)
    def test_rotating_wave_bound_at_half_coupling(self, drawn, atoms):
        system, zero = drawn
        system = _with_zeros(system, zero)
        try:
            _, result = converge_cutoff(system, atoms, 2, tol=1e-6, rwa=True,
                                        budget=30_000)
        except BudgetError:
            assume(False)
        assert result.energy <= minimize(rwa_rescale(system)).energy + 1e-9

    def test_pruning_skips_blocks_at_workload_cutoffs(self, xi, block_solves):
        system = xi(1.3, 1.7, atom_count=4)
        cut = {(1, 2): 24, (2, 3): 48}
        result = ground_state(system, 4, cut, rwa=True)
        blocks, = block_solves
        solved, = blocks.solved
        # 1527 blocks, 256 of them with a Gershgorin bound below their
        # sector's minimum; the sector's least diagonal element as the upper
        # bound leaves 451 to solve, the blocks' all-ones Rayleigh quotients
        # 374
        assert len(solved) == 1527
        assert 256 <= solved.sum() < 400
        want = _component_route(system, 4, cut, SolverConfig(), rwa=True)
        assert result.sector == want["sector"]
        assert result.degenerate_sectors == want["degenerate_sectors"]
        assert result.energy == pytest.approx(want["energy"], abs=1e-10)
        assert result.sector_energies == pytest.approx(
            want["sector_energies"], abs=1e-10)
        assert result.nu == pytest.approx(want["nu"], abs=1e-10)
        assert result.populations == pytest.approx(want["populations"],
                                                   abs=1e-10)

    def test_zero_couplings_tie_to_lowest_index(self, xi, block_solves):
        # photon 1-2 with the atom in level 1 and no photon with the atom in
        # level 2 share a charge vector and an energy of exactly 1.0
        # (the full model: at zero couplings its Hamiltonian is the
        # rotating-wave one, and its result keeps the sector vectors)
        system = xi(0.0, 0.0)
        result = ground_state(system, 1, 2)
        blocks, = block_solves
        assert set(blocks.sizes) == {1}
        basis = build_basis(system, 1, 2)
        sector, = [s for s in split_sectors(system, basis)
                   if s.parity == (0, 1, 0)]
        vec = result.sector_vectors.vector[sector.indices]
        indices = sector.indices[vec != 0.0]
        assert basis.ket(int(indices[0])).n == (0, 1, 0)
        assert indices.tolist() == [1] and vec[vec != 0.0].tolist() == [1.0]
        assert result.sector_energies[sector.label] == 1.0

    def test_zero_coupled_photons_split_blocks(self, xi, block_solves):
        system = xi(0.0, 0.8, atom_count=2)
        ground_state(system, 2, 4, rwa=True)
        blocks, = block_solves
        basis = build_basis(system, 2, 4)
        nu12 = basis.occupations(np.arange(basis.size))[0][:, 0]
        for b in range(len(blocks.sizes)):
            assert len(set(nu12[blocks.members(b)])) == 1
        assert blocks.sizes.max() > 1


def _assert_same_result(got, want):
    """Two results equal bit for bit, lowest vectors included."""
    assert got == want
    if want.sector_vectors is None:
        assert got.sector_vectors is None
    else:
        assert np.array_equal(got.sector_vectors.vector,
                              want.sector_vectors.vector)


def _cold(solve):
    """solve() on an empty truncation cache."""
    quantum._truncation.cache_clear()
    return solve()


@pytest.fixture
def built(monkeypatch):
    """Record every truncation structure built, in order."""
    structures = []
    build = quantum._Truncation

    def recording(*args):
        structures.append(build(*args))
        return structures[-1]

    monkeypatch.setattr(quantum, "_Truncation", recording)
    return structures


@pytest.fixture
def component_searches(monkeypatch):
    """Count the component searches, one per truncation structure built."""
    calls = []
    search = quantum.connected_components

    def recording(*args, **kwargs):
        calls.append(args[0].shape[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(quantum, "connected_components", recording)
    return calls


class TestTruncationCache:
    CAP = {2: 5, 3: 3, 4: 2}

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(drawn=_systems(st.integers(2, 4)), atoms=st.integers(1, 2),
           rwa=st.booleans(), cut=st.integers(0, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(drawn=(_triangle(), 0), atoms=2, rwa=True, cut=3, seed=0)
    def test_new_couplings_match_a_cold_solve(self, drawn, atoms, rwa, cut,
                                              seed):
        system, zero = drawn
        first = _with_zeros(system, zero)
        rng = np.random.default_rng(seed)
        # new values for the nonzero couplings, so the truncation repeats
        second = first.with_couplings({t.pair: float(rng.uniform(0.05, 2.0))
                                       for t in first.transitions
                                       if t.mu != 0.0})
        cut = min(cut, self.CAP[system.n])
        config = SolverConfig(dense_threshold=8)
        _cold(lambda: ground_state(first, atoms, cut, rwa=rwa, config=config))
        warm = ground_state(second, atoms, cut, rwa=rwa, config=config)
        # the second solve reused the first one's structure
        assert quantum._truncation.cache_info().misses == 1
        cold = _cold(lambda: ground_state(second, atoms, cut, rwa=rwa,
                                          config=config))
        _assert_same_result(warm, cold)

    @pytest.mark.parametrize("change", [
        "omega", "Omega", "zero_mu", "atoms", "cutoff", "rwa"])
    def test_each_key_part_gives_the_cold_answer(self, change,
                                                 component_searches):
        base = dict(omega=[0.0, 1.0, 1.3], Omega=[1.0, 0.5], mu=[0.9, 1.1],
                    atoms=2, cutoff={(1, 2): 5, (2, 3): 4}, rwa=False)
        changed = dict(base, **{
            "omega": dict(omega=[0.0, 1.1, 1.3]),
            "Omega": dict(Omega=[1.0, 0.6]),
            "zero_mu": dict(mu=[0.9, 0.0]),
            "atoms": dict(atoms=3),
            "cutoff": dict(cutoff={(1, 2): 5, (2, 3): 5}),
            "rwa": dict(rwa=True),
        }[change])

        def solve(p):
            system = cascade_system(p["omega"], p["Omega"], p["mu"],
                                    atom_count=p["atoms"])
            return ground_state(system, p["atoms"], p["cutoff"],
                                rwa=p["rwa"])

        solve(base)
        warm = solve(changed)
        # the base structure is still kept: solving it again searches none
        again = solve(base)
        assert len(component_searches) == 2
        _assert_same_result(warm, _cold(lambda: solve(changed)))
        _assert_same_result(again, _cold(lambda: solve(base)))

    def test_two_structures_are_kept(self, xi, component_searches):
        for atoms in (1, 2, 1, 2, 3, 1):
            ground_state(xi(0.8, 1.2), atoms, 4, rwa=True)
        # 1, 2 and 3 built; 1 rebuilt after 3 displaced it
        assert len(component_searches) == 4

    def test_a_hit_still_checks_budget_and_system(self, xi,
                                                  component_searches):
        cut = {(1, 2): 6, (2, 3): 6}
        ground_state(xi(1.0, 1.0), 1, cut)
        with pytest.raises(BudgetError, match="budget"):
            ground_state(xi(0.9, 1.1), 1, cut, budget=100)
        with pytest.raises(ValueError, match="dipolar strength"):
            ground_state(xi(-0.9, 1.1), 1, cut)
        with pytest.raises(ValueError, match="atom_count"):
            ground_state(xi(0.9, 1.1), 0, cut)
        assert len(component_searches) == 1

    def test_kept_arrays_are_read_only(self, xi, built):
        ground_state(xi(1.0, 1.0), 2, 4, rwa=True)
        truncation, = built
        layout = truncation.layout
        arrays = [value for owner in (truncation, layout)
                  for value in vars(owner).values()
                  if isinstance(value, np.ndarray)]
        assert len(arrays) == 14
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0
