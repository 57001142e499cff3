import math
from collections import Counter

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
    SymmetryCharges,
    Transition,
    build_basis,
    build_hamiltonian,
    cascade_system,
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

    @pytest.mark.parametrize("atoms", [0, -2])
    def test_rejects_fewer_than_one_atom(self, xi, atoms):
        with pytest.raises(ValueError, match=f"atom_count .*{atoms}"):
            build_basis(xi(), atoms, 4)
        with pytest.raises(ValueError, match=f"atom_count .*{atoms}"):
            ground_state(xi(), atoms, 4)


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
        charges = SymmetryCharges.from_system(system)
        K = np.array([
            charges.of_occupations(basis.ket(i).nu_by_pair(), basis.ket(i).n)
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
    # a negative or NaN degeneracy_tol left no sector degenerate with the
    # minimum (an IndexError in ground_state); a negative or NaN
    # boundary_threshold marked every result unconverged, so converge_cutoff
    # doubled until the basis budget ran out
    @pytest.mark.parametrize("name", ["degeneracy_tol", "boundary_threshold"])
    @pytest.mark.parametrize("value", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_negative_and_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})

    def test_zero_tolerances_are_accepted(self, xi):
        config = SolverConfig(degeneracy_tol=0.0, boundary_threshold=0.0)
        result = ground_state(xi(1.3, 1.7, atom_count=2), 2, 8, rwa=True,
                              config=config)
        assert result.sector in result.degenerate_sectors

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
        with pytest.raises(BudgetError) as err:
            converge_cutoff(xi(2.0, 2.0), 1, 2, tol=1e-12, max_doublings=1)
        for cut in (2, 4):
            step = ground_state(xi(2.0, 2.0), 1, cut)
            assert f"cutoffs {step.cutoffs}: energy {step.energy:.12g}" in str(
                err.value)

    def test_rejects_nonpositive_tol(self, xi):
        with pytest.raises(ValueError):
            converge_cutoff(xi(), 1, 4, tol=0.0)


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
        # nu23 value; at cutoff 12 each chain holds 13 states (Lanczos)
        system = _xi(2.0, 0.0)
        coarse = ground_state(system, 1, 6, config=self.LANCZOS)
        lanczos_starts.clear()
        warm = ground_state(system, 1, 12, config=self.LANCZOS, start=coarse)
        calls = list(lanczos_starts)
        cold = ground_state(system, 1, 12, config=self.LANCZOS)
        basis = build_basis(system, 1, 12)
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
                # the whole coarse vector, zero on the states new at cutoff 12
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
    nu_cols = basis.nu_columns()
    occ = basis.occupation_columns()
    K = occ.copy()
    for m, (j, k) in enumerate(basis.pairs):
        K[:, k - 1] += nu_cols[:, m]
        K[:, j - 1] -= nu_cols[:, m]
    parity = np.mod(K, 2)

    letters = {0: "e", 1: "o"}
    named = None
    try:
        weights = excitation_weights(system)
        lam = np.array(weights.lam, dtype=np.int64)
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
    blocks = quantum._Blocks(membership, n_comp, H.diagonal(), lower.row,
                             lower.col, lower.data, config)
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
        config = SolverConfig(dense_threshold=8, boundary_threshold=1e-6)
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
    def atomic_hop(j, k):
        index = {ket: i for i, ket in enumerate(basis.atomic_kets)}
        rows, cols, vals = [], [], []
        for i, ket in enumerate(basis.atomic_kets):
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
    nu_cols = basis.nu_columns()[indices]
    at_boundary = (nu_cols == np.array(basis.cutoffs)).any(axis=1)
    return {
        "energy": energy / atoms,
        "sector": degenerate[0],
        "sector_energies": {lab: e / atoms for lab, e, _, _ in found},
        "degenerate_sectors": tuple(degenerate),
        "nu": {p: float(weights @ nu_cols[:, m]) / atoms
               for m, p in enumerate(basis.pairs)},
        "populations": tuple(
            weights @ basis.occupation_columns()[indices] / atoms),
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
        K = quantum._charges(basis)
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
        assert 0 < solved.sum() < len(solved) / 2
        want = _component_route(system, 4, cut, SolverConfig(), rwa=True)
        assert result.sector_energies == pytest.approx(
            want["sector_energies"], abs=1e-10)

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
        nu12 = build_basis(system, 2, 4).nu_columns()[:, 0]
        for b in range(len(blocks.sizes)):
            assert len(set(nu12[blocks.members(b)])) == 1
        assert blocks.sizes.max() > 1
