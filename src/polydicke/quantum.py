"""Exact ground state on a truncated Fock basis, block-diagonalized by parity.

The basis is the raw occupation basis |nu_1.., n_1..> (photon numbers per
mode up to a cutoff, one atomic composition per ket), enumerated
lexicographically.  The Hamiltonian is assembled from Kronecker products of
per-mode ladder matrices and collective atomic hop matrices, which makes it
exactly real symmetric; amplitudes that would leave the truncation are
dropped by construction and their damage is measured after the solve as the
ground-state weight sitting on saturated photon states.

Every charge parity is conserved, so the basis splits into sectors that the
Hamiltonian never connects; the global minimum over per-sector lowest
eigenpairs is the exact ground state of the truncated problem.  Sectors are
keyed by one integer per parity row.  Zero couplings and the rotating-wave
charges split a sector further into connected components, which are solved
by size:

* single states are read off the diagonal;
* several components of one size go through stacked NumPy eigenvalue
  solves, in stacks no larger than one dense block at the dense threshold,
  and only the lowest block gets an eigenvector solve;
* any other component (or an unsplit sector) is solved densely up to the
  dense threshold and with Lanczos above it.

The default threshold of 300 states sits at the measured crossover: on ξ
sector blocks, one thread, the dense lowest-eigenpair solve takes 1.4 ms at
169 states and 42 ms at 721, and Lanczos 3.7 ms and 8.4 ms.

Each result keeps its per-sector lowest vectors.  `converge_cutoff` hands
them to the next, finer solve, which embeds each in its own basis and
starts Lanczos there instead of from a seeded random vector; on ξ this
halves the Lanczos iterations of the fine solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh

from .model import AtomicSystem, Pair, require_valid
from .symmetries import WeightError, excitation_weights
from .variational import candidates as _variational_candidates

DEFAULT_BASIS_BUDGET = 2_000_000


class BudgetError(RuntimeError):
    """Basis size or refinement budget exceeded; message carries diagnostics."""


@dataclass(frozen=True)
class FockKet:
    """Occupation-number basis state: photons per mode, atoms per level."""

    nu: Tuple[int, ...]
    n: Tuple[int, ...]
    pairs: Tuple[Pair, ...]

    def nu_by_pair(self) -> Dict[Pair, int]:
        return dict(zip(self.pairs, self.nu))


def _atomic_compositions(atom_count: int, n: int) -> List[Tuple[int, ...]]:
    """All occupations (n_1..n_n) summing to atom_count, lexicographic."""
    out: List[Tuple[int, ...]] = []

    def rec(prefix: List[int], remaining: int, slots: int):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], atom_count, n)
    return out


@dataclass(frozen=True)
class TruncatedBasis:
    """Deterministic enumeration of the truncated product basis.

    Index order is lexicographic in the concatenated occupation tuple
    (nu..., n...): photon numbers of the first canonical pair vary slowest,
    atomic compositions fastest.
    """

    pairs: Tuple[Pair, ...]
    cutoffs: Tuple[int, ...]
    atom_count: int
    n_levels: int
    atomic_kets: Tuple[Tuple[int, ...], ...]

    @property
    def mode_dims(self) -> Tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @property
    def atomic_dim(self) -> int:
        return len(self.atomic_kets)

    @property
    def size(self) -> int:
        return int(np.prod(self.mode_dims)) * self.atomic_dim

    def cutoff_of(self, pair: Pair) -> int:
        return self.cutoffs[self.pairs.index(tuple(pair))]

    def index(self, ket: FockKet) -> int:
        """Exact inverse of the enumeration."""
        idx = 0
        for v, d in zip(ket.nu, self.mode_dims):
            if not 0 <= v < d:
                raise ValueError(f"photon occupation {v} outside cutoff {d - 1}")
            idx = idx * d + v
        return idx * self.atomic_dim + self._atomic_index[ket.n]

    def ket(self, index: int) -> FockKet:
        index, a = divmod(index, self.atomic_dim)
        nu = [0] * len(self.pairs)
        for m in range(len(self.pairs) - 1, -1, -1):
            index, nu[m] = divmod(index, self.mode_dims[m])
        return FockKet(nu=tuple(nu), n=self.atomic_kets[a], pairs=self.pairs)

    def __post_init__(self):
        object.__setattr__(
            self, "_atomic_index",
            {ket: i for i, ket in enumerate(self.atomic_kets)},
        )

    def nu_columns(self) -> np.ndarray:
        """(size, n_modes) photon occupation of every basis index.

        Computed on the first call and shared, read-only, by later ones.
        """
        cols = self.__dict__.get("_nu_columns")
        if cols is None:
            dims = self.mode_dims
            total = self.size
            cols = np.empty((total, len(dims)), dtype=np.int64)
            idx = np.arange(total) // self.atomic_dim
            for m in range(len(dims) - 1, -1, -1):
                idx, rem = np.divmod(idx, dims[m])
                cols[:, m] = rem
            cols.flags.writeable = False
            object.__setattr__(self, "_nu_columns", cols)
        return cols

    def occupation_columns(self) -> np.ndarray:
        """(size, n_levels) atomic occupation of every basis index."""
        occ = np.array(self.atomic_kets, dtype=np.int64)
        reps = self.size // self.atomic_dim
        return np.tile(occ, (reps, 1))


def build_basis(system: AtomicSystem, atom_count: int,
                cutoffs: Union[int, Mapping[Pair, int]],
                budget: int = DEFAULT_BASIS_BUDGET) -> TruncatedBasis:
    """Enumerate the truncated basis, refusing sizes above the budget."""
    require_valid(system)
    if atom_count < 1:
        raise ValueError(f"atom_count must be at least 1, got {atom_count}")
    pairs = system.pairs
    if isinstance(cutoffs, int):
        cut = tuple([cutoffs] * len(pairs))
    else:
        missing = [p for p in pairs if p not in cutoffs]
        if missing:
            raise ValueError(f"cutoffs missing for transitions {missing}")
        cut = tuple(int(cutoffs[p]) for p in pairs)
    if any(c < 0 for c in cut):
        raise ValueError(f"cutoffs must be nonnegative, got {cut}")
    atomic = _atomic_compositions(atom_count, system.n)
    size = int(np.prod([c + 1 for c in cut])) * len(atomic)
    if size > budget:
        raise BudgetError(
            f"basis of {size} kets (cutoffs {cut}, {len(atomic)} atomic "
            f"configurations) exceeds the budget of {budget}; raise the "
            f"budget or lower the cutoffs"
        )
    return TruncatedBasis(pairs=pairs, cutoffs=cut, atom_count=atom_count,
                          n_levels=system.n, atomic_kets=tuple(atomic))


def _atomic_hop(basis: TruncatedBasis, j: int, k: int) -> sp.csr_matrix:
    """Collective hop b_j^dag b_k on the atomic compositions (1-based j, k)."""
    rows, cols, vals = [], [], []
    index = basis._atomic_index
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


def _kron_chain(ops: Sequence[sp.spmatrix]) -> sp.csr_matrix:
    out = ops[0]
    for op in ops[1:]:
        out = sp.kron(out, op, format="csr")
    return out


def build_hamiltonian(system: AtomicSystem, basis: TruncatedBasis,
                      rwa: bool = False) -> sp.csr_matrix:
    """Real symmetric Hamiltonian on the truncated basis.

    Diagonal: sum Omega nu + sum omega_j n_j.  Off-diagonal per transition:
    -(mu/sqrt(N_a)) (A_jk + A_kj)(a + a^dag) with the usual bosonic matrix
    elements; with rwa set, only the excitation-preserving half
    A_jk a^dag + A_kj a (photon created when the atom drops) is kept.
    """
    require_valid(system)
    dims = basis.mode_dims
    eye_f = [sp.identity(d, format="csr") for d in dims]
    eye_a = sp.identity(basis.atomic_dim, format="csr")

    def placed(mode: int, fop: sp.spmatrix, aop: sp.spmatrix) -> sp.csr_matrix:
        ops = list(eye_f)
        ops[mode] = fop
        return _kron_chain(ops + [aop])

    H = None
    for m, p in enumerate(basis.pairs):
        term = system.transition(p).Omega * placed(
            m, sp.diags(np.arange(dims[m], dtype=float)), eye_a)
        H = term if H is None else H + term
    atom_diag = sp.diags([
        float(sum(system.omega[j] * ket[j] for j in range(basis.n_levels)))
        for ket in basis.atomic_kets
    ])
    H = H + _kron_chain(eye_f + [atom_diag])

    scale = 1.0 / math.sqrt(basis.atom_count)
    for m, p in enumerate(basis.pairs):
        t = system.transition(p)
        if t.mu == 0.0 or dims[m] == 1:
            continue
        a = sp.diags(np.sqrt(np.arange(1, dims[m], dtype=float)), 1)
        hop = _atomic_hop(basis, t.j, t.k)
        if rwa:
            term = placed(m, a.T, hop) + placed(m, a, hop.T)
        else:
            term = placed(m, (a + a.T).tocsr(), (hop + hop.T).tocsr())
        H = H - (t.mu * scale) * term
    return H.tocsr()


@dataclass(frozen=True)
class SymmetrySector:
    """One charge-parity class of basis indices.

    The two-letter name (parity of the total excitation number, parity of
    the top-level charge) is used whenever the configuration admits
    consistent excitation weights and that pair of parities separates the
    classes; otherwise the name spells out all charge parities.
    """

    label: str
    parity: Tuple[int, ...]
    indices: np.ndarray


def split_sectors(system: AtomicSystem,
                  basis: TruncatedBasis) -> List[SymmetrySector]:
    """Partition the basis by the parities of every level charge.

    The partition depends only on the basis, never on couplings, and the
    Hamiltonian has no matrix element between different classes.
    """
    require_valid(system)
    nu_cols = basis.nu_columns()
    K = basis.occupation_columns()
    for m, (j, k) in enumerate(basis.pairs):
        K[:, k - 1] += nu_cols[:, m]
        K[:, j - 1] -= nu_cols[:, m]
    parity = np.mod(K, 2)
    # one integer per parity row: bit j holds the parity of level j + 1
    code = parity @ (1 << np.arange(basis.n_levels, dtype=np.int64))
    _, first, inverse = np.unique(code, return_index=True,
                                  return_inverse=True)
    names = parity[first]
    try:
        lam = np.array(excitation_weights(system).lam, dtype=np.int64)
        short = 2 * np.mod(K @ lam, 2) + parity[:, -1]
        # adopt the two-letter naming only if it separates the full classes:
        # no two-letter key may occur together with two full keys
        if len(np.unique(short)) == len(np.unique(4 * code + short)):
            names = np.stack([short[first] // 2, short[first] % 2], axis=1)
    except WeightError:
        pass

    order = np.argsort(inverse, kind="stable")
    bounds = np.cumsum(np.bincount(inverse))[:-1]
    sectors = [
        SymmetrySector(label="".join("eo"[v] for v in name),
                       parity=tuple(int(v) for v in parity[i]),
                       indices=ix)
        for name, i, ix in zip(names, first, np.split(order, bounds))
    ]
    sectors.sort(key=lambda s: s.label)
    return sectors


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the per-sector eigensolves and truncation diagnostics."""

    dense_threshold: int = 300
    # seeds the random Lanczos start of every block solved without a start
    # vector from a coarser solve
    seed: int = 0
    boundary_threshold: float = 1e-8
    degeneracy_tol: float = 1e-10
    lanczos_tol: float = 0.0          # 0 = machine precision
    lanczos_maxiter: Optional[int] = None


@dataclass(frozen=True)
class SectorVectors:
    """Lowest vector of every sector of one solve, keyed by parity tuple.

    Each entry holds the sector's global basis indices (ascending) and its
    lowest vector on them.  A finer solve of the same problem embeds these
    as Lanczos start vectors.
    """

    basis: TruncatedBasis
    rwa: bool
    vectors: Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class QuantumGroundResult:
    """Exact truncated-basis ground state and its diagnostics.

    Energies and observables are per particle.  delta_nu is the normalized
    photon imbalance of the two designated modes, None while undefined
    (photon-free state).  converged is False when the ground state leans on
    the truncation boundary more than the configured threshold.
    """

    energy: float
    sector: str
    sector_energies: Dict[str, float]
    degenerate_sectors: Tuple[str, ...]
    nu: Dict[Pair, float]
    populations: Tuple[float, ...]
    delta_nu: Optional[float]
    cutoffs: Dict[Pair, int]
    boundary_weight: float
    residual: float
    converged: bool
    sector_vectors: Optional[SectorVectors] = field(
        default=None, compare=False, repr=False)

    def to_json_dict(self, couplings: Optional[Mapping[Pair, float]] = None) -> dict:
        rec = {
            "energy_per_particle": self.energy,
            "sector": self.sector,
            "sector_energies": dict(sorted(self.sector_energies.items())),
            "degenerate_sectors": list(self.degenerate_sectors),
            "observables": {
                "nu": {f"{j}_{k}": v for (j, k), v in sorted(self.nu.items())},
                "populations": list(self.populations),
            },
            "delta_nu": "undefined" if self.delta_nu is None else self.delta_nu,
            "cutoffs": {f"{j}_{k}": c for (j, k), c in sorted(self.cutoffs.items())},
            "boundary_weight": self.boundary_weight,
            "residual": self.residual,
            "converged": self.converged,
        }
        if couplings is not None:
            rec["couplings"] = {f"{j}_{k}": v
                                for (j, k), v in sorted(couplings.items())}
        return rec


def _lowest_eigenpair_irreducible(H: sp.csr_matrix, config: SolverConfig,
                                  seed: int, v0: Optional[np.ndarray] = None,
                                  ) -> Tuple[float, np.ndarray]:
    """Lowest eigenpair of one connected block; v0 starts Lanczos if given."""
    dim = H.shape[0]
    if dim == 1:
        return float(H[0, 0]), np.ones(1)
    if dim <= config.dense_threshold:
        vals, vecs = scipy.linalg.eigh(H.toarray(), subset_by_index=[0, 0])
        return float(vals[0]), vecs[:, 0]
    if v0 is None:
        v0 = np.random.default_rng(config.seed + seed).standard_normal(dim)
    vals, vecs = eigsh(H, k=1, which="SA", v0=v0, tol=config.lanczos_tol,
                       maxiter=config.lanczos_maxiter)
    return float(vals[0]), vecs[:, 0]


def _lowest_eigenpair(H: sp.csr_matrix, config: SolverConfig,
                      sector_seed: int, v0: Optional[np.ndarray] = None,
                      ) -> Tuple[float, np.ndarray]:
    """Lowest eigenpair of one sector block, which holds no stored zeros.

    Zero couplings and the rotating-wave charges leave extra conserved
    quantities, so a sector can itself be block diagonal; Lanczos from a
    single start vector may lose weight on exactly decoupled blocks.  The
    sparsity graph's connected components make that split explicit, and the
    minimum over per-component solves is exact.  Components are solved by
    size: single states are read off the diagonal, blocks of one size of
    which at least two fit in a dense block of dense_threshold states go
    through stacked eigenvalue solves, and the rest are solved one by one.
    Among equal energies the component with the lowest label wins.  The
    start vector v0 is used only when the block is one connected component
    that goes through Lanczos.
    """
    n_comp, membership = connected_components(H, directed=False)
    if n_comp == 1:
        return _lowest_eigenpair_irreducible(H, config, sector_seed, v0)
    sizes = np.bincount(membership)
    # states grouped by component, ascending within each
    order = np.argsort(membership, kind="stable")
    offsets = np.cumsum(sizes) - sizes
    local = np.empty_like(order)
    local[order] = np.arange(len(order)) - offsets[membership[order]]
    coo = H.tocoo()
    entry_comp = membership[coo.row]
    diagonal = H.diagonal()

    best = (math.inf, n_comp, None)  # (energy, component, local vector)

    def offer(energies: np.ndarray, comps: np.ndarray, vectors) -> None:
        nonlocal best
        i = int(np.argmin(energies))
        if (energies[i], comps[i]) < best[:2]:
            best = (float(energies[i]), int(comps[i]), vectors(i))

    for m in np.unique(sizes):
        comps = np.flatnonzero(sizes == m)
        if m == 1:
            offer(diagonal[order[offsets[comps]]], comps,
                  lambda i: np.ones(1))
            continue
        # a stack holds at most as many entries as one threshold-size block
        per_call = (config.dense_threshold // m) ** 2
        if len(comps) == 1 or per_call < 2:
            for c in comps:
                idx = order[offsets[c]:offsets[c] + m]
                energy, vec = _lowest_eigenpair_irreducible(
                    H[idx][:, idx], config, sector_seed + 7919 * (c + 1))
                offer(np.array([energy]), np.array([c]), lambda i: vec)
            continue
        slot = np.full(n_comp, -1)
        slot[comps] = np.arange(len(comps))
        mine = np.flatnonzero(sizes[entry_comp] == m)
        mine = mine[np.argsort(slot[entry_comp[mine]], kind="stable")]
        entry_slot = slot[entry_comp[mine]]
        for lo in range(0, len(comps), per_call):
            hi = min(lo + per_call, len(comps))
            a, b = np.searchsorted(entry_slot, [lo, hi])
            e = mine[a:b]
            blocks = np.zeros((hi - lo, m, m))
            blocks[entry_slot[a:b] - lo, local[coo.row[e]],
                   local[coo.col[e]]] = coo.data[e]
            offer(np.linalg.eigvalsh(blocks)[:, 0], comps[lo:hi],
                  lambda i: np.linalg.eigh(blocks[i])[1][:, 0])

    energy, comp, vec = best
    full = np.zeros(H.shape[0])
    full[order[offsets[comp]:offsets[comp] + sizes[comp]]] = vec
    return energy, full


def _embed_indices(coarse: TruncatedBasis, fine: TruncatedBasis,
                   indices: np.ndarray) -> np.ndarray:
    """Index in `fine` of each `coarse` basis index, same occupations.

    Both bases must share pairs and atomic compositions, and no fine cutoff
    may lie below the coarse one.
    """
    nu = coarse.nu_columns()[indices]
    photons = np.ravel_multi_index(tuple(nu.T), fine.mode_dims)
    return photons * fine.atomic_dim + indices % coarse.atomic_dim


def _start_vectors(start: Optional[QuantumGroundResult],
                   basis: TruncatedBasis, rwa: bool,
                   sectors: Sequence[SymmetrySector],
                   ) -> List[Optional[np.ndarray]]:
    """Lanczos start vector for each sector from a coarser solve, or None.

    A start applies only to the same problem on a basis no finer than this
    one; sectors are matched by parity, since the two-letter labels are
    chosen per basis.  Every validated mu is nonnegative, so every
    off-diagonal element is <= 0, and the lowest vector of a connected block
    is strictly positive (Perron-Frobenius).  The coarse vector is one-signed
    (up to rounding) on one coarse component, so its embedding always
    overlaps it.
    """
    coarse = None if start is None else start.sector_vectors
    if coarse is None:
        return [None] * len(sectors)
    cb = coarse.basis
    if (coarse.rwa != rwa or cb.pairs != basis.pairs
            or cb.atom_count != basis.atom_count
            or cb.n_levels != basis.n_levels
            or any(f < c for f, c in zip(basis.cutoffs, cb.cutoffs))):
        return [None] * len(sectors)
    out: List[Optional[np.ndarray]] = []
    for sector in sectors:
        entry = coarse.vectors.get(sector.parity)
        if entry is None:  # no state of this sector below the coarse cutoffs
            out.append(None)
            continue
        indices, vec = entry
        fine = _embed_indices(cb, basis, indices)
        pos = np.searchsorted(sector.indices, fine)
        assert np.array_equal(sector.indices.take(pos, mode="clip"), fine)
        v0 = np.zeros(len(sector.indices))
        v0[pos] = vec
        out.append(v0)
    return out


def ground_state(system: AtomicSystem, atom_count: int,
                 cutoffs: Union[int, Mapping[Pair, int]], rwa: bool = False,
                 config: Optional[SolverConfig] = None,
                 budget: int = DEFAULT_BASIS_BUDGET, *,
                 start: Optional[QuantumGroundResult] = None,
                 ) -> QuantumGroundResult:
    """Global ground state: the minimum over all per-sector lowest eigenpairs.

    Deterministic for a fixed config seed and a fixed start.  Sectors within
    the degeneracy tolerance of the minimum are all reported; observables
    come from the lexicographically first of them.  The result keeps every
    sector's lowest vector; passed back as `start` to a solve of the same
    problem (pairs, atom count, rwa) with no cutoff lower, they start its
    Lanczos solves, and any other start is ignored.  Raises a RuntimeError
    with the residual norm if an iterative solve fails to converge.
    """
    require_valid(system)
    config = config or SolverConfig()
    basis = build_basis(system, atom_count, cutoffs, budget=budget)
    H = build_hamiltonian(system, basis, rwa=rwa)
    H.eliminate_zeros()
    sectors = split_sectors(system, basis)
    starts = _start_vectors(start, basis, rwa, sectors)

    found: List[Tuple[str, float, np.ndarray, np.ndarray, sp.csr_matrix]] = []
    vectors: Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray]] = {}
    for s_index, (sector, v0) in enumerate(zip(sectors, starts)):
        Hs = H[sector.indices][:, sector.indices]
        try:
            energy, vec = _lowest_eigenpair(Hs, config, s_index, v0)
        except sp.linalg.ArpackNoConvergence as exc:  # pragma: no cover
            raise RuntimeError(
                f"eigensolver failed to converge in sector {sector.label}: {exc}"
            ) from exc
        found.append((sector.label, energy, vec, sector.indices, Hs))
        vectors[sector.parity] = (sector.indices, vec)

    found.sort(key=lambda item: (item[1], item[0]))
    e_min = found[0][1]
    degenerate = tuple(sorted(
        item[0] for item in found if item[1] - e_min <= config.degeneracy_tol
    ))
    winner = min(
        (item for item in found if item[1] - e_min <= config.degeneracy_tol),
        key=lambda item: item[0],
    )
    label, energy, vec, indices, Hs = winner

    residual = float(np.linalg.norm(Hs @ vec - energy * vec)
                     / np.linalg.norm(vec))
    weights = vec * vec
    weights = weights / weights.sum()
    nu_cols = basis.nu_columns()[indices]
    occ = basis.occupation_columns()[indices]
    nu = {
        p: float(weights @ nu_cols[:, m]) / atom_count
        for m, p in enumerate(basis.pairs)
    }
    populations = tuple(
        float(weights @ occ[:, j]) / atom_count for j in range(basis.n_levels)
    )
    at_boundary = (nu_cols == np.array(basis.cutoffs)).any(axis=1)
    boundary_weight = float(weights[at_boundary].sum())

    dn = None
    if len(basis.pairs) == 2:
        dn = delta_nu_value(nu[basis.pairs[0]], nu[basis.pairs[1]])

    return QuantumGroundResult(
        energy=energy / atom_count,
        sector=label,
        sector_energies={item[0]: item[1] / atom_count for item in found},
        degenerate_sectors=degenerate,
        nu=nu,
        populations=populations,
        delta_nu=dn,
        cutoffs=dict(zip(basis.pairs, basis.cutoffs)),
        boundary_weight=boundary_weight,
        residual=residual,
        converged=boundary_weight <= config.boundary_threshold,
        sector_vectors=SectorVectors(basis=basis, rwa=rwa, vectors=vectors),
    )


def delta_nu_value(nu_a: float, nu_b: float,
                   eps: float = 1e-12) -> Optional[float]:
    """(nu_b - nu_a)/(nu_b + nu_a), or None when the sum vanishes."""
    total = nu_a + nu_b
    if total <= eps:
        return None
    return (nu_b - nu_a) / total


def delta_nu(result: QuantumGroundResult, pair_a: Pair,
             pair_b: Pair) -> Optional[float]:
    """Normalized photon imbalance between two named modes of a result.

    None marks the undefined 0/0 case (photon-free ground state); a float in
    [-1, 1] otherwise, -1 when mode pair_a dominates and +1 when pair_b does.
    """
    return delta_nu_value(result.nu[tuple(pair_a)], result.nu[tuple(pair_b)])


def converge_cutoff(system: AtomicSystem, atom_count: int,
                    start_cutoffs: Union[int, Mapping[Pair, int]],
                    tol: float, rwa: bool = False,
                    config: Optional[SolverConfig] = None,
                    budget: int = DEFAULT_BASIS_BUDGET,
                    max_doublings: int = 8,
                    ) -> Tuple[Dict[Pair, int], QuantumGroundResult]:
    """Double every cutoff until the ground energy settles within tol.

    Stops when two successive solves agree within tol and the finer one does
    not lean on the truncation boundary; returns that finer result.  Each
    finer solve starts its Lanczos solves from the previous solve's sector
    vectors (see `ground_state`).  Raises BudgetError when the basis budget
    or the doubling budget runs out; the latter's message lists every
    step's cutoffs, energy per particle and boundary weight.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    require_valid(system)

    def step(r: QuantumGroundResult) -> str:
        return (f"cutoffs {r.cutoffs}: energy {r.energy:.12g}, "
                f"boundary weight {r.boundary_weight:.3e}")

    previous = ground_state(system, atom_count, start_cutoffs, rwa=rwa,
                            config=config, budget=budget)
    history = [step(previous)]
    for _ in range(max_doublings):
        finer = {p: max(2 * c, 1) for p, c in previous.cutoffs.items()}
        result = ground_state(system, atom_count, finer, rwa=rwa,
                              config=config, budget=budget, start=previous)
        if abs(result.energy - previous.energy) < tol and result.converged:
            return finer, result
        history.append(step(result))
        previous = result
    raise BudgetError(
        f"not converged within tol {tol:g} after {max_doublings} doublings: "
        + "; ".join(history))


def suggest_cutoffs(system: AtomicSystem, atom_count: int,
                    minimum: int = 6, spread: float = 6.0,
                    margin: int = 8) -> Dict[Pair, int]:
    """Starting cutoffs from the variational photon numbers.

    The active mode of each candidate is Poissonian with mean N_a r_c^2;
    the cutoff covers the mean plus `spread` standard deviations plus a
    fixed margin, floored at `minimum`.
    """
    require_valid(system)
    mean = {p: 0.0 for p in system.pairs}
    for cand in _variational_candidates(system):
        if cand.exists and cand.pair is not None:
            mean[cand.pair] = atom_count * cand.photon_amp ** 2
    return {
        p: max(minimum,
               int(math.ceil(m + spread * math.sqrt(m + 1.0) + margin)))
        for p, m in mean.items()
    }
