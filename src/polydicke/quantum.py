"""Exact ground state on a truncated Fock basis, block-diagonalized by parity.

The basis is the raw occupation basis |nu_1.., n_1..> (photon numbers per
mode up to a cutoff, one atomic composition per ket), enumerated
lexicographically.  One kernel (`_hamiltonian_entries`) lists the diagonal
and the photon-creating coupling elements of the Hamiltonian by index
arithmetic: adding a photon to a mode moves the basis index by a fixed
stride, and the atom's hop by an offset read from the composition table.
The matrix is exactly real symmetric; amplitudes that would leave the
truncation are dropped by construction and their damage is measured after
the solve as the ground-state weight sitting on saturated photon states.

Every charge parity is conserved, so the basis splits into sectors that the
Hamiltonian never connects; the global minimum over per-sector lowest
eigenpairs is the exact ground state of the truncated problem.  Sectors are
keyed by one integer per parity row.

The full and rotating-wave models share one solve.  One connected-component
search over the kernel's coupling elements splits the basis into blocks no
element joins.  They never cross a sector; zero couplings split sectors
further, and under rwa the blocks refine the conserved-charge (K_j) blocks.
A block's least diagonal element and its all-ones Rayleigh quotient both
bound its lowest eigenvalue from above; every block whose Gershgorin lower
bound lies more than the degeneracy tolerance above the least of these over
its sector is skipped.  The rest are solved by size:

* single states are read off the diagonal;
* blocks up to the dense threshold go through stacked NumPy eigenvalue
  solves, in stacks no larger than one dense block at the threshold, and
  only the winning blocks get an eigenvector solve; a block alone in its
  stacks gets one LAPACK lowest-eigenpair solve instead;
* larger blocks go through `eigsh`, a plain Lanczos for the lowest
  eigenpair that keeps its Krylov basis up to a fixed memory cap, replays
  the recurrence for any vectors past it, and returns its Ritz vector's
  Rayleigh quotient.

The default threshold of 300 states sits at the measured crossover: on ξ
sector blocks, N_a = 1, one thread, the dense lowest-eigenpair solve takes
1.6-1.8 ms at 169 states, 3.3-6.1 ms at 300 and 38-54 ms at 721, and the
Lanczos solve from the all-ones start 4.1-5.9 ms, 2.7-6.2 ms and 6.7-8.4 ms
(three couplings, shared 2-core host).

Apart from the element values, all of this depends on the couplings only
through which of them are zero.  So the diagonal, the coupling pattern with
its magnitudes sqrt(nu + 1) * hop and transitions, the block layout and the
sector labels (`_Truncation`) are built from the structure system, the
system with every nonzero mu set to 1, and the basis.  A
`functools.lru_cache(maxsize=2)` keyed on the structure system, the basis
and the model keeps them, read-only, for the last two truncations solved;
a new coupling only scales the magnitudes into values, bounds the blocks
and solves them.

`build_hamiltonian`, `split_sectors` and `SymmetrySector` are reference
views of the same operator and partition that the solve never calls; the
tests check the solve against them.

Every solved block writes its lowest vector into one array over the basis,
and its residual into one value per block; no block matrix outlives its
solve.  A full-model result keeps one vector over its basis holding every
sector winner's lowest vector.  `converge_cutoff` hands it to the next,
finer solve, which embeds it into its own basis; a Lanczos block starts
from that vector's part on its states when the part is nonzero, and
otherwise from the all-ones vector, so every solve is deterministic.  On ξ
the fine solve then takes a third fewer Lanczos steps than the cold coarse
one, on blocks four times larger.  A rotating-wave result keeps no vector,
since no solve can start from it, and computes only its winner's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .model import AtomicSystem, Pair, require_count, require_valid
from .symmetries import WeightError, excitation_weights
from .variational import candidates as _variational_candidates

DEFAULT_BASIS_BUDGET = 2_000_000
# Lanczos steps per block before the solve gives up, and the steps between
# two convergence checks
_LANCZOS_STEPS = 5000
_CHECK_EVERY = 8
# memory for the Lanczos vectors eigsh keeps to sum its Ritz vector; the
# vectors past it are recomputed (at the 2 M basis budget it holds four)
_KRYLOV_BYTES = 64 * 2 ** 20
# suggest_cutoffs: the floor, the standard deviations above the mean and
# the fixed margin of a starting cutoff
_CUTOFF_MINIMUM = 6
_CUTOFF_SPREAD = 6.0
_CUTOFF_MARGIN = 8
# photon totals up to this leave delta_nu undefined
_DELTA_NU_EPS = 1e-12


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


def _cutoff(pair: Pair, value) -> int:
    """value as a photon cutoff of transition pair: a Python or NumPy
    integer >= 0, bools excluded."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"cutoff of transition {pair[0]}-{pair[1]} must be "
                         f"an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"cutoff of transition {pair[0]}-{pair[1]} must be "
                         f"nonnegative, got {value}")
    return int(value)


def build_basis(system: AtomicSystem, atom_count: int,
                cutoffs: Union[int, Mapping[Pair, int]],
                budget: int = DEFAULT_BASIS_BUDGET) -> TruncatedBasis:
    """Enumerate the truncated basis, refusing sizes above the budget."""
    require_valid(system)
    atom_count = require_count("atom_count", atom_count)
    pairs = system.pairs
    if isinstance(cutoffs, Mapping):
        missing = [p for p in pairs if p not in cutoffs]
        if missing:
            raise ValueError(f"cutoffs missing for transitions {missing}")
        cut = tuple(_cutoff(p, cutoffs[p]) for p in pairs)
    else:
        cut = tuple(_cutoff(p, cutoffs) for p in pairs)
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


def _hamiltonian_entries(system: AtomicSystem, basis: TruncatedBasis,
                         rwa: bool) -> Tuple[np.ndarray, np.ndarray,
                                             np.ndarray, np.ndarray,
                                             np.ndarray]:
    """Diagonal and coupling pattern of the truncated Hamiltonian.

    Returns (diag, rows, cols, magnitude, transition): diag[i] = H_ii for
    every basis index, and each coupling element joins a target (row)
    holding one photon more than its source (column), with the bosonic and
    atomic factor sqrt(nu + 1) * hop in magnitude and the index of its
    transition in basis.pairs; `_coupling_values` scales them into
    H[rows, cols].  The rest of H is the transpose of these.  A photon
    added to mode m moves the index by that mode's stride times atomic_dim;
    the atom's hop moves it by the offset between two rows of the
    composition table.  Transitions with mu = 0 contribute no element.
    """
    A = basis.atomic_dim
    occ = np.array(basis.atomic_kets, dtype=np.int64)
    photons = basis.nu_columns()[::A]
    photon_energy = np.zeros(len(photons))
    for m, p in enumerate(basis.pairs):
        photon_energy += system.transition(p).Omega * photons[:, m]
    atom_energy = np.zeros(A)
    for j in range(basis.n_levels):
        atom_energy += system.omega[j] * occ[:, j]
    diag = (photon_energy[:, np.newaxis] + atom_energy).ravel()

    strides = np.cumprod((1,) + basis.mode_dims[:0:-1])[::-1] * A
    # 32-bit indices, as the sparse matrices use, halve the index memory
    index = np.int32 if basis.size <= np.iinfo(np.int32).max else np.int64
    rows, cols = [np.zeros(0, index)], [np.zeros(0, index)]
    magnitude = [diag[:0]]
    # one byte per element while there are at most 255 transitions
    kind = np.min_scalar_type(len(basis.pairs))
    transition = [np.zeros(0, kind)]
    for m, p in enumerate(basis.pairs):
        t = system.transition(p)
        if t.mu == 0.0:
            continue
        src = np.flatnonzero(photons[:, m] < basis.cutoffs[m]).astype(index)
        ladder = np.sqrt(photons[src, m] + 1.0)
        # b_j^dag b_k a^dag drops an atom as it emits (kept under rwa);
        # b_k^dag b_j a^dag raises one (counter-rotating)
        hops = ((t.j, t.k),) if rwa else ((t.j, t.k), (t.k, t.j))
        for dst, gone in hops:
            a = np.flatnonzero(occ[:, gone - 1] > 0)
            moved = occ[a]
            moved[:, gone - 1] -= 1
            moved[:, dst - 1] += 1
            # the table is lexicographic and holds every moved composition,
            # so its sorted unique rows are the table itself
            target = np.unique(np.concatenate([occ, moved]), axis=0,
                               return_inverse=True)[1].ravel()[A:]
            hop = np.sqrt((occ[a, dst - 1] + 1) * occ[a, gone - 1])
            source = (src[:, np.newaxis] * A + a.astype(index)).ravel()
            cols.append(source)
            rows.append(source + np.tile(
                (int(strides[m]) + target - a).astype(index), len(src)))
            magnitude.append((ladder[:, np.newaxis] * hop).ravel())
            transition.append(np.full(len(source), m, kind))
    return (diag, np.concatenate(rows), np.concatenate(cols),
            np.concatenate(magnitude), np.concatenate(transition))


def _coupling_values(system: AtomicSystem, basis: TruncatedBasis,
                     magnitude: np.ndarray,
                     transition: np.ndarray) -> np.ndarray:
    """H[rows, cols] of `_hamiltonian_entries`' coupling elements: each
    magnitude times -mu / sqrt(N_a) of its transition."""
    mu = np.array([system.transition(p).mu for p in basis.pairs])
    return np.take(-(mu * (1.0 / math.sqrt(basis.atom_count))),
                   transition) * magnitude


def build_hamiltonian(system: AtomicSystem, basis: TruncatedBasis,
                      rwa: bool = False) -> sp.csr_matrix:
    """Real symmetric Hamiltonian on the truncated basis, as one sparse
    matrix: a reference view that `ground_state` never builds.

    Diagonal: sum Omega nu + sum omega_j n_j.  Off-diagonal per transition:
    -(mu/sqrt(N_a)) (A_jk + A_kj)(a + a^dag) with the usual bosonic matrix
    elements; with rwa set, only the excitation-preserving half
    A_jk a^dag + A_kj a (photon created when the atom drops) is kept.
    Amplitudes that would leave the truncation are dropped.
    """
    require_valid(system)
    diag, rows, cols, magnitude, transition = _hamiltonian_entries(
        system, basis, rwa)
    vals = _coupling_values(system, basis, magnitude, transition)
    states = np.arange(basis.size, dtype=rows.dtype)
    return sp.csr_matrix(
        (np.concatenate([diag, vals, vals]),
         (np.concatenate([states, rows, cols]),
          np.concatenate([states, cols, rows]))),
        shape=(basis.size, basis.size))


@dataclass(frozen=True)
class SymmetrySector:
    """One charge-parity class of basis indices, as `split_sectors` lists it.

    The two-letter name (parity of the total excitation number, parity of
    the top-level charge) is used whenever the configuration admits
    consistent excitation weights and that pair of parities separates the
    classes; otherwise the name spells out all charge parities.
    """

    label: str
    parity: Tuple[int, ...]
    indices: np.ndarray


def _charges(basis: TruncatedBasis) -> np.ndarray:
    """(size, n_levels) charge vector K of every basis index."""
    nu_cols = basis.nu_columns()
    K = basis.occupation_columns()
    for m, (j, k) in enumerate(basis.pairs):
        K[:, k - 1] += nu_cols[:, m]
        K[:, j - 1] -= nu_cols[:, m]
    return K


def _parity_sectors(system: AtomicSystem, K: np.ndarray,
                    ) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Parity class of every row of charge vectors K, and the class names.

    Returns (sector, parity, labels): the class of each row, numbered in
    ascending integer key, and the parity tuple and name of each class.
    The two-letter name (parity of the total excitation number, parity of
    the top-level charge) is used when it separates the classes of these
    rows; otherwise the name spells out every charge parity.
    """
    parity = np.mod(K, 2)
    # one integer per parity row: bit j holds the parity of level j + 1
    code = parity @ (1 << np.arange(K.shape[1], dtype=np.int64))
    _, first, sector = np.unique(code, return_index=True,
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
    labels = ["".join("eo"[v] for v in name) for name in names]
    return sector, parity[first], labels


def split_sectors(system: AtomicSystem,
                  basis: TruncatedBasis) -> List[SymmetrySector]:
    """Partition the basis by the parities of every level charge.

    The partition depends only on the basis, never on couplings, and the
    Hamiltonian has no matrix element between different classes.  A
    reference view: `ground_state` labels its blocks through
    `_parity_sectors` and never calls this.
    """
    require_valid(system)
    sector, parity, labels = _parity_sectors(system, _charges(basis))
    order = np.argsort(sector, kind="stable")
    bounds = np.cumsum(np.bincount(sector))[:-1]
    sectors = [
        SymmetrySector(label=label, parity=tuple(int(v) for v in row),
                       indices=ix)
        for label, row, ix in zip(labels, parity, np.split(order, bounds))
    ]
    sectors.sort(key=lambda s: s.label)
    return sectors


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the block solves and truncation diagnostics.

    Blocks above dense_threshold states go through Lanczos, the rest through
    dense solves.  degeneracy_tol both groups near-equal sector minima and
    widens the Gershgorin skip; a result whose boundary weight exceeds
    boundary_threshold is not converged.  Both must be finite and >= 0.
    """

    dense_threshold: int = 300
    boundary_threshold: float = 1e-8
    degeneracy_tol: float = 1e-10

    def __post_init__(self):
        for name in ("boundary_threshold", "degeneracy_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, "
                                 f"got {value}")


@dataclass(frozen=True)
class SectorVectors:
    """Lowest vectors of one full-model solve, as one vector over its basis.

    vector holds every sector winner's lowest vector on the winner's states
    and zero elsewhere.  A finer full-model solve of the same problem embeds
    it as its Lanczos start.
    """

    basis: TruncatedBasis
    vector: np.ndarray


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


def eigsh(H: sp.csr_matrix, v0: np.ndarray) -> Tuple[float, np.ndarray]:
    """Lowest eigenpair of the real symmetric sparse H by plain Lanczos.

    The three-term recurrence runs from v0 with no reorthogonalization and
    no restart; every few steps the lowest Ritz pair (theta, s) of the
    tridiagonal is taken, and the solve stops once the residual estimate
    |beta_j s_j| falls to 1e-14 max(1, |theta|).  The Ritz vector is summed
    from the Lanczos vectors of that pass, kept up to _KRYLOV_BYTES of
    memory; past that cap, the recurrence is replayed from the last two
    kept vectors with the stored coefficients.  A replayed vector repeats
    the pass's operations in the same order, so results do not depend on
    the cap, and a solve of k > 1 steps makes k + 1 sparse products when
    every vector fits, 2k when none but the start does.  Returns the unit
    Ritz vector x and its Rayleigh quotient x @ (H @ x), which unlike theta
    never falls below the block's lowest eigenvalue once the recurrence has
    lost orthogonality (a solve of one step returns its start, whose
    quotient is alpha_0); raises a RuntimeError after _LANCZOS_STEPS steps.

    The start must overlap the lowest eigenvector.  A random start does, and
    so does any nonnegative one on a connected block whose off-diagonal
    elements are <= 0, as every block of a validated system is.  A start of
    the wrong shape, or whose norm is zero or not finite (so also one with
    a NaN or infinite entry), raises a ValueError.
    """
    n = H.shape[0]
    if np.shape(v0) != (n,):
        raise ValueError(f"Lanczos start v0 must hold one value per state of "
                         f"the block of {n} states, got shape "
                         f"{np.shape(v0)}")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v0)
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValueError(f"Lanczos start v0 must have a finite nonzero norm, "
                         f"got {norm}")
    alpha: List[float] = []
    beta: List[float] = []
    keep = _KRYLOV_BYTES // (8 * n)
    krylov = [v0 / norm]
    q, q_prev = krylov[0], np.zeros(n)
    for j in range(_LANCZOS_STEPS):
        w = H @ q
        alpha.append(float(q @ w))
        w -= alpha[j] * q
        w -= (beta[j - 1] if j else 0.0) * q_prev
        beta.append(math.sqrt(w @ w))
        # a vanishing beta ends the Krylov space: check before dividing by it
        if (j % _CHECK_EVERY == _CHECK_EVERY - 1
                or beta[j] <= 1e-14 * max(1.0, abs(alpha[j]))):
            theta, s = scipy.linalg.eigh_tridiagonal(
                alpha, beta[:-1], select="i", select_range=(0, 0))
            if abs(beta[j] * s[-1, 0]) <= 1e-14 * max(1.0, abs(theta[0])):
                break
        q_prev, q = q, w / beta[j]
        if len(krylov) < keep:
            krylov.append(q)
    else:
        raise RuntimeError(f"Lanczos did not converge in {_LANCZOS_STEPS} "
                           f"steps on a block of {n} states")
    x = s[0, 0] * krylov[0]
    for j in range(1, len(krylov)):
        x += s[j, 0] * krylov[j]
    # the vectors past the cap, replayed bit for bit from the last two kept
    q, q_prev = krylov[-1], (krylov[-2] if len(krylov) > 1 else np.zeros(n))
    for j in range(len(krylov) - 1, len(alpha) - 1):
        w = H @ q
        w -= alpha[j] * q
        w -= (beta[j - 1] if j else 0.0) * q_prev
        q_prev, q = q, w / beta[j]
        x += s[j + 1, 0] * q
    x /= np.linalg.norm(x)
    return (alpha[0] if len(alpha) == 1 else float(x @ (H @ x))), x


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


class _Layout:
    """Where the blocks of a block-diagonal matrix sit; read-only.

    block[i] numbers the block of state i, and rows holds the row of every
    off-diagonal element at one of its two mirror positions.  sizes counts
    each block's states, order lists the states block by block (ascending
    index within a block), starts gives each block's offset in order, local
    each state's position within its block, and entry_block each element's
    block.
    """

    def __init__(self, block: np.ndarray, n_blocks: int, rows: np.ndarray):
        self.sizes = np.bincount(block, minlength=n_blocks)
        self.order = np.argsort(block, kind="stable")
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.local = np.empty_like(self.order)
        self.local[self.order] = (np.arange(len(block))
                                  - self.starts[block[self.order]])
        self.entry_block = block[rows]
        _read_only(self.sizes, self.order, self.starts, self.local,
                   self.entry_block)


class _Blocks:
    """A real symmetric matrix that is block diagonal, solved block by block.

    layout places the blocks; diag holds the diagonal, and (rows, cols,
    vals) every off-diagonal element once, at one of its two mirror
    positions.  No element joins two blocks.  Within a block, states keep
    ascending index order.  config supplies the dense threshold.

    vectors holds, on the states of every block whose vector is known, its
    lowest eigenvector, and residuals that eigenpair's residual norm (NaN
    while the vector is unknown).  Both are written as the block is solved.
    """

    def __init__(self, layout: _Layout, diag: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray, vals: np.ndarray, config: SolverConfig):
        self.diag, self.rows, self.cols, self.vals = diag, rows, cols, vals
        self.config = config
        self.sizes, self.order, self.starts = (layout.sizes, layout.order,
                                               layout.starts)
        self.local, self.entry_block = layout.local, layout.entry_block
        self.vectors = np.zeros(len(diag))
        self.residuals = np.full(len(self.sizes), math.nan)

    def members(self, b: int) -> np.ndarray:
        return self.order[self.starts[b]:self.starts[b] + self.sizes[b]]

    def _keep(self, b: int, H: Union[np.ndarray, sp.csr_matrix],
              energy: float, vec: np.ndarray):
        """Record the lowest eigenpair of block b, whose matrix is H."""
        self.vectors[self.members(b)] = vec
        self.residuals[b] = np.linalg.norm(H @ vec - energy * vec)

    def _dense(self, blocks: np.ndarray, entries: np.ndarray,
               slots: np.ndarray) -> np.ndarray:
        """Stack of equal-size blocks; entries[i] lies in blocks[slots[i]]."""
        m = self.sizes[blocks[0]]
        stack = np.zeros((len(blocks), m, m))
        r = self.local[self.rows[entries]]
        c = self.local[self.cols[entries]]
        stack[slots, r, c] = self.vals[entries]
        stack[slots, c, r] = self.vals[entries]
        on = np.arange(m)
        stack[:, on, on] = self.diag[
            self.order[self.starts[blocks][:, np.newaxis] + on]]
        return stack

    def matrix(self, b: int) -> Union[np.ndarray, sp.csr_matrix]:
        """Block b: sparse above the dense threshold, dense otherwise."""
        entries = np.flatnonzero(self.entry_block == b)
        if self.sizes[b] <= self.config.dense_threshold:
            return self._dense(np.array([b]), entries,
                               np.zeros(len(entries), dtype=np.int64))[0]
        r = self.local[self.rows[entries]]
        c = self.local[self.cols[entries]]
        on = np.arange(self.sizes[b])
        return sp.csr_matrix(
            (np.concatenate([self.diag[self.members(b)],
                             self.vals[entries], self.vals[entries]]),
             (np.concatenate([on, r, c]), np.concatenate([on, c, r]))),
            shape=(len(on), len(on)))

    def lowest(self, todo: Optional[np.ndarray] = None,
               start: Optional[np.ndarray] = None) -> np.ndarray:
        """Lowest eigenvalue of every block with todo set, +inf elsewhere.

        Single states are read off the diagonal.  Blocks up to the dense
        threshold go through stacked NumPy eigenvalue solves, each stack
        holding at most as many entries as one block at the threshold; where
        every stack of a size holds one block, each gets one lowest-eigenpair
        solve instead, whose vector is kept.  Larger blocks go through
        Lanczos (`eigsh`) one by one.  Lanczos on block b starts from the
        restriction of start (one value per state) to the block's states
        when that is nonzero, and otherwise from the all-ones vector, which
        overlaps the positive lowest vector of every block whose
        off-diagonal elements are <= 0.
        """
        config = self.config
        n = len(self.sizes)
        todo = np.ones(n, dtype=bool) if todo is None else todo
        energies = np.full(n, math.inf)
        single = todo & (self.sizes == 1)
        energies[single] = self.diag[self.order[self.starts[single]]]
        self.vectors[self.order[self.starts[single]]] = 1.0
        self.residuals[single] = 0.0
        lanczos = todo & (self.sizes > max(1, config.dense_threshold))
        for b in np.flatnonzero(lanczos):
            v0 = None if start is None else start[self.members(b)]
            if v0 is None or not v0.any():
                v0 = np.ones(self.sizes[b])
            H = self.matrix(b)
            energies[b], vec = eigsh(H, v0=v0)
            self._keep(b, H, energies[b], vec)
        todo = todo & ~single & ~lanczos
        # built after the Lanczos solves, so that their peak memory omits it
        entry_size = np.where(todo[self.entry_block],
                              self.sizes[self.entry_block], 0)
        for m in np.unique(self.sizes[todo]):
            blocks = np.flatnonzero(todo & (self.sizes == m))
            per_call = (config.dense_threshold // m) ** 2
            slot = np.full(n, -1)
            slot[blocks] = np.arange(len(blocks))
            mine = np.flatnonzero(entry_size == m)
            mine = mine[np.argsort(slot[self.entry_block[mine]],
                                   kind="stable")]
            entry_slot = slot[self.entry_block[mine]]
            # blocks of one size all take the same route, so equal blocks
            # get equal energies and ties still go to the lowest index
            one_per_stack = min(per_call, len(blocks)) == 1
            for lo in range(0, len(blocks), per_call):
                hi = min(lo + per_call, len(blocks))
                a, b = np.searchsorted(entry_slot, [lo, hi])
                stack = self._dense(blocks[lo:hi], mine[a:b],
                                    entry_slot[a:b] - lo)
                if one_per_stack:
                    vals, vecs = scipy.linalg.eigh(stack[0],
                                                   subset_by_index=[0, 0])
                    energies[blocks[lo]] = vals[0]
                    self._keep(blocks[lo], stack[0], vals[0], vecs[:, 0])
                else:
                    energies[blocks[lo:hi]] = np.linalg.eigvalsh(stack)[:, 0]
        return energies

    def vector(self, b: int) -> np.ndarray:
        """Lowest eigenvector of block b on its states, solving the block
        densely if no solve has kept its vector yet."""
        if math.isnan(self.residuals[b]):
            H = self.matrix(b)
            vals, vecs = np.linalg.eigh(H)
            self._keep(b, H, vals[0], vecs[:, 0])
        return self.vectors[self.members(b)]


def _start_vector(coarse: Optional[SectorVectors],
                  basis: TruncatedBasis) -> Optional[np.ndarray]:
    """Lanczos start over the whole basis from a coarser full-model solve.

    A start applies only to the same problem (pairs, atom count) on a basis
    no coarser than its own; otherwise this returns None.  Both bases are
    C-ordered grids of (photons per mode..., composition), so the coarse
    vector fills the leading corner of the fine grid, at the states with the
    same occupations.  Every validated mu is nonnegative, so every
    off-diagonal element is <= 0, and the lowest vector of a connected block
    is strictly positive (Perron-Frobenius).  A coarse block stays connected
    at finer cutoffs, so each fine block holds either one whole one-signed
    coarse vector or none of it.
    """
    if coarse is None:
        return None
    cb = coarse.basis
    if (cb.pairs != basis.pairs or cb.atom_count != basis.atom_count
            or cb.n_levels != basis.n_levels
            or any(f < c for f, c in zip(basis.cutoffs, cb.cutoffs))):
        return None
    v0 = np.zeros(basis.mode_dims + (basis.atomic_dim,))
    v0[tuple(slice(d) for d in cb.mode_dims)] = coarse.vector.reshape(
        cb.mode_dims + (cb.atomic_dim,))
    return v0.ravel()


class _Truncation:
    """Everything of an exact solve that no nonzero coupling value changes.

    Built from the structure system (every nonzero mu set to 1, see
    `_truncation`) and the basis: the diagonal, the coupling pattern,
    magnitudes and transitions of `_hamiltonian_entries`, the block layout
    of one component search over that pattern, every block's lowest basis
    index (first), parity sector and the sector labels, and every block's
    least and summed diagonal element.  All arrays are read-only.
    """

    def __init__(self, structure: AtomicSystem, basis: TruncatedBasis,
                 rwa: bool):
        self.basis = basis
        (self.diag, self.rows, self.cols, self.magnitude,
         self.transition) = _hamiltonian_entries(structure, basis, rwa)
        n = basis.size
        n_blocks, block = connected_components(
            sp.csr_matrix((self.magnitude, (self.rows, self.cols)),
                          shape=(n, n)), directed=False)
        self.layout = _Layout(block, n_blocks, self.rows)
        starts = self.layout.starts
        self.first = self.layout.order[starts]
        self.sector, _, labels = _parity_sectors(structure,
                                                 _charges(basis)[self.first])
        self.labels = tuple(labels)
        on_blocks = self.diag[self.layout.order]
        self.least_diag = np.minimum.reduceat(on_blocks, starts)
        self.diag_sum = np.add.reduceat(on_blocks, starts)
        _read_only(self.diag, self.rows, self.cols, self.magnitude,
                   self.transition, self.first, self.sector, self.least_diag,
                   self.diag_sum)


# two, so that a grid alternating between two atom numbers or cutoffs
# keeps both
@functools.lru_cache(maxsize=2)
def _truncation(structure: AtomicSystem, basis: TruncatedBasis,
                rwa: bool) -> _Truncation:
    """The structure of this truncation, built on its first solve only.

    structure is the system with every nonzero mu set to 1, so the key
    holds everything but the coupling values.
    """
    return _Truncation(structure, basis, rwa)


def ground_state(system: AtomicSystem, atom_count: int,
                 cutoffs: Union[int, Mapping[Pair, int]], rwa: bool = False,
                 config: Optional[SolverConfig] = None,
                 budget: int = DEFAULT_BASIS_BUDGET, *,
                 start: Optional[QuantumGroundResult] = None,
                 ) -> QuantumGroundResult:
    """Global ground state: the minimum over all per-sector lowest eigenpairs.

    One component search over the coupling elements splits the basis into
    blocks that no element joins; they never cross a parity sector.  Every
    block's least diagonal element and all-ones Rayleigh quotient bound its
    lowest eigenvalue from above, so the least of them over a sector bounds
    the sector's.  Blocks whose Gershgorin lower bound lies more than the
    degeneracy tolerance above that can neither hold nor tie the sector
    minimum and are skipped; the rest go through `_Blocks`.  Each sector's
    lowest block wins it, ties going to the block holding the lowest basis
    index.  The coupling-independent part of this (see `_Truncation`) is
    built on a truncation's first solve and reused while it stays among the
    last two solved.

    Deterministic for a fixed start.  Sectors within the degeneracy
    tolerance of the minimum are all reported; observables come from the
    lexicographically first of them.  A full-model result keeps every
    sector's lowest vector; passed back as `start` to a full-model solve of
    the same problem (pairs, atom count) with no cutoff lower, they start
    its Lanczos solves, and any other start is ignored.  A rotating-wave
    result keeps none.  Raises a RuntimeError if an iterative solve fails
    to converge.
    """
    require_valid(system)
    config = config or SolverConfig()
    truncation = _truncation(
        system.with_couplings({t.pair: 1.0 for t in system.transitions
                               if t.mu != 0.0}),
        build_basis(system, atom_count, cutoffs, budget=budget), bool(rwa))
    basis, diag = truncation.basis, truncation.diag
    rows, cols = truncation.rows, truncation.cols
    vals = _coupling_values(system, basis, truncation.magnitude,
                            truncation.transition)
    n = basis.size
    blocks = _Blocks(truncation.layout, diag, rows, cols, vals, config)
    first, sector, labels = (truncation.first, truncation.sector,
                             truncation.labels)

    # Gershgorin; no temporary of one value per entry outlives this line
    floor = np.minimum.reduceat(
        (diag - np.bincount(rows, np.abs(vals), n)
         - np.bincount(cols, np.abs(vals), n))[blocks.order], blocks.starts)
    # each block's all-ones Rayleigh quotient; in exact arithmetic it lies
    # above the block's Gershgorin bound, and the maximum keeps rounding
    # from putting it below, so no block is skipped on its own quotient
    quotient = (truncation.diag_sum + 2.0 * np.bincount(
        blocks.entry_block, vals, len(blocks.sizes))) / blocks.sizes
    upper = np.minimum(truncation.least_diag, np.maximum(floor, quotient))
    least = np.full(len(labels), math.inf)
    np.minimum.at(least, sector, upper)
    energies = blocks.lowest(
        todo=floor <= least[sector] + config.degeneracy_tol,
        start=None if rwa or start is None
        else _start_vector(start.sector_vectors, basis))

    by_sector = np.lexsort((first, energies, sector))
    winners = by_sector[np.searchsorted(sector[by_sector],
                                        np.arange(len(labels)))]
    sector_energies = {label: float(energies[b])
                       for label, b in zip(labels, winners)}
    e_min = min(sector_energies.values())
    degenerate = tuple(sorted(
        label for label, e in sector_energies.items()
        if e - e_min <= config.degeneracy_tol))
    win = winners[labels.index(degenerate[0])]
    energy = sector_energies[degenerate[0]]
    indices = blocks.members(win)
    vec = blocks.vector(win)

    sector_vectors = None
    if not rwa:
        vector = np.zeros(n)
        for b in winners:
            vector[blocks.members(b)] = blocks.vector(b)
        sector_vectors = SectorVectors(basis=basis, vector=vector)

    weights = vec * vec
    weights = weights / weights.sum()
    nu_cols = basis.nu_columns()[indices]
    occ = np.array(basis.atomic_kets)[indices % basis.atomic_dim]
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
        sector=degenerate[0],
        sector_energies={label: e / atom_count
                         for label, e in sector_energies.items()},
        degenerate_sectors=degenerate,
        nu=nu,
        populations=populations,
        delta_nu=dn,
        cutoffs=dict(zip(basis.pairs, basis.cutoffs)),
        boundary_weight=boundary_weight,
        residual=float(blocks.residuals[win]),
        converged=boundary_weight <= config.boundary_threshold,
        sector_vectors=sector_vectors,
    )


def delta_nu_value(nu_a: float, nu_b: float) -> Optional[float]:
    """(nu_b - nu_a)/(nu_b + nu_a), or None when the sum vanishes."""
    total = nu_a + nu_b
    if total <= _DELTA_NU_EPS:
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
    finer full-model solve starts its Lanczos solves from the previous
    solve's sector vectors (see `ground_state`).  Raises BudgetError when
    the basis budget or the doubling budget runs out; the latter's message
    lists every step's cutoffs, energy per particle and boundary weight.
    max_doublings must be an integer >= 1, and tol finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    require_count("max_doublings", max_doublings)
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


def suggest_cutoffs(system: AtomicSystem,
                    atom_count: int) -> Dict[Pair, int]:
    """Starting cutoffs from the variational photon numbers.

    The active mode of each candidate is Poissonian with mean N_a r_c^2;
    the cutoff covers the mean plus six standard deviations plus a fixed
    margin of eight, floored at six.
    """
    require_valid(system)
    atom_count = require_count("atom_count", atom_count)
    mean = {p: 0.0 for p in system.pairs}
    for cand in _variational_candidates(system):
        if cand.exists and cand.pair is not None:
            mean[cand.pair] = atom_count * cand.photon_amp ** 2
    return {
        p: max(_CUTOFF_MINIMUM, int(math.ceil(
            m + _CUTOFF_SPREAD * math.sqrt(m + 1.0) + _CUTOFF_MARGIN)))
        for p, m in mean.items()
    }
