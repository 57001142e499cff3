"""Rotating-wave mapping and the charge bookkeeping behind it.

Dropping the counter-rotating interaction terms leaves a variational problem
identical to the full one with every dipolar strength halved, so the
full-model closed forms solve the rotating-wave problem after mu -> mu/2.
The rotating-wave Hamiltonian additionally conserves one charge per level,
K_j = A_jj + sum_{k<j} nu_kj - sum_{j<k} nu_jk; the parities exp(i pi K_j)
remain symmetries of the full Hamiltonian and generate the sector split used
by exact diagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from .model import AtomicSystem, Pair, require_valid


class WeightError(ValueError):
    """Excitation weights are undefined for this transition graph."""


def rwa_rescale(system: AtomicSystem) -> AtomicSystem:
    """System whose full-model solutions equal the input's rotating-wave ones.

    Every dipolar strength is halved; applying twice quarters them.
    """
    require_valid(system)
    return system.with_couplings({t.pair: t.mu / 2.0 for t in system.transitions})


@dataclass(frozen=True)
class ExcitationWeights:
    """Excitations needed to lift one atom from level 1 to each level.

    lam[0] = 0 for level 1; consistency requires lam_k = lam_j + 1 across
    every transition (j,k), which fixes the weights on any connected,
    loop-compatible configuration.
    """

    lam: Tuple[int, ...]


def excitation_weights(system: AtomicSystem) -> ExcitationWeights:
    """Propagate lam_1 = 0 through the transition graph.

    Traversing a transition (j,k) upward adds one excitation; multiple paths
    must agree.  Raises WeightError with "inconsistent weights" on a loop
    mismatch and reports levels unreachable from level 1.
    """
    require_valid(system)
    lam: Dict[int, int] = {1: 0}
    edges = [(t.j, t.k) for t in system.transitions]
    frontier = [1]
    while frontier:
        nxt = []
        for node in frontier:
            for j, k in edges:
                if j == node or k == node:
                    other = k if j == node else j
                    val = lam[node] + (1 if other == k else -1)
                    if other in lam:
                        if lam[other] != val:
                            raise WeightError(
                                f"inconsistent weights: level {other} reachable "
                                f"with weights {lam[other]} and {val}"
                            )
                    else:
                        lam[other] = val
                        nxt.append(other)
        frontier = nxt
    missing = [lv for lv in range(2, system.n + 1) if lv not in lam]
    if missing:
        raise WeightError(
            f"levels {missing} not connected to level 1 by any transition"
        )
    return ExcitationWeights(lam=tuple(lam[lv] for lv in range(1, system.n + 1)))


@dataclass(frozen=True)
class SymmetryCharges:
    """Integer linear forms K_j over occupation numbers, one per level.

    On any occupation basis state all K_j are diagonal; their values sum to
    the atom number, and their parities label the symmetry sectors of the
    full Hamiltonian.
    """

    n: int
    pairs: Tuple[Pair, ...]

    @classmethod
    def from_system(cls, system: AtomicSystem) -> "SymmetryCharges":
        require_valid(system)
        return cls(n=system.n, pairs=system.pairs)

    def of_occupations(self, nu: Mapping[Pair, int],
                       occupations: Tuple[int, ...]) -> np.ndarray:
        """Charge vector (K_1..K_n) for given photon and level occupations."""
        K = np.array(occupations, dtype=int)
        for (j, k) in self.pairs:
            v = int(nu[(j, k)])
            K[k - 1] += v
            K[j - 1] -= v
        return K


def charge_of_state(charges: SymmetryCharges, state) -> np.ndarray:
    """Charge vector of a Fock ket (anything exposing nu_by_pair() and n)."""
    return charges.of_occupations(state.nu_by_pair(), state.n)
