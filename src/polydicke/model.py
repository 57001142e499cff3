"""Problem instances: n atomic levels dipolarly coupled to radiation modes.

Each allowed transition between a pair of levels (j, k) is served by exactly
one field mode with frequency Omega_jk and dipolar strength mu_jk.  Level
energies are measured from the ground level, so omega_1 = 0 and the list is
strictly increasing.  All frequencies are dimensionless; the caller fixes the
unit.  Level indices are 1-based on every interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence, Tuple

import numpy as np

Pair = Tuple[int, int]


class InvalidSystemError(ValueError):
    """Raised by modules that require a structurally valid AtomicSystem."""


def lmax(n: int) -> int:
    """Maximum number of dipolar strengths an n-level system supports.

    A mode may serve any level pair, but pairs of excited levels beyond the
    nearest chain do not all admit independent couplings: the count is
    n(n-1)/2 - (n-2).
    """
    if n < 2:
        raise ValueError(f"need at least 2 levels, got n={n}")
    return n * (n - 1) // 2 - (n - 2)


@dataclass(frozen=True)
class Transition:
    """One dipole-allowed level pair and the single mode that serves it.

    mu = 0 encodes a forbidden transition; downstream code treats it exactly
    like an omitted one.
    """

    j: int
    k: int
    Omega: float
    mu: float = 0.0

    @property
    def pair(self) -> Pair:
        return (self.j, self.k)


@dataclass(frozen=True)
class ValidationReport:
    """Violated invariants (fatal) and advisory notices (non-fatal)."""

    violations: Tuple[str, ...] = ()
    notices: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class AtomicSystem:
    """Immutable problem instance: levels, transitions, and atom count.

    The constructor only normalizes container types; structural rules are
    checked by :func:`validate`, and modules that need a valid system call
    :func:`require_valid`.
    """

    n: int
    omega: Tuple[float, ...]
    transitions: Tuple[Transition, ...]
    atom_count: int = 1

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(float(w) for w in self.omega))
        object.__setattr__(self, "transitions", tuple(self.transitions))

    @property
    def pairs(self) -> Tuple[Pair, ...]:
        """Transition pairs in canonical (sorted) order."""
        return tuple(sorted(t.pair for t in self.transitions))

    @property
    def by_pair(self) -> Mapping[Pair, Transition]:
        return {t.pair: t for t in self.transitions}

    def transition(self, pair: Pair) -> Transition:
        try:
            return self.by_pair[tuple(pair)]
        except KeyError:
            raise KeyError(f"no transition {pair} in system") from None

    def with_couplings(self, mu: Mapping[Pair, float]) -> "AtomicSystem":
        """Copy of the system with the listed dipolar strengths replaced."""
        new = []
        mu = {tuple(p): float(v) for p, v in mu.items()}
        for t in self.transitions:
            if t.pair in mu:
                new.append(replace(t, mu=mu[t.pair]))
            else:
                new.append(t)
        return replace(self, transitions=tuple(new))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "omega": list(self.omega),
            "transitions": [
                {"j": t.j, "k": t.k, "Omega": t.Omega, "mu": t.mu}
                for t in self.transitions
            ],
            "atom_count": self.atom_count,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AtomicSystem":
        transitions = tuple(
            Transition(
                j=int(t["j"]), k=int(t["k"]),
                Omega=float(t["Omega"]), mu=float(t.get("mu", 0.0)),
            )
            for t in data.get("transitions", ())
        )
        return cls(
            n=int(data["n"]),
            omega=tuple(float(w) for w in data["omega"]),
            transitions=transitions,
            atom_count=int(data.get("atom_count", 1)),
        )


def validate(system: AtomicSystem) -> ValidationReport:
    """Report every violated structural rule; empty violations means valid.

    Idempotent and side-effect-free.  Exceeding the lmax mode count is
    reported as a notice, not a violation.
    """
    bad = []
    notes = []
    levels_ok = False
    if system.n < 2:
        bad.append(f"need at least 2 levels, got n={system.n}")
    if len(system.omega) != system.n:
        bad.append(
            f"omega has {len(system.omega)} entries for n={system.n} levels"
        )
    elif not all(math.isfinite(w) for w in system.omega):
        bad.append("level energies must be finite")
    else:
        levels_ok = True
        if system.omega[0] != 0.0:
            bad.append("level 1 energy must be 0 (energies measured from it)")
        if any(a >= b for a, b in zip(system.omega, system.omega[1:])):
            bad.append("levels not strictly increasing")
    if system.atom_count < 1:
        bad.append(f"atom_count must be positive, got {system.atom_count}")

    seen = set()
    for t in system.transitions:
        tag = f"transition ({t.j},{t.k})"
        if not (1 <= t.j < t.k <= system.n):
            bad.append(f"{tag}: level indices must satisfy 1 <= j < k <= n")
            continue
        mode_ok = 0.0 < t.Omega < math.inf
        if not mode_ok:
            bad.append(f"{tag}: mode frequency must be positive and finite")
        # the condensate energy omega_j - (A - B)^2 / (16 Omega mu^2), with
        # A = 4 mu^2 and B = (omega_k - omega_j) Omega, needs every one of
        # A^2, B^2 and 16 Omega mu^2 finite
        if not 0.0 <= t.mu < math.inf:
            bad.append(f"{tag}: dipolar strength must be nonnegative and finite")
        elif not math.isfinite((4.0 * t.mu * t.mu) * (4.0 * t.mu * t.mu)):
            bad.append(f"{tag}: dipolar strength {t.mu!r} overflows the "
                       f"condensate energy, whose (4 mu^2)^2 is not finite")
        elif mode_ok and not math.isfinite(16.0 * t.Omega * t.mu * t.mu):
            bad.append(f"{tag}: dipolar strength {t.mu!r} overflows the "
                       f"condensate energy, whose 16 Omega mu^2 is not finite")
        if mode_ok and levels_ok:
            gap = (system.omega[t.k - 1] - system.omega[t.j - 1]) * t.Omega
            if not math.isfinite(gap * gap):
                bad.append(f"{tag}: mode frequency {t.Omega!r} overflows the "
                           f"condensate energy, whose ((omega_k - omega_j) "
                           f"Omega)^2 is not finite")
        if t.pair in seen:
            bad.append(f"{tag}: pair served by two modes")
        seen.add(t.pair)

    if not bad and len(system.transitions) > lmax(max(system.n, 2)):
        notes.append(
            f"{len(system.transitions)} transitions exceed the "
            f"{lmax(system.n)} independent dipolar strengths of an "
            f"{system.n}-level system"
        )
    return ValidationReport(violations=tuple(bad), notices=tuple(notes))


def require_valid(system: AtomicSystem) -> AtomicSystem:
    """Return the system unchanged or raise with the full violation list."""
    report = validate(system)
    if not report.ok:
        raise InvalidSystemError("; ".join(report.violations))
    return system


def require_count(name: str, value) -> int:
    """value as the count called name: a Python or NumPy integer >= 1,
    bools excluded."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return int(value)


def cascade_system(omega: Sequence[float], Omega: Sequence[float],
                   mu: Sequence[float], atom_count: int = 1) -> AtomicSystem:
    """Cascade (ladder) configuration: chain transitions (1,2), (2,3), ...

    For 3 levels this is the Xi configuration; omega lists all n level
    energies (first entry 0), Omega and mu the n-1 chain modes in order.
    """
    n = len(omega)
    if len(Omega) != n - 1 or len(mu) != n - 1:
        raise ValueError("cascade needs n-1 mode frequencies and strengths")
    transitions = tuple(
        Transition(j=i + 1, k=i + 2, Omega=Omega[i], mu=mu[i])
        for i in range(n - 1)
    )
    return AtomicSystem(n=n, omega=tuple(omega), transitions=transitions,
                        atom_count=atom_count)


def vee_system(omega2: float, omega3: float, Omega12: float, Omega13: float,
               mu12: float = 0.0, mu13: float = 0.0,
               atom_count: int = 1) -> AtomicSystem:
    """V configuration: ground level coupled to both excited levels."""
    return AtomicSystem(
        n=3, omega=(0.0, omega2, omega3),
        transitions=(Transition(1, 2, Omega12, mu12),
                     Transition(1, 3, Omega13, mu13)),
        atom_count=atom_count,
    )


def lambda_system(omega2: float, omega3: float, Omega13: float, Omega23: float,
                  mu13: float = 0.0, mu23: float = 0.0,
                  atom_count: int = 1) -> AtomicSystem:
    """Lambda configuration: two lower levels coupled to the top level."""
    return AtomicSystem(
        n=3, omega=(0.0, omega2, omega3),
        transitions=(Transition(1, 3, Omega13, mu13),
                     Transition(2, 3, Omega23, mu23)),
        atom_count=atom_count,
    )
