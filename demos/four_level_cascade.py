"""Four-level cascade: one monochromatic collective region per mode.

The same closed forms that solve 3-level systems cover any number of levels:
each transition contributes one condensate candidate, obtained by the
iterative reduction that sends the lower condensed level's radius to zero or
infinity.  The phase diagram over three coupling axes splits into the normal
region plus one region per mode.
"""

import numpy as np

from polydicke import (
    cascade_system,
    charges,
    excitation_weights,
    ground_state,
    minimize,
    normal_boundary,
    scan_grid,
    suggest_cutoffs,
)

SYSTEM = cascade_system([0.0, 1.0, 1.7, 2.0], [1.0, 0.7, 0.3], [1.0, 1.0, 1.0])


def boundaries():
    print("=== normal-region boundaries, one per mode ===")
    for pair in SYSTEM.pairs:
        kind = "bifurcation" if pair[0] == 1 else "Maxwell set"
        print(f"  S_{pair[0]}_{pair[1]} opens at mu* = "
              f"{normal_boundary(SYSTEM, pair):.6f}  ({kind})")
    print()


def grid():
    print("=== 3-axis grid scan ===")
    axes = [(p, (0.0, 2.0)) for p in SYSTEM.pairs]
    result = scan_grid(SYSTEM, axes, 12)
    labels, counts = np.unique(result.labels, return_counts=True)
    for label, count in zip(labels, counts):
        print(f"  {label:>6}: {count / result.energies.size:7.2%} of cells")
    print("every collective cell is monochromatic: one active mode each\n")


def symmetries():
    print("=== conserved charges of the chain ===")
    print(f"excitation weights per level: {excitation_weights(SYSTEM)}")
    # one photon in mode 1-2, two in mode 3-4, the atom on level 2
    K = charges(SYSTEM.pairs, (1, 0, 2), (0, 1, 0, 0))
    print(f"sample ket charges K = {[int(v) for v in K]}, "
          f"sum = {int(K.sum())} (atom number)\n")


def exact_check():
    print("=== exact ground state at one deep-collective point ===")
    system = SYSTEM.with_couplings({(1, 2): 0.2, (2, 3): 0.2, (3, 4): 1.5})
    best = minimize(system)
    print(f"variational: {best.region} with E = {best.energy:+.6f}")
    result = ground_state(system, 1, suggest_cutoffs(system, 1))
    nu = {f"{j}-{k}": round(v, 4) for (j, k), v in result.nu.items()}
    print(f"exact: E = {result.energy:+.6f}, photons per particle {nu}")
    print("the top mode dominates, matching the variational label")


if __name__ == "__main__":
    boundaries()
    grid()
    symmetries()
    exact_check()
