"""Phase diagrams of the three 3-level configurations.

Walks through the closed-form machinery: candidate minima per coupling,
normal-region boundaries (bifurcations vs Maxwell sets), the boundary between
the two collective regions, and a full grid scan exported as CSV.
"""

import numpy as np

from polydicke import (
    candidates,
    cascade_system,
    lambda_system,
    minimize,
    plane_boundaries,
    scan_grid,
    transition_order,
    vee_system,
)

SYSTEMS = {
    "cascade": cascade_system([0.0, 1.0, 1.3], [1.0, 0.5], [1.0, 1.0]),
    "vee": vee_system(0.8, 1.0, Omega12=0.8, Omega13=1.0, mu12=1.0, mu13=1.0),
    "lambda": lambda_system(0.2, 1.0, Omega13=1.0, Omega23=0.8,
                            mu13=1.0, mu23=1.0),
}


def describe(name, system):
    print(f"\n=== {name} configuration ===")
    print("candidate minima at the reference couplings:")
    for cand in candidates(system):
        if cand.exists:
            print(f"  {cand.region:>6}: E = {cand.energy:+.6f}"
                  + (f", matter amplitude {cand.matter_amp:.6f}"
                     if cand.matter_amp is not None else ""))
        else:
            print(f"  {cand.region:>6}: no critical point at these couplings")
    best = minimize(system)
    print(f"ground state region: {best.region} with E = {best.energy:+.6f}")

    pa, pb = system.pairs
    axes = [(pa, (0.0, 2.0)), (pb, (0.0, 2.0))]
    normal, curves = plane_boundaries(system, axes, 100)
    for pair, mu_star in normal.items():
        label = f"S_{pair[0]}_{pair[1]}"
        print(f"normal boundary against {label}: mu* = {mu_star:.6f} "
              f"(order {transition_order('N', label)})")

    # boundary between the two collective regions: the energy tie, solved
    # for mu_a in closed form at samples of mu_b
    for curve in curves:
        if curve.kind != "collective-collective":
            continue
        print(f"{curve.label_a} <-> {curve.label_b} Maxwell set, "
              f"{len(curve.points)} samples (algebraic cross-check agrees "
              f"to {curve.zeta_max_discrepancy:.2e} relative):")
        for mu_solve, mu_fixed in curve.points[::25]:
            print(f"  mu_{pb[0]}{pb[1]} = {mu_fixed:.3f} ->"
                  f" boundary at mu_{pa[0]}{pa[1]} = {mu_solve:.6f}")

    grid = scan_grid(system, axes, 100)
    labels, counts = np.unique(grid.labels, return_counts=True)
    shares = ", ".join(f"{l}: {c / grid.energies.size:.1%}"
                       for l, c in zip(labels, counts))
    print(f"100x100 grid region shares: {shares}")
    out = f"phase_{name}.csv"
    with open(out, "w") as fh:
        fh.write(grid.to_csv(header_lines=[f"demo: {name} configuration"]))
    print(f"wrote {out}")


if __name__ == "__main__":
    for name, system in SYSTEMS.items():
        describe(name, system)
