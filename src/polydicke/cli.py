"""Command-line front end: validate systems, scan phase diagrams, sweep
observables, run exact diagonalization, and compare the two pipelines.

All outputs are CSV (grids, sweeps) or JSON (structured results) with a
metadata block carrying the tool name and version, the command, and a hash
of the resolved run configuration, so identical invocations produce
byte-identical files.  Files are written to a uniquely named temporary
sibling and renamed into place.
Exit codes: 0 success, 1 configuration or usage error, 2 budget or
convergence failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import __version__, observables, phasemap, quantum, symmetries, variational
from .model import AtomicSystem, InvalidSystemError, Pair, require_valid, validate


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


def _parse_pair(text: str) -> Pair:
    for sep in ("-", ","):
        if sep in text:
            parts = text.split(sep)
            if len(parts) == 2:
                try:
                    return (int(parts[0]), int(parts[1]))
                except ValueError:
                    break
    raise CliError(f"cannot parse level pair {text!r}; expected e.g. 1-2")


def _parse_range(text: str) -> Tuple[float, float]:
    try:
        lo, hi = text.split(":")
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise CliError(f"cannot parse range {text!r}; expected lo:hi") from None
    # an infinite bound would reach np.linspace, which warns before the
    # couplings are validated
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError(f"range {text!r} needs finite bounds")
    return (lo, hi)


def _load_system(path: str) -> AtomicSystem:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"system file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"system file {path} is not valid JSON: {exc}") from None
    try:
        return AtomicSystem.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"system file {path} is malformed: {exc}") from None


def _atomic_write(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file private; give it the mode a plain
        # open() would have given it
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _meta(command: str, config: Mapping) -> Dict:
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()
    ).hexdigest()
    return {
        "tool": "polydicke",
        "version": __version__,
        "command": command,
        "config_sha256": digest,
    }


def _meta_lines(meta: Mapping) -> List[str]:
    return [f"{key}: {value}" for key, value in meta.items()]


def _json_text(payload: Mapping) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _pairs(texts: Sequence[str], system: AtomicSystem,
           where: str) -> List[Pair]:
    """Distinct transitions of the system, parsed from texts like 1-2."""
    pairs = [_parse_pair(text) for text in texts]
    for m, p in enumerate(pairs):
        if p not in system.pairs:
            raise CliError(f"unknown transition {p[0]}-{p[1]} in {where}")
        if p in pairs[:m]:
            raise CliError(f"transition {p[0]}-{p[1]} given twice in {where}")
    return pairs


def _resolve_axes(args, system: AtomicSystem,
                  minimum: int = 1, maximum: int = 3):
    if not args.axes:
        return []
    pairs = _pairs(args.axes, system, "--axes")
    if not minimum <= len(pairs) <= maximum:
        raise CliError(f"expected between {minimum} and {maximum} axes")
    ranges = [_parse_range(r) for r in (args.range or [])]
    if len(ranges) == 1:
        ranges = ranges * len(pairs)
    if len(ranges) != len(pairs):
        raise CliError("need one --range per axis (or a single shared one)")
    return list(zip(pairs, ranges))


def _resolve_cutoffs(args, system: AtomicSystem) -> Optional[Dict[Pair, int]]:
    """Cutoffs from the --cutoff specs: one per pair (1-2=30) and at most
    one shared value (30), which must set some pair that has none."""
    if not args.cutoff:
        return None
    texts, values, shared = [], [], []
    for spec in args.cutoff:
        pair_text, per_pair, value = spec.rpartition("=")
        try:
            cutoff = int(value)
        except ValueError:
            raise CliError(f"--cutoff {spec!r}: the cutoff must be an "
                           f"integer") from None
        if per_pair:
            texts.append(pair_text)
            values.append(cutoff)
        else:
            shared.append(cutoff)
    out = dict(zip(_pairs(texts, system, "--cutoff"), values))
    missing = [p for p in system.pairs if p not in out]
    if len(shared) > 1:
        raise CliError("a shared --cutoff is given twice")
    if shared and not missing:
        raise CliError(f"the shared --cutoff {shared[0]} sets no transition: "
                       f"each has its own")
    if missing and not shared:
        raise CliError(f"--cutoff missing for transitions {missing}")
    out.update((p, shared[0]) for p in missing)
    return out


def _grid_points(axes, resolution: int):
    """Yield (index_tuple, couplings dict) in row-major order."""
    values = [np.linspace(lo, hi, resolution) for _, (lo, hi) in axes]
    pairs = [p for p, _ in axes]
    # no axes: one point, index (0,), with no coupling changed
    shape = tuple(resolution for _ in axes) or (1,)
    for index in np.ndindex(*shape):
        yield index, {p: float(values[m][index[m]])
                      for m, p in enumerate(pairs)}


def cmd_validate(args) -> int:
    system = _load_system(args.system)
    report = validate(system)
    for note in report.notices:
        print(f"notice: {note}")
    if report.ok:
        print("system is valid")
        return 0
    for violation in report.violations:
        print(f"violation: {violation}", file=sys.stderr)
    return 1


def cmd_phase_diagram(args) -> int:
    system = require_valid(_load_system(args.system))
    axes = _resolve_axes(args, system, minimum=1, maximum=3)
    if not axes:
        raise CliError("phase-diagram needs at least one --axes")
    if args.res < 2:
        raise CliError("--res must be at least 2 for scans")
    grid = phasemap.scan_grid(system, axes, args.res, rwa=args.rwa)
    config = {
        "system": system.to_dict(),
        "axes": [[list(p), list(r)] for p, r in axes],
        "res": args.res, "rwa": args.rwa,
    }
    meta = _meta("phase-diagram", config)
    _atomic_write(args.out, grid.to_csv(header_lines=_meta_lines(meta)))
    sidecar = str(Path(args.out).with_suffix("")) + ".separatrix.json"
    normal, curves = phasemap.plane_boundaries(system, axes, args.res,
                                               rwa=args.rwa)
    _atomic_write(sidecar, _json_text({
        "meta": meta,
        "normal_boundaries": {f"{j}_{k}": m for (j, k), m in normal.items()},
        "curves": [c.to_json_dict() for c in curves],
    }))
    print(f"wrote {args.out} and {sidecar}")
    return 0


def _observable_rows(system: AtomicSystem, sweep_name: str,
                     sweep_values: Sequence[float],
                     columns: Mapping[Pair, Sequence[float]],
                     rwa: bool = False) -> Tuple[List[str], List[List[str]]]:
    """Header and rows of the observables CSV; columns maps each swept pair
    to its couplings, one per sweep value."""
    pairs = [p for p in sorted(columns) if f"mu_{p[0]}_{p[1]}" != sweep_name]
    header = ([sweep_name] + [f"mu_{j}_{k}" for j, k in pairs]
              + observables.csv_header(system.n) + ["discontinuity"])
    table = phasemap.sweep_observables(system, columns, rwa=rwa)
    text = observables._float_reprs([sweep_values]
                                    + [columns[p] for p in pairs]).T.tolist()
    rows = []
    previous_region = None
    for floats, obs in zip(text, table):
        region = obs[0]
        marker = int(previous_region is not None and region != previous_region
                     and phasemap.transition_order(previous_region, region) == 1)
        previous_region = region
        rows.append(floats + obs + [str(marker)])
    return header, rows


def cmd_observables(args) -> int:
    system = require_valid(_load_system(args.system))
    if args.zeta and args.axes:
        raise CliError("use either --axes or --zeta, not both")
    if args.res < 2:
        raise CliError("--res must be at least 2 for sweeps")
    if args.zeta:
        parts = args.zeta.split(",")
        if len(parts) != 2:
            raise CliError("--zeta needs two pairs, e.g. 1-2,2-3")
        pa, pb = _pairs(parts, system, "--zeta")
        if args.range and len(args.range) > 1:
            raise CliError("--zeta takes a single --range")
        lo, hi = _parse_range(args.range[0]) if args.range else (0.0, math.pi / 2)
        radius = 1.0 if args.mu is None else args.mu
        values = np.linspace(lo, hi, args.res)
        columns = {pa: [radius * math.cos(z) for z in values],
                   pb: [radius * math.sin(z) for z in values]}
        sweep_name = "zeta"
    else:
        if args.mu is not None:
            raise CliError("--mu is the radius of a --zeta sweep; an --axes "
                           "sweep takes its other couplings from the system")
        axes = _resolve_axes(args, system, minimum=1, maximum=1)
        if not axes:
            raise CliError("observables needs --axes or --zeta")
        (pair, (lo, hi)), = axes
        values = np.linspace(lo, hi, args.res)
        columns = {pair: [float(v) for v in values]}
        sweep_name = f"mu_{pair[0]}_{pair[1]}"
    header, rows = _observable_rows(system, sweep_name, values, columns,
                                    rwa=args.rwa)
    config = {
        "system": system.to_dict(), "sweep": sweep_name,
        "range": [float(values[0]), float(values[-1])],
        "res": args.res, "rwa": args.rwa,
    }
    if args.zeta:
        config["mu"] = radius
    meta = _meta("observables", config)
    lines = [f"# {line}" for line in _meta_lines(meta)]
    text = "\n".join(lines + [",".join(header)]
                     + [",".join(row) for row in rows]) + "\n"
    _atomic_write(args.out, text)
    print(f"wrote {args.out}")
    return 0


def _exact_at(system: AtomicSystem, mu: Mapping[Pair, float], args,
              cutoffs: Optional[Dict[Pair, int]]):
    local = system.with_couplings(mu)
    na = local.atom_count
    # the rotating-wave ground state holds the full model's photons at half
    # coupling, so its cutoffs are suggested from there
    cut = cutoffs or quantum.suggest_cutoffs(
        symmetries.rwa_rescale(local) if args.rwa else local, na)
    if args.tol is not None:
        return quantum.converge_cutoff(local, na, cut, args.tol,
                                       rwa=args.rwa, budget=args.budget)[1]
    return quantum.ground_state(local, na, cut, rwa=args.rwa,
                                budget=args.budget)


def _exact_inputs(args) -> Tuple[AtomicSystem, list,
                                  Optional[Dict[Pair, int]], Dict]:
    """System, axes, cutoffs and run configuration of `exact`/`compare`.

    --na, when given, replaces the system file's atom_count."""
    system = _load_system(args.system)
    if args.na is not None:
        system = dataclasses.replace(system, atom_count=args.na)
    require_valid(system)
    axes = _resolve_axes(args, system, minimum=1, maximum=3)
    if not axes and (args.range or args.res is not None):
        raise CliError("--range and --res need --axes")
    res = 10 if args.res is None else args.res
    if axes and res < 2:
        raise CliError("--res must be at least 2 for scans")
    cutoffs = _resolve_cutoffs(args, system)
    config = {
        "system": system.to_dict(),
        "axes": [[list(p), list(r)] for p, r in axes],
        "res": res if axes else 1, "rwa": args.rwa,
        "cutoffs": {f"{j}_{k}": c for (j, k), c in (cutoffs or {}).items()},
        "tol": args.tol, "budget": args.budget,
    }
    return system, axes, cutoffs, config


def cmd_exact(args) -> int:
    system, axes, cutoffs, config = _exact_inputs(args)
    points = []
    for _, mu in _grid_points(axes, config["res"]):
        couplings = mu or {t.pair: t.mu for t in system.transitions}
        result = _exact_at(system, couplings, args, cutoffs)
        rec = result.to_json_dict(couplings=couplings)
        if not result.converged:
            rec["warning"] = "truncation boundary weight above threshold"
        points.append(rec)
    meta = _meta("exact", config)
    _atomic_write(args.out, _json_text({"meta": meta, "points": points}))
    print(f"wrote {args.out}")
    return 0


def cmd_compare(args) -> int:
    system, axes, cutoffs, config = _exact_inputs(args)
    shape = tuple(config["res"] for _ in axes) or (1,)
    labels = np.empty(shape, dtype=object)
    agrees = np.empty(shape, dtype=object)
    points = []
    gaps = []
    two_modes = len(system.pairs) == 2
    for index, mu in _grid_points(axes, config["res"]):
        couplings = mu or {t.pair: t.mu for t in system.transitions}
        local = system.with_couplings(couplings)
        if args.rwa:
            local = symmetries.rwa_rescale(local)
        best = variational.minimize(local)
        result = _exact_at(system, couplings, args, cutoffs)
        gap = best.energy - result.energy
        gaps.append(gap)
        agree = None
        if two_modes and result.delta_nu is not None and best.pair is not None:
            pa, pb = system.pairs
            predicted = variational.region_tag(pa if result.delta_nu < 0
                                               else pb)
            agree = predicted == best.region
        labels[index] = best.region
        agrees[index] = agree
        points.append({
            "couplings": {f"{j}_{k}": v for (j, k), v in sorted(couplings.items())},
            "E_var": best.energy,
            "E_exact": result.energy,
            "gap": gap,
            "label_var": best.region,
            "delta_nu": ("undefined" if result.delta_nu is None
                         else result.delta_nu),
            "labels_agree": agree,
        })
    interior = _away_from_label_changes(labels, margin=2)
    scored = [agrees[idx] for idx in np.ndindex(*shape)
              if interior[idx] and agrees[idx] is not None]
    summary = {
        "cells": len(points),
        "max_gap": max(gaps),
        "mean_gap": sum(gaps) / len(gaps),
        "min_gap": min(gaps),
        "cells_scored": len(scored),
        "label_agreement_fraction": (
            sum(1 for a in scored if a) / len(scored) if scored else None
        ),
    }
    meta = _meta("compare", config)
    _atomic_write(args.out, _json_text(
        {"meta": meta, "points": points, "summary": summary}))
    print(f"wrote {args.out}")
    return 0


def _away_from_label_changes(labels: np.ndarray, margin: int) -> np.ndarray:
    """Cells whose whole Chebyshev neighborhood within the grid shares their
    label.  Padding by edge values adds no new label to any window: a
    clamped probe lies in the same neighborhood."""
    ndim = labels.ndim
    window = np.lib.stride_tricks.sliding_window_view(
        np.pad(labels, margin, mode="edge"), (2 * margin + 1,) * ndim)
    return np.all(window == labels[(...,) + (np.newaxis,) * ndim],
                  axis=tuple(range(ndim, 2 * ndim)))


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CliError, so that `main` returns exit code 1."""

    def error(self, message: str):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polydicke",
        description="Ground-state phase diagrams of multi-level atoms "
                    "coupled to multiple radiation modes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scans=True, res=None):
        """--system; for a command that scans, also the output file, the
        scanned axes and their resolution (default res)."""
        p.add_argument("--system", required=True,
                       help="JSON system file (n, omega, transitions, atom_count)")
        if not scans:
            return
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--axes", action="append",
                       help="varying transition, e.g. 1-2 (repeatable)")
        p.add_argument("--range", action="append",
                       help="lo:hi for the matching axis (one shared allowed)")
        p.add_argument("--res", type=int, default=res)
        p.add_argument("--rwa", action="store_true", help="solve the "
                       "rotating-wave problem at these couplings")

    p = sub.add_parser("validate", help="check a system file")
    common(p, scans=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("phase-diagram",
                       help="grid scan of the variational ground-state region")
    common(p, res=100)
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("observables",
                       help="closed-form observables along a coupling sweep")
    common(p, res=100)
    p.add_argument("--zeta", help="polar sweep over two pairs, e.g. 1-2,2-3")
    p.add_argument("--mu", type=float,
                   help="radius of the polar sweep (default 1)")
    p.set_defaults(func=cmd_observables)

    for name, func, text in (
            ("exact", cmd_exact, "exact diagonalization results"),
            ("compare", cmd_compare,
             "variational vs exact energies over a grid")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--na", type=int, help="number of atoms (default: "
                       "the system file's atom_count)")
        p.add_argument("--cutoff", action="append",
                       help="photon cutoff, shared (30) or per pair (1-2=30)")
        p.add_argument("--tol", type=float, default=None,
                       help="converge cutoffs until the energy settles "
                            "within tol")
        p.add_argument("--budget", type=int,
                       default=quantum.DEFAULT_BASIS_BUDGET)
        p.set_defaults(func=func)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser every `main` call reuses; parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except InvalidSystemError as exc:
        print(f"error: invalid system: {exc}", file=sys.stderr)
        return 1
    except quantum.BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
