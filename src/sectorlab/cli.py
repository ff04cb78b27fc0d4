"""Config-driven command-line front end.

Exit codes: 0 = success (criterion satisfied where one applies),
1 = criterion rejection (a successful computation whose selection
criterion failed), 2 = input error (also an output path that cannot be
written), 3 = computation failed (a spectrum that could not be split
into sectors or central projections, a failed linear-algebra routine,
or memory exhausted).  All
reports are deterministic for a fixed seed and print numbers with 17
significant digits.

Each subcommand's handler imports the engines it runs in its first lines,
so a call loads only the modules on its own path.  Every input file goes
through :func:`sectorlab.serialize.read`, so a file of the wrong shape is
an input error that names it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import serialize as io
from .config import CRITERION_TOL
from .errors import (
    CentralProjectionError,
    EigenvalueGapError,
    GenerationError,
    InputFormatError,
    IsotypicError,
)

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT_ERROR = 2
EXIT_COMPUTATION_FAILED = 3


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev off: every option is spelled out in full
    p = argparse.ArgumentParser(
        prog="sectorlab",
        description="operator-algebra laboratory: sectors, channels, "
                    "thermal criteria, DHR nets, Cuntz rewriting",
        allow_abbrev=False,
    )
    p.add_argument("--seed", type=int, default=0, help="seed for all random choices")
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="report rendering")
    p.add_argument("--out", help="write the report here instead of stdout")

    sub = p.add_subparsers(dest="command", required=True)

    sec = sub.add_parser("sectors", help="superselection-sector analysis")
    sec_sub = sec.add_subparsers(dest="subcommand", required=True)
    an = sec_sub.add_parser("analyze")
    an.add_argument("--field", required=True)
    an.add_argument("--group", required=True)
    an.add_argument("--rep", required=True)
    an.add_argument("--state")
    an.add_argument("--hamiltonian")
    an.set_defaults(run=_run_sectors_analyze)

    th = sub.add_parser("thermal", help="thermality criterion")
    th_sub = th.add_subparsers(dest="subcommand", required=True)
    est = th_sub.add_parser("estimate")
    est.add_argument("--system", required=True)
    est.add_argument("--grid", required=True)
    est.add_argument("--measured", required=True)
    est.add_argument("--hierarchy", required=True)
    est.add_argument("--tol", type=float, default=CRITERION_TOL)
    est.add_argument("--csv", help="write thermal functions of the finest "
                                   "level's probes here")
    est.set_defaults(run=_run_thermal_estimate)

    dhr = sub.add_parser("dhr", help="locality selection criterion")
    dhr_sub = dhr.add_subparsers(dest="subcommand", required=True)
    net_args = argparse.ArgumentParser(add_help=False)
    net_args.add_argument("--net", required=True)
    net_args.add_argument("--state", required=True)
    net_args.add_argument("--vacuum", required=True)
    net_args.add_argument("--tol", type=float, default=CRITERION_TOL)
    chk = dhr_sub.add_parser("check", parents=[net_args])
    chk.add_argument("--all-subsets", action="store_true")
    chk.set_defaults(run=_run_dhr_check)
    dhr_sub.add_parser("invert", parents=[net_args]).set_defaults(run=_run_dhr_invert)

    cz = sub.add_parser("cuntz", help="word arithmetic")
    cz_sub = cz.add_subparsers(dest="subcommand", required=True)
    nf = cz_sub.add_parser("nf")
    nf.add_argument("--d", type=int, required=True)
    nf.add_argument("--expr", required=True)
    nf.add_argument("--json", action="store_true",
                    help="emit the term list as JSON instead of plain text")
    nf.set_defaults(run=_run_cuntz_nf)

    ch = sub.add_parser("channels", help="moment-problem inversion")
    ch_sub = ch.add_subparsers(dest="subcommand", required=True)
    cin = ch_sub.add_parser("invert")
    cin.add_argument("--channel", required=True)
    cin.add_argument("--probes", required=True)
    cin.add_argument("--data", required=True)
    cin.add_argument("--tol", type=float, default=CRITERION_TOL)
    cin.add_argument("--design-csv", dest="design_csv",
                     help="export the design matrix for external audit")
    cin.set_defaults(run=_run_channels_invert)

    ex = sub.add_parser("examples", help="bundled worked models")
    ex_sub = ex.add_subparsers(dest="subcommand", required=True)
    init = ex_sub.add_parser("init")
    init.add_argument("--dir", default="sectorlab_examples")
    init.set_defaults(run=_run_examples_init)

    return p


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return io.dumps_canonical(report)
    lines = []

    def walk(prefix: str, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(obj, (list, tuple)):
            rendered = " ".join(
                io.format_float(float(v)) if isinstance(v, float) else str(v)
                for v in obj
            ) if all(not isinstance(v, (dict, list, tuple)) for v in obj) else None
            if rendered is not None:
                lines.append(f"{prefix} = [{rendered}]")
            else:
                for i, v in enumerate(obj):
                    walk(f"{prefix}[{i}]", v)
        elif isinstance(obj, float):
            lines.append(f"{prefix} = {io.format_float(obj)}")
        else:
            lines.append(f"{prefix} = {obj}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    _write(_render(report, args.format), args)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_group_arg(value: str):
    """A group argument is either a JSON file or a built-in name (cyclic:2)."""
    if os.path.exists(value):
        return io.read(value, io.group_from_json)
    if ":" in value and os.sep not in value:
        return io.group_from_json(value)
    raise InputFormatError(
        f"{value}: neither an existing file nor a built-in group name"
    )


def _check_values(measured: dict, names: list, data_path, probes_path) -> None:
    """An input error naming both files unless every probe has a value."""
    missing = [n for n in dict.fromkeys(names) if n not in measured]
    if missing:
        raise InputFormatError(
            f"{data_path}: no values for the probes {missing} of {probes_path}")


def _run_sectors_analyze(args) -> int:
    from .sectors import decompose_sectors, estimate_charge, sector_energies

    field = io.read(args.field, io.algebra_from_json)
    group = _load_group_arg(args.group)
    rep = io.read(args.rep, functools.partial(io.rep_from_json, group=group))
    decomp = decompose_sectors(field, rep, seed=args.seed)
    report = {
        "labels": list(decomp.labels),
        "dims": [
            {"label": lab, "dim_H": m, "dim_V": v}
            for lab, m, v in zip(decomp.labels, decomp.mult_dims,
                                 decomp.irrep_dims)
        ],
        "center_dim": decomp.n_sectors,
        "reconstruction_residual": decomp.reconstruction_residual(rep),
    }
    if args.state:
        omega = io.read(args.state, io.state_from_json)
        nu = estimate_charge(omega, decomp)
        report["charges"] = {
            lab: float(w) for lab, w in zip(decomp.labels, nu.weights)
        }
    if args.hamiltonian:
        h = io.read(args.hamiltonian, io.matrix_from_json)
        report["sector_energies"] = sector_energies(decomp, h)
    _emit(report, args)
    return EXIT_OK


def _run_thermal_estimate(args) -> int:
    from .channels import design_matrix
    from .thermal import build_thermal_channel, hierarchy_report

    system = io.read(args.system, io.system_from_json)
    grid = io.read(args.grid, io.grid_from_json)
    measured = io.read(args.measured, io.measured_from_json)
    hierarchy = io.read(args.hierarchy, io.hierarchy_from_json)
    _check_values(measured, [n for _, probes in hierarchy.levels for n, _ in probes],
                  args.measured, args.hierarchy)
    channel = build_thermal_channel(system, grid)
    report = hierarchy_report(measured, hierarchy, channel, tol=args.tol)
    payload = {
        "levels": [
            {
                "level": v.level,
                "accepted": v.accepted,
                "residual": v.residual,
                "kkt_residual": v.kkt_residual,
                "converged": v.converged,
                "tolerance": v.tolerance,
                "unique": v.unique,
                "rank": v.rank,
                "sigma_min": v.sigma_min,
                "nullspace_dim": v.nullspace_dim,
                "weights": [float(w) for w in v.weight_estimate.weights],
                "moments": {
                    name: {"mean": mv[0], "variance": mv[1]}
                    for name, mv in v.moments.items()
                },
            }
            for v in report.verdicts
        ],
        "max_accepted_level": report.max_accepted_level,
        "residual_monotone": report.residual_monotone,
    }
    _emit(payload, args)
    if args.csv:
        # the loader and hierarchy_report rejected every empty hierarchy or level
        probes = hierarchy.levels[-1][1]
        header = ["beta", "mu"] + [name for name, _ in probes]
        rows = []
        # probe expectations on the channel's Gibbs states, column i = point i
        values = design_matrix(channel, [m for _, m in probes])
        for i, (beta, mu) in enumerate(grid.points):
            rows.append([beta, 0.0 if mu is None else mu]
                        + [float(v) for v in values[:, i]])
        with open(args.csv, "w") as fh:
            fh.write(io.format_csv(rows, header))
    return EXIT_OK if payload["max_accepted_level"] is not None else EXIT_REJECTED


def _read_net_and_states(args):
    """The net, the state and the vacuum of a ``dhr`` subcommand."""
    return (io.read(args.net, io.net_from_json),
            io.read(args.state, io.state_from_json),
            io.read(args.vacuum, io.state_from_json))


def _run_dhr_check(args) -> int:
    from .dhrnet import dhr_check

    net, omega, vacuum = _read_net_and_states(args)
    report = dhr_check(omega, vacuum, net, tol=args.tol,
                       all_subsets=args.all_subsets)
    payload = {
        "passes": report.passes,
        "tolerance": report.tol,
        "witness_regions": [list(r) for r in report.witness_regions],
        "distances": [
            {"region": list(r), "distance": d} for r, d in report.distances
        ],
    }
    _emit(payload, args)
    return EXIT_OK if report.passes else EXIT_REJECTED


def _run_dhr_invert(args) -> int:
    from .dhrnet import invert_selected_state

    net, omega, vacuum = _read_net_and_states(args)
    result = invert_selected_state(omega, vacuum, net, tol=args.tol)
    payload = {
        "found": result.found,
        "region": None if result.region is None else list(result.region),
        "label": None if result.morphism is None else result.morphism.label,
        "distance": result.distance,
        "candidates_tried": result.n_tried,
        "miss": result.miss,
    }
    _emit(payload, args)
    return EXIT_OK if result.found else EXIT_REJECTED


def _run_cuntz_nf(args) -> int:
    from .cuntz import parse_expression

    poly = parse_expression(args.expr, args.d)
    terms = []
    for w, c in poly.sorted_terms():
        if poly.exact:
            entry = {"mu": list(w.mu), "nu": list(w.nu),
                     "re": str(c.re), "im": str(c.im)}
        else:
            z = complex(c)
            entry = {"mu": list(w.mu), "nu": list(w.nu),
                     "re": z.real, "im": z.imag}
        terms.append(entry)
    if args.json or args.format == "json":
        payload = {
            "d": args.d,
            "normal_form": str(poly),
            "exact": poly.exact,
            "terms": terms,
        }
        _emit(payload, args)
    else:
        # the JSON report's finiteness check, so that a non-finite
        # coefficient is the same input error in both formats
        io.dumps_canonical(terms)
        _write(str(poly) + "\n", args)
    return EXIT_OK


def _run_channels_invert(args) -> int:
    from .channels import design_matrix, invert_cq

    channel = io.read(args.channel, io.channel_from_json)
    probes = io.read(args.probes, io.probes_from_json)
    measured = io.read(args.data, io.measured_from_json)
    if not probes:
        raise InputFormatError(f"{args.probes}: at least one probe is required")
    _check_values(measured, [n for n, _ in probes], args.data, args.probes)
    mats = [m for _, m in probes]
    data = np.array([measured[n] for n, _ in probes])
    result = invert_cq(channel, mats, data)
    payload = {
        "labels": [io._label_to_json(l) for l in channel.space.labels],
        "weights": [float(w) for w in result.weight.weights],
        "residual": result.residual,
        "kkt_residual": result.kkt_residual,
        "converged": result.converged,
        "unique": result.unique,
        "rank": result.rank,
        "sigma_min": result.sigma_min,
        "nullspace_dim": result.nullspace_dim,
    }
    _emit(payload, args)
    if args.design_csv:
        m = design_matrix(channel, mats)
        header = ["probe"] + [str(io._label_to_json(l))
                              for l in channel.space.labels]
        rows = [[name] + [float(x) for x in m[j]]
                for j, (name, _) in enumerate(probes)]
        with open(args.design_csv, "w") as fh:
            fh.write(io.format_csv(rows, header))
    return EXIT_OK if result.residual <= args.tol else EXIT_REJECTED


def _run_examples_init(args) -> int:
    from .models import bundle_examples

    dirs = bundle_examples(args.dir)
    _emit({"directories": dirs}, args)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    # an output path that cannot be written; a failed write() names no file
    except OSError as err:
        where = "" if err.filename is None else f"{err.filename}: "
        print(f"error: {where}{err.strerror}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    # before ValueError: numpy's LinAlgError is one
    except (IsotypicError, CentralProjectionError, GenerationError,
            EigenvalueGapError, np.linalg.LinAlgError, MemoryError) as err:
        print(f"error: computation failed: {str(err) or type(err).__name__}",
              file=sys.stderr)
        return EXIT_COMPUTATION_FAILED
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
