"""Command line entry points.

Thin orchestration over the library: each subcommand reads the text
formats, calls one library pipeline, and writes artifacts.  Every
solver knob is a flag, so the command line plus a seed reproduces a
run byte for byte on the same BLAS build and thread count (the
objective's final dot product is a BLAS call whose rounding can change
with the thread count).
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis, solver, sptensor
from .encode import _dense_side, _grid_depth, build_tensor
from .ingest import FieldGeometry, _csv_rows, _float, _shown, parse_events
from .model import (
    effective_rank, motif_at_scale, normalize_scores, read_model, write_model,
)
from .solver import SolverConfig, SolverError, fit_block_gs


def _int_list(text) -> tuple[int, ...]:
    """A comma list of integers, such as ``3`` or ``3,3,2``."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None


def load_run_config(args) -> SolverConfig:
    """The solver knobs given as flags; the rest keep their defaults.
    One ``--rank`` value bounds every term."""
    values = {f.name: getattr(args, f.name) for f in fields(SolverConfig)
              if getattr(args, f.name) is not None}
    if len(values.get("rank", ())) == 1:
        (values["rank"],) = values["rank"]
    return SolverConfig(**values)


def _geometry(args) -> FieldGeometry:
    return FieldGeometry(args.length, args.width, args.attack_direction)


def cmd_encode(args) -> int:
    table = parse_events(args.events, _geometry(args))
    tensor = build_tensor(table, args.scales)
    sptensor.write_tensor(tensor, args.out)
    sparsity = 100.0 * (1.0 - tensor.nnz / tensor.n_cells)
    print(f"cells={tensor.n_cells} nnz={tensor.nnz} sparsity={sparsity:.2f}%")
    return 0


def cmd_fit(args) -> int:
    tensor = sptensor.read_tensor(args.tensor)
    config = load_run_config(args)
    try:
        fitted, report = fit_block_gs(tensor, config)
    except SolverError as exc:
        if args.report and exc.report is not None:
            solver.write_report(exc.report, args.report)
        raise
    write_model(fitted, args.out)
    if args.report:
        solver.write_report(report, args.report)
    print(
        f"outer={report.outer_iterations} "
        f"objective={report.objective[-1]:.10g} "
        f"effective_H={report.effective_terms[-1]} "
        f"stop_reason={report.stop_reason}"
    )
    return 0


def cmd_motifs(args) -> int:
    if args.top < 0 or args.edges < 0:
        raise ValueError("--top and --edges must be >= 0")
    fitted = read_model(args.model)
    scales = args.scales or range(1, _grid_depth(fitted.mode_sizes) + 1)
    for s in scales:
        _grid_depth(fitted.mode_sizes, s)
        _dense_side(s)
    ranked = analysis.rank_motifs(fitted)
    if args.top > len(ranked):
        print(
            f"warning: only {len(ranked)} active motifs, asked for {args.top}",
            file=sys.stderr,
        )
    chosen = ranked[: args.top]
    with np.errstate(over="ignore", invalid="ignore"):
        if not all(np.isfinite(motif_at_scale(fitted, h, s)).all()
                   for h, _ in chosen for s in scales):
            raise ValueError("motif matrix must be finite")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for h, usage in chosen:
        for s in scales:
            matrix = motif_at_scale(fitted, h, s)
            stem = outdir / f"motif_{h + 1}_scale_{s}"
            analysis.write_motif_csv(matrix, f"{stem}.csv")
            analysis.write_motif_svg(
                matrix, f"{stem}.svg", top_edges=args.edges
            )
        rank = effective_rank(fitted, h)
        print(f"motif={h + 1} usage={usage:.6g} rank={rank}")
    return 0


def cmd_dissim(args) -> int:
    table = parse_events(args.events, _geometry(args))
    dissim = analysis.dissimilarity_matrix(table, args.scale)
    analysis.write_dissimilarity_csv(dissim, args.out)
    print(f"teams={len(dissim.labels)} scale={args.scale}")
    return 0


def _read_rates(path, n_terms):
    with open(path, encoding="utf-8-sig", newline="") as handle:
        lines = _csv_rows(handle)
        _, header = next(lines, (1, [""]))
        if header[0] != "term":
            raise ValueError("rates CSV must start with a 'term' column")
        rows = []
        for lineno, (label, *cells) in lines:
            where = f"rates CSV line {lineno}"
            if len(cells) != len(header) - 1:
                raise ValueError(f"{where}: wrong arity")
            if label != str(lineno - 1):
                raise ValueError(f"{where}: expected term {lineno - 1}, "
                                 f"found {_shown(label)}")
            try:
                rows.append([_float(v) for v in cells])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    rates = np.asarray(rows)
    if rates.shape != (n_terms, len(header) - 1):
        raise ValueError(
            f"rates CSV must have one row per term ({n_terms}), "
            f"found {rates.shape[0]}"
        )
    return rates


def cmd_simulate(args) -> int:
    truth = read_model(args.model)
    rates = _read_rates(args.rates, truth.n_terms)
    tensor = analysis.simulate(truth, rates, seed=args.seed)
    sptensor.write_tensor(tensor, args.out)
    print(f"events={tensor.total} nnz={tensor.nnz}")
    return 0


def cmd_scores(args) -> int:
    fitted = read_model(args.model)
    theta, eta = normalize_scores(fitted)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        table = csv.writer(handle, lineterminator="\n")
        table.writerow(["term"] + [f"n{k + 1}" for k in range(len(eta))])
        for label, row in [*enumerate(theta, start=1), ("eta", eta)]:
            table.writerow([label, *(format(v, ".17g") for v in row)])
    print(f"terms={fitted.n_terms} replicates={fitted.n_replicates}")
    return 0


def _add_geometry(parser):
    pitch = FieldGeometry()
    parser.add_argument("--length", type=float, default=pitch.length)
    parser.add_argument("--width", type=float, default=pitch.width)
    parser.add_argument(
        "--attack-direction",
        choices=("left_to_right", "right_to_left"),
        default=pitch.attack_direction,
    )


def _add_solver_flags(parser):
    parser.add_argument("--terms", "-H", dest="n_terms", type=int)
    parser.add_argument("--rank", "-R", type=_int_list, help="comma list")
    parser.add_argument("--beta", type=float)
    parser.add_argument("--max-outer", type=int)
    parser.add_argument("--max-inner", type=int)
    parser.add_argument("--outer-tol", type=float)
    parser.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrtensor",
        description="Multiresolution passing-network tensors and motifs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="events CSV -> sparse count tensor")
    p.add_argument("events")
    p.add_argument("--scales", "-S", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_geometry(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("fit", help="fit the count model to a tensor")
    p.add_argument("tensor")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("motifs", help="export ranked motif matrices")
    p.add_argument("model")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--scales", type=_int_list, help="comma list, default all")
    p.add_argument("--edges", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_motifs)

    p = sub.add_parser("dissim", help="team dissimilarity matrix")
    p.add_argument("events")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_geometry(p)
    p.set_defaults(func=cmd_dissim)

    p = sub.add_parser("simulate", help="sample events from a model")
    p.add_argument("model")
    p.add_argument("rates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scores", help="share-normalized usage scores")
    p.add_argument("model")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scores)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
