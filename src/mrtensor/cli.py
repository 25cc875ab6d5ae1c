"""Command line entry points.

Thin orchestration over the library: each subcommand reads the text
formats, calls one library pipeline, and writes artifacts.  A plain-text
``key = value`` config file can carry every solver knob; explicit
flags win over the file, the file wins over defaults, so a config file
plus a seed reproduces a run byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis, solver, sptensor
from .encode import _grid_depth, build_tensor
from .ingest import FieldGeometry, parse_events
from .model import (
    effective_rank, motif_at_scale, normalize_scores, read_model, write_model,
)
from .solver import SolverConfig, SolverError, fit_block_gs, fit_em


# Each solver knob's type is the type of its default; the CLI flags
# carry the field names as their ``dest``.
_CONFIG_KEYS = {f.name: type(f.default) for f in fields(SolverConfig)}


def parse_config(path) -> dict:
    """Read ``key = value`` lines; '#' starts a comment."""
    values: dict = {}
    with open(path, "r") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _coerce(key, text)
    return values


def _coerce(key, text):
    if key == "rank" and "," in text:
        return tuple(int(v) for v in text.split(","))
    return _CONFIG_KEYS[key](text)


def load_run_config(args) -> SolverConfig:
    values = parse_config(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
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
    fit = {"gs": fit_block_gs, "em": fit_em}[args.backend]
    try:
        fitted, report = fit(tensor, config)
    except SolverError as exc:
        if args.report and exc.report is not None:
            solver.write_report(exc.report, args.report)
        raise
    write_model(fitted, args.out)
    if args.report:
        solver.write_report(report, args.report)
    print(
        f"backend={report.backend} outer={report.outer_iterations} "
        f"objective={report.objective[-1]:.10g} "
        f"effective_H={report.effective_terms[-1]} "
        f"stop_reason={report.stop_reason}"
    )
    return 0


def cmd_motifs(args) -> int:
    if args.top < 0 or args.edges < 0:
        raise ValueError("--top and --edges must be >= 0")
    fitted = read_model(args.model)
    scales = range(1, _grid_depth(fitted.mode_sizes) + 1)
    if args.scales:
        scales = [int(s) for s in args.scales.split(",")]
        for s in scales:
            _grid_depth(fitted.mode_sizes, s)
    ranked = analysis.rank_motifs(fitted)
    if args.top > len(ranked):
        print(
            f"warning: only {len(ranked)} active motifs, asked for {args.top}",
            file=sys.stderr,
        )
    chosen = ranked[: args.top]
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
    dissim = analysis.dissimilarity_matrix(
        table, args.scale, args.reference_minutes
    )
    analysis.write_dissimilarity_csv(dissim, args.out)
    print(f"teams={len(dissim.labels)} scale={args.scale}")
    return 0


def _read_rates(path, n_terms):
    with open(path, "r") as handle:
        header = handle.readline().strip().split(",")
        if not header or header[0] != "term":
            raise ValueError("rates CSV must start with a 'term' column")
        n_rep = len(header) - 1
        rows = []
        for lineno, line in enumerate(handle, start=2):
            parts = line.strip().split(",")
            if len(parts) != n_rep + 1:
                raise ValueError(f"rates CSV line {lineno}: wrong arity")
            rows.append([float(v) for v in parts[1:]])
    rates = np.asarray(rows)
    if rates.shape != (n_terms, n_rep):
        raise ValueError(
            f"rates CSV must have one row per term ({n_terms}), "
            f"found {rates.shape[0]}"
        )
    return rates


def cmd_simulate(args) -> int:
    truth = read_model(args.model)
    rates = _read_rates(args.rates, truth.n_terms)
    tensor = analysis.simulate(
        truth, rates, seed=args.seed, method=args.method
    )
    sptensor.write_tensor(tensor, args.out)
    print(f"events={tensor.total} nnz={tensor.nnz}")
    return 0


def cmd_scores(args) -> int:
    fitted = read_model(args.model)
    summary = normalize_scores(fitted)
    with open(args.out, "w") as handle:
        labels = [f"n{k + 1}" for k in range(fitted.n_replicates)]
        handle.write("term," + ",".join(labels) + "\n")
        for h in range(fitted.n_terms):
            row = ",".join(format(v, ".17g") for v in summary.theta[h])
            handle.write(f"{h + 1},{row}\n")
        handle.write(
            "eta," + ",".join(format(v, ".17g") for v in summary.eta) + "\n"
        )
    print(f"terms={fitted.n_terms} replicates={fitted.n_replicates}")
    return 0


def _add_geometry(parser):
    parser.add_argument("--length", type=float, default=115.0)
    parser.add_argument("--width", type=float, default=74.0)
    parser.add_argument(
        "--attack-direction",
        choices=("left_to_right", "right_to_left"),
        default="left_to_right",
    )


def _add_solver_flags(parser):
    parser.add_argument("--config", help="key = value solver config file")
    parser.add_argument("--terms", "-H", dest="n_terms", type=int)
    parser.add_argument("--rank", "-R", type=int)
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
    p.add_argument("--backend", choices=("gs", "em"), default="gs")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("motifs", help="export ranked motif matrices")
    p.add_argument("model")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--scales", help="comma list, default all")
    p.add_argument("--edges", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_motifs)

    p = sub.add_parser("dissim", help="team dissimilarity matrix")
    p.add_argument("events")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--reference-minutes", type=float)
    p.add_argument("--out", required=True)
    _add_geometry(p)
    p.set_defaults(func=cmd_dissim)

    p = sub.add_parser("simulate", help="sample events from a model")
    p.add_argument("model")
    p.add_argument("rates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--method", choices=("superposition", "cells"), default="superposition"
    )
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
