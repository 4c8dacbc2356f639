"""Command-line front door.

Subcommands mirror the measurement workflow:

    run        execute (or resume) a study, writing records + summary
    fit        fit the scaling law to a study summary, per sparsity
    lipschitz  trace local smoothness / beta / delta per sparsity
    ratios     sparse-vs-dense decomposition of the c1 constant
    report     render everything found in the results directory

Exit codes: 0 success, 2 config error, 3 partial results, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import analysis, optim, report
from .config import echo_config, load_config
from .exceptions import (ConfigError, DegenerateStepError, IdxFormatError,
                         InsufficientDataError, ResultsFormatError)
from .harness import StudyPoint, from_block, run_study

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3
EXIT_IO = 4

def cmd_run(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    cfg = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(echo_config(cfg))

    done = [0]

    def progress(rec):
        done[0] += 1
        print(f"  [{done[0]}] B={rec.batch_size} s={rec.sparsity} "
              f"trial={rec.trial_index} -> {rec.status}"
              + (f" K={rec.steps_to_goal}" if rec.steps_to_goal else ""))

    table = run_study(cfg, out / "records.jsonl", workers=args.workers,
                      progress=progress if args.verbose else None)
    report.write_summary(table, out / report.SUMMARY_FILE)

    incomplete_points = [(c.batch_size, c.sparsity) for c in table.cells
                         if c.k_star is None]
    for c in table.cells:
        k = c.k_star if c.k_star is not None else "-"
        print(f"B={c.batch_size} s={c.sparsity}: K*={k} "
              f"({c.n_complete}/{c.n_stopped}/{c.n_incomplete}/{c.n_infeasible} "
              f"complete/stopped/incomplete/infeasible)")
    if incomplete_points:
        print(f"{len(incomplete_points)} study point(s) without a complete trial: "
              f"{incomplete_points}")
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_fit(args) -> int:
    out = Path(args.out)
    summary_path = out / report.SUMMARY_FILE
    if not summary_path.exists():
        print(f"no summary at {summary_path}; run `sparselab run` first",
              file=sys.stderr)
        return EXIT_IO
    rows = report.read_table(summary_path, "summary")

    fits = {}
    for s in sorted({r["s"] for r in rows}):
        points = [(r["B"], r["K_star"]) for r in rows
                  if r["s"] == s and r["K_star"] is not None]
        try:
            fit = fits[s] = analysis.fit_scaling(points)
        except InsufficientDataError:
            print(f"skip: sparsity {s:g} has fewer than 2 batch sizes with a K*")
            continue
        print(f"sparsity {s:g}: c1={fit.c1:.6g} c2={fit.c2:.6g} "
              f"residual={fit.residual:.4g}")
    if not fits:
        return EXIT_PARTIAL
    report.write_fits(out / report.FITS_FILE, fits)
    print(f"wrote {out / report.FITS_FILE}")
    return EXIT_OK


def _trace_metaparams(args, rows, workload, sparsity):
    """eta_bar and momentum_coeff for a trace, each from its flag if given,
    else from the summary's best row for (B, s); the workload's
    `OptimizerConfig` says which of them it needs."""
    best = next((r for r in rows
                 if r["s"] == sparsity and r["B"] == args.batch_size), {})
    picks = {"eta_bar": (args.eta, "eta_star"), "momentum_coeff": (args.momentum, "momentum_star")}
    metaparams = {name: flag if flag is not None else best.get(column)
                  for name, (flag, column) in picks.items()}
    metaparams = {name: value for name, value in metaparams.items() if value is not None}
    try:
        from_block(optim.OptimizerConfig, metaparams, "metaparams",
                   algorithm=workload.algorithm, schedule=workload.schedule)
    except ConfigError as e:
        raise ConfigError(f"{e}: give --eta/--momentum or a summary row for "
                          f"B={args.batch_size}, s={sparsity}") from None
    return metaparams


def cmd_lipschitz(args) -> int:
    if args.stride < 1:
        raise ConfigError(f"stride must be >= 1, got {args.stride}")
    if args.steps <= args.stride:
        raise ConfigError(f"--steps ({args.steps}) must exceed --stride "
                          f"({args.stride}): a trace needs more than one step")
    cfg = load_config(args.config)
    out = Path(args.out)
    summary_path = out / report.SUMMARY_FILE
    rows = report.read_table(summary_path, "summary") if summary_path.exists() else []
    plan = [(s, StudyPoint(args.batch_size, s), _trace_metaparams(args, rows, cfg.workload, s))
            for s in cfg.sparsities]
    out.mkdir(parents=True, exist_ok=True)

    traces, theory_rows = {}, []
    for s, point, metaparams in plan:
        try:
            trace = analysis.trace_smoothness(
                cfg.workload, point, metaparams,
                stride=args.stride, num_steps=args.steps, seed=cfg.seed,
                data_root=cfg.data_root)
            L_avg = trace.average
        except DegenerateStepError as e:
            print(f"skip: sparsity {s:g}: {e}")
            continue
        traces[s] = trace
        delta = analysis.estimate_delta(trace.losses)
        theory_rows.append({"s": s, "L_avg": L_avg, "beta": trace.beta,
                            "delta": delta, "eta_bar": metaparams["eta_bar"],
                            "batch_size": args.batch_size, "steps": args.steps,
                            "stride": args.stride})
        print(f"sparsity {s:g}: avg L_hat={L_avg:.6g} beta={trace.beta:.6g} "
              f"delta={delta:.6g}")

    report.write_traces(out / report.TRACES_FILE, traces)
    report.write_table(out / report.THEORY_FILE, "theory",
                       sorted(theory_rows, key=lambda r: r["s"]))
    print(f"wrote {out / report.TRACES_FILE} and {out / report.THEORY_FILE}")
    return EXIT_OK if len(theory_rows) == len(cfg.sparsities) else EXIT_PARTIAL


def cmd_ratios(args) -> int:
    out = Path(args.out)
    theory_path = out / report.THEORY_FILE
    if not theory_path.exists():
        print(f"no theory constants at {theory_path}; run `sparselab lipschitz` "
              f"first", file=sys.stderr)
        return EXIT_IO
    rows = sorted(report.read_table(theory_path, "theory"), key=lambda r: r["s"])
    dense = next((r for r in rows if r["s"] == 0.0), None)
    if dense is None:
        print("theory table has no dense (s=0) baseline", file=sys.stderr)
        return EXIT_PARTIAL

    fits_path = out / report.FITS_FILE
    fitted_c1 = ({f["s"]: f["c1"] for f in report.read_table(fits_path, "fits")}
                 if fits_path.exists() else {})
    dense_params = analysis.TheoryParams(
        L=dense["L_avg"], beta=dense["beta"], delta=dense["delta"])

    ratio_rows = []
    for r in rows:
        if r["s"] == 0.0:
            continue
        sparse_params = analysis.TheoryParams(
            L=r["L_avg"], beta=r["beta"], delta=r["delta"])
        try:
            ratios = analysis.ratio_report(sparse_params, dense_params)
        except ZeroDivisionError as e:
            print(e, file=sys.stderr)
            return EXIT_PARTIAL
        fitted = None
        if fitted_c1.get(0.0, 0) > 0 and r["s"] in fitted_c1:
            fitted = fitted_c1[r["s"]] / fitted_c1[0.0]
        ratio_rows.append({"s": r["s"], **ratios, "c1_ratio_fitted": fitted})
        print(f"s={r['s']:g}: delta x beta x L = {ratios['delta_ratio']:.3g} x "
              f"{ratios['beta_ratio']:.3g} x {ratios['L_ratio']:.3g} = "
              f"{ratios['c1_ratio']:.3g}"
              + (f" (fitted {fitted:.3g})" if fitted is not None else ""))

    report.write_table(out / report.RATIOS_FILE, "ratios", ratio_rows)
    print(f"wrote {out / report.RATIOS_FILE}")
    return EXIT_OK


def cmd_report(args) -> int:
    text = report.render_report(args.out)
    out_path = Path(args.out) / report.REPORT_FILE
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(text)
    print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparselab",
        description="Batch-size scaling and sparsity measurement laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default="results", help="results directory")

    p_run = sub.add_parser("run", help="run or resume a study")
    common(p_run)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--verbose", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_fit = sub.add_parser("fit", help="fit the scaling law to a summary")
    common(p_fit, config_required=False)
    p_fit.set_defaults(func=cmd_fit)

    p_lip = sub.add_parser("lipschitz", help="smoothness traces per sparsity")
    common(p_lip)
    p_lip.add_argument("--stride", type=int, default=100)
    p_lip.add_argument("--steps", type=int, default=2000)
    p_lip.add_argument("--batch-size", type=int, default=16)
    p_lip.add_argument("--eta", type=float, default=None,
                       help="learning rate for the trace runs "
                            "(default: best from the summary)")
    p_lip.add_argument("--momentum", type=float, default=None,
                       help="momentum coefficient for momentum and Nesterov "
                            "workloads (default: best from the summary)")
    p_lip.set_defaults(func=cmd_lipschitz)

    p_ratio = sub.add_parser("ratios", help="sparse/dense c1 decomposition")
    common(p_ratio, config_required=False)
    p_ratio.set_defaults(func=cmd_ratios)

    p_report = sub.add_parser("report", help="render the results directory")
    common(p_report, config_required=False)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as e:
        print(f"missing file: {e}", file=sys.stderr)
        return EXIT_IO
    except (OSError, IdxFormatError, ResultsFormatError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
