"""Results files and the human-readable run report.

Each results file is a table of one kind: a `# sparselab-<kind> v<schema>`
line (which the summary follows with its workload, goal and budget), a
header row, then comma-separated rows. `TABLES` gives each kind's schema
version, its columns as (name, type, format spec) and the columns that may
be empty, and `write_table` and `read_table` are the only code that knows
the format. An empty cell stands for None. `read_table` raises
ResultsFormatError, naming the file and line, on anything that does not
match the spec, such as an empty cell in a column that must hold a value.

The report is a pure function of whatever results files exist in the
results directory; absent inputs are listed by name instead of failing.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path

from .analysis import predict_steps
from .exceptions import ResultsFormatError

SUMMARY_FILE = "summary.csv"
FITS_FILE = "fits.csv"
TRACES_FILE = "traces.csv"
THEORY_FILE = "theory.csv"
RATIOS_FILE = "ratios.csv"
REPORT_FILE = "report.md"

# kind -> (schema version, columns as (name, type, format spec), nullable columns)
# summary v2: n_stopped, and n_incomplete no longer counts trials cut off at K*.
TABLES = {
    "summary": (2, (("B", int, ""), ("s", float, ""), ("K_star", int, ""),
                    ("eta_star", float, ".8g"), ("momentum_star", float, ".8g"),
                    ("n_complete", int, ""), ("n_stopped", int, ""),
                    ("n_incomplete", int, ""), ("n_infeasible", int, "")),
                {"K_star", "eta_star", "momentum_star"}),
    "fits": (2, (("B", int, ""), ("s", float, ""), ("K_star", int, ""),
                 ("K_hat", float, ".4f"), ("c1", float, ".6g"), ("c2", float, ".6g"),
                 ("residual", float, ".6g")), set()),
    "traces": (1, (("s", float, ""), ("step", int, ""), ("lipschitz_hat", float, ".8g")),
               {"lipschitz_hat"}),
    "theory": (1, (("s", float, ""), ("L_avg", float, ".8g"), ("beta", float, ".8g"),
                   ("delta", float, ".8g"), ("eta_bar", float, ".8g"),
                   ("batch_size", int, ""), ("steps", int, ""), ("stride", int, "")), set()),
    "ratios": (1, (("s", float, ""), ("delta_ratio", float, ".6g"),
                   ("beta_ratio", float, ".6g"), ("L_ratio", float, ".6g"),
                   ("c1_ratio", float, ".6g"), ("c1_ratio_fitted", float, ".6g")),
               {"c1_ratio_fitted"}),
}


def write_table(path, kind: str, rows, tag: str = ""):
    """Write dict rows as a `kind` table; `tag` extends the first line."""
    version, columns, _ = TABLES[kind]
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(f"# sparselab-{kind} v{version}{tag}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(name for name, _, _ in columns)
        for row in rows:
            writer.writerow("" if row[name] is None else format(row[name], spec)
                            for name, _, spec in columns)


def read_table(path, kind: str) -> list:
    """Rows of a `kind` table as dicts of typed values (None for empty)."""
    version, columns, nullable = TABLES[kind]
    names = [name for name, _, _ in columns]
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ResultsFormatError(f"{path}:{line}: not UTF-8 text ({e.reason})") from None
    with io.StringIO(text, newline="") as f:
        if f.readline().split()[:3] != ["#", f"sparselab-{kind}", f"v{version}"]:
            raise ResultsFormatError(
                f"{path}:1: expected '# sparselab-{kind} v{version}'")
        reader = csv.reader(f)
        header = next(reader, None)
        if header != names:
            raise ResultsFormatError(
                f"{path}:2: expected header {','.join(names)}, found {header}")
        rows = []
        for fields in reader:
            where = f"{path}:{reader.line_num + 1}"
            if len(fields) != len(columns):
                raise ResultsFormatError(
                    f"{where}: expected {len(columns)} fields, found {len(fields)}")
            empty = [name for name, text in zip(names, fields) if not text and name not in nullable]
            if empty:
                raise ResultsFormatError(f"{where}: empty cell in column {empty[0]}")
            try:
                rows.append({name: typ(text) if text else None
                             for (name, typ, _), text in zip(columns, fields)})
            except ValueError as e:
                raise ResultsFormatError(f"{where}: {e}") from e
    return rows


def write_summary(table, path):
    """One row per (B, s) cell of a harness StudyTable."""
    write_table(path, "summary", (
        {"B": c.batch_size, "s": c.sparsity, "K_star": c.k_star,
         "eta_star": (c.best_metaparams or {}).get("eta_bar"),
         "momentum_star": (c.best_metaparams or {}).get("momentum_coeff"),
         "n_complete": c.n_complete, "n_stopped": c.n_stopped,
         "n_incomplete": c.n_incomplete, "n_infeasible": c.n_infeasible}
        for c in table.cells),
        f" workload={table.workload_id} goal={table.goal_error} budget={table.budget}")


def write_fits(path, fits: dict):
    """fits: {sparsity: ScalingFit}; one row per measured (B, s) with the
    fitted prediction alongside, plus the fit constants and residual."""
    write_table(path, "fits", (
        {"B": int(b), "s": s, "K_star": int(k), "K_hat": predict_steps(fit, b),
         "c1": fit.c1, "c2": fit.c2, "residual": fit.residual}
        for s, fit in sorted(fits.items()) for b, k in fit.points))


def write_traces(path, traces: dict):
    """traces: {sparsity: SmoothnessTrace}."""
    write_table(path, "traces", (
        {"s": s, "step": step, "lipschitz_hat": value}
        for s, trace in sorted(traces.items()) for step, value in trace.entries))


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _markdown_table(title: str, headers, rows) -> list:
    """Lines of a titled markdown table; a None cell shows as '-'."""
    lines = [title, "", "| " + " | ".join(headers) + " |",
             "|" + "|".join("-" * (len(h) + 2) for h in headers) + "|"]
    lines += ["| " + " | ".join("-" if c is None else str(c) for c in row) + " |"
              for row in rows]
    return lines + [""]


def _scaling_section(rows: list) -> list:
    lines = ["## Scaling: steps-to-result by batch size", ""]
    for s in sorted({r["s"] for r in rows}):
        sub = sorted((r for r in rows if r["s"] == s), key=lambda r: r["B"])
        base = next((r["K_star"] for r in sub if r["K_star"] is not None), None)
        norm = {r["B"]: f"{r['K_star'] / base:.4f}" for r in sub
                if r["K_star"] is not None and base}
        lines += _markdown_table(
            f"### sparsity {s:g}",
            ("B", "K*", "K*/K*(B_min)", "complete", "stopped", "incomplete", "infeasible"),
            ((r["B"], r["K_star"], norm.get(r["B"]), r["n_complete"], r["n_stopped"],
              r["n_incomplete"], r["n_infeasible"]) for r in sub))
    return lines


def _fit_section(rows: list) -> list:
    fits = {r["s"]: r for r in rows}         # each row repeats its sparsity's fit
    return _markdown_table(
        "## Scaling-law fits", ("sparsity", "c1", "c2", "RMS rel. residual"),
        ((f"{s:g}", f"{r['c1']:.6g}", f"{r['c2']:.6g}", f"{r['residual']:.4g}")
         for s, r in sorted(fits.items())))


def _smoothness_section(rows: list) -> list:
    return _markdown_table(
        "## Smoothness and variance constants",
        ("sparsity", "avg Lipschitz", "beta (B=1 variance)", "delta"),
        ((f"{r['s']:g}", f"{r['L_avg']:.6g}", f"{r['beta']:.6g}", f"{r['delta']:.6g}")
         for r in rows))


def _ratio_section(rows: list) -> list:
    return _markdown_table(
        "## Sparse/dense ratio decomposition",
        ("sparsity", "delta ratio", "beta ratio", "L ratio", "c1 ratio",
         "fitted c1 ratio"),
        ((f"{r['s']:g}", f"{r['delta_ratio']:.6g}", f"{r['beta_ratio']:.6g}",
          f"{r['L_ratio']:.6g}", f"{r['c1_ratio']:.6g}",
          None if r["c1_ratio_fitted"] is None else f"{r['c1_ratio_fitted']:.6g}")
         for r in rows))


def render_report(results_dir) -> str:
    results_dir = Path(results_dir)
    lines = ["# sparselab report", "",
             f"results directory: `{os.fspath(results_dir)}`", ""]
    sources = ((SUMMARY_FILE, "summary", _scaling_section),
               (FITS_FILE, "fits", _fit_section),
               (THEORY_FILE, "theory", _smoothness_section),
               (RATIOS_FILE, "ratios", _ratio_section))
    missing = [name for name, _, _ in sources if not (results_dir / name).exists()]
    for name, kind, section in sources:
        if name not in missing:
            lines += section(read_table(results_dir / name, kind))

    lines.append(f"Sections rendered: {len(sources) - len(missing)}")
    if missing:
        lines.append("")
        lines.append("Missing inputs: " + ", ".join(missing))
    lines.append("")
    return "\n".join(lines)
