"""Results-file format: exact bytes of each table kind, round trips
through the reader, loud failures on malformed files, and the exact text
of the report rendered from them."""

import pytest

from sparselab.analysis import ScalingFit, SmoothnessTrace
from sparselab.exceptions import ResultsFormatError
from sparselab.harness import StudyCell, StudyTable
from sparselab.report import (read_table, render_report, write_fits, write_summary,
                              write_table, write_traces)

TABLE = StudyTable("fixture", 0.2, 3, [
    StudyCell(2, 0.0, 16, {"eta_bar": 0.15243982, "momentum_coeff": 0.9}, 1, 2, 0, 0),
    StudyCell(8, 0.0, None, None, 0, 0, 2, 1),
    StudyCell(8, 0.5, 24, {"eta_bar": 0.039359793}, 1, 1, 0, 1)])

SUMMARY_TEXT = """\
# sparselab-summary v2 workload=fixture goal=0.2 budget=3
B,s,K_star,eta_star,momentum_star,n_complete,n_stopped,n_incomplete,n_infeasible
2,0.0,16,0.15243982,0.9,1,2,0,0
8,0.0,,,,0,0,2,1
8,0.5,24,0.039359793,,1,1,0,1
"""

FITS = {0.9: ScalingFit(333.25, 12.5, 1.5e-7, ((2.0, 179.0), (3.0, 124.0))),
        0.0: ScalingFit(1000.0, 50.0, 0.0125, ((2.0, 550.0), (8.0, 176.0)))}

FITS_TEXT = """\
# sparselab-fits v2
B,s,K_star,K_hat,c1,c2,residual
2,0.0,550,550.0000,1000,50,0.0125
8,0.0,176,175.0000,1000,50,0.0125
2,0.9,179,179.1250,333.25,12.5,1.5e-07
3,0.9,124,123.5833,333.25,12.5,1.5e-07
"""

TRACES = {0.5: SmoothnessTrace([(0, 6.5561023), (40, None)], [], 0.0),
          0.0: SmoothnessTrace([(0, 8.6100749), (40, 0.2663122)], [], 0.0)}

TRACES_TEXT = """\
# sparselab-traces v1
s,step,lipschitz_hat
0.0,0,8.6100749
0.0,40,0.2663122
0.5,0,6.5561023
0.5,40,
"""

THEORY = [{"s": 0.0, "L_avg": 2.9863258, "beta": 576.31668, "delta": 14.585774,
           "eta_bar": 0.15243982, "batch_size": 8, "steps": 120, "stride": 40},
          {"s": 0.5, "L_avg": 2.7942208, "beta": 325.70618, "delta": 28.23463,
           "eta_bar": 0.039359793, "batch_size": 8, "steps": 120, "stride": 40}]

THEORY_TEXT = """\
# sparselab-theory v1
s,L_avg,beta,delta,eta_bar,batch_size,steps,stride
0.0,2.9863258,576.31668,14.585774,0.15243982,8,120,40
0.5,2.7942208,325.70618,28.23463,0.039359793,8,120,40
"""

RATIOS = [{"s": 0.5, "delta_ratio": 1.93576, "beta_ratio": 0.565151,
           "L_ratio": 0.935672, "c1_ratio": 1.02363, "c1_ratio_fitted": None},
          {"s": 0.9, "delta_ratio": 3.744, "beta_ratio": 0.673, "L_ratio": 1.224,
           "c1_ratio": 3.08703, "c1_ratio_fitted": 1.98}]

RATIOS_TEXT = """\
# sparselab-ratios v1
s,delta_ratio,beta_ratio,L_ratio,c1_ratio,c1_ratio_fitted
0.5,1.93576,0.565151,0.935672,1.02363,
0.9,3.744,0.673,1.224,3.08703,1.98
"""

REPORT_TEXT = """\
# sparselab report

results directory: `{results}`

## Scaling: steps-to-result by batch size

### sparsity 0

| B | K* | K*/K*(B_min) | complete | stopped | incomplete | infeasible |
|---|----|--------------|----------|---------|------------|------------|
| 2 | 16 | 1.0000 | 1 | 2 | 0 | 0 |
| 8 | - | - | 0 | 0 | 2 | 1 |

### sparsity 0.5

| B | K* | K*/K*(B_min) | complete | stopped | incomplete | infeasible |
|---|----|--------------|----------|---------|------------|------------|
| 8 | 24 | 1.0000 | 1 | 1 | 0 | 1 |

## Scaling-law fits

| sparsity | c1 | c2 | RMS rel. residual |
|----------|----|----|-------------------|
| 0 | 1000 | 50 | 0.0125 |
| 0.9 | 333.25 | 12.5 | 1.5e-07 |

## Smoothness and variance constants

| sparsity | avg Lipschitz | beta (B=1 variance) | delta |
|----------|---------------|---------------------|-------|
| 0 | 2.98633 | 576.317 | 14.5858 |
| 0.5 | 2.79422 | 325.706 | 28.2346 |

## Sparse/dense ratio decomposition

| sparsity | delta ratio | beta ratio | L ratio | c1 ratio | fitted c1 ratio |
|----------|-------------|------------|---------|----------|-----------------|
| 0.5 | 1.93576 | 0.565151 | 0.935672 | 1.02363 | - |
| 0.9 | 3.744 | 0.673 | 1.224 | 3.08703 | 1.98 |

Sections rendered: 4
"""


def test_summary_bytes_and_round_trip(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary(TABLE, path)
    assert path.read_text() == SUMMARY_TEXT
    assert read_table(path, "summary") == [
        {"B": 2, "s": 0.0, "K_star": 16, "eta_star": 0.15243982, "momentum_star": 0.9,
         "n_complete": 1, "n_stopped": 2, "n_incomplete": 0, "n_infeasible": 0},
        {"B": 8, "s": 0.0, "K_star": None, "eta_star": None, "momentum_star": None,
         "n_complete": 0, "n_stopped": 0, "n_incomplete": 2, "n_infeasible": 1},
        {"B": 8, "s": 0.5, "K_star": 24, "eta_star": 0.039359793, "momentum_star": None,
         "n_complete": 1, "n_stopped": 1, "n_incomplete": 0, "n_infeasible": 1}]


def test_fits_bytes_and_round_trip(tmp_path):
    path = tmp_path / "fits.csv"
    write_fits(path, FITS)
    assert path.read_text() == FITS_TEXT
    dense = {"s": 0.0, "c1": 1000.0, "c2": 50.0, "residual": 0.0125}
    sparse = {"s": 0.9, "c1": 333.25, "c2": 12.5, "residual": 1.5e-7}
    assert read_table(path, "fits") == [
        {"B": 2, "K_star": 550, "K_hat": 550.0, **dense},
        {"B": 8, "K_star": 176, "K_hat": 175.0, **dense},
        {"B": 2, "K_star": 179, "K_hat": 179.125, **sparse},
        {"B": 3, "K_star": 124, "K_hat": 123.5833, **sparse}]


def test_traces_bytes_and_round_trip(tmp_path):
    path = tmp_path / "traces.csv"
    write_traces(path, TRACES)
    assert path.read_text() == TRACES_TEXT
    assert read_table(path, "traces") == [
        {"s": s, "step": step, "lipschitz_hat": value}
        for s in (0.0, 0.5) for step, value in TRACES[s].entries]


@pytest.mark.parametrize("kind,rows,text", [
    ("theory", THEORY, THEORY_TEXT),
    ("ratios", RATIOS, RATIOS_TEXT),
])
def test_table_bytes_and_round_trip(tmp_path, kind, rows, text):
    path = tmp_path / f"{kind}.csv"
    write_table(path, kind, rows)
    assert path.read_text() == text
    assert read_table(path, kind) == rows


@pytest.mark.parametrize("kind,text,where", [
    ("theory", THEORY_TEXT.replace(",28.23463,", ","), ":4:"),
    ("theory", THEORY_TEXT + "0.9,1,2,3,4,5,6,7,8\n", ":5:"),
    ("theory", THEORY_TEXT.replace(",8,120,", ",eight,120,"), ":3:"),
    ("theory", THEORY_TEXT.replace("L_avg,beta", "beta,L_avg"), ":2:"),
    ("theory", THEORY_TEXT.replace("theory v1", "theory v2"), ":1:"),
    ("theory", THEORY_TEXT.replace("sparselab-theory", "sparselab-ratios"), ":1:"),
    ("theory", "", ":1:"),
    ("summary", SUMMARY_TEXT.replace(",0,0,2,1\n", ",,0,2,1\n"), ":4: empty cell in column n_complete"),
    ("fits", FITS_TEXT.replace(",333.25,12.5,", ",,12.5,", 1), ":5: empty cell in column c1"),
    ("traces", TRACES_TEXT.replace("0.5,40,", "0.5,,"), ":6: empty cell in column step"),
    ("theory", THEORY_TEXT.replace(",576.31668,", ",,"), ":3: empty cell in column beta"),
    ("ratios", RATIOS_TEXT.replace(",3.08703,", ",,"), ":4: empty cell in column c1_ratio"),
], ids=["short-row", "long-row", "not-an-int", "header", "version", "kind", "empty",
        "summary-empty-cell", "fits-empty-cell", "traces-empty-cell", "theory-empty-cell",
        "ratios-empty-cell"])
def test_malformed_table_names_file_and_line(tmp_path, kind, text, where):
    path = tmp_path / f"{kind}.csv"
    path.write_text(text)
    with pytest.raises(ResultsFormatError, match=f"{kind}.csv{where}"):
        read_table(path, kind)


def test_a_table_with_undecodable_bytes_names_file_and_line(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_bytes(SUMMARY_TEXT.encode().replace(b",0,0,2,1\n", b",0,0,2,\xff\n"))
    with pytest.raises(ResultsFormatError, match="summary.csv:4: not UTF-8 text"):
        read_table(path, "summary")


def test_report_text_of_every_table(tmp_path):
    write_summary(TABLE, tmp_path / "summary.csv")
    write_fits(tmp_path / "fits.csv", FITS)
    write_table(tmp_path / "theory.csv", "theory", THEORY)
    write_table(tmp_path / "ratios.csv", "ratios", RATIOS)
    assert render_report(tmp_path) == REPORT_TEXT.format(results=tmp_path)
