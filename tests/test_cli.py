"""Command-line workflows: run/resume, fit, lipschitz, ratios, report."""

import json
import struct
from dataclasses import asdict
from pathlib import Path

import pytest

from sparselab import analysis
from sparselab.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_PARTIAL, main
from sparselab.config import load_config
from sparselab.exceptions import DegenerateStepError
from sparselab.harness import StudyConfig
from sparselab.report import FITS_FILE, THEORY_FILE, read_table, write_fits, write_table

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SMOKE = str(CONFIGS / "smoke.json")


def run_cli(*args):
    return main(list(args))


def edited_smoke(tmp_path, edit):
    """configs/smoke.json after `edit(tree)`, written to a new file."""
    tree = json.loads(Path(SMOKE).read_text())
    edit(tree)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(tree))
    return str(path)


def test_smoke_run_writes_summary_with_one_row_per_study_point(tmp_path, capsys):
    assert run_cli("run", "--config", SMOKE, "--out", str(tmp_path)) == EXIT_OK
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("# sparselab-summary v1")
    assert len(summary) == 2 + 3          # header comment + columns + 3 rows
    assert (tmp_path / "records.jsonl").exists()


def test_rerun_is_idempotent(tmp_path):
    assert run_cli("run", "--config", SMOKE, "--out", str(tmp_path)) == EXIT_OK
    records = (tmp_path / "records.jsonl").read_text()
    assert run_cli("run", "--config", SMOKE, "--out", str(tmp_path)) == EXIT_OK
    assert (tmp_path / "records.jsonl").read_text() == records


def test_rerun_runs_again_exactly_the_trials_whose_config_changed(tmp_path):
    out = tmp_path / "results"

    def trials_run(edit=lambda tree: None):
        records = out / "records.jsonl"
        before = len(records.read_text().splitlines()) if records.exists() else 0
        run_cli("run", "--config", edited_smoke(tmp_path, edit), "--out", str(out))
        return len(records.read_text().splitlines()) - before

    assert trials_run() == 9
    assert trials_run() == 0
    edits = [lambda tree: tree["search_spaces"][0].update(low=1e-4, high=1e-3),
             lambda tree: tree["workload"].update(goal_error=0.5),
             lambda tree: tree["workload"].update(max_steps=50)]
    for edit in edits:
        assert trials_run(edit) == 9
        assert trials_run(edit) == 0
    assert trials_run() == 0


def test_a_record_with_a_wrong_typed_field_runs_again(tmp_path):
    assert run_cli("run", "--config", SMOKE, "--out", str(tmp_path)) == EXIT_OK
    path = tmp_path / "records.jsonl"
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if '"steps_to_goal": 16' in line)
    rows = [first] + [i for i in range(len(lines)) if i != first][:3]
    # a field, then a metaparameter that is a string, a bool, an object
    edits = [{"steps_to_goal": "16"}, {"metaparams": {"eta_bar": "0.1"}},
             {"metaparams": {"eta_bar": True}}, {"metaparams": {"eta_bar": {"value": 0.1}}}]
    edited = list(lines)
    for i, edit in zip(rows, edits):
        edited[i] = json.dumps({**json.loads(lines[i]), **edit}, sort_keys=True)
    path.write_text("\n".join(edited) + "\n")
    assert run_cli("run", "--config", SMOKE, "--out", str(tmp_path)) == EXIT_OK
    after = path.read_text().splitlines()
    assert after[:len(lines)] == edited
    assert sorted(after[len(lines):]) == sorted(lines[i] for i in rows)


def test_including_config_varies_the_study(tmp_path):
    variant = tmp_path / "variant.json"
    variant.write_text(json.dumps({"include": SMOKE, "budget": 2,
                                   "study": {"batch_sizes": [8], "sparsities": [0]}}))
    assert run_cli("run", "--config", str(variant), "--out", str(tmp_path)) == EXIT_OK
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert len(lines) == 2                # one point, budget 2
    assert all(json.loads(line)["batch_size"] == 8 for line in lines)


def test_partial_results_exit_code(tmp_path):
    # goal 0 on overlapping data cannot complete -> exit 3
    bad = tmp_path / "impossible.json"
    base = json.loads(Path(SMOKE).read_text())
    base["workload"]["goal_error"] = 0.0
    base["workload"]["dataset"]["separation"] = 1.0
    base["workload"]["max_steps"] = 64
    base["study"] = {"batch_sizes": [8], "sparsities": [0.0]}
    base["budget"] = 1
    bad.write_text(json.dumps(base))
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path)) == EXIT_PARTIAL


def test_config_error_exit_code(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{\"workload\": {}}")
    assert run_cli("run", "--config", str(broken), "--out", str(tmp_path)) == EXIT_CONFIG
    missing = tmp_path / "nope.json"
    assert run_cli("run", "--config", str(missing), "--out", str(tmp_path)) == EXIT_CONFIG


def space(name, low=0.5, high=0.9):
    return {"name": name, "scale": "linear", "low": low, "high": high}


# Configs whose study points or search spaces no trial could run: each fails
# at load, before the results directory is made.
PLANNED_BEFORE_OUT = {
    "sparsity one": (lambda t: t["study"].update(sparsities=[1.0]),
                     "sparsity must be in [0, 1), got 1.0"),
    "batch size zero": (lambda t: t["study"].update(batch_sizes=[0]),
                        "batch size must be >= 1, got 0"),
    "no eta_bar space": (lambda t: t.update(search_spaces=[space("momentum_coeff")]),
                         "missing 'eta_bar' in search_spaces"),
    "nesterov without momentum_coeff": (lambda t: t["workload"].update(algorithm="nesterov"),
                                        "nesterov needs momentum_coeff"),
    "weight_decay space": (lambda t: t["search_spaces"].append(space("weight_decay", 0.0)),
                           "unknown key 'weight_decay' in search_spaces"),
    "eta_bar space twice": (lambda t: t["search_spaces"].append(space("eta_bar")),
                            "search_spaces must have distinct names, "
                            "got ['eta_bar', 'eta_bar']"),
    "search spaces empty": (lambda t: t.update(search_spaces=[]),
                            "missing 'eta_bar' in search_spaces"),
}

BAD_CONFIGS = {
    "workload unknown": (lambda t: t["workload"].update(max_stepz=50),
                         "unknown key 'max_stepz' in workload"),
    "workload missing": (lambda t: t["workload"].pop("goal_error"),
                         "missing 'goal_error' in workload"),
    "workload non-numeric": (lambda t: t["workload"].update(max_steps="many"),
                             "workload.max_steps must be numeric"),
    "model unknown": (lambda t: t["workload"]["model"].update(width=[8]),
                      "unknown key 'width' in workload.model"),
    "model missing": (lambda t: t["workload"]["model"].pop("classes"),
                      "missing 'classes' in workload.model"),
    "model non-numeric": (lambda t: t["workload"]["model"].update(classes="four"),
                          "workload.model.classes must be numeric"),
    "model init": (lambda t: t["workload"]["model"].update(init="he-uniform"),
                   "unknown key 'init' in workload.model"),
    "workload val_fraction": (lambda t: t["workload"].update(val_fraction=0.2),
                              "unknown key 'val_fraction' in workload"),
    "schedule unknown": (lambda t: t["workload"]["schedule"].update(horizon=5),
                         "unknown key 'horizon' in workload.schedule"),
    "schedule non-numeric": (lambda t: t["workload"]["schedule"].update(
                                 kind="linear-decay", decay_horizon="long"),
                             "workload.schedule.decay_horizon must be numeric"),
    "search space unknown": (lambda t: t["search_spaces"][0].update(step=2),
                             "unknown key 'step' in search_spaces[0]"),
    "search space missing": (lambda t: t["search_spaces"][0].pop("scale"),
                             "missing 'scale' in search_spaces[0]"),
    "search space non-numeric": (lambda t: t["search_spaces"][0].update(low="tiny"),
                                 "search_spaces[0].low must be numeric"),
    "synth unknown": (lambda t: t["workload"]["dataset"].update(seperation=3.0),
                      "unknown key 'seperation' in workload.dataset"),
    "synth missing": (lambda t: t["workload"]["dataset"].pop("dims"),
                      "missing 'dims' in workload.dataset"),
    "synth non-numeric": (lambda t: t["workload"]["dataset"].update(separation="far"),
                          "workload.dataset.separation must be numeric"),
    "synth label_noise": (lambda t: t["workload"]["dataset"].update(label_noise=0.1),
                          "unknown key 'label_noise' in workload.dataset"),
    "label noise negative": (lambda t: t["workload"]["dataset"].update(
                                 train_label_noise=-0.5),
                             "workload.dataset.train_label_noise must be in [0, 1), "
                             "got -0.5"),
    "label noise nan": (lambda t: t["workload"]["dataset"].update(
                            train_label_noise=float("nan")),
                        "workload.dataset.train_label_noise must be in [0, 1), got nan"),
    "idx missing": (lambda t: t["workload"].update(
                        dataset={"kind": "idx", "images": "no/such.idx"}),
                    "missing 'labels' in workload.dataset"),
    "dataset not an object": (lambda t: t["workload"].update(dataset="mnist"),
                              "workload.dataset must be an object, not 'mnist'"),
    "top level unknown": (lambda t: t.update(budgt=1), "unknown key 'budgt' in config"),
    "study unknown": (lambda t: t["study"].update(batch_size=[2]),
                      "unknown key 'batch_size' in study"),
    "budget zero": (lambda t: t.update(budget=0), "budget must be >= 1, got 0"),
    "study empty": (lambda t: t["study"].update(sparsities=[]),
                    "study.sparsities must be non-empty and distinct, got []"),
    "study duplicate": (lambda t: t["study"].update(batch_sizes=[8, 8]),
                        "study.batch_sizes must be non-empty and distinct, got [8, 8]"),
    "batch size fractional": (lambda t: t["study"].update(batch_sizes=[2.5, 8]),
                              "study.batch_sizes must be an integer, not 2.5"),
    "budget fractional": (lambda t: t.update(budget=3.9),
                          "config.budget must be an integer, not 3.9"),
    "max steps infinite": (lambda t: t["workload"].update(max_steps=float("inf")),
                           "workload.max_steps must be numeric, not inf"),
    "widths fractional": (lambda t: t["workload"]["model"].update(widths=[8.5]),
                          "workload.model.widths must be an integer, not 8.5"),
    "widths bool": (lambda t: t["workload"]["model"].update(widths=[True]),
                    "workload.model.widths must be numeric, not True"),
    "input shape fractional": (lambda t: t["workload"]["model"].update(
                                   input_shape=[28, 28.5, 1]),
                               "workload.model.input_shape must be an integer, not 28.5"),
    "budget bool": (lambda t: t.update(budget=True), "config.budget must be numeric, not True"),
    "budget string": (lambda t: t.update(budget="3"), "config.budget must be numeric, not '3'"),
    "batch size bool": (lambda t: t["study"].update(batch_sizes=[True]),
                        "study.batch_sizes must be numeric, not True"),
    "max steps bool": (lambda t: t["workload"].update(max_steps=True),
                       "workload.max_steps must be numeric, not True"),
    "sparsity string": (lambda t: t["study"].update(sparsities=["0.5"]),
                        "study.sparsities must be numeric, not '0.5'"),
    "search space low string": (lambda t: t["search_spaces"][0].update(low="1e-3"),
                                "search_spaces[0].low must be numeric, not '1e-3'"),
    **PLANNED_BEFORE_OUT,
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_key_is_a_config_error_naming_it(tmp_path, capsys, case):
    edit, message = BAD_CONFIGS[case]
    path = edited_smoke(tmp_path, edit)
    assert run_cli("run", "--config", path, "--out", str(tmp_path)) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(PLANNED_BEFORE_OUT))
def test_a_study_no_trial_could_run_fails_before_out_is_made(tmp_path, capsys, case):
    edit, message = PLANNED_BEFORE_OUT[case]
    out = tmp_path / "results"
    assert run_cli("run", "--config", edited_smoke(tmp_path, edit),
                   "--out", str(out)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""             # not even the config echo
    assert not out.exists()


def test_integral_floats_load_as_ints(tmp_path):
    path = edited_smoke(tmp_path, lambda t: (t.update(budget=3.0),
                                             t["study"].update(batch_sizes=[2.0, 8]),
                                             t["workload"]["model"].update(widths=[8.0])))
    cfg = load_config(path)
    assert (cfg.budget, cfg.batch_sizes) == (3, [2, 8])
    assert cfg.workload.model_spec.widths == (8,)
    assert all(type(v) is int
               for v in [cfg.budget, *cfg.batch_sizes, *cfg.workload.model_spec.widths])


@pytest.mark.parametrize("name", ["smoke.json", "scaling_study.json", "full/mnist.json",
                                  "full/fashion_mnist.json", "full/cifar10.json"])
def test_shipped_config_loads_under_the_strict_loader(name):
    assert isinstance(load_config(CONFIGS / name), StudyConfig)


def test_missing_dataset_file_exit_code(tmp_path, capsys):
    cfg = json.loads(Path(SMOKE).read_text())
    cfg["workload"]["dataset"] = {"kind": "idx", "images": "no/such.idx",
                                  "labels": "no/such-labels.idx"}
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path)) == EXIT_IO
    assert "data_root" in capsys.readouterr().err


def test_malformed_idx_file_is_io_error_naming_the_byte_offset(tmp_path, capsys):
    # header says 10 images of 28x28 (7840 bytes); the payload holds 100
    (tmp_path / "images.idx").write_bytes(struct.pack(">4I", 0x803, 10, 28, 28)
                                          + bytes(100))
    (tmp_path / "labels.idx").write_bytes(struct.pack(">2I", 0x801, 10) + bytes(10))
    path = edited_smoke(tmp_path, lambda t: (
        t.update(data_root=str(tmp_path)),
        t["workload"].update(dataset={"kind": "idx", "images": "images.idx",
                                      "labels": "labels.idx"}),
        t["workload"]["model"].update(input_shape=[28, 28, 1])))
    assert run_cli("run", "--config", path, "--out", str(tmp_path)) == EXIT_IO
    assert "expected 7840 bytes from byte 16, got 100" in capsys.readouterr().err


def test_run_echoes_every_field_of_the_loaded_study(tmp_path, capsys):
    path = edited_smoke(tmp_path, lambda t: (
        t.update(budget=1, study={"batch_sizes": [8], "sparsities": [0.0]}),
        t["workload"]["dataset"].update(train_label_noise=0.1)))
    assert run_cli("run", "--config", path, "--out", str(tmp_path)) == EXIT_OK
    echo = json.loads(capsys.readouterr().out.splitlines()[0])
    assert echo == json.loads(json.dumps(asdict(load_config(path))))
    assert echo["workload"]["data_seed"] == 5
    assert echo["workload"]["model_spec"]["seed"] == 3
    assert echo["workload"]["dataset"]["train_label_noise"] == 0.1


def write_exact_summary(path, c1=1000.0, c2=50.0, sparsities=(0.0,)):
    lines = ["# sparselab-summary v1 workload=fixture goal=0.1 budget=20",
             "B,s,K_star,eta_star,momentum_star,n_complete,n_incomplete,n_infeasible"]
    for s in sparsities:
        for b in (2, 4, 8, 20):          # c1/b + c2 integral at these sizes
            k = int(c1 / b + c2)
            lines.append(f"{b},{s},{k},0.01,,20,0,0")
    path.write_text("\n".join(lines) + "\n")


def test_fit_recovers_exact_fixture(tmp_path, capsys):
    write_exact_summary(tmp_path / "summary.csv")
    assert run_cli("fit", "--out", str(tmp_path)) == EXIT_OK
    fits = (tmp_path / "fits.csv").read_text().splitlines()
    assert fits[0].startswith("# sparselab-fits v2")
    assert fits[1] == "B,s,K_star,K_hat,c1,c2,residual"
    row = fits[2].split(",")
    assert float(row[4]) == pytest.approx(1000.0, rel=1e-6)
    assert float(row[5]) == pytest.approx(50.0, rel=1e-6)
    assert float(row[6]) < 1e-9
    assert "sparsity 0: c1=1000 c2=50 " in capsys.readouterr().out


@pytest.mark.parametrize("command", ["ratios", "report"])
def test_fits_table_of_version_1_is_io_error(tmp_path, capsys, command):
    write_table(tmp_path / THEORY_FILE, "theory",
                [{"s": s, "L_avg": 2.0, "beta": 1.5, "delta": 1.0, "eta_bar": 0.05,
                  "batch_size": 8, "steps": 100, "stride": 50} for s in (0.0, 0.5)])
    (tmp_path / "fits.csv").write_text(
        "# sparselab-fits v1\n"
        "B,s,K_star,K_hat,form,c1,c2,residual\n"
        "2,0.0,550,550.0000,fixed-lr,1000,50,0.0125\n")
    assert run_cli(command, "--out", str(tmp_path)) == EXIT_IO
    assert "fits.csv:1: expected '# sparselab-fits v2'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ratios", "report"])
def test_fits_table_with_an_empty_c1_is_io_error(tmp_path, capsys, command):
    write_table(tmp_path / THEORY_FILE, "theory",
                [{"s": s, "L_avg": 2.0, "beta": 1.5, "delta": 1.0, "eta_bar": 0.05,
                  "batch_size": 8, "steps": 100, "stride": 50} for s in (0.0, 0.5)])
    (tmp_path / "fits.csv").write_text(
        "# sparselab-fits v2\n"
        "B,s,K_star,K_hat,c1,c2,residual\n"
        "2,0.0,550,550.0000,,50,0.0125\n")
    assert run_cli(command, "--out", str(tmp_path)) == EXIT_IO
    assert "fits.csv:3: empty cell in column c1" in capsys.readouterr().err


def test_fit_skips_sparsity_with_single_batch_size(tmp_path, capsys):
    path = tmp_path / "summary.csv"
    path.write_text(
        "# sparselab-summary v1\n"
        "B,s,K_star,eta_star,momentum_star,n_complete,n_incomplete,n_infeasible\n"
        "8,0.0,100,0.01,,5,0,0\n"
        "16,0.0,60,0.01,,5,0,0\n"
        "8,0.9,400,0.01,,5,0,0\n")
    assert run_cli("fit", "--out", str(tmp_path)) == EXIT_OK
    assert "skip: sparsity 0.9" in capsys.readouterr().out


def test_fit_on_summary_with_short_row_is_io_error(tmp_path, capsys):
    path = tmp_path / "summary.csv"
    write_exact_summary(path)
    lines = path.read_text().splitlines()
    lines[3] = "4,0.0,300"                # truncated row at line 4
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("fit", "--out", str(tmp_path)) == EXIT_IO
    assert "summary.csv:4:" in capsys.readouterr().err
    assert not (tmp_path / "fits.csv").exists()


def test_fit_without_summary_is_io_error(tmp_path):
    assert run_cli("fit", "--out", str(tmp_path / "empty")) == EXIT_IO


def test_report_on_empty_directory_lists_missing_inputs(tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert run_cli("report", "--out", str(out_dir)) == EXIT_OK
    text = (out_dir / "report.md").read_text()
    assert "Sections rendered: 0" in text
    for name in ("summary.csv", "fits.csv", "theory.csv", "ratios.csv"):
        assert name in text


def test_lipschitz_and_ratios_pipeline(tmp_path):
    cfg = json.loads(Path(SMOKE).read_text())
    cfg["study"]["sparsities"] = [0.0, 0.5]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "results"
    assert run_cli("lipschitz", "--config", str(path), "--out", str(out),
                   "--stride", "40", "--steps", "120", "--batch-size", "16",
                   "--eta", "0.05") == EXIT_OK
    traces = (out / "traces.csv").read_text().splitlines()
    assert traces[0].startswith("# sparselab-traces v1")
    assert len(traces) == 2 + 2 * 3       # two sparsities, k = 0, 40, 80
    theory = (out / "theory.csv").read_text().splitlines()
    assert len(theory) == 2 + 2

    assert run_cli("ratios", "--out", str(out)) == EXIT_OK
    ratios = (out / "ratios.csv").read_text().splitlines()
    assert ratios[0].startswith("# sparselab-ratios v1")
    assert len(ratios) == 3               # header, columns, one non-dense row
    row = ratios[2].split(",")
    assert float(row[0]) == 0.5


def test_lipschitz_skips_a_diverged_sparsity(tmp_path, capsys):
    out = tmp_path / "results"
    out.mkdir()
    (out / "summary.csv").write_text(
        "# sparselab-summary v1\n"
        "B,s,K_star,eta_star,momentum_star,n_complete,n_incomplete,n_infeasible\n"
        "16,0.0,100,0.05,,3,0,0\n"
        "16,0.5,100,1000000.0,,3,0,0\n")
    path = edited_smoke(tmp_path, lambda t: t["study"].update(sparsities=[0.0, 0.5]))
    assert run_cli("lipschitz", "--config", path, "--out", str(out),
                   "--stride", "50", "--steps", "200") == EXIT_PARTIAL
    assert "skip: sparsity 0.5: training diverged at step" in capsys.readouterr().out
    assert [r["s"] for r in read_table(out / "theory.csv", "theory")] == [0.0]
    assert {r["s"] for r in read_table(out / "traces.csv", "traces")} == {0.0}


def test_lipschitz_skips_a_sparsity_without_a_valid_estimate(tmp_path, capsys,
                                                              monkeypatch):
    def zero_step(grad_fn, w_k, w_k1, g0):
        raise DegenerateStepError("zero parameter displacement")
    monkeypatch.setattr(analysis, "estimate_lipschitz", zero_step)
    assert run_cli("lipschitz", "--config", SMOKE, "--out", str(tmp_path),
                   "--stride", "50", "--steps", "100", "--eta", "0.05") == EXIT_PARTIAL
    assert ("skip: sparsity 0: no valid smoothness samples in trace"
            in capsys.readouterr().out)
    assert read_table(tmp_path / "theory.csv", "theory") == []


def test_lipschitz_traces_with_the_summary_momentum(tmp_path, capsys, monkeypatch):
    path = edited_smoke(tmp_path, lambda t: (
        t["workload"].update(algorithm="momentum"),
        t["study"].update(batch_sizes=[8]),
        t["search_spaces"].append({"name": "momentum_coeff", "scale": "one-minus-log10",
                                   "low": 0.5, "high": 0.99})))
    out = tmp_path / "results"
    assert run_cli("run", "--config", path, "--out", str(out)) == EXIT_OK
    [best] = read_table(out / "summary.csv", "summary")
    assert best["momentum_star"] > 0

    traced = []

    def spy(workload, point, metaparams, **kwargs):
        traced.append(metaparams)
        raise DegenerateStepError("not traced")
    monkeypatch.setattr(analysis, "trace_smoothness", spy)
    assert run_cli("lipschitz", "--config", path, "--out", str(out),
                   "--batch-size", "8") == EXIT_PARTIAL
    assert traced == [{"eta_bar": best["eta_star"], "momentum_coeff": best["momentum_star"]}]

    assert run_cli("lipschitz", "--config", path, "--out", str(tmp_path / "empty"),
                   "--eta", "0.05") == EXIT_CONFIG
    assert ("momentum needs momentum_coeff: give --eta/--momentum or a summary row "
            "for B=16, s=0.0") in capsys.readouterr().err
    assert len(traced) == 1


def test_lipschitz_stride_zero_is_a_config_error(tmp_path, capsys):
    assert run_cli("lipschitz", "--config", SMOKE, "--out", str(tmp_path),
                   "--stride", "0", "--steps", "40", "--eta", "0.05") == EXIT_CONFIG
    assert "stride must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["50", "40"])
def test_lipschitz_steps_within_one_stride_is_a_config_error(tmp_path, capsys, steps):
    # one stride or less traces a single step, which has no loss decrease
    assert run_cli("lipschitz", "--config", SMOKE, "--out", str(tmp_path),
                   "--stride", "50", "--steps", steps, "--eta", "0.05") == EXIT_CONFIG
    assert f"--steps ({steps}) must exceed --stride (50)" in capsys.readouterr().err
    assert not (tmp_path / "traces.csv").exists()


def test_ratios_without_theory_is_io_error(tmp_path):
    assert run_cli("ratios", "--out", str(tmp_path)) == EXIT_IO


def test_ratios_compares_with_the_fitted_c1_ratio(tmp_path):
    write_table(tmp_path / THEORY_FILE, "theory",
                [{"s": s, "L_avg": 2.0, "beta": 1.5, "delta": 1.0 + s, "eta_bar": 0.05,
                  "batch_size": 8, "steps": 100, "stride": 50} for s in (0.0, 0.5, 0.9)])
    write_fits(tmp_path / FITS_FILE,
               {0.0: analysis.ScalingFit(1000.0, 50.0, 0.0, ((2, 550), (8, 175))),
                0.5: analysis.ScalingFit(2500.0, 60.0, 0.0, ((2, 1310), (8, 372)))})
    assert run_cli("ratios", "--out", str(tmp_path)) == EXIT_OK
    rows = read_table(tmp_path / "ratios.csv", "ratios")
    assert [(r["s"], r["c1_ratio"], r["c1_ratio_fitted"]) for r in rows] == [
        (0.5, 1.5, 2.5), (0.9, 1.9, None)]


def test_ratios_with_a_zero_dense_constant_is_partial(tmp_path, capsys):
    # a one-step trace has no loss decrease to measure, so delta is 0
    write_table(tmp_path / THEORY_FILE, "theory",
                [{"s": s, "L_avg": 2.0, "beta": 1.5, "delta": 0.0, "eta_bar": 0.05,
                  "batch_size": 8, "steps": 50, "stride": 50} for s in (0.0, 0.5)])
    assert run_cli("ratios", "--out", str(tmp_path)) == EXIT_PARTIAL
    assert "dense delta is zero; ratios are undefined" in capsys.readouterr().err
    assert not (tmp_path / "ratios.csv").exists()


def test_report_renders_all_sections_after_pipeline(tmp_path, capsys):
    out = tmp_path / "results"
    assert run_cli("run", "--config", SMOKE, "--out", str(out)) == EXIT_OK
    assert run_cli("fit", "--out", str(out)) == EXIT_OK
    cfg = json.loads(Path(SMOKE).read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("lipschitz", "--config", str(path), "--out", str(out),
                   "--stride", "40", "--steps", "80", "--eta", "0.05") == EXIT_OK
    assert run_cli("report", "--out", str(out)) == EXIT_OK
    text = (out / "report.md").read_text()
    assert "## Scaling" in text and "## Scaling-law fits" in text
    assert "## Smoothness" in text
    assert "Missing inputs: ratios.csv" in text


def test_study_is_stated_only_by_the_config_file(capsys):
    for argv in (["run", "--config", SMOKE, "--seed", "2"],
                 ["run", "--config", SMOKE, "--budget", "2"],
                 ["run", "--config", SMOKE, "--grid-override", "B=8"],
                 ["lipschitz", "--config", SMOKE, "--seed", "2"],
                 ["lipschitz", "--config", SMOKE, "--grid-override", "s=0"],
                 ["fit", "--summary", "summary.csv"],
                 ["fit", "--form", "decay"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_normalized_curve_starts_at_one(tmp_path):
    write_exact_summary(tmp_path / "summary.csv")
    assert run_cli("report", "--out", str(tmp_path)) == EXIT_OK
    text = (tmp_path / "report.md").read_text()
    first_row = next(l for l in text.splitlines() if l.startswith("| 2 |"))
    assert "1.0000" in first_row


def test_config_include_mechanism(tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({
        "budget": 7,
        "search_spaces": [{"name": "eta_bar", "scale": "log10",
                           "low": 0.01, "high": 0.1}],
        "study": {"batch_sizes": [4], "sparsities": [0.0]},
    }))
    child = tmp_path / "child.json"
    smoke = json.loads(Path(SMOKE).read_text())
    child.write_text(json.dumps({
        "include": "base.json",
        "workload": smoke["workload"],
        "study": {"batch_sizes": [4, 8]},     # overrides the included list
    }))
    cfg = load_config(child)
    assert cfg.budget == 7
    assert cfg.batch_sizes == [4, 8]
    assert cfg.sparsities == [0.0]            # inherited from the include
