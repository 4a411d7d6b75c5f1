"""Command-line surface: argument handling, exit codes, file outputs."""

import json

import numpy as np
import pytest

from reynet.checkpoint import ModelBundle, save_checkpoint
from reynet.cli import main
from reynet.data import TASKS, load_dataset
from reynet.models import build_equivariant, default_reduced_spec
from reynet.train import METRICS_HEADER, dataset_seed, read_metrics

HEADER_SIZE = 32


def run(*argv):
    return main([str(a) for a in argv])


def test_gen_writes_a_loadable_dataset(tmp_path, capsys):
    out = tmp_path / "sym.bin"
    assert run("gen", "--task", "symmetry", "--n", "3", "--count", "20", "--out", out) == 0
    text = capsys.readouterr().out
    assert "sym.bin" in text and "seed" in text
    ds = load_dataset(out)
    assert ds.task.name == "symmetry" and ds.n == 3 and ds.count == 20
    assert ds.seed == dataset_seed(TASKS["symmetry"], 3, "train")
    assert out.stat().st_size == HEADER_SIZE + 8 * 20 * (9 + 9)


def test_gen_split_and_seed_flags(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    run("gen", "--task", "trace", "--n", "4", "--count", "5", "--out", a, "--split", "test")
    run("gen", "--task", "trace", "--n", "4", "--count", "5", "--out", b, "--seed", "77")
    assert load_dataset(a).seed == dataset_seed(TASKS["trace"], 4, "test")
    assert load_dataset(b).seed == 77


def test_train_writes_metrics_and_checkpoints(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    ckpts = tmp_path / "ckpts"
    code = run(
        "train", "--task", "diagonal", "--model", "red-reynet", "--n", "3",
        "--seeds", "0,1", "--epochs", "2", "--train-count", "30", "--test-count", "20",
        "--batch", "10", "--widths", "6", "--metrics", metrics, "--checkpoint-dir", ckpts,
    )
    assert code == 0
    assert "mean test mse" in capsys.readouterr().out
    rows = read_metrics(metrics)
    assert len(rows) == 4  # train+test per seed
    assert {r["seed"] for r in rows} == {"0", "1"}
    saved = sorted(p.name for p in ckpts.iterdir())
    assert saved == [
        "diagonal_red-reynet_mse_n3_seed0.json",
        "diagonal_red-reynet_mse_n3_seed1.json",
    ]
    doc = json.loads((ckpts / saved[0]).read_text())
    assert doc["format"] == "reynet-checkpoint"


def test_train_skip_existing_short_circuits(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    args = (
        "train", "--task", "diagonal", "--model", "red-reynet", "--n", "3",
        "--seeds", "0", "--epochs", "1", "--train-count", "20", "--test-count", "10",
        "--batch", "10", "--widths", "4", "--metrics", metrics, "--skip-existing",
    )
    assert run(*args) == 0
    first = metrics.read_text()
    capsys.readouterr()
    assert run(*args) == 0
    assert "nothing to do" in capsys.readouterr().out
    assert metrics.read_text() == first


def test_train_skip_existing_reruns_other_epochs(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    args = (
        "train", "--task", "diagonal", "--model", "red-reynet", "--n", "3",
        "--seeds", "0", "--train-count", "20", "--test-count", "10",
        "--batch", "10", "--widths", "4", "--metrics", metrics, "--skip-existing",
    )
    assert run(*args, "--epochs", "1") == 0
    capsys.readouterr()
    assert run(*args, "--epochs", "2") == 0
    assert "nothing to do" not in capsys.readouterr().out
    assert [r["epoch"] for r in read_metrics(metrics)] == ["1", "1", "2", "2"]
    assert run(*args, "--epochs", "2") == 0
    assert "nothing to do" in capsys.readouterr().out


def test_train_maron_skip_prints_note_and_no_rows(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    code = run(
        "train", "--task", "symmetry", "--model", "maron-skip", "--n", "3",
        "--seeds", "0", "--epochs", "1", "--metrics", metrics,
    )
    assert code == 0
    assert "maron" in capsys.readouterr().out.lower()
    assert not metrics.exists()


def test_train_usage_errors_exit_2(tmp_path):
    assert run(
        "train", "--task", "symmetry", "--model", "fnn", "--n", "3",
        "--loss", "corner", "--metrics", tmp_path / "m.csv",
    ) == 2


def _train_small(tmp_path, model="red-reynet"):
    ckpts = tmp_path / "ckpts"
    code = run(
        "train", "--task", "symmetry", "--model", model, "--n", "3",
        "--seeds", "0", "--epochs", "1", "--train-count", "20", "--test-count", "10",
        "--batch", "10", "--widths", "4", "--metrics", tmp_path / "m.csv",
        "--checkpoint-dir", ckpts,
    )
    assert code == 0
    return ckpts / f"symmetry_{model}_mse_n3_seed0.json"


def test_eval_on_generated_data(tmp_path, capsys):
    ckpt = _train_small(tmp_path)
    data = tmp_path / "eval.bin"
    run("gen", "--task", "symmetry", "--n", "3", "--count", "15", "--out", data, "--split", "test")
    capsys.readouterr()
    assert run("eval", "--checkpoint", ckpt, "--data", data) == 0
    assert "mse" in capsys.readouterr().out
    # reduced checkpoints can be scored on a larger board directly
    assert run("eval", "--checkpoint", ckpt, "--n", "5", "--count", "10") == 0


def test_eval_task_mismatch_is_a_usage_error(tmp_path):
    ckpt = _train_small(tmp_path)
    other = tmp_path / "diag.bin"
    run("gen", "--task", "diagonal", "--n", "3", "--count", "5", "--out", other)
    assert run("eval", "--checkpoint", ckpt, "--data", other) == 2


def test_eval_missing_checkpoint_exits_1(tmp_path):
    assert run("eval", "--checkpoint", tmp_path / "ghost.json", "--n", "3") == 1


def _first_mlp(doc):
    return doc["model"]["components"][0]["mlp"]


MALFORMED = {
    "component deleted": lambda doc: doc["model"]["components"].pop(),
    "component doubled": lambda doc: doc["model"]["components"].append(
        doc["model"]["components"][0]
    ),
    "kind missing": lambda doc: doc.pop("kind"),
    "model not an object": lambda doc: doc.update(model=[]),
    "n a string": lambda doc: doc["model"].update(n="3"),
    "short weight list": lambda doc: _first_mlp(doc)["weights"][0].pop(),
    "weight not a number": lambda doc: _first_mlp(doc)["weights"][0].__setitem__(0, "x"),
    "bias missing": lambda doc: _first_mlp(doc)["biases"].pop(),
    "input width": lambda doc: _first_mlp(doc)["dims"].__setitem__(0, 5),
    "output width": lambda doc: doc["model"].update(channels_out=2),
    "divisor missing": lambda doc: doc["model"]["depth_divisors"].pop("2"),
    "coordinate beyond n": lambda doc: doc["model"]["reduced"].update(coords=[[1, 4]]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_exits_1_with_one_line(tmp_path, capsys, case):
    path = tmp_path / "model.json"
    model = build_equivariant(0, 3, 2, 1, 2, 1, (4,), default_reduced_spec(2))
    save_checkpoint(path, ModelBundle("red-reynet", "symmetry", "mse", 3, 0, {}, model))
    doc = json.loads(path.read_text())
    MALFORMED[case](doc)
    path.write_text(json.dumps(doc))
    assert run("eval", "--checkpoint", path, "--n", "3", "--count", "5") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("reynet: error: ")
    assert str(path) in err and "Traceback" not in err


def test_sweep_walks_sizes(tmp_path, capsys):
    ckpt = _train_small(tmp_path)
    capsys.readouterr()
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--checkpoint", ckpt, "--n-min", "3", "--n-max", "5",
               "--count", "10", "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n_test,mse"
    assert [int(l.split(",")[0]) for l in lines[1:]] == [3, 4, 5]
    for line in lines[1:]:
        assert np.isfinite(float(line.split(",")[1]))


def test_sweep_rejects_unreduced_checkpoints(tmp_path):
    ckpt = _train_small(tmp_path, model="fnn")
    assert run("sweep", "--checkpoint", ckpt, "--n-min", "3", "--n-max", "4",
               "--count", "5", "--out", tmp_path / "s.csv") == 2


@pytest.mark.parametrize("step", ["0", "-1"])
def test_sweep_rejects_a_step_below_one(tmp_path, capsys, step):
    ckpt = _train_small(tmp_path)
    capsys.readouterr()
    out = tmp_path / "s.csv"
    assert run("sweep", "--checkpoint", ckpt, "--n-min", "3", "--n-max", "5",
               "--step", step, "--count", "5", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--step" in err
    assert not out.exists()


def test_count_below_one_is_a_usage_error(tmp_path, capsys):
    ckpt = _train_small(tmp_path)
    capsys.readouterr()
    commands = [
        ("gen", "--task", "symmetry", "--n", "3", "--out", tmp_path / "d.bin"),
        ("eval", "--checkpoint", ckpt, "--n", "3"),
        ("sweep", "--checkpoint", ckpt, "--n-min", "3", "--n-max", "4"),
    ]
    for command in commands:
        assert run(*command, "--count", "0") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--count" in err
    assert not (tmp_path / "d.bin").exists()


def test_diverging_training_exits_1_with_one_line(tmp_path, capsys):
    metrics = tmp_path / "m.csv"
    code = run(
        "train", "--task", "symmetry", "--model", "red-reynet", "--n", "3",
        "--seeds", "2", "--epochs", "2", "--train-count", "20", "--test-count", "10",
        "--batch", "10", "--widths", "4", "--lr", "1e100", "--metrics", metrics,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "seed 2" in err and "epoch 0" in err
    assert not metrics.exists()


def test_finite_blow_up_exits_1_with_one_line(tmp_path, capsys):
    metrics = tmp_path / "m.csv"
    code = run(
        "train", "--task", "symmetry", "--model", "red-reynet", "--n", "3",
        "--seeds", "0", "--epochs", "3", "--train-count", "30", "--test-count", "30",
        "--batch", "10", "--widths", "6", "--lr", "1e10", "--metrics", metrics,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "training diverged: seed 0" in err
    assert not metrics.exists()


def test_verify_single_suite_passes(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run("verify", "--suite", "bijection", "--max-n", "4", "--out", out) == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text and "bijection" in text
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "suite,check,gap,passed"
    assert len(lines) > 1


def test_verify_guard_is_a_usage_error():
    assert run("verify", "--suite", "bijection", "--max-n", "50") == 2
    assert run("verify", "--suite", "bijection", "--max-n", "1") == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2
    capsys.readouterr()


def test_table_resumes_from_metrics(tmp_path, capsys):
    outdir = tmp_path / "tables"
    args = (
        "table", "--which", "table2", "--out-dir", outdir,
        "--ns", "3", "--seeds", "0", "--epochs", "1",
        "--train-count", "20", "--test-count", "10", "--batch", "10",
    )
    assert run(*args) == 0
    metrics = outdir / "metrics.csv"
    first_rows = read_metrics(metrics)
    assert first_rows, "table run must log metrics"
    table2 = (outdir / "table2.csv").read_text().strip().splitlines()
    assert table2[0] == "task,model,n3"
    assert table2[1].startswith("symmetry,red-reynet[mse],")
    assert table2[2].startswith("symmetry,red-reynet[corner],")
    capsys.readouterr()

    # rerun: every cell already recorded, no new rows, table rebuilt in place
    assert run(*args) == 0
    out = capsys.readouterr().out
    assert "skip" in out
    assert read_metrics(metrics) == first_rows


def test_table_reruns_cells_trained_for_other_epochs(tmp_path, capsys):
    outdir = tmp_path / "tables"
    args = (
        "table", "--which", "table2", "--out-dir", outdir, "--ns", "3", "--seeds", "0",
        "--train-count", "20", "--test-count", "10", "--batch", "10",
    )
    assert run(*args, "--epochs", "1") == 0
    capsys.readouterr()
    assert run(*args, "--epochs", "2") == 0
    out = capsys.readouterr().out
    assert "skip" not in out and out.count("run symmetry") == 2
    rows = read_metrics(outdir / "metrics.csv")
    fresh = {
        r["loss"]: float(r["mse"]) for r in rows if r["split"] == "test" and r["epoch"] == "2"
    }
    table2 = (outdir / "table2.csv").read_text().strip().splitlines()
    assert table2[1] == f"symmetry,red-reynet[mse],{fresh['mse']:.3e}"
    assert table2[2] == f"symmetry,red-reynet[corner],{fresh['corner']:.3e}"


def test_metrics_header_matches_contract(tmp_path):
    outdir = tmp_path / "tables"
    run(
        "table", "--which", "table2", "--out-dir", outdir,
        "--ns", "3", "--seeds", "0", "--epochs", "1",
        "--train-count", "20", "--test-count", "10", "--batch", "10",
    )
    head = (outdir / "metrics.csv").read_text().splitlines()[0]
    assert head == ",".join(METRICS_HEADER)
