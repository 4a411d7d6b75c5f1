"""Command line interface.

    reynet gen     write a synthetic dataset file
    reynet train   train one config (task, model, loss, size) over seeds
    reynet eval    score a checkpoint on a dataset, full MSE
    reynet sweep   evaluate one reduced checkpoint across input sizes
    reynet verify  run the brute-force verification suites
    reynet table   reproduce the benchmark grids, resumably

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
REYNET_THREADS caps how many training processes run in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import TASKS, DatasetFormatError, generate, load_dataset, save_dataset
from .files import atomic_write, read_json
from .train import (
    LOSS_CHOICES,
    MARON_SKIP_NOTE,
    MODEL_CHOICES,
    MetricsRecord,
    RunConfig,
    append_metrics,
    config_rows,
    dataset_seed,
    evaluate_mse,
    model_for_eval,
    model_kind_for,
    read_metrics,
    run_config,
    run_hyper,
    validate_config,
)
from .verify import SUITE_NAMES, run_suites

TABLE_TASKS = ("symmetry", "diagonal", "power", "trace")
TABLE_NS = (3, 5, 10, 20)


class UsageError(Exception):
    """Arguments that parse but do not make sense together."""


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _run_config(args, **cell) -> RunConfig:
    """The validated RunConfig of the parsed flags; `cell` sets the fields a
    table cell fixes, and fields without a flag keep their defaults."""
    flags = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    cfg = RunConfig(**{**flags, **cell})
    try:
        validate_config(cfg)
    except ValueError as err:
        raise UsageError(str(err))
    return cfg


def _check_count(args) -> None:
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")


def cmd_gen(args) -> int:
    _check_count(args)
    task = TASKS[args.task]
    seed = dataset_seed(task, args.n, args.split) if args.seed is None else args.seed
    ds = generate(task, args.n, args.count, seed)
    save_dataset(args.out, ds)
    size = os.path.getsize(args.out)
    print(f"wrote {args.out}: task={task.name} n={ds.n} count={ds.count} seed={ds.seed} ({size} bytes)")
    return 0


def _label(cfg: RunConfig) -> str:
    return f"{cfg.task} {cfg.model} loss={cfg.loss} n={cfg.n} epochs={cfg.epochs}"


def _resume(cfgs: list[RunConfig], metrics: str | None, skip_existing: bool):
    """Train each config's seeds and append their rows to `metrics`.

    With `skip_existing`, seeds whose test row the file already holds are
    left out.  The hyperparameters of every cell that gets rows are recorded
    in the sidecar `<metrics>.hyper.json`; a config whose cell it records
    with other values is a usage error, raised before anything trains.
    Returns the new records and bundles.
    """
    sidecar = f"{metrics}.hyper.json"
    done = read_metrics(metrics) if metrics and os.path.exists(metrics) else []
    recorded = read_json(sidecar) if metrics and os.path.exists(sidecar) else {}
    if not isinstance(recorded, dict) or not all(isinstance(v, dict) for v in recorded.values()):
        raise ValueError(f"{sidecar}: expected an object of hyperparameters per cell")
    for cfg in cfgs:
        old, new = recorded.get(_label(cfg)), run_hyper(cfg)
        if old is not None and old != new:
            diff = ", ".join(
                f"{k} {old.get(k)!r} (this run {v!r})" for k, v in new.items() if old.get(k) != v
            )
            raise UsageError(f"{sidecar}: {_label(cfg)} was recorded with {diff}")
    records, bundles = [], []
    for cfg in cfgs:
        trained = {r.seed for r in config_rows(cfg, done)} if skip_existing else set()
        seeds = tuple(s for s in cfg.seeds if s not in trained)
        if not seeds:
            print(f"skip {_label(cfg)}: all requested seeds already recorded; nothing to do")
            continue
        print(f"run {_label(cfg)} seeds={list(seeds)}")
        new_records, new_bundles = run_config(replace(cfg, seeds=seeds))
        if metrics:
            append_metrics(metrics, new_records)
            recorded[_label(cfg)] = run_hyper(cfg)
            with atomic_write(sidecar) as fh:
                json.dump(recorded, fh, indent=1)
                fh.write("\n")
        done += new_records
        records += new_records
        bundles += new_bundles
    return records, bundles


def cmd_train(args) -> int:
    if args.model == "maron-skip":
        print(MARON_SKIP_NOTE)
        return 0
    records, bundles = _resume([_run_config(args)], args.metrics, args.skip_existing)
    if args.checkpoint_dir:
        os.makedirs(args.checkpoint_dir, exist_ok=True)
        for bundle in bundles:
            name = f"{bundle.task}_{bundle.kind}_{bundle.loss}_n{bundle.n}_seed{bundle.seed}.json"
            save_checkpoint(os.path.join(args.checkpoint_dir, name), bundle)
    test = [r for r in records if r.split == "test"]
    for rec in test:
        print(f"{rec.task} {rec.model} loss={rec.loss} n={rec.n_train} seed={rec.seed} test mse={rec.mse:.6e}")
    if test:
        print(f"mean test mse over {len(test)} seeds: {np.mean([r.mse for r in test]):.6e}")
    return 0


def _eval_dataset(args, bundle):
    if args.data:
        ds = load_dataset(args.data)
        if ds.task.name != bundle.task:
            raise UsageError(
                f"checkpoint was trained on {bundle.task!r} but the dataset holds {ds.task.name!r}"
            )
        return ds
    if args.n is None:
        raise UsageError("eval needs either --data or --n (with optional --count/--seed)")
    task = TASKS[bundle.task]
    seed = dataset_seed(task, args.n, "test") if args.seed is None else args.seed
    return generate(task, args.n, args.count, seed)


def cmd_eval(args) -> int:
    _check_count(args)
    bundle = load_checkpoint(args.checkpoint)
    ds = _eval_dataset(args, bundle)
    try:
        model = model_for_eval(bundle, ds.n)
    except ValueError as err:
        raise UsageError(str(err))
    mse = evaluate_mse(model, ds)
    print(
        f"{bundle.task} {bundle.kind} loss={bundle.loss} n_train={bundle.n} "
        f"n_test={ds.n} seed={bundle.seed} mse={mse:.6e}"
    )
    if args.metrics:
        rec = MetricsRecord(
            bundle.task,
            bundle.kind,
            bundle.loss,
            bundle.n,
            ds.n,
            bundle.seed,
            int(bundle.hyper.get("epochs", 0)),
            "eval",
            mse,
        )
        append_metrics(args.metrics, [rec])
    return 0


def cmd_sweep(args) -> int:
    _check_count(args)
    if args.step < 1:
        raise UsageError(f"--step must be at least 1, got {args.step}")
    bundle = load_checkpoint(args.checkpoint)
    if bundle.kind not in ("red-reynet", "inv-red-reynet"):
        raise UsageError(f"sweep needs a reduced model, got kind {bundle.kind!r}")
    if args.n_min > args.n_max or args.n_min < 2:
        raise UsageError(f"bad size range {args.n_min}..{args.n_max}")
    task = TASKS[bundle.task]
    rows = []
    for n in range(args.n_min, args.n_max + 1, args.step):
        ds = generate(task, n, args.count, dataset_seed(task, n, "test"))
        mse = evaluate_mse(model_for_eval(bundle, n), ds)
        rows.append((n, mse))
        print(f"n_test={n} mse={mse:.6e}")
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write("n_test,mse\n")
            for n, mse in rows:
                fh.write(f"{n},{mse!r}\n")
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    try:
        results = run_suites(args.suite, max_n=args.max_n, trials=args.trials, seed=args.seed)
    except ValueError as err:
        raise UsageError(str(err))
    all_ok = True
    for res in results:
        for check in res.checks:
            mark = "PASS" if check.passed else "FAIL"
            print(f"  [{mark}] {res.suite}: {check.name} (gap={check.gap:.3e})")
        mark = "PASS" if res.passed else "FAIL"
        print(f"suite {res.suite}: {mark} ({len(res.checks)} checks, max gap {res.max_gap:.3e})")
        all_ok = all_ok and res.passed
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write("suite,check,gap,passed\n")
            for res in results:
                for check in res.checks:
                    fh.write(f"{res.suite},{check.name},{check.gap!r},{int(check.passed)}\n")
        print(f"wrote {args.out}")
    return 0 if all_ok else 1


def _grid(args) -> list[tuple[str, str, str, str]]:
    """The (task, model, loss, label) rows of a table; each is trained at every
    --ns size and printed as one line of the wide CSV."""
    if args.which == "table1":
        models = ("fnn", "reynet", "red-reynet")
        return [(task, model, "mse", model) for task in args.tasks for model in models]
    return [("symmetry", "red-reynet", loss, f"red-reynet[{loss}]") for loss in ("mse", "corner")]


def cmd_table(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    metrics = os.path.join(args.out_dir, "metrics.csv")
    grid = [
        (f"{task},{label}", [_run_config(args, task=task, model=m, loss=loss, n=n) for n in args.ns])
        for task, m, loss, label in _grid(args)
    ]
    _resume([cfg for _, cfgs in grid for cfg in cfgs], metrics, skip_existing=True)
    records = read_metrics(metrics) if os.path.exists(metrics) else []
    lines = ["task,model," + ",".join(f"n{n}" for n in args.ns)]
    for row, cfgs in grid:
        mses = [[r.mse for r in config_rows(cfg, records)] for cfg in cfgs]
        lines.append(row + "," + ",".join(f"{np.mean(m):.3e}" if m else "" for m in mses))
    out_path = os.path.join(args.out_dir, f"{args.which}.csv")
    with atomic_write(out_path) as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reynet", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic dataset file")
    p.add_argument("--task", required=True, choices=sorted(TASKS))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None, help="default: the canonical seed for --split")
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one config over a set of seeds")
    p.add_argument("--task", required=True, choices=sorted(TASKS))
    p.add_argument("--model", required=True, choices=MODEL_CHOICES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--loss", choices=sorted(LOSS_CHOICES), default="mse")
    p.add_argument("--seeds", type=_int_list, default=(0, 1, 2, 3, 4))
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=1e-5)
    p.add_argument("--widths", type=_int_list, default=(128, 128))
    p.add_argument("--body-channels", type=int, default=16)
    p.add_argument("--train-count", type=int, default=1000)
    p.add_argument("--test-count", type=int, default=1000)
    p.add_argument("--metrics", default=None, help="append rows to this CSV")
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--skip-existing", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="full MSE of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", default=None, help="dataset file; otherwise give --n")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--metrics", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="evaluate a reduced checkpoint across sizes")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n-min", required=True, type=int)
    p.add_argument("--n-max", required=True, type=int)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run brute-force verification suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="reproduce a benchmark grid (resumable)")
    p.add_argument("--which", required=True, choices=("table1", "table2"))
    p.add_argument("--out-dir", default="results")
    p.add_argument("--tasks", type=lambda t: tuple(t.split(",")), default=TABLE_TASKS)
    p.add_argument("--ns", type=_int_list, default=TABLE_NS)
    p.add_argument("--seeds", type=_int_list, default=(0, 1, 2, 3, 4))
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--train-count", type=int, default=1000)
    p.add_argument("--test-count", type=int, default=1000)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"reynet: usage error: {err}", file=sys.stderr)
        return 2
    except (OSError, DatasetFormatError, ValueError) as err:
        print(f"reynet: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
