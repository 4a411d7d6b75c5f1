"""Run one benchmark workload of reynet and print its result line.

    python3 perfbench/run.py --workload train-dense --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from
``src``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones of a
traced run.  The exit code is 0 only when a result was printed.
"""

import time

T0 = time.perf_counter()  # set-up time is counted from here

import os  # noqa: E402

# One BLAS thread, fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))  # the checkout's package, not an installed one

WORKLOAD_NAMES = ("train-dense", "table-grid", "transfer-sweep")
END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "eval_rows_per_s": "1/s",
    "checkpoint_s": "s",
    "peak_rss_mb": "MiB",
    "test_mse": "target_sq",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        print("perfbench: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    try:
        import reynet
    except ImportError as err:
        print(f"perfbench: cannot import reynet from {src}: {err}", file=sys.stderr)
        return 1
    if not os.path.abspath(reynet.__file__).startswith(src + os.sep):
        print(f"perfbench: reynet was imported from {reynet.__file__}, not {src}", file=sys.stderr)
        return 1
    import checks
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        for name in tracer.absent:
            print(f"perfbench: {name} is absent and not traced", file=sys.stderr)
    scratch = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    bench = workloads.Bench(T0, args.seconds, tracer, scratch)
    try:
        workloads.WORKLOADS[args.workload](bench, args.seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))  # only when no other run uses it
        except OSError:
            pass
        if tracer:
            tracer.uninstall()

    if tracer:
        bench.check("evaluation count", checks.check_eval_counts(tracer.evaluation_counts()))
        values = tracer.layer_metrics(bench.rounds)
        units = tracing.LAYER_UNITS
    else:
        values = dict(bench.metrics)
        values["setup_s"] = bench.setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    for problem in bench.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
