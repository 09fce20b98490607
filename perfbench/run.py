"""Benchmark for interlingua, driven through its CLI in one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run sets the workload up several times (corpus, ``prepare`` and, for
decode-reports, a seeded checkpoint), runs one untimed warm-up
operation, repeats the workload's operation in a closed loop for
``--seconds``, and then checks the outputs. ``--trace 1`` alternates
untraced and traced operations and reports per-layer figures instead of
the end-to-end ones. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a copy with
the machine details goes to ``perfbench/out/``. See README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-toy", "train-wide", "decode-reports")
SETUP_REPEATS = 3
# one BLAS thread: at these shapes a second thread gains nothing measurable
# here, and leaving a core free keeps run-to-run spread down
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="interlingua benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "platform": platform.platform(),
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own process, one summary at the end."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "interlingua" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'interlingua'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    from interlingua import cli, data, evaluation, training, transformer
    from tracer import Tracer

    imported = time.perf_counter() - STARTED
    workload = workloads.WORKLOADS[args.workload]
    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    if args.trace:
        modules = {"cli": cli, "data": data, "evaluation": evaluation,
                   "training": training, "transformer": transformer}
        tracer = Tracer(modules)
    try:
        return measure(args, workload, work, tracer, imported)
    except workloads.SetupError as err:
        print(f"perfbench: set-up failed: {err}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, work: Path, tracer, imported: float) -> int:
    from tracer import layer_metrics
    from workloads import PREPARED, run_cli

    # set-up, repeated; the last one feeds the operations
    setup_s = []
    for k in range(SETUP_REPEATS):
        root = work / f"setup-{k}"
        if tracer is not None:
            tracer.op = f"setup-{k}"
            tracer.install()
        t0 = time.perf_counter()
        try:
            config = workload.setup(root, args.seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s.append(time.perf_counter() - t0)
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(root)

    attempted = failed = 0
    op_ms = {False: [], True: []}  # keyed by "traced"
    timed_s = 0.0
    reference = None
    problems: list[str] = []
    errors: dict[str, int] = {}
    traced_ops: list[int] = []
    keep = work / "op-0"
    phase_start = None
    n = 0
    # op 0 is the untimed warm-up; the timed phase runs until --seconds have passed
    while n < 2 or time.perf_counter() - phase_start < args.seconds or (
        tracer is not None and n < 3
    ):
        if n == 1:
            phase_start = time.perf_counter()
        opdir = work / f"op-{n}"
        shutil.copytree(config.parent / PREPARED, opdir)
        traced = tracer is not None and n > 0 and n % 2 == 0
        if traced:
            tracer.op = n
            tracer.probe_memory = True
            tracer.install()
        t0 = time.perf_counter()
        try:
            for argv in workload.commands(config, opdir):
                code, err = run_cli(argv)
                if code != 0:
                    break
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        attempted += 1
        if code != 0:
            failed += 1
            message = f"{argv[0]} exited {code}: {err.strip()}"
            errors[message] = errors.get(message, 0) + 1
        else:
            digest = workload.digest(opdir)
            if reference is None:
                reference, keep = digest, opdir
            elif digest != reference:
                changed = sorted(k for k in digest if digest[k] != reference.get(k))
                problems.append(f"op {n}: {', '.join(changed)} differ from the first operation")
        if n > 0:
            timed_s += elapsed
            if code == 0:
                op_ms[traced].append(elapsed * 1e3)
                if traced:
                    traced_ops.append(n)
        if opdir != keep:
            shutil.rmtree(opdir)
        n += 1

    for message, count in errors.items():
        print(f"perfbench: {count} operation(s) failed: {message}", file=sys.stderr)
    if reference is not None:
        problems += workload.check(config, keep, args.seed)
    else:
        problems.append("no operation succeeded")
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)

    done = len(op_ms[False]) + len(op_ms[True])
    if tracer is None:
        metrics = {
            "setup_s": ("s", imported + statistics.median(setup_s)),
            "sentences_per_s": ("sentences/s", workload.sentences_per_op * done / timed_s),
            "op_ms": ("ms", statistics.median(op_ms[False])),
            "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        }
    else:
        metrics = layer_metrics(tracer.spans, traced_ops, op_ms[False], op_ms[True])
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine_info(),
        "setup_runs_s": setup_s,
        "import_s": imported,
        "op_ms": op_ms[False],
        "traced_op_ms": op_ms[True],
        "problems": problems,
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.dump(out / f"{stem}-spans.json")

    for name, (unit, value) in metrics.items():
        print(f"{args.workload:<15} {name:<34} {value:>14.4f} {unit}")
    print(f"{args.workload:<15} {'operations':<34} {attempted:>9} attempted, {failed} failed "
          f"({len(op_ms[False])} timed untraced, {len(op_ms[True])} traced)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
