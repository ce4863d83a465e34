"""patchkit benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload explain_surrogate --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): explain_surrogate, explain_patchnet,
train_patchnet. With ``--trace 0`` the run measures the end-to-end metrics
with no instrumentation installed; with ``--trace 1`` every other timed
operation runs with the timing shims installed and the run reports the
per-layer metrics, the tracing overhead, and writes its spans under
``.perfbench_out/``.

End-to-end metrics, the same names on every workload:

  setup_s      median over SETUP_REPEATS set-ups (generation, fitting, extraction)
  op_s         median time of one unit of work: one recursive_attribution map
               (attr.map_s) on explain_*, one epoch (train.epoch_s) on
               train_patchnet
  peak_rss_mb  high-water RSS of the process
  pass_frac    1 - fail_frac: operations that neither raised nor failed an
               output check, over operations attempted

Before the result line the run prints one ``detail`` JSON line with these
figures under their per-workload names, the quality figures
(attr.lesion_recall and fit.final_loss on explain_*, train.test_auc and
train.final_loss on train_patchnet), the sample counts and the environment
(BLAS threads, numpy and OpenBLAS versions, CPU count). The quality figures
are deterministic for a seed but vary between seeds by more than any bound a
timing metric could share, so they are reported and not bounded.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
BLAS_THREADS = 1

E2E = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_frac", "ratio"),
)
DETAIL_NAMES = {
    "map": ("attr.map_s", "attr.lesion_recall", "fit.final_loss"),
    "epoch": ("train.epoch_s", "train.test_auc", "train.final_loss"),
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _pin_blas() -> None:
    # Must run before numpy is imported: OpenBLAS reads these once at load.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _environment() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_reported": threads,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }


def _high_percentile(samples: list[float]):
    """(p, value): the highest percentile with at least ten samples above it."""
    if len(samples) < 11:
        return None
    xs = sorted(samples)
    i = len(xs) - 11
    return [int(100 * (i + 1) / len(xs)), xs[i]]


def run(factory, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up ``factory()`` SETUP_REPEATS times, warm up, then run timed operations.

    Operations repeat until ``seconds`` would be exceeded by one more, and at
    least ``min_ops`` times. The heap is collected before each operation, so
    no operation pays for or keeps the previous one's cyclic garbage. With
    ``trace``, odd-numbered operations run with the shims installed and the
    result carries the per-layer metrics and the tracer.
    """
    import gc
    import resource
    import shutil
    import statistics
    import tempfile
    import time

    import layers
    from tracer import Installed, Tracer

    tracer = Tracer() if trace else None
    missing: dict[str, str] = {}

    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload = None  # free the previous set-up's inputs first
        workload = factory()
        data = Path(tempfile.mkdtemp(prefix="setup-", dir=workdir))
        shims = Installed(tracer) if trace else None
        t0 = time.perf_counter()
        try:
            workload.setup(seed, data)
        finally:
            setup_times.append(time.perf_counter() - t0)
            if shims is not None:
                missing.update(shims.absent)
                shims.restore()
        shutil.rmtree(data)

    workload.warmup()

    attempted = failed = 0
    failures: list[str] = []
    events: dict[str, int] = {}
    per_unit: list[float] = []
    traced_s: list[float] = []
    units_by_op: dict[int, int] = {}
    refined_leaves = 0
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        shims = None
        if traced:
            tracer.op = k
            shims = Installed(tracer)
            missing.update(shims.absent)
        attempted += 1
        outcome = None
        gc.collect()
        t0 = time.perf_counter()
        try:
            outcome = workload.run(k, tracer if traced else None)
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            failed += 1
            events[type(exc).__name__] = events.get(type(exc).__name__, 0) + 1
            failures.append(f"op {k}: {type(exc).__name__}: {exc}")
        finally:
            dt = time.perf_counter() - t0
            if shims is not None:
                shims.restore()
        if outcome is not None:
            units = workload.units(outcome)
            (traced_s if traced else per_unit).append(dt / units)
            if traced:
                units_by_op[k] = units
                refined_leaves += workload.refined_leaves(outcome)
            if getattr(outcome, "aborted", False):
                events["aborted"] = events.get("aborted", 0) + 1
            problems = workload.check(k, outcome)
            if problems:
                failed += 1
                failures.append(f"op {k}: " + "; ".join(problems))
        k += 1
        elapsed = time.perf_counter() - start
        if k >= workload.min_ops and elapsed + dt > seconds:
            break

    if attempted == failed:
        raise SystemExit("every operation failed: " + "; ".join(failures))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if trace:
        metrics = layers.layer_metrics(
            tracer.spans, units_by_op, SETUP_REPEATS, workload.macs_per_sample,
            refined_leaves, events, traced_s, per_unit,
        )
        result["metrics"] = {
            name: {"value": metrics[name], "unit": unit} for name, unit in layers.PER_LAYER
        }
        result["absent"] = layers.absent_layers(metrics, missing)
        result["tracer"] = tracer
        return result

    map_name, quality_name, loss_name = DETAIL_NAMES[workload.unit]
    values = {
        "setup_s": statistics.median(setup_times),
        "op_s": statistics.median(per_unit),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": (attempted - failed) / attempted,
    }
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
    result["detail"] = {
        "setup_s": {"median": values["setup_s"], "samples": setup_times, "unit": "s"},
        map_name: {
            "median": values["op_s"], "n": len(per_unit), "samples": per_unit,
            "high_percentile": _high_percentile(per_unit), "unit": "s",
        },
        quality_name: {"value": workload.quality(), "unit": "ratio"},
        loss_name: {"value": workload.final_loss, "unit": "nats"},
        "peak_rss_mb": {"value": values["peak_rss_mb"], "unit": "MiB"},
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
    }
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "patchkit" / "__init__.py").is_file():
        print(f"error: no patchkit sources under {SRC}", file=sys.stderr)
        return 2
    _pin_blas()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    import shutil
    import tempfile

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": _environment(), "failures": result.pop("failures")}
    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        result.pop("tracer").write(path)
        detail["absent"] = result.pop("absent")
        detail["span_file"] = str(path.relative_to(ROOT))
    else:
        detail["metrics"] = result.pop("detail")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
