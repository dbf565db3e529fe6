"""Benchmark of dqcalib: batch calibration in 3D and planar mode, online replay.

Run from the repository root:

    python3 perfbench/run.py --workload online_3d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process
    python3 -m pytest -q perfbench/test_smoke.py # the benchmark's own test

Each run imports ``dqcalib`` from this checkout's ``src``, sets up its
inputs one by one (see ``workloads.py``), then runs whole cycles through
the inputs, checking every output, and stops at the cycle boundary nearest
to ``--seconds`` (after one cycle, if a cycle takes longer than that).
``--trace 0`` reports end-to-end metrics.  ``--trace 1`` instead repeats
the first input untraced for ``--seconds``, runs it once more traced, and
reports per-layer metrics (see ``tracer.py``), writing the spans to
``.perfbench_out/trace-<workload>-seed<seed>.csv``.  Human-readable lines
start with ``#``; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics; an operation is one ``calibrate`` call on the batch
workloads and one ``OnlineCalibrator.update`` step on ``online_3d``:

* ``setup_s``: import time, plus the median time to make one input
  (simulate it, write it), plus one warm-up operation.
* ``latency_ms_p50``: median wall time of one operation.
* ``pairs_per_s``: motion pairs processed per second of operation time, a
  mean over every operation, so on ``online_3d`` it also moves with the
  slow steps (the global solves of the no-fail window).  On the batch
  workloads every call has the same number of pairs, so there it is the
  reciprocal of the mean latency and adds little to ``latency_ms_p50``.
* ``peak_rss_mb``: peak resident memory of the process (with ``--workload
  all``, of every workload run so far).

The ``#`` summary line adds figures that are not gated by a bound:

* ``latency_ms_p95``; a batch run makes only about 50 calls, too few for a
  steady 95th percentile.
* ``lag_ms_p95`` on ``online_3d``: the time from a pair's arrival to its
  result on a virtual clock with one server, the pairs arriving at their
  10 Hz timestamps.  The batch workloads have no arrival times; there it
  reads NaN.
* The median calibration error ``eps_r_deg`` and ``eps_t_m`` against the
  simulator's truth, which varies with the seed and is checked against a
  tolerance instead.
* ``uncertified_frac``, the share of returned estimates without a
  certificate; ``failed_frac``; calibrate's own solver timings, as a
  cross-check on the traced solver spans; and the sample counts.

BLAS and OpenMP are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# numpy is imported only inside functions, after prepare() has pinned these
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("batch_3d", "online_3d", "batch_planar")


def prepare():
    """Pin threads and import this checkout's dqcalib; returns the modules."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    for path in (str(Path(__file__).resolve().parent), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import dqcalib
    if Path(dqcalib.__file__).resolve().parent != src / "dqcalib":
        raise ImportError(f"dqcalib imported from {dqcalib.__file__}, not {src}")
    import tracer
    import workloads
    return workloads, tracer


def machine_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else float("nan")


def measure(name, seed, seconds, trace, import_s, sizes=None):
    """Set up and run one workload; returns (result dict, summary dict)."""
    workloads, tracer = prepare()
    sizes = sizes or workloads.Sizes()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        wl = workloads.WORKLOADS[name](seed, workdir, sizes)
        setup = []
        for k in range(wl.n_inputs):
            t0 = time.perf_counter()
            wl.setup(k)
            setup.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        wl.warm_up()
        setup_s = import_s + statistics.median(setup) + time.perf_counter() - t0

        rec = workloads.Record()
        units = []
        # a traced run repeats the first input, which it then traces
        cycle = 1 if trace else wl.n_inputs
        t_run = time.perf_counter()
        k = 0
        while True:
            t0 = time.perf_counter()
            state = wl.run_unit(k % cycle, rec, contextlib.nullcontext)
            units.append(time.perf_counter() - t0)
            wl.check(state, rec)
            k += 1
            if k % cycle == 0:
                # whole cycles only, so every input weighs the same
                elapsed = time.perf_counter() - t_run
                if elapsed + elapsed / (k // cycle) / 2 >= seconds:
                    break
        traced = workloads.Record()
        if trace:
            tr = tracer.Tracer()
            tr.install()
            try:
                t0 = time.perf_counter()
                state = wl.run_unit(0, traced, tr.op)
                traced_s = time.perf_counter() - t0
            finally:
                tr.uninstall()
            wl.check(state, traced)
            tr.write_csv(OUT_DIR / f"trace-{name}-seed{seed}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = rec.attempted + traced.attempted
    failed = rec.failed + traced.failed
    summary = {
        "workload": name, "seed": seed, "units": k, "operations": len(rec.latency_ms),
        "setup_s": setup_s,
        "latency_ms_p50": _percentile(rec.latency_ms, 50),
        "latency_ms_p95": _percentile(rec.latency_ms, 95),
        "lag_ms_p95": _percentile(rec.lag_ms, 95),
        "pairs_per_s": rec.pairs * 1e3 / sum(rec.latency_ms) if rec.latency_ms else 0.0,
        "eps_r_deg": _percentile(rec.eps_r_deg, 50),
        "eps_t_m": _percentile(rec.eps_t_m, 50),
        "uncertified_frac": rec.uncertified / rec.estimates if rec.estimates else float("nan"),
        "failed_frac": failed / attempted if attempted else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    # calibrate's own solver timings, to hold against the traced solver spans
    for solver, times in (traced if trace else rec).cli_time_ms.items():
        if times:
            summary[f"cli_{solver}_time_ms_p50"] = _percentile(times, 50)
    if trace:
        metrics = tracer.layer_metrics(tr.spans, tr.missing)
        metrics["trace.overhead_ratio"] = (traced_s / statistics.median(units), "ratio")
    else:
        metrics = {key: (summary[key], unit) for key, unit in (
            ("setup_s", "s"), ("latency_ms_p50", "ms"), ("pairs_per_s", "1/s"),
            ("peak_rss_mb", "MB"))}
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed,
              "metrics": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in metrics.items()}}
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        prepare()
    except ImportError as err:
        print(f"error: cannot import dqcalib from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    print("# machine: " + json.dumps(machine_info()))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, summary = measure(name, args.seed, args.seconds, args.trace, import_s)
        print("# " + json.dumps(summary))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{key}": value for name, r in results.items()
                             for key, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
