"""Host-clock benchmark of the ``repro`` simulator.

Run from the repository root::

    python3 perfbench/run.py --workload train_tp2pp2 --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``train_tp2pp2``, ``train_cp4_ring`` and
``serve_tp2``.  Each runs as a closed loop in this one process for
``--seconds`` of measured work units (a train step or a scheduler round),
after set-up and warm-up and outside any checking.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s`` — process start to the first timed unit (imports, build,
  warm-up), the median of several fresh processes after one discarded
  cold process that compiles bytecode;
* ``step_ms_p50`` / ``step_ms_tail`` — median and the highest of the
  p50/p75/p90/p95/p99/p99.9 ladder with at least ten samples beyond it
  in the workload's ``MIN_UNITS`` (a run measures at least that many
  units, so the percentile is fixed per workload; it and the samples
  beyond it are printed on the context line);
* ``tokens_per_s`` — trained or generated tokens per measured second;
* ``host_rss_mb`` — peak resident memory of this process up to the end
  of the timed window (before the output checks);
* ``peak_device_bytes`` — max over ranks and stages of the simulator's
  ``MemoryTracker`` peak (KV blocks for ``serve_tp2``), deterministic;
* ``sim_tokens_per_s`` / ``sim_token_ms_p95`` — simulated A100 clock,
  deterministic: one traced train step, or the ``ServeReport`` of a
  fixed 64-request open-loop run.

``--trace 1`` alternates untraced and traced units and prints per-layer
metrics (per unit) from spans recorded around each layer's public calls
(``tracing.py``); nothing is added inside ``src/``.

The output's last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's context (machine, BLAS threads, reference GEMM time, percentiles).
Failed units are steps or rounds that raised, produced a non-finite loss,
or failed the checks in ``Workload.verify``; for ``serve_tp2``, checked
requests count as attempted units too.
"""

from __future__ import annotations

import os

# Pin BLAS / OpenMP to one thread before numpy is imported (here and in
# the set-up child processes, which inherit the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
SETUP_PROCESSES = 3
GEMM_SHAPE = (512, 128, 512)     # (s*b, h) @ (h, 4h): the MLP up-projection


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- context ---------------------------------------------------------------

def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot tell."""
    import ctypes
    import glob

    import numpy as np
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def reference_gemm_ms(reps: int = 40) -> float:
    """Median time of one fixed float64 GEMM at the dominant shape."""
    import numpy as np
    m, k, n = GEMM_SHAPE
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def machine_context() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas_threads": blas_threads(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


# -- set-up time -------------------------------------------------------------

def setup_probe(args) -> int:
    """Child process: build and warm up, then report the monotonic time."""
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed)
    workload.warmup()
    print(json.dumps({"ready": time.monotonic()}))
    return 0


def measure_setup(args) -> list:
    """Set-up seconds of SETUP_PROCESSES warm processes (one cold first
    process, which compiles bytecode, is discarded)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROCESSES + 1):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"set-up process exited {done.returncode}")
        ready = json.loads(done.stdout.strip().splitlines()[-1])["ready"]
        times.append(ready - start)
    return times[1:]


# -- timing ------------------------------------------------------------------

def tail(durations: list, min_units: int):
    """(percentile, samples beyond it, value) for the highest ladder
    percentile with at least ten samples beyond it in ``min_units``
    samples.  Every run takes at least ``min_units`` samples, so the
    percentile is fixed per workload and runs on a faster or slower host
    report the same one."""
    import numpy as np
    chosen = max(pct for pct in TAIL_LADDER
                 if min_units * (1.0 - pct / 100.0) >= 10)
    value = float(np.percentile(durations, chosen))
    return chosen, sum(1 for d in durations if d > value), value


def timed_run(args):
    from workloads import make_workload, run_unit

    setups = measure_setup(args)
    workload = make_workload(args.workload, args.seed)
    workload.warmup()
    gemm_start = reference_gemm_ms()
    workload.start_window()
    durations, measured = [], 0.0
    while measured < args.seconds or len(durations) < workload.MIN_UNITS:
        durations.append(run_unit(workload, len(durations)))
        measured += durations[-1]
    tokens = workload.window_tokens(len(durations))
    # peak memory of the set-up and the timed units, before the checks
    # allocate their reference models
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = workload.verify()
    det = workload.deterministic()
    gemm_end = reference_gemm_ms()
    pct, beyond, tail_s = tail(durations, workload.MIN_UNITS)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "step_ms_p50": (statistics.median(durations) * 1e3, "ms"),
        "step_ms_tail": (tail_s * 1e3, "ms"),
        "tokens_per_s": (tokens / measured, "1/s"),
        "host_rss_mb": (rss_mb, "MB"),
        "peak_device_bytes": (det["peak_device_bytes"], "bytes"),
        "sim_tokens_per_s": (det["sim_tokens_per_s"], "tok/sim_s"),
        "sim_token_ms_p95": (det["sim_token_ms_p95"], "sim_ms"),
    }
    context = dict(machine_context(), workload=args.workload, seed=args.seed,
                   units=len(durations), tail_percentile=pct,
                   tail_samples_beyond=beyond,
                   setup_runs_s=[round(s, 4) for s in setups],
                   gemm_ms_start=gemm_start, gemm_ms_end=gemm_end,
                   **workload.layer_state())
    attempted = len(durations) + workload.attempted_extra
    return context, attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    if args.trace:
        from traced import traced_run
        context, attempted, failed, metrics = traced_run(args)
    else:
        context, attempted, failed, metrics = timed_run(args)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
