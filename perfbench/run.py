"""rholab benchmark harness.

Run from the root of a rholab checkout:

    python3 perfbench/run.py --workload evolve-d16 --seed 3 --seconds 10 --trace 0

It imports rholab from `src/` of the working directory (never an installed
copy), generates the workload's inputs from `--seed`, measures for
`--seconds` seconds, checks every output against oracles that do not call
rholab, and prints as its last stdout line one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates untraced and traced passes and reports the
per-layer metrics, writing the spans to `.perfbench_work/spans/`.  `--short`
runs each phase once at small size (used by the harness's own tests).
Everything runs in this process plus one set-up probe at a time, with BLAS
pinned to one thread.  README.md lists every metric.
"""

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import SpanRecorder, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 9
# The calibration kernel's fastest time on the machine the benchmark was
# built on; timings are reported at that machine speed (see README.md).
CALIBRATION_REFERENCE_S = 0.0025
MIN_PASSES = 3
FLOORED_WARNING = "density is rank-deficient"


def import_program(root: Path):
    """Import rholab from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "rholab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rholab sources under {src}; run from the root of a rholab checkout")
    sys.path.insert(0, str(src))
    import rholab
    import rholab.cli  # noqa: F401  (imports every layer module)

    if Path(rholab.__file__).resolve().parent != (src / "rholab").resolve():
        sys.exit(f"perfbench: imported rholab from {rholab.__file__}, not from {src}")
    return rholab


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
    }


class Tally:
    """Operations attempted and failed, over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, wl, outputs, log: str) -> None:
        for problems in wl.check(outputs):
            self.attempted += 1
            if problems:
                self.failed += 1
                self.messages += problems + ([f"program output: {log.strip()}"] if log.strip() else [])


def one_pass(wl, rl, tally: Tally) -> tuple[float, int, int]:
    """Time one pass and check its outputs; returns (seconds, floored spectra, bytes)."""
    gc.collect()
    log = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        warnings.simplefilter("always")
        start = time.perf_counter()
        outputs = wl.run_pass(rl)
        elapsed = time.perf_counter() - start
    # The program warns on each rank-deficient spectrum it floors; count
    # them here instead of letting them reach stderr.
    floored = sum(1 for w in caught if issubclass(w.category, RuntimeWarning)
                  and str(w.message).startswith(FLOORED_WARNING))
    tally.add(wl, outputs, log.getvalue())
    return elapsed, floored, wl.output_bytes(outputs)


def setup_seconds(root: Path, wl) -> float:
    """Wall time of one fresh interpreter that imports rholab and parses the inputs."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), wl.name, str(wl.work)],
        cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed with exit code {proc.returncode}:\n{proc.stderr}")
    return elapsed


def calibration_seconds() -> float:
    """Time a fixed kernel of interpreter loops and small complex matmuls,
    the mix of work that rholab's passes do, to gauge the machine's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    a = np.eye(8, dtype=complex) * 0.5
    for _ in range(300):
        a = (a @ a + a.conj().T) * 0.5
    return time.perf_counter() - start


def tail(times: list[float]) -> dict:
    """The highest percentile with at least ten passes beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return {"percentile": None, "value": None}
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}


def end_to_end(root, wl, rl, seconds, short, tally) -> tuple[dict, dict]:
    if not short:
        one_pass(wl, rl, tally)  # warm-up
    tracemalloc.start()
    try:
        one_pass(wl, rl, tally)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # On a shared machine the speed of the same code drifts by up to 2x for
    # minutes at a time.  Each pass, and each set-up launch, is therefore
    # scaled to the reference speed by the calibration run just before it;
    # the launches are spread evenly over the timed window.
    launches = 1 if short else SETUP_LAUNCHES
    times, setup, calibration, scaled_times, scaled_setup = [], [], [], [], []
    start = time.perf_counter()
    while len(times) < (1 if short else MIN_PASSES) or (not short and time.perf_counter() < start + seconds):
        due = len(setup) < launches and time.perf_counter() >= start + len(setup) * seconds / launches
        if due:
            setup.append(setup_seconds(root, wl))
        calibration.append(calibration_seconds())
        speed = CALIBRATION_REFERENCE_S / calibration[-1]
        if due:
            scaled_setup.append(setup[-1] * speed)
        times.append(one_pass(wl, rl, tally)[0])
        scaled_times.append(times[-1] * speed)
    metrics = {
        "run_s": {"value": statistics.median(scaled_times), "unit": "s"},
        "setup_s": {"value": statistics.median(scaled_setup), "unit": "s"},
        "peak_mem_mb": {"value": peak / 1e6, "unit": "MB"},
    }
    detail = {"passes": len(times), "run_s_tail": tail(scaled_times), "run_s_wall_median": statistics.median(times),
              "setup_s_wall_median": statistics.median(setup), "pass_s": times, "setup_launch_s": setup,
              "calibration_s": calibration}
    return metrics, detail


UNITS = {"calls": "count", "steps": "count", "events": "count", "floored_spectra": "count",
         "bytes_written": "bytes", "calls_per_sample": "ratio"}


def per_layer(wl, rl, seconds, short, tally, spans_path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; the traced ones give the layers."""
    if not short:
        one_pass(wl, rl, tally)  # warm-up
    rec = SpanRecorder()
    untraced, traced, passes = [], [], []
    least = 1 if short else MIN_PASSES
    deadline = time.perf_counter() + seconds
    pass_id = 0
    while min(len(untraced), len(traced)) < least or (not short and time.perf_counter() < deadline):
        if pass_id % 2 == 0:
            untraced.append(one_pass(wl, rl, tally)[0])
        else:
            rec.pass_id = pass_id
            with rec:
                elapsed, floored, written = one_pass(wl, rl, tally)
            traced.append(elapsed)
            passes.append({"id": pass_id, "floored": floored, "bytes": written})
        pass_id += 1
    rec.write(spans_path)
    values = layer_metrics(rec, passes)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics = {}
    for name, value in values.items():
        last = name.rsplit(".", 1)[1]
        unit = UNITS.get(last) or ("us" if last.endswith("_us") else "s")
        metrics[name] = {"value": value, "unit": unit}
    detail = {"passes": len(traced), "untraced_passes": len(untraced), "spans": str(spans_path)}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="one pass of each phase at small size")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    root = Path.cwd()
    rl = import_program(root)
    out_dir = root / ".perfbench_work"
    work = out_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        wl = WORKLOADS[args.workload](root, work, args.seed, args.short)
        if args.trace:
            (out_dir / "spans").mkdir(exist_ok=True)
            spans_path = out_dir / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            metrics, detail = per_layer(wl, rl, args.seconds, args.short, tally, spans_path)
        else:
            metrics, detail = end_to_end(root, wl, rl, args.seconds, args.short, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in tally.messages[:10]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        error_rate={"value": tally.failed / tally.attempted, "unit": "ratio"},
        environment=environment(),
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
