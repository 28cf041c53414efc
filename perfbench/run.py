"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 32 --trace 0

Imports trigrid from the checkout's `src/` (never an installed copy) and
repeats the workload's pass for about `--seconds` seconds.

With `--trace 0` the result holds the end-to-end metrics: the median pass
time in units of a reference burst timed during the pass (see speed.py),
the median set-up time of several fresh interpreters started between the
passes, and the peak RSS of this one.  With `--trace 1` untraced and traced passes
alternate, and the result holds the per-layer metrics; the spans are
written to `perfbench/out/spans_<workload>.jsonl.gz`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the run's metadata.  A failed check makes the exit code 1.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark measures a single-process, single-thread
# run, and a fixed thread count keeps runs comparable.  Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_CHILDREN = 9
MIN_PASSES = 3

# Timed set-up in a fresh interpreter: the clock starts before anything of
# trigrid or its dependencies (numpy included) is loaded.
SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import trigrid, trigrid.cli
grids = [trigrid.TriGrid(int(n)) for n in sys.argv[2:]]
print(time.perf_counter() - start, trigrid.__file__)
"""


class SetupError(RuntimeError):
    pass


def check_source(path: str) -> None:
    if Path(path).resolve().parent != (SRC / "trigrid").resolve():
        raise SetupError(f"imported trigrid from {path}, not from {SRC}")


def load_program(workload) -> tuple[object, dict]:
    """Import trigrid and trigrid.cli from the checkout and build the grids."""
    if not (SRC / "trigrid" / "__init__.py").is_file():
        raise SetupError(f"no trigrid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    tg = importlib.import_module("trigrid")
    importlib.import_module("trigrid.cli")
    check_source(tg.__file__)
    return tg, workload.setup(tg)


def cold_setup_time(workload) -> float:
    """Set-up time of one fresh interpreter."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), *map(str, workload.orders)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SetupError(f"set-up in a fresh interpreter failed:\n{proc.stderr.strip()}")
    seconds, path = proc.stdout.split(maxsplit=1)
    check_source(path.strip())
    return float(seconds)


def run_sampled(body, workload, seconds: float) -> tuple[list[tuple[float, float, float]], list[float]]:
    """Repeat body() for about `seconds` under a SpeedSampler.

    Returns each pass's (wall, CPU, mean burst) times and the set-up times
    of SETUP_CHILDREN fresh interpreters.  The children start between
    passes, spread over the run, so their median sees the machine at the
    same speeds as the passes.
    """
    passes: list[tuple[float, float, float]] = []
    setup_times: list[float] = []
    start = time.perf_counter()

    def step():
        passes.append(sampler.timed(body))
        while (len(setup_times) < SETUP_CHILDREN
               and time.perf_counter() - start >= len(setup_times) * seconds / SETUP_CHILDREN):
            setup_times.append(cold_setup_time(workload))

    with speed.SpeedSampler() as sampler:
        repeat(step, seconds, MIN_PASSES)
    while len(setup_times) < SETUP_CHILDREN:
        setup_times.append(cold_setup_time(workload))
    return passes, setup_times


def repeat(step, seconds: float, min_steps: int) -> None:
    """Call step() for about `seconds`.

    A new call starts only if it is expected to end within the time, judged
    by the median call so far, but at least `min_steps` calls run.
    """
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(durations) < min_steps or time.perf_counter() + statistics.median(durations) <= deadline:
        start = time.perf_counter()
        step()
        durations.append(time.perf_counter() - start)


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload, seed: int, seconds: float, trace: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.name,
        "params": workload.params,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    try:
        tg, grids = load_program(workload)
        if args.trace == 0:
            cold_setup_time(workload)  # fails fast, before any pass, if set-up cannot run
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checks = Checks()

    def body():
        workload.run_pass(tg, grids, args.seed, checks)

    try:
        if args.trace == 0:
            passes, setup_times = run_sampled(body, workload, args.seconds)
            walls, cpus, bursts = (list(column) for column in zip(*passes))
            metrics = {
                "pass_kburst": metric(statistics.median(w / b / 1000 for w, b in zip(walls, bursts)), "kburst"),
                "setup_s": metric(statistics.median(setup_times), "s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            samples = {"pass_wall_s": walls, "pass_cpu_s": cpus, "burst_s": bursts, "setup_s": setup_times,
                       "median_wall_s": statistics.median(walls), "median_cpu_s": statistics.median(cpus)}
        else:
            # Alternating keeps both kinds of pass under the same machine
            # load, and both are timed in bursts (see speed.py), so the
            # overhead ratio is not a change of machine speed between them.
            tracer = tracing.Tracer(tg)
            traced_pass = tracer.wrap("bench.pass", body)
            untraced: list[float] = []
            traced: list[float] = []

            with speed.SpeedSampler() as sampler:

                def pair():
                    wall, _, mean_burst = sampler.timed(body)
                    untraced.append(wall / mean_burst)
                    with tracer:
                        tracer.run_id += 1
                        wall, _, mean_burst = sampler.timed(traced_pass)
                    traced.append(wall / mean_burst)

                repeat(pair, args.seconds, 1)
            metrics = tracing.layer_metrics(tracer, traced, untraced)
            samples = {"untraced_pass_bursts": untraced, "traced_pass_bursts": traced}
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans_{workload.name}.jsonl.gz")
    except Exception:  # a crash in the program under test is a failed check
        traceback.print_exc()
        checks.expect(False, "a pass raised an exception")
        metrics = {}
        samples = {}

    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    meta = metadata(workload, args.seed, args.seconds, args.trace)
    meta["samples"] = samples
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
