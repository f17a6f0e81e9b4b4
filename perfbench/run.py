"""Benchmark of the ``pgcn`` command line, run from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Writes the workload's inputs from ``--seed`` under ``.perfbench_work/``,
then runs rounds for about ``--seconds`` (at least ``MIN_ROUNDS``): a
round starts only if the run then ends nearer to ``--seconds`` than by
stopping.  A round starts a fresh worker process that calls
``pgcn.cli.main`` for each step of the job, then checks every output
here, in this process.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics.  The last line of standard output is one JSON object.
"""

import os

# Pinned before numpy loads here and inherited by every worker.
THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARIABLES:
    os.environ[_var] = str(THREADS)
# Every worker hashes strings the same way, so dict and set layouts do not vary by process.
os.environ["PYTHONHASHSEED"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2
SETUP_PROBES = 1
WORKER_TIMEOUT_S = 150

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


class BenchmarkError(Exception):
    """The benchmark itself cannot go on; no result is printed."""


def spawn(job_path, mode):
    """Start one worker, wait for it, and return its JSON result and stderr."""
    command = [sys.executable]
    if mode == "trace":
        command += ["-X", "importtime"]
    command += [os.path.join(HERE, "worker.py"), job_path]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(command + [repr(spawned_at), mode], cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker ({mode}) did not finish in {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker ({mode}) exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), proc.stderr


def import_seconds(stderr):
    """``import.pgcn_s`` and ``import.scipy_stats_s`` from ``-X importtime`` output."""
    pgcn_us = scipy_stats_us = 0
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        cumulative, name = int(match.group(2)), match.group(4)
        if name == "pgcn" or name.startswith("pgcn."):
            pgcn_us = max(pgcn_us, cumulative)
        elif name == "scipy.stats":
            scipy_stats_us = cumulative
    return pgcn_us / 1e6, scipy_stats_us / 1e6


def library_versions():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def unit_of(metric):
    """Units follow the metric's suffix; a name without one is a count."""
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_mb", "MB"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


class Ledger:
    """Operations attempted and failed, with the problems of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def record(self, name, problems, known_fault):
        self.attempted += 1
        if problems:
            self.failed += 1
            if not known_fault:
                self.unexpected.append(f"{name}: {'; '.join(problems)}")


def run(args):
    import checks

    workload = workloads.WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(SRC, "pgcn", "cli.py")):
        raise BenchmarkError(f"no pgcn package under {SRC}")
    work = os.path.join(WORK, workload.name)
    in_dir, out_dir = os.path.join(work, "inputs"), os.path.join(work, "outputs")
    shutil.rmtree(work, ignore_errors=True)
    workloads.write_inputs(workload, args.seed, in_dir, out_dir)
    argvs = workloads.steps(workload, args.seed, in_dir, out_dir)
    job_path = os.path.join(work, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "out_dir": out_dir, "steps": argvs}, fh, indent=1)
    reference = checks.Reference(in_dir, workload)

    spawn(job_path, "setup")  # untimed: writes bytecode caches, warms the file cache
    setups = [spawn(job_path, "setup")[0]["setup_s"] for _ in range(SETUP_PROBES)]
    ledger = Ledger()
    plain, traced = [], []
    import_times = []
    check_s = 0.0
    start = time.monotonic()
    min_rounds = 2 * MIN_TRACED_PAIRS if args.trace else MIN_ROUNDS

    round_s = []

    def more_rounds():
        if args.trace and len(traced) < len(plain):
            return True  # a traced round follows every untraced one
        if len(plain) + len(traced) < min_rounds:
            return True
        # Start one more round (a pair when tracing) only if the run then
        # ends nearer to --seconds than it does by stopping now.
        step = statistics.median(round_s) * (2 if args.trace else 1)
        return time.monotonic() - start + step / 2 < args.seconds

    while more_rounds():
        round_start = time.monotonic()
        mode = "trace" if args.trace and len(traced) < len(plain) else "run"
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        result, stderr = spawn(job_path, mode)
        setups.append(result["setup_s"])
        if mode == "trace":
            traced.append(result)
            import_times.append(import_seconds(stderr))
        else:
            plain.append(result)
        checked_at = time.monotonic()
        for name, problems, known_fault in checks.round_operations(
                reference, args.seed, out_dir, argvs, result["rcs"]):
            ledger.record(name, problems, known_fault)
        check_s += time.monotonic() - checked_at
        round_s.append(time.monotonic() - round_start)

    if args.trace:
        metrics = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
        metrics["import.pgcn_s"] = statistics.median(t[0] for t in import_times)
        metrics["import.scipy_stats_s"] = statistics.median(t[1] for t in import_times)
        metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                       - statistics.median(r["run_s"] for r in plain))
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["run_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }

    versions = library_versions()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced rounds in {time.monotonic() - start:.1f} s, "
          f"{len(setups)} set-ups, {check_s:.1f} s of checks")
    print(f"threads {THREADS} (nproc {os.cpu_count()}), numpy {versions['numpy']}, "
          f"scipy {versions['scipy']}, {versions['blas']}")
    print("round run_s " + " ".join(f"{r['run_s']:.3f}" for r in plain + traced))
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {unit_of(key)}")
    print(f"operations attempted {ledger.attempted} failed {ledger.failed}")
    for line in ledger.unexpected:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": not ledger.unexpected,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {key: {"value": value, "unit": unit_of(key)} for key, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    try:
        result = run(args)
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
