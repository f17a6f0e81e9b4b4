"""One workload process: import ``pgcn.cli``, run the job, report timings.

Usage: ``worker.py <job.json> <spawn clock> <setup|run|trace>``.  The
spawn clock is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so
``setup_s`` covers interpreter start-up and ``import pgcn.cli``.
Nothing imports numpy or scipy before that import, and no check runs in
this process, so ``peak_rss_mb`` is the job's own footprint.  The last
line of standard output is one JSON object.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def main():
    job_path, spawned_at, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import pgcn.cli

    setup_s = time.monotonic() - spawned_at
    result = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rcs = []
    start = time.monotonic()
    for k, argv in enumerate(job["steps"]):
        path = os.path.join(job["out_dir"], f"stdout_{k}.txt")
        with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            try:
                rc = pgcn.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a malformed command line this way
                rc = exc.code
            except Exception:  # a crash is one failed invocation; the job goes on
                traceback.print_exc()
                rc = "exception"
        rcs.append(rc)
    result["run_s"] = time.monotonic() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["rcs"] = rcs
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
