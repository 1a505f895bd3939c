"""One benchmark operation in a fresh interpreter.

Usage: python3 child.py JOB.json RESULT.json

The job names the package's source directory, the ``wcpca`` command lines to
run and whether to trace. The result records, on the ``CLOCK_MONOTONIC``
clock the parent also reads, when ``import wcpca.cli`` (the module the
``wcpca`` entry point loads) returned and when the last command returned,
each command's exit code, the process's peak resident memory and, when
traced, the per-layer metrics of its spans.

Nothing is imported ahead of ``wcpca`` except what reading the job needs, so
the import time is the package's own set-up time plus interpreter start.
"""

import json
import sys
import time


def peak_rss_kib() -> int:
    """This process's own peak resident memory (``VmHWM``).

    Not ``ru_maxrss``: Linux carries that across ``exec`` from the address
    space the process was spawned from, so it would report the benchmark
    parent's memory whenever the parent is the larger of the two.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])

    import wcpca.cli

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not wcpca.__file__.startswith(job["src"]):
        raise SystemExit(f"imported wcpca from {wcpca.__file__}, not from {job['src']}")

    rec = None
    main = wcpca.cli.main
    if job["trace"]:
        import spans

        rec = spans.Recorder()
        spans.install(rec, wcpca)
        main = rec.wrap("cli.main", main)

    codes = [main(argv) for argv in job["commands"]]
    done = time.clock_gettime(time.CLOCK_MONOTONIC)

    result = {
        "imported": imported,
        "done": done,
        "codes": codes,
        "peak_rss_kib": peak_rss_kib(),
    }
    if rec is not None:
        result["layers"] = spans.layer_metrics(rec.spans)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
