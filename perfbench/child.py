"""Run one ``voachar`` CLI op in this fresh interpreter and report on stdout.

Usage: python3 child.py <trace 0|1> <op_id> <argv...>

``voachar`` must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH).  The first thing this process does is import ``voachar.cli``
and build its parser; the monotonic time at which that returns is reported
as ``ready``, so run.py can subtract its own launch time.  Only
``cli.main(argv)`` is timed as the op.  The report is one JSON object.
"""

import time

from voachar import cli

cli.build_parser()
READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def peak_rss_kib() -> int:
    """Peak resident set of this process since exec (VmHWM).  Not
    ``ru_maxrss``: on Linux that also counts the resident set the parent had
    when it forked this process."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run(trace: bool, op_id: int, argv: list[str]) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer, summarize

        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    status, error = None, None
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # reported to run.py, which counts the op as failed
        error = traceback.format_exc(limit=4)
    op_s = time.perf_counter() - start
    op_cpu_s = time.process_time() - start_cpu
    rss_kib = peak_rss_kib()
    report = {
        "ready": READY,
        "op_s": op_s,
        "op_cpu_s": op_cpu_s,
        "rss_kib": rss_kib,
        "status": status,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
    }
    if tracer is not None:
        spans = tracer.spans()
        names = sorted(set(tracer.names))
        index = {name: i for i, name in enumerate(names)}
        report["trace"] = summarize(spans, tracer.counters)
        report["absent"] = tracer.absent
        report["spans"] = {
            "op": op_id,
            "names": names,
            "rows": [[index[n], s, e, p] for n, s, e, p in spans],
        }
    return report


if __name__ == "__main__":
    report = run(sys.argv[1] == "1", int(sys.argv[2]), sys.argv[3:])
    sys.stdout.write(json.dumps(report) + "\n")
