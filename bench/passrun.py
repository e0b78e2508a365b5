"""One benchmark pass: a list of ``dilutecw.cli.main(argv)`` calls in this fresh interpreter.

Reads the pass spec as JSON on stdin::

    {"ops": [{"id": ..., "argv": [...], "repeat": k, "out": file-or-null}],
     "trace": bool, "kernel": [table_n, threads]}

and writes one JSON object to stdout: for each op, every call's exit code,
seconds and output digest (stdout plus the ``out`` file), the first call's
stdout, and the process's peak RSS.  With ``"trace": true`` the layer
functions are wrapped (see ``tracing.py``) and the spans are included;
otherwise the reference kernel of ``calibration.py``, in the workload's shape
``kernel``, is timed before the first op and after each op, and those seconds
are included as ``calibration``.
The command's own stdout and stderr are captured, so they never mix with ours.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _call(cli, op: dict) -> dict:
    if op["out"] is not None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(op["out"])  # a failed call must not be credited with an old file
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
    except Exception:  # a traceback is an op failure, and the pass goes on
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(out.getvalue().encode())
    if op["out"] is not None and os.path.exists(op["out"]):
        with open(op["out"], "rb") as fh:
            digest.update(fh.read())
    return {
        "code": code,
        "seconds": seconds,
        "digest": digest.hexdigest(),
        "stdout": out.getvalue(),
        "stderr": (error or err.getvalue())[-2000:],
    }


def main() -> None:
    spec = json.load(sys.stdin)
    import dilutecw.cli as cli

    tracer = calibration = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        from calibration import kernel_seconds

        kernel_seconds(*spec["kernel"])  # warm-up, not counted
        calibration = [kernel_seconds(*spec["kernel"])]
    results = []
    for op in spec["ops"]:
        calls = [_call(cli, op) for _ in range(op["repeat"])]
        if calibration is not None:
            calibration.append(kernel_seconds(*spec["kernel"]))
        for later in calls[1:]:
            del later["stdout"], later["stderr"]
        results.append({"id": op["id"], "calls": calls})
    report = {
        "ops": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else None,
        "calibration": calibration,
    }
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
