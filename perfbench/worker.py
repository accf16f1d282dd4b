"""Command server: runs each CLI command, or the log-likelihood probe, in a process of its own.

    python3 perfbench/worker.py [--trace]

The server imports ``zerocensored.cli`` once, then reads one JSON request per
line from standard input and answers each with one JSON line on standard
output.  Every request runs in a child forked from the server, so each command
starts from the state of a fresh interpreter right after its imports, as a
user's CLI process does, without paying the import again (``setup_s`` measures
the import on its own).  A process per command also keeps one command's heap
state from changing the next command's speed.  The server itself runs no
NumPy work.  ``src/`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def run_command(argv: list[str], trace: bool) -> dict:
    """Run ``zerocensored.cli.main(argv)``, timed, optionally with spans around the public functions."""
    import zerocensored.cli as cli

    err = io.StringIO()
    tracer, missing = None, []
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(err))
        if trace:
            import layers
            from tracing import Tracer

            tracer = Tracer()
            missing = stack.enter_context(tracer.patched(layers.targets(tracer)))
            stack.enter_context(tracer.span(f"cli.{argv[0]}"))
        start = time.perf_counter()
        code = cli.main(argv)
        end = time.perf_counter()
    spans = [] if tracer is None else tracer.to_records()
    return {"code": code, "seconds": end - start, "stderr": err.getvalue(), "spans": spans, "missing": missing}


def run_probe(calls: int, model_json: str, data_csv: str) -> dict:
    """Time ``log_likelihood`` on the interior-only and face-only rows (see ``layers.probe_loglik``)."""
    import layers
    from tracing import Tracer

    tracer = Tracer()
    layers.probe_loglik(tracer, model_json, data_csv, calls)
    return {"code": 0, "spans": tracer.to_records(), "missing": []}


JOBS = {"command": run_command, "probe": run_probe}


def run_in_child(job: str, args: list, cpu: int, cpus: set[int]) -> dict:
    """Fork on ``cpu``, run the job in the child on all of ``cpus`` and return its report.

    A child starts on the CPU its parent runs on and mostly stays there, and
    on a shared machine the CPUs can differ in speed for minutes.  Starting
    successive children on successive CPUs spreads every run's samples evenly
    over them.  A child that dies is reported as failed.
    """
    os.sched_setaffinity(0, {cpu})
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.sched_setaffinity(0, cpus)
        os.close(read_fd)
        try:
            report = JOBS[job](*args)
        except Exception:  # reported to the parent, which counts the operation as failed
            report = {"code": None, "stderr": traceback.format_exc()}
        report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with os.fdopen(write_fd, "w") as fh:
            json.dump(report, fh)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if not text:
        return {"code": None, "stderr": f"command process died (wait status {status})"}
    return json.loads(text)


def main(argv: list[str]) -> int:
    import zerocensored.cli  # noqa: F401  (the import every command process starts from)

    if "--trace" in argv:
        import layers  # noqa: F401

    cpus = os.sched_getaffinity(0)
    for index, line in enumerate(sys.stdin):
        job, args = json.loads(line)
        cpu = sorted(cpus)[index % len(cpus)]
        sys.stdout.write(json.dumps(run_in_child(job, args, cpu, cpus)) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
