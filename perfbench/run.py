"""Benchmark of a zerocensored CLI session: fit -> simulate -> diagnose -> project (-> plot).

    python3 perfbench/run.py --workload censored-d10 --seed 1 --seconds 60 --trace 0

One user runs the CLI commands one after another on CSV files generated from
the seed (a closed loop with one client), repeating the session until
``--seconds`` is used up; untraced, a short command runs back to back until
its runs in the session add up to ``ROUND_MIN_S``.  Each command runs in a process of its own that
starts from a freshly imported ``zerocensored.cli`` (see ``worker.py``) and
calls ``zerocensored.cli.main``; its time is measured around that call.
``setup_s`` is the cold start of a fresh interpreter up to the end of
``import zerocensored.cli``, which every CLI call pays.  With ``--trace 0``
the commands are timed end to end; with ``--trace 1`` they run with spans
around the package's public functions and the per-layer figures are reported
instead.  Every command's output is checked.  The last line of standard output
is the JSON result; the line before it is a JSON report with sample counts,
spreads, the environment and any absent layers.

Run it from a checkout of the repository; it reads ``src/`` and writes only
under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Monte Carlo draws for the diagnose rate table (the CLI default).
DIAGNOSE_SIMS = 1_000_000
WORKER = Path(__file__).resolve().parent / "worker.py"
#: A single command that runs longer than this counts as failed (and is killed).
COMMAND_TIMEOUT_S = 120
#: In an untraced session, a command shorter than this runs back to back until its
#: runs add up to it, so that short commands are measured over as much time as
#: noise on a shared machine needs, while a long ``fit`` still runs once per session.
ROUND_MIN_S = 0.5
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_STARTS = 3
#: Separate ``log_likelihood`` calls per traced session for the interior and face probes.
PROBE_CALLS = 9
END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "simulate_s": "s",
    "diagnose_s": "s",
    "project_s": "s",
    "peak_rss_mb": "MB",
}


def cap_threads() -> int:
    """Run BLAS/OpenMP single-threaded; must run before NumPy loads.  Returns the CPUs this process may use.

    The package's matrices are at most 10 x 10, too small for threads to pay:
    with two OpenBLAS threads a D = 10 fit took about 35% longer on two CPUs,
    burnt twice the CPU time, and its spinning threads made every command's
    time depend on what else the machine ran.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def environment(nproc: int, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy < 1.26 has no dict mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": nproc,
        "seed": seed,
    }


def measure_setup(env: dict) -> list[float]:
    """Wall time of fresh interpreters up to the end of ``import zerocensored.cli``."""
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import zerocensored.cli"],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Session:
    """The files and commands of one workload's CLI session, with their checks."""

    def __init__(self, workload, inputs, workdir: Path):
        from checks import start_point
        from zerocensored.dataset import transform_dataset
        from zerocensored.io import read_compositions_csv

        self.workload = workload
        self.inputs = inputs
        self.model = workdir / "model.json"
        self.sims = workdir / "sims.csv"
        self.diag = workdir / "diag.json"
        self.projected = workdir / "projected.csv"
        self.svg = workdir / "plot.svg"
        self.sample = transform_dataset(read_compositions_csv(inputs.data_csv))
        self.references = {
            "generator parameters": (workload.mean, workload.cov),
            "start point": start_point(self.sample),
        }
        self.verified: dict[str, str] = {}
        self.first: dict[str, str] = {}

    def commands(self) -> list[tuple[str, list[str]]]:
        w, i = self.workload, self.inputs
        diagnose = ["diagnose", str(self.model), str(i.data_csv), "--sims", str(DIAGNOSE_SIMS), "-o", str(self.diag)]
        if w.replicates is not None:
            diagnose += ["--replicates", str(w.replicates)]
        cmds = [
            ("fit", ["fit", str(i.data_csv), "-o", str(self.model)]),
            ("simulate", ["simulate", str(self.model), "-n", str(w.n_simulate), "-o", str(self.sims)]),
            ("diagnose", diagnose),
            ("project", ["project", str(i.latent_csv), "-o", str(self.projected)]),
        ]
        if w.plot:
            cmds.append(("plot", ["plot", str(i.data_csv), "--model", str(self.model), "-o", str(self.svg)]))
        return cmds

    def check(self, command: str) -> str | None:
        """Check a command's output; outputs already verified byte for byte are not re-read.

        ``simulate`` and ``diagnose`` must also repeat byte for byte (the
        package's determinism contract).
        """
        import checks

        path = {
            "fit": self.model,
            "simulate": self.sims,
            "diagnose": self.diag,
            "project": self.projected,
            "plot": self.svg,
        }[command]
        h = digest(path)
        first = self.first.setdefault(command, h)
        if command in ("simulate", "diagnose") and h != first:
            return f"{command} output differs from the first run with the same seed"
        if self.verified.get(command) == h:
            return None
        w = self.workload
        if command == "fit":
            problem = checks.check_fit(path, self.sample, self.references)
        elif command == "simulate":
            problem = checks.check_simulate(path, w.n_simulate, w.n_parts)
        elif command == "diagnose":
            problem = checks.check_diagnose(path, w.replicates)
        elif command == "project":
            problem = checks.check_project(self.inputs.latent, path)
        else:
            problem = checks.check_plot(path, w.n_obs)
        if problem is None:
            self.verified[command] = h
        return problem


class CommandServer:
    """The ``worker.py`` process that forks one child per command; stopped and waited for by ``close``."""

    def __init__(self, env: dict, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *(["--trace"] if trace else [])],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,  # one process group, so a timeout can kill a running command too
        )

    def request(self, job: str, args: list) -> dict:
        """Run one job; raises ``RuntimeError`` if the server is gone or the job exceeds its time limit."""
        if self.proc.poll() is not None:
            raise RuntimeError("command server is not running")
        self.proc.stdin.write(json.dumps([job, args]) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], COMMAND_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise RuntimeError("no answer from the command process (timed out or crashed)")
        return json.loads(line)

    def kill(self) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()

    def close(self) -> None:
        """End the server: it exits when its input closes, unless a command is still running."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.kill()
        self.proc.stdout.close()


class Runner:
    """Runs each command in a process of its own, times and checks it, and counts attempts and failures."""

    def __init__(self, session: Session, trace: bool, env: dict):
        self.session = session
        self.trace = trace
        self.server = CommandServer(env, trace)
        self.samples: dict[str, list[float]] = {}
        #: Last wall time of each command, request to answer, used to plan what still fits in the run.
        self.wall: dict[str, float] = {}
        self.peak_rss_kb = 0
        self.spans: list[dict] = []
        self.missing: set[str] = set()
        self.attempted = 0
        self.failures: list[str] = []

    def request(self, what: str, job: str, args: list) -> dict | None:
        """Send a job to the server; on a crash, a time-out or an error report, record a failure and return None."""
        try:
            report = self.server.request(job, args)
        except RuntimeError as exc:
            self.failures.append(f"{what}: {exc}")
            return None
        if report["code"] is None:
            self.failures.append(f"{what}: {report['stderr'].strip()}")
            return None
        self.peak_rss_kb = max(self.peak_rss_kb, report["peak_rss_kb"])
        self.missing.update(report["missing"])
        return report

    def run(self, command: str, argv: list[str]) -> bool:
        self.attempted += 1
        began = time.perf_counter()
        report = self.request(command, "command", [argv, self.trace])
        if report is None:
            return False
        self.wall[command] = time.perf_counter() - began
        code = report["code"]
        problem = f"exit code {code}: {report['stderr'].strip()}" if code != 0 else self.session.check(command)
        if problem is not None:
            self.failures.append(f"{command}: {problem}")
            return False
        self.samples.setdefault(command, []).append(report["seconds"])
        self.spans.extend(report["spans"])
        return True

    def run_repeated(self, command: str, argv: list[str], deadline: float) -> bool:
        """Run a command; untraced, run a gated one again until its runs add up to ``ROUND_MIN_S``.

        Repeats stop early when the next run is not expected to end by ``deadline``.
        """
        spent = 0.0
        while self.run(command, argv):
            spent += self.samples[command][-1]
            gated = f"{command}_s" in END_TO_END_UNITS
            if self.trace or not gated or spent >= ROUND_MIN_S or time.perf_counter() + self.wall[command] > deadline:
                return True
        return False

    def run_session(self, deadline: float) -> bool:
        self.spans = []
        return all(self.run_repeated(command, argv, deadline) for command, argv in self.session.commands())

    def probe(self) -> bool:
        """Time ``log_likelihood`` on the interior and face rows, in a process of its own."""
        args = [PROBE_CALLS, str(self.session.model), str(self.session.inputs.data_csv)]
        report = self.request("log-likelihood probe", "probe", args)
        if report is not None:
            self.spans.extend(report["spans"])
        return report is not None

    def repeat_deterministic(self) -> None:
        """Run simulate and diagnose again if they ran only once, so their byte-for-byte repeat is checked."""
        for command, argv in self.session.commands():
            if command in ("simulate", "diagnose") and len(self.samples.get(command, ())) < 2:
                if not self.run(command, argv):
                    return


def run_sessions(runner: Runner, deadline: float, after=None) -> int:
    """Run whole sessions while the next one is expected to end by ``deadline``; at least one.

    Returns the number of sessions run.  ``after`` runs after each session and
    returns False on failure.
    """
    sessions = 0
    while True:
        began = time.perf_counter()
        ok = runner.run_session(deadline) and (after is None or after())
        sessions += 1
        now = time.perf_counter()
        if not ok or now + (now - began) > deadline:
            return sessions


def fill(runner: Runner, deadline: float) -> None:
    """Keep running the session's commands in order, skipping any not expected to end by ``deadline``.

    Short commands thus get many samples while a long ``fit`` gets as many
    as fit.  Outputs already exist, so any command can run in any round.
    """
    while not runner.failures:
        ran = False
        for command, argv in runner.session.commands():
            if time.perf_counter() + runner.wall[command] > deadline:
                continue
            if not runner.run_repeated(command, argv, deadline):
                return
            ran = True
        if not ran:
            return


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values), "min": min(values), "max": max(values)}


def median_or_none(values):
    return statistics.median(values) if values else None


def untraced(runner: Runner, deadline: float, setup: list[float]) -> tuple[dict, dict]:
    sessions = run_sessions(runner, deadline)
    fill(runner, deadline)
    if not runner.failures:
        runner.repeat_deterministic()
    samples = {f"{cmd}_s": v for cmd, v in runner.samples.items()}
    # plot runs on the 3-part workload only, so it cannot be a gated metric of every workload.
    plot = samples.pop("plot_s", None)
    samples["setup_s"] = setup
    metrics = {name: {"value": median_or_none(samples.get(name)), "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    metrics["peak_rss_mb"]["value"] = runner.peak_rss_kb / 1024.0
    report = {
        "sessions": sessions,
        "samples": {name: summary(v) for name, v in samples.items() if v},
        "report_only": {} if plot is None else {"plot_s": summary(plot)},
    }
    return metrics, report


def traced(runner: Runner, deadline: float, workload_name: str, seed: int) -> tuple[dict, dict]:
    import layers

    per_session: list[dict] = []
    all_spans: list[dict] = []

    def after() -> bool:
        if not runner.probe():
            return False
        session_index = len(per_session)
        all_spans.extend(dict(span, session=session_index) for span in runner.spans)
        per_session.append(layers.metrics(runner.spans, runner.session.inputs.face_share))
        return True

    sessions = run_sessions(runner, deadline, after)
    if not runner.failures:
        runner.repeat_deterministic()
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload_name}-seed{seed}.json"
    spans_file.write_text(json.dumps(all_spans) + "\n", encoding="utf-8")

    absent = layers.absent(runner.session.workload, runner.missing)
    medians = {name: median_or_none([m[name] for m in per_session]) for name in layers.UNITS.keys() | layers.REPORT_ONLY}
    metrics = {name: {"value": medians[name], "unit": unit} for name, unit in layers.UNITS.items()}
    report = {
        "sessions": sessions,
        "command_samples": {cmd: summary(v) for cmd, v in runner.samples.items()},
        "report_only": {name: medians[name] for name in layers.REPORT_ONLY if name not in absent},
        "absent": absent,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zerocensored" / "cli.py").is_file():
        print(f"error: {SRC / 'zerocensored'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through the ``finally`` below so the command processes are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc = cap_threads()
    # The package and the modules that import it load only now, after the thread cap.
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    runner = None
    try:
        inputs = make_inputs(workload, args.seed, workdir)
        session = Session(workload, inputs, workdir)
        # The measured window starts here.  Set-up is timed before the command
        # server starts, so the server's own start-up does not compete with it.
        deadline = time.perf_counter() + args.seconds
        setup = None if args.trace else measure_setup(env)
        runner = Runner(session, bool(args.trace), env)
        if args.trace:
            metrics, report = traced(runner, deadline, workload.name, args.seed)
        else:
            metrics, report = untraced(runner, deadline, setup)
    finally:
        if runner is not None:
            runner.server.close()
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": workload.name,
        "trace": args.trace,
        "face_share": inputs.face_share,
        "environment": environment(nproc, args.seed),
        "failures": runner.failures,
        **report,
    }
    for failure in runner.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
