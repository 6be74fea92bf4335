#!/usr/bin/env python3
"""Benchmark of the rankone2d command line, checked against theory.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it runs whole rounds of CLI invocations (one process at
a time, closed loop, concurrency 1) until ``--seconds`` of invocation wall
time have passed, checks every output, and prints the end-to-end metrics.
With ``--trace 1`` it runs one round in-process without and one with span
hooks, and prints the per-layer metrics.  The last line of standard output
is the result object; the line before it records the machine and build.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import checks
import reference
import tracing
import workloads

SETUPS = 5           # set-ups per run; setup_s is their median
IMPORT_SAMPLES = 5   # fresh-interpreter imports behind cli.import_s
OP_TIMEOUT = 60.0    # seconds before a hung CLI process is killed
# the subcommand whose latency the workload reports as latency_s
PRINCIPAL = {"certify": "check", "search": "oracle", "map": "scan"}


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str
    wall: float
    cpu: float = 0.0     # user + system time of the process and its threads
    maxrss_kb: int = 0


class Bench:
    def __init__(self, root: str, workload: str, seed: int, tmp: str):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.refs: Dict[tuple, reference.RefEnergy] = {}
        self.correct = True
        self.errors: List[str] = []

    # -- running the CLI -----------------------------------------------------------

    def spawn(self, argv: List[str]) -> Outcome:
        """One CLI process; wall time from spawn to reaping, CPU time and max
        RSS from wait4."""
        out_path = os.path.join(self.tmp, "stdout")
        err_path = os.path.join(self.tmp, "stderr")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "rankone2d.cli", *argv],
                stdout=out, stderr=err, env=self.env, cwd=self.root)
            killer = threading.Timer(OP_TIMEOUT, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no process behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Outcome(proc.returncode, out.read().decode(), err.read().decode(),
                           wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)

    def judge(self, op: workloads.Op, res: Outcome) -> bool:
        """Check one outcome; False when the operation failed outright."""
        d = checks.parse(res.stdout)
        if d is None or res.rc not in (0, 1, 2):
            tail = (res.stderr.strip().splitlines() or ["no output"])[-1]
            self.note(f"FAILED {op.sub} {op.case.label}: exit {res.rc}: {tail}")
            return False
        key = op.case.key()
        if key not in self.refs:
            self.refs[key] = op.case.reference()
        ref = self.refs[key]
        try:
            if op.sub == "scan":
                with open(op.out_csv) as fh:
                    csv_text = fh.read()
                with open(op.out_svg) as fh:
                    svg_text = fh.read()
                checks.check_scan(op, res.rc, d, ref, csv_text, svg_text,
                                  workloads.N_ANGLES)
            else:
                checks.CHECKS[op.sub](op, res.rc, d, ref)
        except (checks.CheckFailed, KeyError, TypeError, ValueError, OSError) as exc:
            self.correct = False
            self.note(f"WRONG {op.sub} {op.case.label}: {type(exc).__name__}: {exc}")
        return True

    def note(self, message: str) -> None:
        if message not in self.errors:
            self.errors.append(message)
            print(message, file=sys.stderr)

    # -- inputs --------------------------------------------------------------------

    def generate(self, directory: str) -> List[workloads.Op]:
        return workloads.generate(self.workload, self.seed, directory)

    def setup(self):
        """Input generation plus one warm-up invocation per subcommand, done
        SETUPS times; returns the ops of the last set-up and the times."""
        times = []
        for i in range(SETUPS):
            directory = os.path.join(self.tmp, f"inputs{i}")
            os.mkdir(directory)
            t0 = time.perf_counter()
            ops = self.generate(directory)
            warm = [(op, self.spawn(op.argv())) for op in first_of_each(ops)]
            times.append(time.perf_counter() - t0)
            for op, res in warm:
                self.judge(op, res)
        return ops, times

    # -- the two modes ---------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        ops, setup_times = self.setup()
        walls, cpus = defaultdict(list), defaultdict(list)
        measured, rss, attempted, failed, rounds = 0.0, 0, 0, 0, 0
        while rounds == 0 or measured < seconds:
            for op in ops:
                res = self.spawn(op.argv())
                measured += res.wall
                walls[op.sub].append(res.wall)
                cpus[op.sub].append(res.cpu)
                rss = max(rss, res.maxrss_kb)
                attempted += 1
                if not self.judge(op, res):
                    failed += 1
            rounds += 1
        completed = attempted - failed
        principal = PRINCIPAL[self.workload]
        metrics = {
            "latency_s": (statistics.median(walls[principal]), "s"),
            "cpu_s": (statistics.median(cpus[principal]), "s"),
            "ops_per_s": (completed / measured, "1/s"),
            "peak_rss_mb": (rss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        info = {
            "rounds": rounds,
            "samples": {sub: len(v) for sub, v in walls.items()},
            "median_wall_s": {s + "_s": statistics.median(v) for s, v in walls.items()},
            "median_cpu_s": {s + "_s": statistics.median(v) for s, v in cpus.items()},
            "setup_runs_s": setup_times,
        }
        return self.result(attempted, failed, metrics, info)

    def traced(self) -> dict:
        sys.path.insert(0, os.path.join(self.root, "src"))
        from click.testing import CliRunner

        from rankone2d import cli

        directory = os.path.join(self.tmp, "inputs")
        os.mkdir(directory)
        ops = self.generate(directory)
        imports = [self.spawn_python("import rankone2d") for _ in range(IMPORT_SAMPLES)]
        runner = CliRunner()
        tracer = tracing.Tracer()

        def one_round(trace: bool):
            total, failed = 0.0, 0
            for i, op in enumerate(ops):
                tracer.op = i
                t0 = time.perf_counter()
                sid = tracer.begin("cli." + op.sub) if trace else None
                res = runner.invoke(cli.main, op.argv())
                if trace:
                    tracer.end(sid)
                wall = time.perf_counter() - t0
                total += wall
                out = Outcome(res.exit_code, res.stdout, "" if res.exception is None
                              or isinstance(res.exception, SystemExit)
                              else repr(res.exception), wall)
                if not self.judge(op, out):
                    failed += 1
            return total, failed

        for op in first_of_each(ops):
            runner.invoke(cli.main, op.argv())  # warm-up, as in set-up
        plain_s, failed_plain = one_round(trace=False)
        hooks = tracing.Hooks(tracer).install()
        try:
            traced_s, failed_traced = one_round(trace=True)
        finally:
            hooks.remove()
        layer = tracing.layer_metrics(tracer.spans)
        layer["cli.import_s"] = statistics.median(imports)
        layer["trace.overhead_s"] = traced_s - plain_s
        metrics = {k: (v, tracing.unit(k)) for k, v in sorted(layer.items())}
        info = {"absent_hooks": hooks.absent, "spans": len(tracer.spans),
                "untraced_round_s": plain_s, "traced_round_s": traced_s}
        return self.result(2 * len(ops), failed_plain + failed_traced, metrics, info)

    def spawn_python(self, code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.root,
                       check=True, timeout=OP_TIMEOUT)
        return time.perf_counter() - t0

    # -- reporting -------------------------------------------------------------------

    def result(self, attempted, failed, metrics, info) -> dict:
        return {"info": info, "result": {
            "correct": self.correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }}


def first_of_each(ops: List[workloads.Op]) -> List[workloads.Op]:
    """The first invocation of every subcommand in the round."""
    return list({op.sub: op for op in reversed(ops)}.values())


def machine_facts(root: str) -> dict:
    """Facts that decide whether two results may be compared at all."""
    commit: Optional[str] = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    backend = subprocess.run(
        [sys.executable, "-c",
         "import rankone2d; print(getattr(rankone2d, 'BACKEND', None))"],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")), cwd=root,
        capture_output=True, text=True, timeout=OP_TIMEOUT).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": commit,
        "rankone2d_backend": backend or None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rankone2d", "cli.py")):
        print("error: run from the root of a rankone2d checkout "
              "(src/rankone2d/cli.py not found)", file=sys.stderr)
        return 2
    failures = reference.self_check()
    if failures:
        print("error: the reference misses its closed forms: "
              + "; ".join(failures), file=sys.stderr)
        return 2

    # a terminated run still removes its temporary directory and CLI process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        bench = Bench(root, args.workload, args.seed, tmp)
        out = bench.traced() if args.trace else bench.measure(args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out["info"].update(workload=args.workload, seed=args.seed,
                       trace=args.trace, errors=bench.errors)
    print(json.dumps({"machine": machine_facts(root), "run": out["info"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
