"""Benchmark of the billiards command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload beta-perturbed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each task is one CLI command, driven in-process through
``billiards.cli.main(argv)`` with ``--threads 1`` on table files generated
from ``--seed``.  The run first runs tasks for about a second of warm-up,
then times the program's set-up (loading the tables, and building the
conjugacies on the conjugacy workload) several times, then runs and times
tasks for ``--seconds``.  Every task's output files are read back and
checked; a task that exits nonzero, raises or fails a check is counted as
failed and never retried.  The result is correct when no task wrote output
that fails its check; a task that stops on a typed error is failed but
wrote no wrong output.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics; with ``--trace 1`` each task runs twice, untraced
and then with the per-layer wrappers of ``tracer.py`` installed, and the
result holds the per-layer metrics.  The lines before it list the
environment, every task with its inputs, and every metric with its unit.
See README.md in this directory for the metrics and the workloads.
"""

import os

# One BLAS thread, set before numpy loads: with the default two OpenBLAS
# threads, `mm` on a 2:1 ellipse ran 13x slower when two other processes
# competed for the CPUs, while one thread kept its speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

SETUP_TASKS = 24  # tasks whose tables the set-up builds
SETUP_ROUNDS = 7  # times each task's set-up is timed; setup_s sums the medians
WARMUP_S = 1.0  # the first process after idle ran 3.7x slower
TASK_TIMEOUT_S = 60  # a stalled solve fails its task instead of the run


class TaskTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise TaskTimeout(f"task ran longer than {TASK_TIMEOUT_S} s")


@dataclass
class Result:
    task: object
    phase: str  # warmup, timed, untraced or traced
    seconds: float  # wall time
    slowdown: float  # host speed while it ran, from speed.py
    accuracy: float | None = None
    problems: list[str] = field(default_factory=list)
    wrong_output: bool = False  # output written but failing its check

    @property
    def ref_seconds(self) -> float:
        """Wall time rescaled to the reference machine speed."""
        return self.seconds / self.slowdown


def run_task(cli, workload, task, out: Path, phase: str, tracer=None) -> Result:
    argv = task.argv + ["--out", str(out)]
    error = None
    before = speed.probe()
    signal.alarm(TASK_TIMEOUT_S)
    if tracer is not None:
        tracer.install(task.index)
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # a task that raises is a failed task, not a failed run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        signal.alarm(0)
    result = Result(task, phase, seconds, speed.slowdown([before, speed.probe()]))
    if error is not None:
        result.problems.append(f"raised {error}")
    elif rc != 0:
        result.problems.append(f"exit code {rc}")
        # 4 is the CLI's own accuracy check failing (conjugacy --threshold);
        # other codes are typed errors that stop the command without output
        result.wrong_output = rc == 4
    else:
        try:
            result.accuracy, result.problems = workload.check(task, out)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            result.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        result.wrong_output = bool(result.problems)
    return result


def measure_setup(workload) -> list[list[tuple[float, float]]]:
    """The set-up of the first SETUP_TASKS tasks: load_table on each task's
    table files and, on the conjugacy workload, build_conjugacy of the pair.
    Each task's set-up is timed SETUP_ROUNDS times, each time between two
    speed probes; the result holds, per task, (wall seconds, host slowdown)
    of every round.  Short samples, each bracketed by its own probes, follow
    the host's speed more closely than one long one.  It runs in this
    process after the warm-up, so interpreter and library start-up stay out
    of it."""
    from billiards.ellipse_maps import build_conjugacy
    from billiards.tables import load_table

    files = [workload.task(k).tables for k in range(SETUP_TASKS)]
    samples = [[] for _ in files]
    for _ in range(SETUP_ROUNDS):
        for task_files, task_samples in zip(files, samples):
            before = speed.probe()
            start = time.perf_counter()
            tables = [load_table(f) for f in task_files]
            if workload.builds_conjugacy:
                build_conjugacy(*tables)
            seconds = time.perf_counter() - start
            task_samples.append((seconds, speed.slowdown([before, speed.probe()])))
    return samples


def cold_import_s() -> float:
    """Wall seconds to import billiards.cli in a fresh interpreter.  Printed
    but not bounded: it is mostly Python, numpy and scipy start-up."""
    code = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import billiards.cli; print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def warm_up(cli, workload, tasks, workdir: Path) -> list[Result]:
    """Untimed tasks for WARMUP_S; they are still checked and counted."""
    results = []
    warm_end = time.perf_counter() + WARMUP_S
    for task in tasks:
        results.append(run_task(cli, workload, task, workdir / f"out{task.index}", "warmup"))
        if time.perf_counter() >= warm_end:
            return results


def run_tasks(cli, workload, tasks, seconds: float, workdir: Path, tracer) -> list[Result]:
    results = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        task = next(tasks)
        out = workdir / f"out{task.index}"
        if tracer is None:
            results.append(run_task(cli, workload, task, out, "timed"))
        else:
            results.append(run_task(cli, workload, task, out, "untraced"))
            results.append(run_task(cli, workload, task, Path(f"{out}t"), "traced", tracer))
    return results


def fingerprint() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "billiards").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _git_commit() -> str | None:
    """HEAD of the checkout; None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:  # no git
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(results, setup) -> dict:
    """The metrics of BENCHMARK.json, with times rescaled to the reference
    machine speed, and their wall-clock counterparts for the report."""
    timed = [r for r in results if r.phase == "timed"]
    done = sum(r.task.work for r in timed if not r.problems)
    return {
        "setup_s": sum(statistics.median(seconds / slow for seconds, slow in task)
                       for task in setup),
        "task_s_p50": statistics.median(r.ref_seconds for r in timed),
        "work_per_s": done / sum(r.ref_seconds for r in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall setup_s": sum(statistics.median(seconds for seconds, _ in task)
                            for task in setup),
        "wall task_s_p50": statistics.median(r.seconds for r in timed),
        "wall work_per_s": done / sum(r.seconds for r in timed),
        "host slowdown (median)": statistics.median(r.slowdown for r in timed),
    }


def report(workload, results, setup, metrics, units) -> None:
    """Every task with its inputs, every failure, then every metric by name
    with its unit; end-to-end runs also print the workload's throughput,
    failure share and accuracy under their own names."""
    for r in results:
        status = "ok" if not r.problems else "FAILED " + "; ".join(r.problems)
        acc = "" if r.accuracy is None else f"{workload.accuracy_metric}={r.accuracy:.3e}"
        print(f"task {r.task.index:4d} {r.phase:8s} {r.seconds:8.4f} s  slowdown {r.slowdown:.3f}  "
              f"{acc}  {status}  inputs={json.dumps(r.task.inputs)}")
    failed = [r for r in results if r.problems]
    for r in failed:
        print(f"failed task {r.task.index}: {'; '.join(r.problems)}; "
              f"argv={' '.join(r.task.argv)}; inputs={json.dumps(r.task.inputs)}")
    for k, task in enumerate(setup):
        print(f"setup of task {k} (wall s/slowdown): "
              + " ".join(f"{seconds:.4f}/{slow:.3f}" for seconds, slow in task))
    named = [(name, metrics[name], unit) for name, unit in units.items()]
    if "work_per_s" in metrics:
        accuracies = [r.accuracy for r in results if r.accuracy is not None]
        named += [
            ("wall setup_s", metrics["wall setup_s"], "s"),
            ("cold import of billiards.cli (wall, unbounded)", cold_import_s(), "s"),
            ("wall task_s_p50", metrics["wall task_s_p50"], "s"),
            ("wall work_per_s", metrics["wall work_per_s"], "1/s"),
            ("host slowdown (median)", metrics["host slowdown (median)"], "ratio"),
            (f"{workload.work_metric} (= work_per_s)", metrics["work_per_s"], "1/s"),
            ("task count (timed)", sum(r.phase == "timed" for r in results), "count"),
            ("fail_frac", len(failed) / len(results), "ratio"),
            ("wrong outputs", sum(r.wrong_output for r in results), "count"),
            (f"{workload.accuracy_metric} (worst task; fails above {workload.accuracy_tol:g})",
             float(np.max(accuracies)) if accuracies else math.nan, "abs"),
        ]
    for name, value, unit in named:
        print(f"metric {name:60s} {value:14.6g} {unit}")


def run_workload(args, name: str) -> int:
    import billiards
    import billiards.cli as cli
    from tracer import Tracer
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"{name}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir()
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        workload = WORKLOADS[name](args.seed, workdir)
        print("environment " + json.dumps(fingerprint()))
        print(f"workload {name} seed {args.seed} input shift {workload.inputs.shift.tolist()}")
        tracer = Tracer(billiards)
        tasks = (workload.task(k) for k in itertools.count())
        results = warm_up(cli, workload, tasks, workdir)
        setup = [] if args.trace else measure_setup(workload)
        results += run_tasks(cli, workload, tasks, args.seconds, workdir,
                             tracer if args.trace else None)
        tracer.assert_clean()
        if args.trace:
            traced = [r for r in results if r.phase == "traced"]
            untraced = sum(r.ref_seconds for r in results if r.phase == "untraced")
            metrics = tracer.metrics(units, sum(r.ref_seconds for r in traced) / untraced - 1.0,
                                     {r.task.index: r.slowdown for r in traced})
            tracer.save(RUNS / f"spans-{name}-s{args.seed}.npz")
        else:
            metrics = end_to_end(results, setup)
        report(workload, results, setup, metrics, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for r in results if r.problems)
    print(json.dumps({
        "correct": not any(r.wrong_output for r in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


def run_all(args, names) -> int:
    """Every workload in turn, each in its own process; the last line joins
    their results with metric names prefixed by the workload."""
    joined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"run.py: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        joined["correct"] &= result["correct"]
        joined["attempted"] += result["attempted"]
        joined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            joined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(joined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="beta-perturbed, mm-ellipse, conjugacy-ellipse, orbit-perturbed or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "billiards" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC / 'billiards'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_workload(args, args.workload)


if __name__ == "__main__":
    sys.exit(main())
