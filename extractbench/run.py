"""Layered benchmark of the extraction job (``run_extract_job``).

    python3 extractbench/run.py --workload web-mix --seed 1 --seconds 16 --trace 0

Works from any working directory. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones (see README.md); the last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. The run happens in a child process in its own process
group; a run that outlives RUN_TIMEOUT_S is killed with every process
it started and reported as one whose documents all failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import check
import session

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 150
SETUPS = 2          # set-ups per run; setup_s is their median
RECOVERIES = 5      # crash recoveries per run; recover_s is their median
MIN_JOBS = 3        # timed jobs per run, at least; docs_per_s is their median
WORKLOADS = ("web-mix", "pdf-heavy")
# settings of the run's own processes that would otherwise come from the
# caller's environment: Ray's memory monitor (it kills workers when the
# host, not this run, is short of memory), usage reporting, progress
# bars, and one BLAS/OpenMP thread per process
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "RAY_memory_monitor_refresh_ms": "0",
    "RAY_USAGE_STATS_ENABLED": "0",
    "RAY_DATA_DISABLE_PROGRESS_BARS": "1",
}

E2E_UNITS = {
    "docs_per_s": "docs/s",
    "setup_s": "s",
    "recover_s": "s",
    "cpu_s_per_kdoc": "s/kdoc",
    "peak_worker_heap_mb": "MiB",
}


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _emit(correct: bool, tally, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"documents: attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))


def _lose_shards(mf, out: str, lost: list[int]) -> None:
    for sid in lost:
        os.remove(mf.manifest_path(out, sid))
        shutil.rmtree(mf.shard_data_dir(out, sid))


def timed_run(args, corpus: dict, exp) -> None:
    from documentconvert_ray.config import DEFAULT_CONFIG
    from documentconvert_ray.pipelines.extract import run_extract_job
    from documentconvert_ray.state import manifest as mf

    tally = session.Tally()
    digests = check.load_fixture_digests(ROOT)
    marks = [time.monotonic()]
    setups = []
    for i in range(SETUPS):
        if i:
            session.stop_session()
        setups.append(session.setup(digests, tally))

    marks.append(time.monotonic())
    files, rows = corpus["files"], corpus["rows"]
    walls, cpu_per_kdoc, heaps = [], [], []
    deadline = time.monotonic() + args.seconds
    while len(walls) < MIN_JOBS or time.monotonic() < deadline:
        session.quiesce()
        out = session.fresh_dir("job")
        stats: list[str] = []
        t0 = time.monotonic()
        m = run_extract_job(files, out, DEFAULT_CONFIG, resume=False,
                            stats_sink=stats.append)
        walls.append(time.monotonic() - t0)
        ops = session.parse_stats(stats[0])
        cpu_per_kdoc.append(
            sum(v["cpu_s"] for v in ops.values()) / rows * 1000)
        heaps.append(max(v["heap_mib"] for v in ops.values()))
        tally.add(rows, len(check.check_output(exp, out, m)))

    # crash recovery: a seed-chosen, fixed-size set of shards loses its
    # manifest and data; the resumed job must redo exactly those and
    # reproduce their content digests. The draw skips shards holding an
    # /R 6 PDF (0.3-0.7 s of the ~1.5 s a recovery takes), or recover_s
    # would report whether the draw hit one.
    marks.append(time.monotonic())
    ref = check.shard_digests(out)
    n_lost = max(1, len(files) // 10)
    pool = [i for i in range(len(files)) if i not in corpus["r6_files"]]
    lost = sorted(random.Random(args.seed).sample(pool, n_lost))
    lost_urls = {u for i in lost for u in exp.urls_of_file[i]}
    recovers = []
    for _ in range(RECOVERIES):
        _lose_shards(mf, out, lost)
        session.quiesce()
        t0 = time.monotonic()
        m = run_extract_job(files, out, DEFAULT_CONFIG, resume=True)
        recovers.append(time.monotonic() - t0)
        failed = check.check_output(exp, out, m) & lost_urls
        if (check.shard_digests(out) != ref
                or m["processed_shards"] != n_lost):
            failed = lost_urls
        tally.add(len(lost_urls), len(failed))
    marks.append(time.monotonic())
    session.stop_session()
    marks.append(time.monotonic())

    metrics = {
        "docs_per_s": rows / statistics.median(walls),
        "setup_s": statistics.median(setups),
        "recover_s": statistics.median(recovers),
        "cpu_s_per_kdoc": statistics.median(cpu_per_kdoc),
        "peak_worker_heap_mb": statistics.median(heaps),
    }
    print(f"timed jobs: {len(walls)}, walls "
          f"{[round(w, 3) for w in walls]} s; set-ups "
          f"{[round(s, 3) for s in setups]} s; recoveries "
          f"{[round(r, 3) for r in recovers]} s", file=sys.stderr)
    print("phases (set-ups, timed jobs, recoveries, shutdown): "
          f"{[round(b - a, 1) for a, b in zip(marks, marks[1:])]} s",
          file=sys.stderr)
    _emit(tally.failed == 0, tally, metrics, E2E_UNITS)


def inner(args) -> int:
    t_start = time.monotonic()
    import inputs  # imports the engine, so not before main()'s check

    corpus = inputs.prepare(session.WORK, args.workload, args.seed)
    if corpus["gen_s"]:
        print(f"generated {args.workload} seed {args.seed}: "
              f"{corpus['rows']} rows in {corpus['gen_s']:.1f} s",
              file=sys.stderr)
    exp = check.Expected(corpus["files"])
    if args.trace:
        import layers

        tally, metrics, units = layers.traced_run(args, corpus, exp)
        _emit(tally.failed == 0, tally, metrics, units)
    else:
        timed_run(args, corpus, exp)
    print(f"run took {time.monotonic() - t_start:.1f} s", file=sys.stderr)
    return 0


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _reap(pgid: int) -> None:
    """Kill whatever is left of the child's process group (Ray daemons
    and workers included) and wait until it is gone."""
    deadline = time.monotonic() + 20
    while _group_alive(pgid) and time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(0.05)


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(ROOT, "documentconvert_ray",
                                       "__init__.py")):
        print(f"extractbench: no documentconvert_ray package in {ROOT}",
              file=sys.stderr)
        return 2
    if args.inner:
        return inner(args)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, env.get("PYTHONPATH", "")) if p)
    env.update(PINNED_ENV)
    os.makedirs(os.path.join(ROOT, ".extractbench"), exist_ok=True)
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__),
         *(argv if argv is not None else sys.argv[1:]), "--inner"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _reap(child.pid)
        child.communicate()
        shutil.rmtree(session.run_dir(child.pid), ignore_errors=True)
        print(f"extractbench: run exceeded {RUN_TIMEOUT_S} s; killed",
              file=sys.stderr)
        sys.path[:0] = [HERE, ROOT]
        import inputs

        n = inputs.SIZES[args.workload]
        print(json.dumps({"correct": False, "attempted": n, "failed": n,
                          "metrics": {}}))
        return 1
    _reap(child.pid)
    shutil.rmtree(session.run_dir(child.pid), ignore_errors=True)
    sys.stdout.write(out)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
