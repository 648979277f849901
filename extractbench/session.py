"""The Ray session the benchmark owns, its warm-up pass, and the
readings taken from ``ds.stats()``.

The session always gets RAY_CPUS logical CPUs, whatever ``nproc`` or
``os.cpu_count()`` report: the engine deadlocks at one CPU (its PDF
actor takes the only CPU and the read tasks never get one), and a
figure must not depend on the host it was taken on.
"""

from __future__ import annotations

import gc
import os
import re
import shutil
import time

import check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".extractbench")
FIXTURE_CORPUS = os.path.join(ROOT, "tests", "fixtures", "corpus")
RAY_CPUS = 2
# a fixed object store, so that Ray Data's memory budgets do not follow
# the host's free memory; the largest corpus is under 10 MB
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# Ray binds unix sockets under <temp>/session_<stamp>_<pid>/sockets/;
# Linux caps a socket path at 107 bytes
_SOCKET_TAIL = len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")


def run_dir(pid: int) -> str:
    """Scratch of the run whose inner process has this pid: Ray's temp
    dir and the job outputs. Runs never share one, so two runs in one
    checkout cannot delete each other's files; run.py removes it when
    the run ends."""
    return os.path.join(WORK, f"r{pid}")


RUN_DIR = run_dir(os.getpid())


def ray_temp_dir() -> str | None:
    """The run's scratch as Ray's temp dir when its socket paths fit;
    otherwise None (Ray's default)."""
    return RUN_DIR if len(RUN_DIR) + _SOCKET_TAIL <= 107 else None


def start_session() -> None:
    """Start the benchmark's own local Ray session.

    Workers import the engine through PYTHONPATH, which run.py sets to
    the checkout before this process starts: the raylet inherits it and
    hands it to every worker (the driver's sys.path never reaches
    them). A job-level ``runtime_env`` would do the same but makes Ray
    start fresh workers instead of its pre-started ones."""
    import ray
    from ray.data import DataContext

    if ROOT not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        raise RuntimeError("PYTHONPATH must hold the checkout for workers")
    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=ray_temp_dir(),
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def stop_session() -> None:
    import ray

    ray.shutdown()


def quiesce(timeout_s: float = 30.0) -> None:
    """Wait until every CPU of the session is free again.

    A finished job's PDF actor keeps its CPU until the job's Dataset is
    garbage-collected; at RAY_CPUS=2 the next job then waits for it
    (observed stalls of ~20 s). Each timed job starts from an idle
    session instead."""
    import ray

    gc.collect()
    deadline = time.monotonic() + timeout_s
    while (ray.available_resources().get("CPU", 0) < RAY_CPUS
           and time.monotonic() < deadline):
        time.sleep(0.02)


def fresh_dir(name: str) -> str:
    d = os.path.join(RUN_DIR, "out", name)
    shutil.rmtree(d, ignore_errors=True)
    return d


def setup(digests: dict, tally) -> float:
    """Start a session, import the engine and run the warm-up pass over
    the fixture corpus, checked against the golden digests. Returns the
    seconds it took; the session stays up."""
    t0 = time.monotonic()
    start_session()
    from documentconvert_ray.config import DEFAULT_CONFIG
    from documentconvert_ray.pipelines.extract import run_extract_job

    out = fresh_dir("warm")
    run_extract_job(FIXTURE_CORPUS, out, DEFAULT_CONFIG, resume=False)
    elapsed = time.monotonic() - t0
    tally.add(len(digests), len(check.check_fixture(digests, out)))
    return elapsed


class Tally:
    """Attempted and failed documents of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


_OP_RE = re.compile(r"^Operator \d+ (.+?): (\d+) tasks executed", re.M)
_CPU_RE = re.compile(r"\* Remote cpu time: .*?, ([\d.]+)(us|ms|s) total")
_HEAP_RE = re.compile(r"\* Peak heap memory usage \(MiB\): [\d.]+ min, ([\d.]+) max")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_stats(stats: str) -> dict[str, dict]:
    """Per-operator ``{"tasks", "cpu_s", "heap_mib"}`` from a
    ``ds.stats()`` dump."""
    ops: dict[str, dict] = {}
    heads = list(_OP_RE.finditer(stats))
    for i, m in enumerate(heads):
        end = heads[i + 1].start() if i + 1 < len(heads) else len(stats)
        body = stats[m.end():end]
        cpu = _CPU_RE.search(body)
        heap = _HEAP_RE.search(body)
        ops[m.group(1)] = {
            "tasks": int(m.group(2)),
            "cpu_s": float(cpu.group(1)) * _UNIT[cpu.group(2)] if cpu else 0.0,
            "heap_mib": float(heap.group(1)) if heap else 0.0,
        }
    return ops


def op_roles(ops: dict[str, dict]) -> dict[str, dict]:
    """The three operators of the extraction plan by role: the fused
    read + stage-1 task, the PDF actor pool, and the fused elephant leg
    + shard writer."""
    empty = {"tasks": 0, "cpu_s": 0.0, "heap_mib": 0.0}
    roles = {"read_html": empty, "pdf_pool": empty, "tail_write": empty}
    for name, v in ops.items():
        if "SniffAndExtractHtml" in name:
            roles["read_html"] = v
        elif "ShardWriter" in name:
            roles["tail_write"] = v
        elif "PdfExtractor" in name:
            roles["pdf_pool"] = v
    return roles
