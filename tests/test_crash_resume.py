"""Crash-resume: SIGKILL the CLI job mid-run, re-run, and require a
fully valid output (every shard's manifest digest verifies) — the
operational form of the manifest protocol's partial-output cleanup
(SURVEY.md §4.3.4; reference analogue: processing→pending reset,
enhanced_task_processor.py:196-235).

Runs in a subprocess with its own Ray session (the session-scoped test
fixture is not involved), so the kill cannot disturb other tests.
"""

import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

from validate_output import validate

REPO = os.path.join(os.path.dirname(__file__), "..")


def _run_cli(corpus, out, extra=(), **kw):
    return subprocess.Popen(
        [sys.executable, "-m", "documentconvert_ray.run",
         "--input", corpus, "--output", out,
         "--corpus-rows", "600", "--num-cpus", "4", *extra],
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        **kw,
    )


def test_sigkill_mid_run_then_resume(tmp_path):
    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "out")

    # generate the corpus alone first (so the kill lands mid-EXTRACTION)
    p = _run_cli(corpus, str(tmp_path / "warm"), ["--no-resume"])
    assert p.wait(timeout=240) == 0

    p = _run_cli(corpus, out)
    time.sleep(3.0)  # mid-run for a ~6 s job; harmless if it finished
    if p.poll() is None:
        p.send_signal(signal.SIGKILL)
        p.wait(timeout=30)

    # re-run: partial shards are cleaned and redone; result must be
    # complete and digest-valid
    p2 = _run_cli(corpus, out)
    assert p2.wait(timeout=240) == 0
    assert validate(out) == []


def test_failed_task_keeps_committed_shards(ray_session, tmp_path):
    """One task fails late in the job (a regular file sits where the
    last shard's data directory goes): every shard whose rows were all
    written before it keeps its manifest, so the resume redoes only
    the rest and the output is complete and digest-valid."""
    import pytest

    from conftest import CORPUS_DIR

    from documentconvert_ray.pipelines.extract import (
        expand_input_files,
        run_extract_job,
    )
    from documentconvert_ray.state import manifest as mf

    out = str(tmp_path / "out")
    n = len(expand_input_files(CORPUS_DIR))
    blocker = mf.shard_data_dir(out, n - 1)
    os.makedirs(os.path.dirname(blocker))
    open(blocker, "w").close()
    with pytest.raises(Exception):
        run_extract_job(CORPUS_DIR, out)

    os.remove(blocker)
    m = run_extract_job(CORPUS_DIR, out)
    assert m["resumed_shards"] >= 1
    assert m["resumed_shards"] + m["processed_shards"] == n
    assert m["shards"] == n
    assert validate(out) == []
