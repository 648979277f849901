"""Output-integrity validator (tools/validate_output.py)."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

from conftest import CORPUS_DIR

from documentconvert_ray.pipelines.extract import run_extract_job
from validate_output import validate


def test_validator_passes_then_catches_corruption(ray_session, tmp_path):
    out = str(tmp_path / "out")
    run_extract_job(CORPUS_DIR, out)
    assert validate(out) == []

    # tamper with one manifest digest → caught
    mp = os.path.join(out, "_manifest", "shard-000001.json")
    m = json.load(open(mp))
    m["content_digest"] = "0" * 64
    json.dump(m, open(mp, "w"))
    problems = validate(out)
    assert any("digest mismatch" in p for p in problems)

    # data dir without manifest → caught as partial
    os.remove(mp)
    problems = validate(out)
    assert any("without manifest" in p for p in problems)
