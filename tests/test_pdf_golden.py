"""Differential golden set for the PDF kernel: ``extract_pdf`` over 600
``make_pdf`` documents (every generator class) must reproduce the
digests frozen in tests/fixtures/pdf_golden.csv byte for byte.
Regenerate with ``python tools/gen_fixtures.py --pdf`` only when an
output change is intended."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

from gen_fixtures import (
    PDF_CLASS_MARKERS,
    PDF_GOLDEN_CSV,
    PDF_GOLDEN_HEADER,
    pdf_classes,
    pdf_golden_payloads,
    pdf_golden_row,
)


def test_pdf_kernel_matches_golden_set():
    with open(PDF_GOLDEN_CSV) as f:
        want = f.read().splitlines()
    assert want[0] == PDF_GOLDEN_HEADER
    seen: set[str] = set()
    got = [PDF_GOLDEN_HEADER]
    for doc_id, seed, payload in pdf_golden_payloads():
        seen |= pdf_classes(payload)
        got.append(pdf_golden_row(doc_id, seed, payload))
    assert seen == set(PDF_CLASS_MARKERS) | {"truncated"}
    assert len(got) == len(want) >= 501
    diff = [(w, g) for w, g in zip(want, got) if w != g]
    assert not diff, f"{len(diff)} rows differ, first: {diff[0]}"
