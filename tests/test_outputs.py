"""Every output that defines the system keeps every bit.

`tests/data/output_digests.json` was generated once, at commit 36258cf,
by `tests/print_output_digests.py`. Like `golden_loss.csv`, it is never
regenerated to make a change pass: a deliberate bit change is recorded in
`CHANGES.md` with the old and new digests.
"""

import json
import os

import print_output_digests as digests


def test_every_output_matches_its_committed_digest(tmp_path):
    with open(os.path.join(digests.DATA, "output_digests.json"), encoding="utf-8") as fh:
        want = json.load(fh)
    lines = digests.mismatches(want, digests.outputs(tmp_path))
    assert not lines, "\n".join(lines)


def test_mismatch_names_the_file_and_the_block_of_its_first_differing_byte():
    data = bytes(range(256)) * 3
    want = {"a.bin": digests.record(data), "b.bin": digests.record(data)}
    changed = bytearray(data)
    changed[300] ^= 1
    assert digests.mismatches(want, {"a.bin": data, "b.bin": bytes(changed)}) == [
        "b.bin differs first in bytes 256-511 (size 768, committed 768)"]
    assert digests.mismatches(want, {"a.bin": data[:700], "c.bin": data}) == [
        "a.bin differs first in bytes 512-767 (size 700, committed 768)",
        "b.bin was not written",
        "c.bin has no committed digest",
    ]
