"""The outputs that define the system, written and digested.

`outputs(workdir)` runs the CLI on fixed inputs: eight `lamda
finetune` runs on the golden d 32 model (golden, `lora`, `full`,
`lamda++` forward and reversed, `reverse` with `spectral_tail`, `modsum`
and a `text:` corpus), `lamda report` over them, `lamda count`,
`lamda analyze` on the golden run's backbone, and `lamda plan` forward
and reversed. `tests/test_outputs.py` compares each file with
`tests/data/output_digests.json`, which is never regenerated to make a
change pass.

Each file's record is its sha256, its size and a short digest of each
`BLOCK`-byte block, so that a mismatch is located without the reference
bytes: the first differing block holds the first differing byte.

Usage, from the repository root:
    PYTHONPATH=src python tests/print_output_digests.py            # print every record
    PYTHONPATH=src python tests/print_output_digests.py DIGESTS.json  # name what differs
"""

import hashlib
import json
import os
import sys
import tempfile

from lamda import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
BLOCK = 256
# 16 distinct characters: exactly the golden model's vocab.
CORPUS = "the quick brown fox " * 20

RUNS = {
    "golden": {},
    "lora": {"method": "lora"},
    "full": {"method": "full"},
    "lamdapp": {"method": "lamda++", "budget_ranks": [2, 4, 6], "budget_target": 4},
    "lamdapp-reversed": {"method": "lamda++", "budget_ranks": [2, 4, 6],
                         "budget_target": 4, "reverse_allocation": True},
    "reverse-tail": {"task": "reverse", "init_mode": "spectral_tail"},
    "modsum": {"task": "modsum"},
    # config_hash covers the task id, so the corpus path is relative.
    "text": {"task": "text:corpus.txt"},
}


def _run(*argv):
    code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"lamda {' '.join(argv)} exited {code}")


def outputs(workdir):
    """Write every output under `workdir`; returns {path relative to it: bytes}."""
    with open(os.path.join(DATA, "golden_config.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        os.makedirs("inputs")
        with open("corpus.txt", "w", encoding="utf-8") as fh:
            fh.write(CORPUS)
        with open("inputs/budget.json", "w", encoding="utf-8") as fh:
            json.dump({"ranks": [2, 4, 6], "target": 4}, fh)
        for name, overrides in RUNS.items():
            config = f"inputs/{name}.json"
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(dict(golden, **overrides), fh)
            _run("finetune", "--config", config, "--out-dir", f"runs/{name}")
        os.makedirs("out")
        _run("report", "--runs", "runs", "--out", "out/report.csv")
        _run("count", "--model-preset", "llama2-7b", "--method", "lamda", "--rank", "32",
             "--ti", "0.3", "--json", "out/count-lamda.json", "--csv", "out/count-lamda.csv")
        _run("count", "--model-preset", "llama2-7b", "--method", "lora", "--rank", "16",
             "--json", "out/count-lora.json")
        _run("analyze", "--weights", "runs/golden/backbone.ldwt", "--ranks", "2,4,6",
             "--target", "4", "--scores-out", "out/scores.json",
             "--energy-csv", "out/energy.csv", "--max-rank", "8")
        for plan, flags in (("plan-forward", ()), ("plan-reversed", ("--reverse",))):
            _run("plan", "--scores", "out/scores.json", "--budget", "inputs/budget.json",
                 *flags, "--out", f"out/{plan}.json")
    finally:
        os.chdir(cwd)
    out = {}
    for top in ("runs", "out"):
        for root, _, files in os.walk(os.path.join(workdir, top)):
            for f in files:
                rel = os.path.relpath(os.path.join(root, f), workdir).replace(os.sep, "/")
                with open(os.path.join(root, f), "rb") as fh:
                    out[rel] = fh.read()
    return out


def record(data):
    """sha256, size and block digests (8 hex digits per block) of one file's bytes."""
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "size": len(data),
        "blocks": "".join(hashlib.sha256(data[i:i + BLOCK]).hexdigest()[:8]
                          for i in range(0, len(data), BLOCK)),
    }


def first_difference(want, data):
    """None if `data` matches the record `want`; else the offset of the first
    `BLOCK`-byte block that differs, which holds the first differing byte."""
    got = record(data)
    if got["sha256"] == want["sha256"]:
        return None
    for i in range(0, min(len(got["blocks"]), len(want["blocks"])), 8):
        if got["blocks"][i:i + 8] != want["blocks"][i:i + 8]:
            return i // 8 * BLOCK
    return min(got["size"], want["size"])  # one is a prefix of the other


def mismatches(want, got):
    """One line for each output in `got` ({path: bytes}) that differs from,
    or has no record in, `want` ({path: record}), and each record with no output."""
    lines = []
    for rel in sorted(set(want) | set(got)):
        if rel not in got:
            lines.append(f"{rel} was not written")
        elif rel not in want:
            lines.append(f"{rel} has no committed digest")
        elif (offset := first_difference(want[rel], got[rel])) is not None:
            lines.append(f"{rel} differs first in bytes {offset}-{offset + BLOCK - 1} "
                         f"(size {len(got[rel])}, committed {want[rel]['size']})")
    return lines


def main(argv):
    with tempfile.TemporaryDirectory() as workdir:
        got = outputs(workdir)
    if not argv:
        print(json.dumps({rel: record(data) for rel, data in got.items()},
                         indent=1, sort_keys=True))
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        lines = mismatches(json.load(fh), got)
    print("\n".join(lines) or "every output matches")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
