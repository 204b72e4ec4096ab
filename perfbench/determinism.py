#!/usr/bin/env python3
"""Check that a workload's inputs and outputs do not depend on hash order.

    python3 perfbench/determinism.py --workload cli --seed 1

Runs ``run.py`` briefly (``--seconds 0``, two passes) under
PYTHONHASHSEED=0 and again under PYTHONHASHSEED=1, and compares the
input digest and the output fingerprints (digests of every verdict,
witness and CLI report) of the two runs.  Each run also compares its
fingerprints with those ``baseline.json`` records and must report
``correct``.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, hashseed: str) -> tuple[dict, dict]:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        env=env, check=True, capture_output=True, text=True, timeout=600)
    lines = out.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    runs = [run(args.workload, args.seed, h) for h in ("0", "1")]
    keys = [(s["input_digest"], s["fingerprint"]) for s, _ in runs]
    ok = keys[0] == keys[1] and all(result["correct"] for _, result in runs)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "input_digest": [k[0] for k in keys],
                      "fingerprint": [k[1] for k in keys],
                      "baseline_mismatch": [s["baseline_mismatch"] for s, _ in runs],
                      "ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
