#!/usr/bin/env python3
"""Self-test: each injected fault must make the benchmark report failures.

    python3 perfbench/selftest.py

Run it from the repository root. A clean run must report no failed check;
a snapshot with one byte flipped before restore, a wrong expected digest,
and a traced-run policy decorator that flips one verdict must each report
at least one. Exits non-zero when any case disagrees.
"""
import json
import subprocess
import sys

import run

CASES = [
    # (name, workload, extra program flags, failures expected)
    ("clean run", "paper_eval", [], False),
    ("clean traced run", "mobile_ckpt", ["--trace", "1"], False),
    ("flipped snapshot byte", "mobile_ckpt", ["--inject", "flip-snapshot"],
     True),
    ("wrong expected digest", "paper_eval",
     ["--expect-digest", "0123456789abcdef"], True),
    ("perturbed policy call", "paper_eval",
     ["--trace", "1", "--inject", "perturb-policy"], True),
]


def main():
    binary = run.build()
    ok = True
    for name, workload, flags, expect_failures in CASES:
        cmd = [binary, "--workload", workload, "--seed", "0",
               "--seconds", "1"] + flags
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        share = result["failed"] / result["attempted"]
        passed = proc.returncode == 0 and (share > 0) == expect_failures
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: failed_share "
              f"{share:.4g} ({result['failed']}/{result['attempted']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
