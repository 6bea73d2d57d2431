#!/usr/bin/env python3
"""Records the benchmark's output digests into oracle.json.

    python3 perfbench/record_oracle.py

Run it from the repository root, on the commit whose outputs define
"correct". It rewrites the whole table for every workload and for the seeds
in run.ORACLE_SEEDS. Each recorded digest must come from a run whose own
checks all passed; later runs of that workload and seed fail their digest
check when the outputs change.
"""
import concurrent.futures
import json
import os
import subprocess

import run

JOBS = 2  # benchmark processes at a time; scale_1e5 holds ~150 MiB each


def digest_of(binary, workload, seed):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().split("\n")
    if not json.loads(lines[-1])["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: checks failed")
    return next(l.split()[1] for l in lines if l.startswith("digest "))


def main():
    binary = run.build()
    jobs = [(w, s) for w in run.WORKLOADS for s in run.ORACLE_SEEDS]
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        digests = list(pool.map(lambda j: digest_of(binary, *j), jobs))
    table = {w: {} for w in run.WORKLOADS}
    for (w, s), d in zip(jobs, digests):
        table[w][str(s)] = d
    path = os.path.join(run.HERE, "oracle.json")
    with open(path, "w") as f:
        json.dump({"digests": table}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(jobs)} digests to {path}")


if __name__ == "__main__":
    main()
