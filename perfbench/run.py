#!/usr/bin/env python3
"""Builds and runs the iMobif benchmark (README.md in this directory).

    python3 perfbench/run.py --workload paper_eval --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds this directory's CMake package
(which compiles the library from src/) into the perfbench subdirectory of
$CARGO_TARGET_DIR, or of .bench_build when that is unset, then runs the
benchmark program and passes its output through. The last stdout line is
the JSON result. oracle.json holds digests for ORACLE_SEEDS; for those
seeds the program checks its outputs against them, and for any other seed
run.py says on stdout and stderr that the oracle check is not run.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_eval", "scale_1e5", "mobile_ckpt")
RUN_TIMEOUT_S = 175
# The seeds whose digests record_oracle.py writes into oracle.json.
ORACLE_SEEDS = range(0, 64)


def build():
    """Configures (once) and builds the program; returns its path."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # A subdirectory of its own, so the CMake cache always belongs to this
    # package even when the target directory holds another build.
    out = os.path.abspath(os.path.join(root, "perfbench"))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "imobif_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "imobif_perfbench")


def recorded_digest(workload, seed):
    with open(os.path.join(HERE, "oracle.json")) as f:
        return json.load(f)["digests"].get(workload, {}).get(str(seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    digest = recorded_digest(args.workload, args.seed)
    if digest is not None:
        cmd += ["--expect-digest", digest]
    else:
        note = (f"oracle: no digest recorded for {args.workload} seed "
                f"{args.seed} (oracle.json covers seeds {ORACLE_SEEDS[0]}-"
                f"{ORACLE_SEEDS[-1]}); the oracle check is not run")
        print(f"run.py: {note}", file=sys.stderr)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark program timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        return proc.returncode or 1
    json.loads(lines[-1])  # the result contract: a JSON last line
    if digest is None:
        lines.insert(-1, note)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
