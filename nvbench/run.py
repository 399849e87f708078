#!/usr/bin/env python3
"""Build nvbench from source and run one workload.

    python3 nvbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The crate builds with `cargo --offline`
into `$CARGO_TARGET_DIR` (default `nvbench/target`). The benchmark's
report is relayed unchanged; the last line becomes the result object with
exactly the metrics `BENCHMARK.json` lists for the mode (`end_to_end` for
`--trace 0`, `per_layer` for `--trace 1`). Exits non-zero, printing no
result, when the build or the run fails; exits non-zero with
`"correct": false` when the benchmark found wrong output.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"nvbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    traced = "--trace" in args and args[args.index("--trace") + 1] not in ("0", "")
    with open(SPEC) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"cargo build failed ({build.returncode})")

    exe = os.path.join(target, "release", "nvbench")
    try:
        run = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(run.stdout)
        fail(f"no result line (exit {run.returncode})")
    for line in lines[:-1]:
        print(line)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail(f"benchmark did not report {', '.join(missing)}")
    metrics = {
        n: {"value": result["metrics"][n]["value"], "unit": result["metrics"][n]["unit"]}
        for n in names
    }
    out = {k: result[k] for k in ("correct", "attempted", "failed")}
    out["metrics"] = metrics
    print(json.dumps(out))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
