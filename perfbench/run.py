#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/main.ml).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn
    python3 perfbench/run.py --self-test

Run it from the root of an avp checkout.  It builds perfbench/main.exe
with dune into _build/ (dune's shared cache off, so nothing is written
outside the checkout), then runs it with the same arguments.  The last
line the benchmark prints on stdout is its JSON result; build output
goes to stderr.  Outside a checkout it exits 2 without a result.

`--workload all` runs each workload in a process of its own, so that
each one's first op meets a fresh heap and its peak_heap_mb is its own,
and prints one JSON result whose metrics are named <workload>/<metric>.
"""

import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["enum-tour-medium", "mutate-pp", "fuzz-pp"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_all(argv):
    i = argv.index("--workload")
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        args = argv[:i + 1] + [name] + argv[i + 2:]
        proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            metrics[f"{name}/{metric}"] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of an avp checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--cache=disabled",
             "./perfbench/main.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        if "--workload" in argv[:-1] and \
                argv[argv.index("--workload") + 1] == "all":
            return run_all(argv)
        return subprocess.run([EXE] + argv, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
