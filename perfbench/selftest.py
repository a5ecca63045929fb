#!/usr/bin/env python3
"""Self-tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

Checks, on every workload:
  1. names: a short untraced and a short traced run print exactly the
     end_to_end and per_layer metric names (and units) of BENCHMARK.json,
     with every operation correct;
  2. inputs: the same seed gives the same prefill and op streams, and
     another seed gives others;
  3. output check: a run that deliberately forgets one successful prefill
     insert (--corrupt) reports failed operations and exits non-zero;
and once: a directory holding only BENCHMARK.json and perfbench/ (no
library sources) makes run.py exit non-zero without a result line.
Exits 1 on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SHORT = ["--seconds", "1", "--reps", "2"]


def run(args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        sys.exit(1)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in (x["name"] for x in bench["workloads"]):
        for trace, names in expected.items():
            proc = run(["--workload", w, "--seed", "5", "--trace", trace] +
                       SHORT)
            res = result_of(proc)
            check(proc.returncode == 0 and res is not None,
                  f"{w} trace={trace}: exits 0 with a result line")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == names,
                  f"{w} trace={trace}: metric names and units match "
                  "BENCHMARK.json")
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1,
                  f"{w} trace={trace}: every operation correct")

        digests = []
        for seed in ("7", "7", "8"):
            proc = run(["--workload", w, "--seed", seed, "--inputs-digest"])
            m = re.search(r"prefill_digest=(\w+) streams_digest=(\w+)",
                          proc.stdout)
            check(proc.returncode == 0 and m is not None,
                  f"{w} seed={seed}: prints input digests")
            digests.append(m.groups())
        check(digests[0] == digests[1],
              f"{w}: same seed, same prefill and op streams")
        check(digests[0][0] != digests[2][0] and digests[0][1] != digests[2][1],
              f"{w}: another seed, other prefill and op streams")

        proc = run(["--workload", w, "--seed", "5", "--trace", "0",
                    "--corrupt"] + SHORT)
        res = result_of(proc)
        check(proc.returncode != 0 and res is not None and
              not res["correct"] and res["failed"] > 0,
              f"{w}: a forgotten insert fails the output check")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "list-read", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare,
               script=os.path.join(bare, "perfbench", "run.py"))
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without library sources: exits non-zero, prints no result")
    shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
