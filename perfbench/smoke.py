#!/usr/bin/env python3
"""The benchmark's own smoke test, at toy scale.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

For every workload it runs the end-to-end run (--trace 0) and the traced
run (--trace 1) at toy scale and checks that each prints every metric
BENCHMARK.json names, with its unit, that every check passed, and that
the traced run's outcomes equal the untraced run's (both are checked
against the same pins). Then it tampers with one pinned outcome and
checks that the run fails: exit code 1, "correct": false and an
error_rate above 0. Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("perfbench", "run.py")
SCRATCH = os.path.join(".bench_build", "smoke")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--scale", "toy", *extra]
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    record = next((json.loads(l[len("record "):]) for l in lines
                   if l.startswith("record ")), None)
    return p.returncode, result, record, p.stderr


def expect_metrics(label, result, wanted):
    got = result["metrics"]
    for m in wanted:
        v = got.get(m["name"])
        check(v is not None and v["unit"] == m["unit"]
              and isinstance(v["value"], (int, float)),
              "%s prints %s in %s" % (label, m["name"], m["unit"]))
    extra = set(got) - {m["name"] for m in wanted}
    check(not extra, "%s prints no unlisted metric %s" % (label, sorted(extra)))


def tampered_pins():
    """pins.tsv with the toy compacting c=16 P_F job's hs off by one."""
    os.makedirs(os.path.join(ROOT, SCRATCH), exist_ok=True)
    path = os.path.join(SCRATCH, "tampered-pins.tsv")
    with open(os.path.join(HERE, "pins.tsv")) as f:
        lines = f.read().splitlines()
    hit = 0
    for i, line in enumerate(lines):
        if line.endswith("manager=compacting m=8192 n=64 c=16"):
            cols = line.split("\t")
            cols[1] = str(int(cols[1]) + 1)
            lines[i] = "\t".join(cols)
            hit += 1
    check(hit == 1, "tampered exactly one pin")
    with open(os.path.join(ROOT, path), "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = "%s --trace %d" % (name, trace)
            code, result, record, err = run(name, trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0,
                  "%s passes every check (exit %d)" % (label, code))
            if result is None:
                sys.stderr.write(err)
                continue
            expect_metrics(label, result, wanted)
            check(record is not None and record["error_rate"] == 0
                  and all(k in record for k in
                          ("commit", "ocaml", "nproc", "gc", "seed", "scale")),
                  "%s prints a provenance record with error_rate 0" % label)
    code, result, record, _ = run("pf-compact", 0, "--pins", tampered_pins())
    check(code == 1 and result is not None and not result["correct"]
          and result["failed"] > 0,
          "a tampered pin fails the run (exit %d)" % code)
    check(record is not None and record["error_rate"] > 0,
          "a tampered pin drives error_rate above 0")
    print("%d checks failed" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
