#!/usr/bin/env python3
"""Builds wavebench from source and runs it.

    python3 wavebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 wavebench/run.py --smoke       # every workload, small, all checks
    python3 wavebench/run.py --self-test   # planted faults, each check must fail

Run from the root of a checkout. The build goes to .bench_build/wavebench
(the directory named by CARGO_TARGET_DIR when set); outputs go to .bench_out.
The last line of standard output is the result JSON of the run. After a
traced run, .bench_out/<workload>.layers.txt holds the per-layer table and,
when an untraced run of the same workload is there to compare with, the
tracing overhead on every end-to-end metric.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "wavebench")
    if shutil.which("cmake") is None:
        sys.exit("wavebench: cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("wavebench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("wavebench: build failed")
    return os.path.join(build_dir, "wavebench")


def layer_table(workload):
    """Writes <workload>.layers.txt from the traced (and untraced) run files."""
    def load(trace):
        path = os.path.join(OUT_DIR, "%s.trace%d.json" % (workload, trace))
        if not os.path.exists(path):
            return None
        with open(path) as f:
            return json.load(f)

    traced, untraced = load(1), load(0)
    if traced is None:
        return
    lines = ["wavebench per-layer table: %s (seed %s, %s rounds)"
             % (workload, traced["seed"], traced["rounds"]), ""]
    for name, m in traced["per_layer"].items():
        lines.append("  %-36s %16.4f %s" % (name, m["value"], m["unit"]))
    lines += ["", "Tracing overhead: traced run against the last untraced run"]
    if untraced is None:
        lines.append("  (no untraced run of this workload in %s)" % OUT_DIR)
    else:
        for name, m in traced["end_to_end"].items():
            base = untraced["end_to_end"].get(name, {}).get("value", 0)
            change = (m["value"] / base - 1) * 100 if base else 0.0
            lines.append("  %-24s untraced %14.4f  traced %14.4f  %+7.1f%%"
                         % (name, base, m["value"], change))
    with open(os.path.join(OUT_DIR, workload + ".layers.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


def main(argv):
    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    proc = subprocess.run([binary, "--out-dir", OUT_DIR] + argv,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = lines.pop() if lines and lines[-1].startswith("{") else None
    for line in lines:
        print(line)
    if proc.returncode != 0 or result is None:
        # --smoke and --self-test print a verdict, not a result line.
        sys.stdout.flush()
        if proc.returncode == 0 and "--workload" in argv:
            return 1
        return proc.returncode
    if "--workload" in argv and "--trace" in argv:
        workload = argv[argv.index("--workload") + 1]
        if argv[argv.index("--trace") + 1] == "1":
            layer_table(workload)
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
