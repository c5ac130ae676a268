#!/usr/bin/env python3
"""Build and run the alarm-verification benchmark.

    python3 perfbench/run.py --workload <drain_backlog|paced_writeback|codec_log>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run compiles the repo's main sources
and the benchmark with sbt (offline) into .bench_build/; later runs
with unchanged sources reuse that build. The last line of stdout is the
result JSON: {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
span trace is written to .bench_build/traces/.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("drain_backlog", "paced_writeback", "codec_log")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
# A fixed 1 GiB young generation under the parallel collector keeps
# collection pauses short and alike from run to run.
JVM_MEMORY = ["-Xmx3g", "-Xmn1g", "-XX:+UseParallelGC"]

# Spark on JDK 17 needs these modules opened, as in the root build.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads from the checkout, in a stable order."""
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", BENCH / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def digest():
    h = hashlib.sha256()
    for p in sources():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} exceeded {timeout} s")
    return proc.returncode, out


def classpath(src_id):
    stamp = BUILD / f"classpath-{src_id}.txt"
    if stamp.exists():
        return stamp.read_text().strip()
    BUILD.mkdir(exist_ok=True)
    t0 = time.time()
    code, out = run_group(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "export perfbench/Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=BENCH, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or ".jar" not in lines[-1]:
        sys.stderr.write("\n".join(l for l in lines if l.startswith("[error]"))[-4000:] + "\n")
        fail("build failed")
    stamp.write_text(lines[-1].strip())
    print(f"perfbench: built in {time.time() - t0:.0f} s", file=sys.stderr)
    return lines[-1].strip()


def source_id():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and (ROOT / ".git").exists():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "sources:" + digest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    missing = [p for p in (ROOT / "build.sbt", ROOT / "src" / "main" / "scala", BENCH / "build.sbt")
               if not p.exists()]
    if missing:
        fail("run from the repository root; missing " + ", ".join(str(p) for p in missing))

    cp = classpath(digest())
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", *JVM_MEMORY, *[f"--add-opens={m}=ALL-UNNAMED" for m in OPENS],
           "-XX:+IgnoreUnrecognizedVMOptions",
           f"-Djava.io.tmpdir={tmp}", "-Dspark.driver.host=127.0.0.1",
           f"-Dspark.local.dir={tmp}", f"-Dspark.sql.warehouse.dir={BUILD / 'warehouse'}",
           "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", str(BUILD / "traces"), "--source", source_id()]
    code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE,
                          stdin=subprocess.DEVNULL, text=True)
    lines = out.splitlines()
    sys.stdout.write(out)
    if code != 0:
        fail(f"benchmark exited with {code}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the benchmark printed no result line")


if __name__ == "__main__":
    main()
