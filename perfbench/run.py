#!/usr/bin/env python3
"""CFCM benchmark: one run of one workload, result as the last stdout line.

Run from the repository root:

    python3 perfbench/run.py --workload road-forest --seed 1 --seconds 3 --trace 0

The first run in a checkout builds the library and the benchmark program from
source with sbt (perfbench/build.sbt) and caches the classpath under
.bench_build/; later runs start the JVM directly. Each run writes its record
(environment, per-sample or per-phase details, checks) and, when traced, its
spans under .bench_out/. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; every metric of BENCHMARK.json's
end_to_end list (--trace 0) or per_layer list (--trace 1) appears with its
unit. See perfbench/README.md for the workloads and metrics.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"

HEAP = "4g"
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170

# The JVM flags build.sbt gives forked Spark JVMs (Spark 4 on JDK 17).
JVM_OPTS = [
    "-Dspark.driver.host=127.0.0.1",
    "-Dspark.ui.enabled=false",
    "-Dfile.encoding=UTF-8",
] + [
    f"--add-opens=java.base/{pkg}=ALL-UNNAMED"
    for pkg in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    )
]

# Everything the benchmark binary is compiled from.
SOURCES = ["build.sbt", "project/build.properties", "src/main", "jobs",
           "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for rel in SOURCES:
        p = ROOT / rel
        files = sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() else [p]
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the group and wait."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout}s: {' '.join(cmd[:3])} ...")
    return proc.returncode, out


def build(digest):
    """Compile with sbt unless the cached classpath matches these sources."""
    stamp, cp_file = BUILD / "sources.sha256", BUILD / "classpath.txt"
    if stamp.exists() and cp_file.exists() and stamp.read_text() == digest:
        return cp_file.read_text()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true")
    print("perfbench: building with sbt (first run in this checkout)", file=sys.stderr)
    code, out = run_group(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=subprocess.PIPE, text=True)
    lines = [ln.strip() for ln in out.splitlines() if ln.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(out[-4000:])
        fail(f"sbt build failed (exit {code})")
    BUILD.mkdir(parents=True, exist_ok=True)
    cp_file.write_text(lines[-1])
    stamp.write_text(digest)
    return lines[-1]


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_file.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail("the library sources (build.sbt, src/main/scala) are missing from the checkout")

    digest = source_digest()
    classpath = build(digest)

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    result_file = out_dir / "result.json"
    if result_file.exists():
        result_file.unlink()
    tmp = out_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}",
            f"-Dcfcmbench.xmx={HEAP}", f"-Dcfcmbench.git={git_sha()}",
            f"-Dcfcmbench.sources={digest}"]
           + JVM_OPTS
           + ["-cp", classpath, "cfcmbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--out", str(out_dir)])
    t0 = time.time()
    code, _ = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT)
    if code != 0 or not result_file.exists():
        fail(f"benchmark JVM failed (exit {code})")
    result = json.loads(result_file.read_text())

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            fail(f"metric {m['name']} missing from the run")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    record = dict(result["record"], environment=result["environment"], wall_s=time.time() - t0,
                  correct=result["correct"], attempted=result["attempted"], failed=result["failed"],
                  metrics=metrics)
    (out_dir / "record.json").write_text(json.dumps(record, indent=1))
    env = result["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} parallelism={env['default_parallelism']} xmx={env['xmx']} "
          f"jvm={env['jvm']!r} git={env['git_sha']} record={(out_dir / 'record.json').relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
