#!/usr/bin/env python3
"""MExI benchmark: one command, two workloads, every metric with its unit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_fold --seed 42 --seconds 20 --trace 0

The first run builds the program from source (`sbt writeClasspath` in this
directory); later runs reuse the build while the sources are unchanged.
Each run starts one JVM (`repro.perfbench.Main`) that sets the workload up,
runs its items in a closed loop and writes a result file. This script then
checks each item's digest against `reference_digests.json`, records the
environment next to the result under `perfbench/.build/results/`, prints
every metric by name with its unit, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (`--trace 0`) or its
per-layer metrics (`--trace 1`). See README.md for the workloads and the
predictions they test.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
WORKLOADS = ("train_fold", "etl_population")
DEFAULT_SEED = 42
CYCLE = 5  # items cycle over 5 folds / populations (Workloads.Cycle)
HEAP = "2g"
TIME_LIMIT_S = 175  # the harness must exit within 180 s of a warm start
BUILD_LIMIT_S = 850

JAVA_OPENS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_files(roots):
    files = [r for r in roots if os.path.isfile(r)]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)
                      if n.endswith((".scala", ".sbt", ".properties"))]
    return files


def source_digest(roots):
    h = hashlib.sha256()
    for f in source_files(roots):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(stamp):
    """Compiles program + harness with sbt unless this source state is built."""
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath.txt")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                return read_classpath(cp_file)
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["SBT_OPTS"] = f"{opts} -Djava.io.tmpdir={tmp} -Djna.tmpdir={tmp}".strip()
    # Temporary files of the sbt launcher script and of every JVM it starts
    # stay in the checkout too.
    env["TMPDIR"] = tmp
    env["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true",
           "writeClasspath"]
    print("[perfbench] building: " + " ".join(cmd), flush=True)
    t = time.time()
    try:
        p = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if p.returncode != 0 or not os.path.exists(cp_file):
        sys.stderr.write(p.stdout[-4000:])
        fail("build failed", 3)
    print(f"[perfbench] built in {time.time() - t:.1f} s", flush=True)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return read_classpath(cp_file)


def read_classpath(path):
    with open(path) as fh:
        return fh.read().strip()


def git_sha():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_jvm(classpath, args, deadline):
    """Runs the benchmark JVM, echoing its output, and waits for it to end.

    Kills it at the deadline whether or not it is printing."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Every file the JVM writes stays in the checkout: no hsperfdata in the
    # system temp directory, and Spark's local directory overrides any
    # SPARK_LOCAL_DIRS inherited from the caller.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(BUILD, "spark-local"))
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", "-XX:-UsePerfData",
            "-Duser.language=en", "-Duser.country=US", f"-Djava.io.tmpdir={tmp}",
            "-Dlog4j2.configurationFile=file:" + os.path.join(HERE, "log4j2.properties")]
           + JAVA_OPENS + ["-cp", classpath, "repro.perfbench.Main"] + args)
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True)

    def copy_output():
        for line in p.stdout:
            sys.stdout.write(line)

    echo = threading.Thread(target=copy_output)
    echo.start()
    try:
        p.wait(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        echo.join(timeout=5)
        fail("benchmark JVM exceeded the time limit", 4)
    echo.join()
    sys.stdout.flush()
    return p.returncode


def load_references(path):
    if not path or not os.path.exists(path):
        return []
    with open(path) as fh:
        return json.load(fh)["references"]


def write_references(path, entry):
    key = ("workload", "seed", "matchers", "nn_config")
    refs = [r for r in load_references(path) if [r[k] for k in key] != [entry[k] for k in key]]
    with open(path, "w") as fh:
        json.dump({"references": refs + [entry]}, fh, indent=1)
        fh.write("\n")
    print(f"[perfbench] wrote {len(entry['digests'])} reference digests to {path}", flush=True)


def reference_for(refs, workload, seed, matchers, nn):
    for r in refs:
        if (r["workload"], r["seed"], r["matchers"], r["nn_config"]) == (workload, seed, matchers, nn):
            return r["digests"]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Population size for the smoke test; benchmark runs use the default.
    ap.add_argument("--matchers", type=int, default=106)
    ap.add_argument("--references", default=os.path.join(HERE, "reference_digests.json"))
    ap.add_argument("--verify", action="store_true",
                    help="train_fold: also recompute fold 0 through Experiments.computeFold")
    ap.add_argument("--write-references", action="store_true",
                    help="run one item per cycle, without the time limit, and record "
                         "their digests as this seed's references")
    a = ap.parse_args()

    started = time.time()
    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(PROGRAM_SOURCES):
        fail(f"program sources not found at {os.path.relpath(PROGRAM_SOURCES, ROOT)}; "
             "run from a full checkout")
    if not os.path.exists(bench_file):
        fail("BENCHMARK.json not found at the checkout root")
    with open(bench_file) as fh:
        bench = json.load(fh)
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]

    # The build stamp covers program and harness; references record the program.
    program = source_digest([PROGRAM_SOURCES])
    stamp = source_digest([PROGRAM_SOURCES, os.path.join(HERE, "src"), os.path.join(HERE, "project"),
                           os.path.join(HERE, "build.sbt")])
    classpath = build(stamp)
    warm_start = time.time()

    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, tag + ".jvm.json")
    if os.path.exists(out):
        os.remove(out)
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(seconds),
            "--trace", str(a.trace), "--out", out, "--matchers", str(a.matchers),
            "--cap-seconds", str(TIME_LIMIT_S - 45)]
    if a.verify:
        args.append("--verify")
    limit = TIME_LIMIT_S
    if a.write_references:
        limit = 3600
        args += ["--items", str(CYCLE), "--cap-seconds", str(limit)]
    code = run_jvm(classpath, args, warm_start + limit)
    if code != 0 or not os.path.exists(out):
        fail(f"benchmark JVM exited with code {code}", 5)
    with open(out) as fh:
        res = json.load(fh)

    # Output check: invariants (reported by the JVM) and reference digests,
    # keyed by the neural config the JVM ran with.
    nn = res["env"]["nn_config"]
    refs = None if a.write_references else \
        reference_for(load_references(a.references), a.workload, a.seed, a.matchers, nn)
    failed = 0
    for item in res["items"]:
        problems = list(item["violations"])
        if item["error"]:
            problems.append(item["error"])
        elif refs is not None and item["digest"] != refs[item["cycle"]]:
            problems.append(f"digest {item['digest']} != reference {refs[item['cycle']]}")
        item["problems"] = problems
        failed += bool(problems)
        for p in problems:
            print(f"[perfbench] item {item['index']} FAILED: {p}", flush=True)
    if res.get("verify"):
        v = res["verify"]
        first = res["items"][0]
        v["equal"] = v["digest"] == first["digest"]
        print(f"[perfbench] verify: computeFold fold 0 digest "
              f"{'equals' if v['equal'] else 'DIFFERS FROM'} item 0", flush=True)
    # Every commit runs the same planned items. Items the JVM left out to
    # stay inside the time limit count as failed, so a slow commit's run is
    # not compared over less work.
    attempted = res["planned_items"]
    skipped = attempted - len(res["items"])
    if skipped:
        print(f"[perfbench] {skipped} of {attempted} planned items not run "
              "within the time limit: counted as failed", flush=True)
    failed += skipped
    m = res["metrics"]
    m["failed_ops"] = {"value": failed / attempted, "unit": "ratio"}

    # Tracing overhead: this traced run against the last untraced run of the
    # same workload and seed in this checkout, when there is one.
    if a.trace:
        untraced = os.path.join(results, f"{a.workload}-seed{a.seed}-trace0.json")
        if os.path.exists(untraced):
            with open(untraced) as fh:
                base = json.load(fh)
            if base["seconds"] == seconds and len(base["items"]) == len(res["items"]):
                over = m["run_s"]["value"] - base["metrics"]["run_s"]["value"]
                m["trace_overhead_s"] = {"value": over, "unit": "s"}

    env = dict(res["env"])
    env.update({"git_sha": git_sha(), "program_sha256": program, "build_sha256": stamp, "nproc": nproc(),
                "xmx": HEAP, "seconds": seconds, "references_checked": refs is not None})
    record = {"workload": a.workload, "seed": a.seed, "seconds": seconds, "trace": a.trace,
              "attempted": attempted, "failed": failed, "planned_items": res["planned_items"],
              "env": env, "metrics": m, "items": res["items"], "verify": res.get("verify"),
              "spans": res.get("spans")}
    with open(os.path.join(results, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    os.remove(out)
    if a.write_references:
        if failed:
            fail("not writing references: an item failed")
        write_references(a.references, {
            "workload": a.workload, "seed": a.seed, "matchers": a.matchers, "nn_config": nn,
            "digests": [i["digest"] for i in sorted(res["items"], key=lambda i: i["cycle"])],
            "program_sha256": program, "git_sha": env["git_sha"]})

    print("[perfbench] env " + json.dumps(env, sort_keys=True))
    for name in sorted(m):
        print(f"[perfbench] metric {name} = {m[name]['value']:.6g} {m[name]['unit']}")
    if a.trace:
        cov = m["span_coverage"]["value"]
        print(f"[perfbench] spans cover {cov:.1%} of run_s "
              f"({'meets' if cov >= 0.95 else 'BELOW'} the 95% goal)")

    wanted = bench["per_layer"] if a.trace else bench["end_to_end"]
    # A span the workload never opens has no time, jobs or shuffle: 0.
    metrics = {w["name"]: {"value": m[w["name"]]["value"] if w["name"] in m else 0.0,
                           "unit": w["unit"]} for w in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    print(f"[perfbench] total {time.time() - started:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
