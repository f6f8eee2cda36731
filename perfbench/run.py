#!/usr/bin/env python3
"""Simulator benchmark: one command, named workloads, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run builds the simulator
library and the perfbench program from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Each run
is one process running one workload's jobs back to back on one thread
(a closed loop with one client), so peak memory belongs to that
workload alone.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
prints the per-layer metrics, taken from spans the perfbench program
records around public calls into each module. Either way the last
stdout line is one JSON object {correct, attempted, failed, metrics},
and a full record (host facts, raw samples, spans) is written to
.bench_out/. Workloads, metrics and the layer map are explained in
perfbench/README.md.
"""
import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    """A condition under which the benchmark must not print a result."""


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

def validate_spec(spec):
    """Return a list of problems with a BENCHMARK.json object."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        problems.append("keys must be exactly %s" % sorted(keys))
    seen = set()

    def name_ok(name, where):
        if not isinstance(name, str) or not NAME_RE.match(name):
            problems.append("%s: bad name %r" % (where, name))
        elif name in seen:
            problems.append("%s: name %r used twice" % (where, name))
        seen.add(name)

    workloads = spec.get("workloads", [])
    if not 2 <= len(workloads) <= 8:
        problems.append("workloads: need 2 to 8")
    for w in workloads:
        if set(w) != {"name", "why"}:
            problems.append("workload %r: keys must be name, why" % w)
        name_ok(w.get("name"), "workload")
        why = w.get("why", "")
        if not why or len(why) > 200 or "\n" in why:
            problems.append("workload %r: why must be one line of at most "
                            "200 characters" % w.get("name"))

    e2e = spec.get("end_to_end", [])
    if not 1 <= len(e2e) <= 16:
        problems.append("end_to_end: need 1 to 16")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            problems.append("metric %r: keys must be name, unit, better, "
                            "bound" % m.get("name"))
        bound = m.get("bound")
        if not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
            problems.append("metric %r: bound must be in (0, 0.25]"
                            % m.get("name"))
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        problems.append("end_to_end: setup_s (s, lower) is required")

    layers = spec.get("per_layer", [])
    if not 1 <= len(layers) <= 128:
        problems.append("per_layer: need 1 to 128")
    for m in layers:
        if set(m) != {"name", "unit", "better"}:
            problems.append("metric %r: keys must be name, unit, better"
                            % m.get("name"))
    for m in e2e + layers:
        name_ok(m.get("name"), "metric")
        if not isinstance(m.get("unit"), str) or \
                not UNIT_RE.match(m["unit"]):
            problems.append("metric %r: bad unit %r"
                            % (m.get("name"), m.get("unit")))
        if m.get("better") not in ("lower", "higher"):
            problems.append("metric %r: better must be lower or higher"
                            % m.get("name"))
    return problems


def load_spec():
    if not os.path.isfile(SPEC_PATH):
        raise BenchError("BENCHMARK.json not found at the checkout root")
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    problems = validate_spec(spec)
    if problems:
        raise BenchError("BENCHMARK.json: " + "; ".join(problems))
    return spec


# ---------------------------------------------------------------------------
# Environment and host facts
# ---------------------------------------------------------------------------

def check_environment(environ):
    """Refuse ISRF_* knobs: they change engine, tracing or profiling."""
    bad = sorted(k for k in environ if k.startswith("ISRF_"))
    if bad:
        raise BenchError(
            "refusing to run with simulator environment knobs set (%s); "
            "unset them so the numbers measure the default configuration"
            % ", ".join(bad))


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(raw):
    return {
        "nproc": os.cpu_count(),
        "build_type": raw.get("build_type", "unknown"),
        "compiler": raw.get("compiler", "unknown"),
        "git_sha": git_sha(),
    }


# ---------------------------------------------------------------------------
# Build and run the perfbench program
# ---------------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def ensure_built():
    """Configure and build perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A tree configured from another checkout cannot be reused.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(bdir)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, cwd=ROOT, stdout=log,
                               stderr=subprocess.STDOUT) != 0:
                raise BenchError("build failed (%s); see %s"
                                 % (" ".join(cmd), log_path))
    return os.path.join(bdir, "perfbench")


def run_perfbench(binary, workload, seed, seconds, trace):
    """Run one measurement process; returns its raw JSON record."""
    scratch = os.path.join(OUT_DIR, "scratch-%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("perfbench did not finish within %d s"
                         % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("perfbench exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed nothing")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Metrics from raw samples
# ---------------------------------------------------------------------------

def summarize(values):
    """Median and sample count (plus range) of a list of samples."""
    if not values:
        raise BenchError("no samples")
    return {"median": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def check_outputs(raw):
    """(attempted, failed, problems): job failures and digest repeats."""
    passes = raw["passes"]
    attempted = sum(len(p["job_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    problems = [f for p in passes for f in p["failures"]]
    if len({p["digest"] for p in passes}) != 1:
        problems.append("result digest differs between repeats: %s"
                        % [p["digest"] for p in passes])
    if len({p["sim_cycles"] for p in passes}) != 1:
        problems.append("sim_cycles differ between repeats: %s"
                        % [p["sim_cycles"] for p in passes])
    if len(passes) < 2:
        problems.append("fewer than two passes; digest not compared")
    return attempted, failed, problems


def end_to_end_metrics(raw):
    """Values of the end-to-end metrics, with their sample counts."""
    passes = raw["passes"]
    job_seconds = sum(sum(p["job_s"]) for p in passes)
    setup = {k: summarize(v)["median"] for k, v in raw["setup_s"].items()}
    setup_s = sum(n * setup[k] for k, n in raw["jobs_per_kind"].items())
    return {
        "wall_s": (summarize([p["wall_s"] for p in passes]), "passes"),
        "sim_cycles_per_s": (
            {"median": sum(p["sim_cycles"] for p in passes) / job_seconds,
             "n": len(passes)}, "passes"),
        "slowest_job_s": (summarize([max(p["job_s"]) for p in passes]),
                          "passes"),
        "setup_s": ({"median": setup_s,
                     "n": min(len(v) for v in raw["setup_s"].values())},
                    "set-ups per kind"),
        "peak_rss_mib": ({"median": raw["peak_rss_kib"] / 1024.0, "n": 1},
                         "process"),
        "sim_cycles": ({"median": float(passes[0]["sim_cycles"]),
                        "n": len(passes)}, "passes"),
    }


def per_layer_metrics(raw):
    """Per-layer values from the traced run's spans and counts."""
    spans = raw["spans"]
    by_metric = {}
    for s in spans:
        if s["metric"] and s["per"] > 0:
            dur = (s["end_ns"] - s["start_ns"]) * 1e-9
            by_metric.setdefault(s["metric"], []).append(
                dur * s["scale"] / s["per"])
    values = {m: summarize(v)["median"] for m, v in by_metric.items()}

    jobs = [s for s in spans if s["name"] == "driver.job"]
    child_s = {}
    for s in spans:
        if s["parent"] >= 0:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + \
                (s["end_ns"] - s["start_ns"]) * 1e-9
    job_s = [(s["end_ns"] - s["start_ns"]) * 1e-9 for s in jobs]
    values["driver.job_s"] = sum(job_s)
    values["driver.job_unattributed_s"] = sum(
        d - child_s.get(s["id"], 0.0) for s, d in zip(jobs, job_s))
    untraced, traced = raw["passes"][0], raw["passes"][1]
    values["driver.trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    values.update(raw["counts"])
    return values


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fmt(v):
    return "%.6g" % v


def main(argv):
    args = parse_args(argv)
    check_environment(os.environ)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["tiny"]:
        raise BenchError("unknown workload %r (known: %s)"
                         % (args.workload, ", ".join(names)))
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    binary = ensure_built()
    raw = run_perfbench(binary, args.workload, args.seed, seconds,
                        args.trace)
    host = host_facts(raw)
    attempted, failed, problems = check_outputs(raw)

    print("host: nproc=%(nproc)s build=%(build_type)s compiler=%(compiler)s"
          " git=%(git_sha)s" % host)
    print("workload %s, seed %d, %d pass(es) in %.1f s; closed loop, one "
          "client, one worker thread; host time in s, simulated time in "
          "cycles" % (args.workload, args.seed, len(raw["passes"]),
                      raw["measured_s"]))
    print("jobs_failed = %d of %d attempted" % (failed, attempted))
    print("result digest = %s" % raw["passes"][0]["digest"])
    for p in problems:
        print("CHECK FAILED: %s" % p)

    metrics = {}
    if args.trace:
        values = per_layer_metrics(raw)
        wanted = spec["per_layer"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError("traced run lacks layer metrics: %s"
                             % ", ".join(missing))
        for m in wanted:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
            print("%-44s %14s %s" % (m["name"], fmt(values[m["name"]]),
                                     m["unit"]))
    else:
        values = end_to_end_metrics(raw)
        for m in spec["end_to_end"]:
            stats, base = values[m["name"]]
            metrics[m["name"]] = {"value": stats["median"],
                                  "unit": m["unit"]}
            extra = ""
            if "min" in stats:
                extra = ", range %s..%s" % (fmt(stats["min"]),
                                            fmt(stats["max"]))
            print("%-18s %14s %-14s median of %d %s%s"
                  % (m["name"], fmt(stats["median"]), m["unit"],
                     stats["n"], base, extra))

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"host": host, "workload": args.workload, "seed": args.seed,
              "seconds": seconds, "trace": args.trace,
              "problems": problems, "metrics": metrics, "raw": raw}
    out = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump(record, f)
    print("full record (host facts, samples, spans): %s"
          % os.path.relpath(out, ROOT))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print("perfbench: error: %s" % e, file=sys.stderr)
        sys.exit(2)
