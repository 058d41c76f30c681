#!/usr/bin/env python3
"""The mdmesh repository benchmark.

Builds benchmark/mdmesh_bench from source into .bench_build/ and runs each
workload in its own process, so set-up time and peak RSS belong to that
workload alone. BENCHMARK.json at the repository root names the workloads
and metrics; benchmark/README.md explains them.

One workload (the last stdout line is the result object):
  python3 benchmark/run_benchmark.py --workload route_perm --seed 1 \\
      --seconds 10 --trace 0
Every workload, one set per --repeat, saved for `compare`:
  python3 benchmark/run_benchmark.py --seed 1 --repeat 5 --out A.json
Per-layer metrics plus layers.json and a Perfetto trace.json per workload:
  python3 benchmark/run_benchmark.py --traced --seed 1
Tiny sizes; checks that every metric is printed with its unit:
  python3 benchmark/run_benchmark.py --smoke
Two saved sets, metric by metric against the BENCHMARK.json bounds:
  python3 benchmark/run_benchmark.py compare A.json B.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 850
# A workload run must end within 180 s of starting, build excluded.
RUN_BUDGET_S = 170


class BenchError(Exception):
    pass


def load_json(path):
    with open(path) as f:
        return json.load(f)


def config():
    return load_json(ROOT / "BENCHMARK.json")


def workload_names(cfg):
    return [w["name"] for w in cfg["workloads"]]


def build():
    """Configures (once) and builds mdmesh_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"mdmesh sources not found under {ROOT / 'src'}")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "mdmesh_bench"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build failed: {e}")
        if rc != 0:
            raise BenchError(f"build failed: {' '.join(cmd)} exited {rc}")
    return BUILD / "mdmesh_bench"


def run_workload(binary, workload, seed, seconds, traced, smoke):
    """Runs one workload process; returns the metrics file it wrote."""
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}" + ("-traced" if traced else "")
    out = runs / f"{stem}.json"
    out.unlink(missing_ok=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--out={out}",
           f"--work-dir={runs / (stem + '.work')}",
           f"--trace-dir={runs / stem}"]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.Popen(cmd, stdout=sys.stderr)
    except OSError as e:
        raise BenchError(f"cannot start {binary}: {e}")
    try:
        rc = proc.wait(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload}: no result within {RUN_BUDGET_S} s")
    if rc != 0:
        raise BenchError(f"{workload}: mdmesh_bench exited {rc}")
    raw = load_json(out)
    if traced:
        raw["trace_dir"] = str(runs / stem)
    return raw


def digest_ok(raw, seed, smoke):
    """False when the run's sim digest differs from the one recorded for
    the default seed; None when no digest is recorded for this run."""
    base = load_json(HERE / "baseline.json")
    if smoke or seed != base["digest_seed"]:
        return None
    return raw["sim_digest"] == base["sim_digest"].get(raw["workload"])


def result_object(raw, cfg, traced, seed, smoke):
    """The contract's result line: every end-to-end metric, or with a trace
    every per-layer metric (0 where the workload does not exercise that
    layer), each with its BENCHMARK.json unit."""
    metrics = {}
    for m in cfg["per_layer" if traced else "end_to_end"]:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not traced:
                raise BenchError(f"{raw['workload']}: {m['name']} not measured")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise BenchError(f"{raw['workload']}: {m['name']} measured in "
                             f"{got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    digest = digest_ok(raw, seed, smoke)
    if digest is False:
        print(f"{raw['workload']}: sim_digest {raw['sim_digest']} differs from "
              "benchmark/baseline.json", file=sys.stderr)
    for err in raw["errors"]:
        print(f"{raw['workload']}: FAILED {err}", file=sys.stderr)
    return {"correct": raw["failed"] == 0 and digest is not False,
            "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(v):
    return f"{v:.4g}"


def run_sets(args, cfg, binary):
    """Every workload, --repeat sets; prints a table and saves the runs."""
    names = [args.workload] if args.workload else workload_names(cfg)
    results = {w: [] for w in names}
    correct = True
    for _ in range(args.repeat):
        for w in names:
            raw = run_workload(binary, w, args.seed, args.seconds,
                               args.traced, args.smoke)
            res = result_object(raw, cfg, args.traced, args.seed, args.smoke)
            raw["correct"] = res["correct"]
            correct = correct and res["correct"]
            results[w].append(raw)
    metrics = cfg["per_layer" if args.traced else "end_to_end"]
    for w in names:
        runs = results[w]
        ok = all(r["correct"] for r in runs)
        print(f"{w}: {'ok' if ok else 'FAILED'}  runs={len(runs)}  "
              f"attempted={sum(r['attempted'] for r in runs)}  "
              f"failed={sum(r['failed'] for r in runs)}  "
              f"sim_digest={runs[0]['sim_digest']}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"]
                    for r in runs if m["name"] in r["metrics"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            print(f"  {m['name']:<28} {fmt(med):>12} {m['unit']:<8} "
                  f"[{fmt(q1)}, {fmt(q3)}]")
        if args.traced:
            print(f"  trace files: {runs[-1]['trace_dir']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "traced": args.traced, "runs": results}, f, indent=1)
    return correct


def smoke(cfg, binary):
    """Every workload at smoke sizes, untraced and traced: each metric in
    BENCHMARK.json is printed with its unit and nothing fails."""
    problems = []
    layer_units = {}
    for w in workload_names(cfg):
        for traced in (False, True):
            raw = run_workload(binary, w, 1, 0, traced, True)
            if raw["failed"] != 0:
                problems.append(f"{w}: {raw['failed']} failed: {raw['errors']}")
            if not traced:
                for m in cfg["end_to_end"]:
                    got = raw["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        problems.append(f"{w}: {m['name']} [{m['unit']}] "
                                        f"missing or mis-united: {got}")
            for name, got in raw["metrics"].items():
                layer_units.setdefault(name, set()).add(got["unit"])
    for m in cfg["per_layer"]:
        if layer_units.get(m["name"]) != {m["unit"]}:
            problems.append(f"per-layer {m['name']} [{m['unit']}]: measured "
                            f"as {layer_units.get(m['name'])}")
    for p in problems:
        print(f"  FAIL  {p}")
    print("bench_smoke: " + ("ok" if not problems else
                             f"{len(problems)} problem(s)"))
    return not problems


def compare(paths):
    """Each side's median and quartiles per workload and end-to-end metric,
    with a verdict against the BENCHMARK.json bound, plus sim_digest
    equality."""
    cfg = config()
    a, b = (load_json(p) for p in paths)
    regressed = False
    print(f"{'workload':<13} {'metric':<16} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B vs A':>8} {'bound':>6}  verdict")
    for w in workload_names(cfg):
        if w not in a["runs"] or w not in b["runs"]:
            continue
        for m in cfg["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a["runs"][w]]
            vb = [r["metrics"][m["name"]]["value"] for r in b["runs"][w]]
            (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(va), quartiles(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
            spread = max((qa3 - qa1) / abs(ma) if ma else 0.0,
                         (qb3 - qb1) / abs(mb) if mb else 0.0)
            separated = max(vb) < min(va) or min(vb) > max(va)
            if spread > m["bound"] and not separated:
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "worse"
                regressed = True
            else:
                verdict = "within bound"
            change = (mb - ma) / abs(ma) * 100 if ma else 0.0
            print(f"{w:<13} {m['name']:<16} "
                  f"{fmt(ma) + ' [' + fmt(qa1) + ', ' + fmt(qa3) + ']':<34} "
                  f"{fmt(mb) + ' [' + fmt(qb1) + ', ' + fmt(qb3) + ']':<34} "
                  f"{change:>+7.2f}% {m['bound']:>6}  {verdict}")
        da = {r["sim_digest"] for r in a["runs"][w]}
        db = {r["sim_digest"] for r in b["runs"][w]}
        same = da == db and len(da) == 1
        regressed = regressed or not same
        print(f"{w:<13} sim_digest       "
              f"{'equal' if same else 'DIFFERENT'} ({', '.join(sorted(da | db))})")
    return not regressed


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run_benchmark.py compare A.json B.json")
        return 0 if compare(argv[1:]) else 1
    cfg = config()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workload_names(cfg),
                    help="run one workload and print its result object")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=cfg["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes; check every metric is printed")
    ap.add_argument("--repeat", type=int, default=1,
                    help="sets to run when no --workload is given")
    ap.add_argument("--out", help="save the sets' runs here (for compare)")
    ap.add_argument("--binary", help="use this mdmesh_bench, skip the build")
    args = ap.parse_args(argv)
    args.traced = args.traced or args.trace == 1
    try:
        binary = Path(args.binary) if args.binary else build()
        if args.smoke and not args.workload:
            return 0 if smoke(cfg, binary) else 1
        if args.workload and args.repeat == 1 and not args.out:
            raw = run_workload(binary, args.workload, args.seed, args.seconds,
                               args.traced, args.smoke)
            res = result_object(raw, cfg, args.traced, args.seed, args.smoke)
            print(json.dumps(res))
            return 0 if res["correct"] else 1
        return 0 if run_sets(args, cfg, binary) else 1
    except BenchError as e:
        print(f"run_benchmark: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
