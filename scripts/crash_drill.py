#!/usr/bin/env python3
"""Crash-recovery drill: SIGKILL a checkpointing run mid-flight, resume it,
and require the delivery trace to come out byte-identical.

The drill is the end-to-end proof of the checkpoint/restore contract
(src/ckpt/): a run killed at an arbitrary instant — including mid-write,
which the atomic rename makes safe — restarts from its newest valid
checkpoint and finishes with exactly the delivery_hash of an uninterrupted
run. The hash (workload/driver.h) folds every (packet id, injection step,
arrival step) triple in delivery order, so a single reordered or re-timed
delivery after resume fails the drill.

Sequence:
  1. baseline: run workload_demo to completion, record delivery_hash
  2. victim:   same run with --checkpoint=DIR, poll until a seeded-random
               number of checkpoint generations (2-6) exist, then SIGKILL —
               waiting for files rather than sleeping makes the drill
               timing-proof on slow CI machines and guarantees a valid
               checkpoint exists at kill time. The default victim (3D n=16)
               spends tens of milliseconds per generation, so the poll
               lands on its target generation while the run is still going;
               a victim that exits before the SIGKILL lands fails the drill,
               since it never exercised the kill path
  3. optional (--corrupt-newest): flip a byte in the newest generation so
     the resume must fall back past it (exercises LoadNewestValid)
  4. resume:   --checkpoint=DIR --resume, record delivery_hash
  5. verdict:  hashes equal -> exit 0, else exit 1

--service runs the experiment service's drill instead (src/serve/): it
starts experiment_server, streams seeded submissions (a quarter of them
repeating an earlier spec) through serve_client.py's request helper, and
SIGKILLs the server after a seeded number of 202 replies, while
submissions are still arriving. It checks what the kill left on disk
(validate-journal, allowing a torn tail; a copy is kept as
killed-queue.journal in the work directory) and fails unless an
acknowledged run was still unfinished there. It then restarts the server
on the same root, sends the remaining submissions, and requires every
acknowledged id to finish done with the delivery_hash of a direct
workload_demo run of its spec.

Stdlib only. Exit codes propagate the real failure signal: when a child run
fails, the drill exits with the child's own exit code (128+N for a
signal-killed child, shell style) rather than a generic 1, so CI logs show
what actually happened. A scratch temp directory is removed on every path,
success or failure; pass --workdir to keep the checkpoint directory for
artifact upload instead.

Usage:
    crash_drill.py [--binary BUILD/examples/workload_demo]
                   [--d 3 --n 16 --warmup 50 --measure 300 --rate-pm 100]
                   [--every 25] [--seed 1] [--corrupt-newest]
    crash_drill.py --service [--server BUILD/examples/experiment_server]
                   [--binary BUILD/examples/workload_demo] [--seed 1]
"""

import argparse
import atexit
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from check_perf_regression import scan_journal
from serve_client import request

# The service drill's submission stream: every spec is a 2D n=8 uniform
# open-loop run long enough (about 0.2 s) that the kill finds work in
# flight; a quarter of the submissions repeat an earlier spec.
SERVICE_SUBMISSIONS = 14
SERVICE_REPEAT_SHARE = 0.25
SERVICE_WARMUP = 50
SERVICE_MEASURE = 20000
SERVICE_RATE_PM = 100


def extract_hash(stdout, label):
    for line in stdout.splitlines():
        if line.startswith("delivery_hash:"):
            return line.split(":", 1)[1].strip()
    sys.exit(f"{label}: no delivery_hash line in output:\n{stdout}")


def run_to_completion(cmd, label):
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    if proc.returncode != 0:
        # Propagate the child's exit code so CI shows the real signal: a
        # signal-killed child (returncode -N) becomes the shell-style 128+N.
        code = proc.returncode if proc.returncode > 0 else 128 - proc.returncode
        print(
            f"{label}: exit {proc.returncode}\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}",
            file=sys.stderr,
        )
        sys.exit(code)
    return proc


def count_checkpoints(ckpt_dir):
    if not os.path.isdir(ckpt_dir):
        return []
    return sorted(
        name
        for name in os.listdir(ckpt_dir)
        if name.startswith("ckpt-") and name.endswith(".mdc")
    )


def service_spec(seed):
    """The RunSpec JSON that serve_client.py submit builds for a seed."""
    return {
        "topology": {"d": 2, "n": 8, "torus": False},
        "pattern": {"kind": "uniform", "seed": seed},
        "driver": {
            "rate": SERVICE_RATE_PM / 1000.0,
            "warmup": SERVICE_WARMUP,
            "measure": SERVICE_MEASURE,
            "drain": True,
            "seed": seed,
        },
    }


def start_server(server, root, port_file, log, timeout):
    if os.path.exists(port_file):
        os.remove(port_file)
    proc = subprocess.Popen(
        [server, f"--artifacts={root}", "--workers=2",
         f"--port-file={port_file}"],
        stdout=log, stderr=log,
    )
    deadline = time.monotonic() + timeout
    while not (os.path.exists(port_file) and os.path.getsize(port_file)):
        if proc.poll() is not None:
            sys.exit(f"experiment_server exited {proc.returncode} at start")
        if time.monotonic() > deadline:
            proc.kill()
            sys.exit("experiment_server never published its port")
        time.sleep(0.01)
    with open(port_file) as f:
        return proc, int(f.read())


def persisted_runs(root):
    """Each run's last persisted record, as a restore replays them:
    queue.json, then the journal's valid frames (last frame per id wins)."""
    runs = {}
    snapshot = os.path.join(root, "queue.json")
    if os.path.exists(snapshot):
        with open(snapshot) as f:
            for rec in json.load(f)["runs"]:
                runs[rec["id"]] = rec
    journal = os.path.join(root, "queue.journal")
    if os.path.exists(journal):
        with open(journal, "rb") as f:
            payloads, _, _ = scan_journal(f.read())
        for payload in payloads:
            rec = json.loads(payload)
            runs[rec["id"]] = rec
    return runs


def submit(port, seed):
    status, body = request(port, "POST", "/runs",
                           json.dumps(service_spec(seed)))
    if status != 202:
        sys.exit(f"FAIL: POST /runs returned {status}: {body}")
    return json.loads(body)


def service_drill(args, workdir):
    for binary in (args.server, args.binary):
        if not os.path.exists(binary):
            sys.exit(f"binary not found: {binary} (build the tree first)")
    root = os.path.join(workdir, "service")
    shutil.rmtree(root, ignore_errors=True)
    port_file = os.path.join(workdir, "port.txt")

    rng = random.Random(args.seed)
    unique = []
    seeds = []
    for _ in range(SERVICE_SUBMISSIONS):
        if unique and rng.random() < SERVICE_REPEAT_SHARE:
            seeds.append(rng.choice(unique))
        else:
            unique.append(1000 * args.seed + len(unique) + 1)
            seeds.append(unique[-1])
    kill_after = rng.randint(3, SERVICE_SUBMISSIONS - 3)

    # Uninterrupted references, one direct run per unique spec.
    want = {}
    for seed in unique:
        ref = run_to_completion([
            args.binary, "--d=2", "--n=8", "--pattern=uniform",
            f"--rate-pm={SERVICE_RATE_PM}", f"--warmup={SERVICE_WARMUP}",
            f"--measure={SERVICE_MEASURE}", "--drain", f"--seed={seed}",
        ], f"reference seed {seed}")
        want[seed] = extract_hash(ref.stdout, f"reference seed {seed}")
    print(f"{len(unique)} unique spec(s) over {SERVICE_SUBMISSIONS} "
          f"submission(s); SIGKILL after {kill_after} acknowledged")

    acked = []  # (run id, seed) per 202
    with open(os.path.join(workdir, "server.log"), "w") as log:
        proc, port = start_server(args.server, root, port_file, log,
                                  args.timeout)
        for seed in seeds[:kill_after]:
            acked.append((submit(port, seed)["id"], seed))
        proc.kill()  # SIGKILL mid-stream: no drain, no compaction
        proc.wait()
        if proc.returncode != -signal.SIGKILL:
            sys.exit(f"FAIL: server exited on its own ({proc.returncode}) "
                     f"before the SIGKILL landed")

        # What the kill left on disk.
        journal = os.path.join(root, "queue.journal")
        shutil.copyfile(journal,
                        os.path.join(workdir, "killed-queue.journal"))
        check = subprocess.run([
            sys.executable,
            os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "check_perf_regression.py"),
            "validate-journal", journal, "--allow-torn-tail",
            "--min-frames", "1",
        ])
        if check.returncode != 0:
            sys.exit("FAIL: the killed server's journal does not validate")
        runs = persisted_runs(root)
        ids = sorted({run_id for run_id, _ in acked})
        lost = [i for i in ids if i not in runs]
        if lost:
            sys.exit(f"FAIL: acknowledged run(s) {lost} not on disk")
        unfinished = [i for i in ids
                      if runs[i]["state"] not in ("done", "failed")]
        if not unfinished:
            sys.exit("FAIL: every acknowledged run had finished before the "
                     "SIGKILL landed; the kill exercised nothing")
        print(f"server killed with run(s) {unfinished} of {ids} unfinished")

        # Restart on the same root and stream the rest.
        proc, port = start_server(args.server, root, port_file, log,
                                  args.timeout)
        try:
            for seed in seeds[kill_after:]:
                acked.append((submit(port, seed)["id"], seed))
            deadline = time.monotonic() + args.timeout
            for run_id, seed in acked:
                while True:
                    status, body = request(port, "GET", f"/runs/{run_id}")
                    if status != 200:
                        sys.exit(f"FAIL: run {run_id} lost across the "
                                 f"restart: {status} {body}")
                    rec = json.loads(body)
                    if rec["state"] in ("done", "failed"):
                        break
                    if time.monotonic() > deadline:
                        sys.exit(f"FAIL: run {run_id} still {rec['state']}")
                    time.sleep(0.05)
                got = f"{rec['delivery_hash']:016x}"
                if rec["state"] != "done" or got != want[seed]:
                    sys.exit(f"FAIL: run {run_id} (seed {seed}) ended "
                             f"{rec['state']} with delivery_hash {got}, "
                             f"want {want[seed]}")
        finally:
            proc.terminate()
            proc.wait()
    print(f"ok: all {len(acked)} acknowledged submission(s) finished done "
          f"with their reference delivery hashes")


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--binary",
        default=os.path.join(
            here, os.pardir, "build", "examples", "workload_demo",
        ),
        help="workload_demo binary (default: ../build/examples/)",
    )
    ap.add_argument("--service", action="store_true",
                    help="run the experiment service's drill instead")
    ap.add_argument(
        "--server",
        default=os.path.join(
            here, os.pardir, "build", "examples", "experiment_server",
        ),
        help="experiment_server binary, for --service",
    )
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--warmup", type=int, default=50)
    ap.add_argument("--measure", type=int, default=300)
    ap.add_argument("--rate-pm", type=int, default=100,
                    help="injection rate, per mille")
    ap.add_argument("--every", type=int, default=25,
                    help="checkpoint cadence in steps")
    ap.add_argument("--seed", type=int, default=1,
                    help="drill seed (picks the kill point)")
    ap.add_argument("--corrupt-newest", action="store_true",
                    help="bit-flip the newest checkpoint before resuming, "
                    "forcing the fallback path")
    ap.add_argument("--workdir", default=None,
                    help="directory for the checkpoint dir (default: a "
                    "fresh temp dir, removed on success)")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="seconds to wait for checkpoints / runs")
    args = ap.parse_args()

    if not os.path.exists(args.binary):
        sys.exit(f"binary not found: {args.binary} (build the tree first)")

    # A scratch temp dir is removed on *every* exit path — including the
    # sys.exit failure paths, via atexit; an explicit --workdir is always
    # kept so CI can upload its contents as artifacts.
    scratch = None if args.workdir else tempfile.mkdtemp(prefix="crash_drill_")
    if scratch:
        atexit.register(shutil.rmtree, scratch, ignore_errors=True)
    workdir = args.workdir or scratch
    os.makedirs(workdir, exist_ok=True)
    if args.service:
        service_drill(args, workdir)
        return
    ckpt_dir = os.path.join(workdir, "ckpt")
    shutil.rmtree(ckpt_dir, ignore_errors=True)

    base_cmd = [
        args.binary,
        f"--d={args.d}",
        f"--n={args.n}",
        f"--warmup={args.warmup}",
        f"--measure={args.measure}",
        f"--rate-pm={args.rate_pm}",
        "--drain",
    ]

    # 1. Uninterrupted baseline.
    baseline = run_to_completion(base_cmd, "baseline")
    want = extract_hash(baseline.stdout, "baseline")
    print(f"baseline delivery_hash: {want}")

    # 2. Victim: checkpointing run, SIGKILL once enough generations exist.
    rng = random.Random(args.seed)
    target = rng.randint(2, 6)
    # keep must exceed the kill target or rotation caps the file count and
    # the poll below would never fire.
    victim_cmd = base_cmd + [
        f"--checkpoint={ckpt_dir}",
        f"--checkpoint-every={args.every}",
        f"--checkpoint-keep={target + 2}",
    ]
    print(f"victim: kill after {target} checkpoint generation(s)")
    victim = subprocess.Popen(
        victim_cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    deadline = time.monotonic() + args.timeout
    while victim.poll() is None:
        if len(count_checkpoints(ckpt_dir)) >= target:
            victim.kill()  # SIGKILL: no cleanup, no flush, mid-anything
            break
        if time.monotonic() > deadline:
            victim.kill()
            sys.exit(
                f"victim produced {len(count_checkpoints(ckpt_dir))} "
                f"checkpoint(s) in {args.timeout}s, wanted {target}"
            )
        time.sleep(0.002)
    victim.wait()
    files = count_checkpoints(ckpt_dir)
    # Only a SIGKILL that found the victim running exercises the crash
    # path; a victim that outraced the poll (or exited just before the
    # kill) ends with its own exit status instead.
    if victim.returncode != -signal.SIGKILL:
        sys.exit(
            f"FAIL: victim exited on its own (exit status "
            f"{victim.returncode}) with {len(files)} generation(s) on disk "
            f"before the SIGKILL landed; make the run longer (--n, "
            f"--measure) so the kill lands mid-run"
        )
    if not files:
        sys.exit("victim left no checkpoint files")
    print(f"victim killed (signal {-victim.returncode}); "
          f"{len(files)} generation(s) on disk: {', '.join(files)}")

    # 3. Optionally corrupt the newest generation.
    if args.corrupt_newest:
        newest = os.path.join(ckpt_dir, files[-1])
        with open(newest, "r+b") as f:
            f.seek(-1, os.SEEK_END)
            byte = f.read(1)
            f.seek(-1, os.SEEK_END)
            f.write(bytes([byte[0] ^ 0x55]))
        print(f"corrupted newest generation: {files[-1]}")

    # 4. Resume.
    resume_cmd = base_cmd + [f"--checkpoint={ckpt_dir}", "--resume"]
    resumed = run_to_completion(resume_cmd, "resume")
    if "resuming from" not in resumed.stderr:
        sys.exit(f"resume did not report a checkpoint:\n{resumed.stderr}")
    if args.corrupt_newest and files[-1] in resumed.stderr.split(
            "resuming from", 1)[1]:
        sys.exit(
            f"resume used the corrupted generation {files[-1]}:\n"
            f"{resumed.stderr}"
        )
    got = extract_hash(resumed.stdout, "resume")
    print(f"resumed  delivery_hash: {got}")

    # 5. Verdict.
    if got != want:
        kept = (f"checkpoint dir kept at {ckpt_dir}" if args.workdir
                else "pass --workdir to keep the checkpoint dir")
        print(f"FAIL: delivery trace diverged after crash recovery "
              f"({got} != {want}); {kept}")
        sys.exit(1)
    print("ok: crash-recovered run is byte-identical to the baseline")


if __name__ == "__main__":
    main()
