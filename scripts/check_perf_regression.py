#!/usr/bin/env python3
"""Wall-clock regression guard + Chrome-trace validator for bench artifacts.

Default mode compares a freshly generated bench JSON (BENCH_engine.json,
BENCH_workloads.json) against the committed baseline: every
(experiment, workload, spec, mode) key present in the baseline must still
exist, and its packet_steps_per_sec must not have dropped by more than the
guard factor. Records without a packet_steps_per_sec field (step-count
experiments like workload_latency) are ignored — only timed wall-clock
records are guarded. The factor defaults to 2x — CI machines are shared
and noisy, so the guard catches order-of-magnitude regressions (a dense
fallback that stopped engaging, an accidentally quadratic active-set
rebuild), not single-digit-percent drift; tighten it for controlled
hardware with --factor.

Records may also carry peak_rss_mb (process peak resident set when the
record was emitted; it pins the engine's footprint, e.g. a mailbox of
4-byte handles rather than whole packets). Two memory checks ride along
with the throughput guard:

  * relative: on overlapping keys where both sides report a positive
    peak_rss_mb, the candidate must stay within
    max(baseline * 2, baseline + 256 MiB) — slack for allocator and
    shared-machine noise while still catching a per-processor table
    growing by a multiple.
  * absolute: any candidate record carrying rss_guard_mb (the --mega
    n=4096 fixture) must satisfy peak_rss_mb <= rss_guard_mb, even when
    the baseline lacks the key.

Artifacts may be the legacy bare JSON array of records or the manifest
wrapper {"manifest": {...}, "records": [...]} (BenchJson since the
timeline-export change); both load transparently.

The validate-trace subcommand schema-checks a --perfetto Chrome Trace
Event artifact instead: top-level shape, an embedded run manifest, the
required ph/ts/pid/tid fields on every event, matched B/E pairs per
(pid, tid) track, non-negative durations on X events, and (optionally) a
minimum number of distinct counter tracks.

The validate-prom subcommand checks a Prometheus text-exposition body
(as scraped from the live --metrics-port endpoint): every line is a
`# TYPE` comment or a sample with a legal metric name and a numeric
value, every sample's family is declared, and --require names must be
present.

The validate-flight subcommand checks a --flight-recorder black-box dump:
embedded run manifest, abort reason, ring accounting
(total_records = dropped + len(records)), strictly increasing step
cursors, and the headline step matching the final record —
--expect-reason pins the abort cause CI forced.

The validate-journeys subcommand checks a --journeys JSONL artifact (one
traced packet per line, format src/obs/journey.h): required keys with the
right shapes, event steps strictly increasing within each packet, event
counters (moves/waits/dim_moves/dim_waits) agreeing with the raw event
list, and the critical-path identity on every complete delivered journey:
delivery_step - injected_step = moves + lost_bid waits + dead-link waits.
--min-journeys pins a floor on traced packets; --require-delivered
insists every traced journey finished.

The validate-ckpt subcommand integrity-checks engine checkpoint files
(--checkpoint output, format src/ckpt/checkpoint.h) without linking any
C++: the 28-byte header is struct.unpack("<8sIIQI") — magic "MDMCKPT1",
format version, flags, payload size, payload CRC — and the checksum is
the zlib/binascii.crc32 variant by construction. Accepts files or
directories (a directory validates every ckpt-*.mdc in it).

The validate-journal subcommand integrity-checks an experiment-service
run journal (<root>/queue.journal, format src/serve/journal.h) the same
way: the 12-byte header is struct.unpack("<8sI") — magic "MDMJRNL1" and
format version — and each frame is "<II" (payload size, payload CRC)
followed by the payload, checked with binascii.crc32. It reports the
frame count, the bytes, and any torn or corrupt tail (bytes after the
last valid frame, which a restore drops); --allow-torn-tail accepts such
a tail, as a killed server can leave one, and --min-frames pins a floor.
A directory argument validates its queue.journal.

The validate-digests subcommand checks mdmesh_bench result files (one
workload each, written with --out) against benchmark/baseline.json: a
file run at the baseline's digest seed must carry exactly the recorded
sim_digest for its workload. The digest folds every simulated result of
the workload's fixed runs, so a differing digest means the simulation
itself changed. Tier-1 runs it on every workload after a
`--seed=1 --seconds=0` run.

The validate-steps subcommand checks that the simulated results did not
move: every record carrying `steps` whose (experiment, spec, perm, seed)
appears in both files must report the same total steps and the same
per-phase steps (name and steps of each entry of `phases`, in order). At
least one key must overlap, and a key may occur only once per file. CI runs
it on a fresh `bench_routing_mesh --quick` JSON against the committed
BENCH_routing_mesh.json, so a change that alters any routed step count
fails there even when every test still passes.

Usage:
    check_perf_regression.py BASELINE CANDIDATE [--factor 2.0]
    check_perf_regression.py validate-trace TRACE [--min-counter-tracks N]
    check_perf_regression.py validate-prom TEXT [--require NAME ...]
    check_perf_regression.py validate-flight DUMP [--expect-reason R]
    check_perf_regression.py validate-ckpt PATH... [--min-files N]
    check_perf_regression.py validate-journal PATH [--min-frames N]
                                              [--allow-torn-tail]
    check_perf_regression.py validate-journeys JSONL [--min-journeys N]
    check_perf_regression.py validate-digests RESULT... --baseline B
    check_perf_regression.py validate-steps BASELINE CANDIDATE

Exit status: 0 when every check holds, 1 on any regression, missing key,
or schema violation. Stdlib only.
"""

import argparse
import binascii
import json
import os
import re
import struct
import sys


def key_of(rec):
    spec = rec.get("spec", {})
    return (
        rec.get("experiment", "?"),
        rec.get("workload", "?"),
        spec.get("d"),
        spec.get("n"),
        spec.get("wrap"),
        rec.get("mode", "?"),
    )


def records_of(path, data):
    """Unwraps either artifact shape into the list of records."""
    if isinstance(data, dict):
        if "records" not in data:
            sys.exit(f"{path}: object artifact is missing a 'records' array")
        if not isinstance(data.get("manifest"), dict):
            sys.exit(f"{path}: object artifact is missing its run manifest")
        data = data["records"]
    if not isinstance(data, list) or not data:
        sys.exit(f"{path}: expected a non-empty array of records")
    return data


def load(path):
    with open(path) as f:
        recs = records_of(path, json.load(f))
    table = {}
    for rec in recs:
        if "packet_steps_per_sec" not in rec:
            continue  # step-count experiment, not a timed record
        rate = rec["packet_steps_per_sec"]
        if not isinstance(rate, (int, float)) or rate <= 0:
            sys.exit(f"{path}: bad packet_steps_per_sec in {rec}")
        rss = rec.get("peak_rss_mb", 0.0)
        guard = rec.get("rss_guard_mb", 0.0)
        for name, val in (("peak_rss_mb", rss), ("rss_guard_mb", guard)):
            if not isinstance(val, (int, float)) or val < 0:
                sys.exit(f"{path}: bad {name} in {rec}")
        table[key_of(rec)] = {
            "rate": float(rate),
            "rss": float(rss),
            "guard": float(guard),
        }
    if not table:
        sys.exit(f"{path}: no timed wall-clock records")
    return table


def validate_trace(argv):
    ap = argparse.ArgumentParser(
        prog="check_perf_regression.py validate-trace",
        description="Schema-check a --perfetto Chrome Trace Event artifact.",
    )
    ap.add_argument("trace", help="Chrome-trace JSON written with --perfetto")
    ap.add_argument(
        "--min-counter-tracks",
        type=int,
        default=0,
        help="require at least N distinct counter (ph=C) track names",
    )
    args = ap.parse_args(argv)

    with open(args.trace) as f:
        data = json.load(f)

    problems = []
    if not isinstance(data, dict):
        sys.exit(f"{args.trace}: top level must be an object")
    manifest = data.get("metadata", {}).get("manifest")
    if not isinstance(manifest, dict) or "tool" not in manifest:
        problems.append("missing embedded run manifest in metadata.manifest")
    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        sys.exit(f"{args.trace}: traceEvents must be a non-empty array")

    counter_tracks = set()
    open_stacks = {}  # (pid, tid) -> stack of open B names
    for i, ev in enumerate(events):
        missing = [k for k in ("ph", "ts", "pid", "tid") if k not in ev]
        if missing:
            problems.append(f"event {i} missing {missing}: {ev}")
            continue
        ph = ev["ph"]
        track = (ev["pid"], ev["tid"])
        if ph == "B":
            open_stacks.setdefault(track, []).append(ev.get("name", "?"))
        elif ph == "E":
            stack = open_stacks.setdefault(track, [])
            if not stack:
                problems.append(f"event {i}: E without matching B on {track}")
            else:
                begun = stack.pop()
                if ev.get("name", "?") != begun:
                    problems.append(
                        f"event {i}: E '{ev.get('name')}' closes B '{begun}' "
                        f"on {track}"
                    )
        elif ph == "C":
            counter_tracks.add(ev.get("name", "?"))
        elif ph == "X":
            if ev.get("dur", 0) < 0:
                problems.append(f"event {i}: negative dur on X event")

    for track, stack in sorted(open_stacks.items()):
        if stack:
            problems.append(f"unclosed B event(s) on {track}: {stack}")

    if len(counter_tracks) < args.min_counter_tracks:
        problems.append(
            f"only {len(counter_tracks)} counter track(s), need "
            f">= {args.min_counter_tracks}: {sorted(counter_tracks)}"
        )

    if problems:
        for p in problems:
            print(f"  FAIL  {p}")
        sys.exit(f"{args.trace}: {len(problems)} schema problem(s)")
    print(
        f"{args.trace}: {len(events)} events ok "
        f"({len(counter_tracks)} counter track(s), manifest embedded)"
    )


PROM_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def validate_prom(argv):
    ap = argparse.ArgumentParser(
        prog="check_perf_regression.py validate-prom",
        description="Check a Prometheus text-exposition body.",
    )
    ap.add_argument("text", help="file holding the scraped /metrics body")
    ap.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME",
        help="metric name that must appear as a sample (repeatable)",
    )
    args = ap.parse_args(argv)

    with open(args.text) as f:
        lines = f.read().splitlines()

    problems = []
    declared = set()  # families introduced by # TYPE
    sampled = set()  # metric names that actually carry a sample
    samples = 0
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            problems.append(f"line {i}: blank line in exposition")
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "TYPE":
                problems.append(f"line {i}: comment is not '# TYPE name kind'")
            elif parts[3] not in ("counter", "gauge", "summary", "histogram"):
                problems.append(f"line {i}: unknown metric kind {parts[3]!r}")
            else:
                declared.add(parts[2])
            continue
        sp = line.rfind(" ")
        if sp < 0:
            problems.append(f"line {i}: sample without a value: {line!r}")
            continue
        name = line[:sp].split("{", 1)[0]
        if not PROM_NAME.match(name):
            problems.append(f"line {i}: illegal metric name {name!r}")
            continue
        try:
            float(line[sp + 1 :])
        except ValueError:
            problems.append(f"line {i}: non-numeric value: {line!r}")
            continue
        # Summary samples belong to the family without the _count/_sum
        # suffix; plain counters and gauges are their own family.
        family = name
        for suffix in ("_count", "_sum"):
            if family.endswith(suffix) and family[: -len(suffix)] in declared:
                family = family[: -len(suffix)]
        if family not in declared:
            problems.append(f"line {i}: sample {name!r} has no # TYPE")
        sampled.add(name)
        sampled.add(family)
        samples += 1

    if samples == 0:
        problems.append("no samples in exposition")
    for name in args.require:
        if name not in sampled:
            problems.append(f"required metric {name!r} missing")

    if problems:
        for p in problems:
            print(f"  FAIL  {p}")
        sys.exit(f"{args.text}: {len(problems)} exposition problem(s)")
    print(
        f"{args.text}: {samples} sample(s) across {len(declared)} "
        f"declared famil(ies) ok"
    )


def validate_flight(argv):
    ap = argparse.ArgumentParser(
        prog="check_perf_regression.py validate-flight",
        description="Check a --flight-recorder black-box dump.",
    )
    ap.add_argument("dump", help="flight-recorder JSON artifact")
    ap.add_argument(
        "--expect-reason",
        help="require this abort reason (watchdog, step_cap, interrupt, "
        "invariant_failure)",
    )
    args = ap.parse_args(argv)

    with open(args.dump) as f:
        data = json.load(f)

    problems = []
    if not isinstance(data.get("manifest"), dict):
        problems.append("missing embedded run manifest")
    reason = data.get("reason")
    if not isinstance(reason, str) or not reason:
        problems.append("missing abort reason")
    if args.expect_reason and reason != args.expect_reason:
        problems.append(
            f"reason {reason!r}, expected {args.expect_reason!r}"
        )
    records = data.get("records")
    if not isinstance(records, list) or not records:
        problems.append("records must be a non-empty array")
        records = []
    total = data.get("total_records", -1)
    dropped = data.get("dropped", -1)
    if records and total != dropped + len(records):
        problems.append(
            f"ring accounting broken: total_records {total} != "
            f"dropped {dropped} + {len(records)} retained"
        )
    prev_step = None
    for i, rec in enumerate(records):
        missing = [
            k
            for k in ("step", "in_flight", "arrivals", "moves", "injected",
                      "queue_max")
            if k not in rec
        ]
        if missing:
            problems.append(f"record {i} missing {missing}: {rec}")
            continue
        if prev_step is not None and rec["step"] <= prev_step:
            problems.append(
                f"record {i}: step {rec['step']} not after {prev_step}"
            )
        prev_step = rec["step"]
        if "dir_moves" in rec and sum(rec["dir_moves"]) != rec["moves"]:
            problems.append(
                f"record {i}: dir_moves sum != moves: {rec}"
            )
    if records and data.get("step") != records[-1]["step"]:
        problems.append(
            f"headline step {data.get('step')} != final record step "
            f"{records[-1]['step']}"
        )

    if problems:
        for p in problems:
            print(f"  FAIL  {p}")
        sys.exit(f"{args.dump}: {len(problems)} dump problem(s)")
    print(
        f"{args.dump}: {len(records)} record(s) ok "
        f"(reason {reason}, {dropped} dropped, final step "
        f"{records[-1]['step'] if records else '?'})"
    )


JOURNEY_KINDS = {"injected", "move", "wait_lost_bid", "wait_links_dead"}


def check_journey(i, j):
    """Returns a list of problems with one journey record (empty = ok)."""
    problems = []
    required = {
        "id": int,
        "injected_step": int,
        "delivery_step": int,
        "delivered": bool,
        "dist0": int,
        "moves": int,
        "detour_moves": int,
        "retargets": int,
        "dim_moves": list,
        "dim_waits": list,
        "waits": dict,
        "events": list,
    }
    for key, kind in required.items():
        if not isinstance(j.get(key), kind):
            problems.append(f"journey {i}: missing or mistyped {key!r}")
    if problems:
        return problems

    waits = j["waits"]
    if not isinstance(waits.get("lost_bid"), int) or not isinstance(
        waits.get("links_dead"), int
    ):
        return [f"journey {i}: waits must carry integer lost_bid/links_dead"]

    pid = j["id"]
    # Replay the raw event list and require the headline counters to match:
    # a packet does exactly one thing per step, so steps must be strictly
    # increasing and every event must land in one of the four kinds.
    moves = lost = dead = 0
    dim_moves = [0] * len(j["dim_moves"])
    dim_waits = [0] * len(j["dim_waits"])
    prev_step = None
    delivered_at = None
    for e, ev in enumerate(j["events"]):
        if not isinstance(ev, list) or len(ev) != 6:
            problems.append(
                f"journey {i} (id {pid}): event {e} is not "
                f"[step, kind, proc, dim, dir, flags]"
            )
            continue
        step, kind, _proc, dim, _direc, flags = ev
        if kind not in JOURNEY_KINDS:
            problems.append(f"journey {i} (id {pid}): unknown kind {kind!r}")
            continue
        if prev_step is not None and step <= prev_step:
            problems.append(
                f"journey {i} (id {pid}): event {e} step {step} not after "
                f"{prev_step}"
            )
        prev_step = step
        if kind == "move":
            moves += 1
            if 0 <= dim < len(dim_moves):
                dim_moves[dim] += 1
        elif kind == "wait_lost_bid":
            lost += 1
            if 0 <= dim < len(dim_waits):
                dim_waits[dim] += 1
        elif kind == "wait_links_dead":
            dead += 1
        if flags & 4:  # kDelivered
            delivered_at = step
    for name, got, declared in (
        ("moves", moves, j["moves"]),
        ("waits.lost_bid", lost, waits["lost_bid"]),
        ("waits.links_dead", dead, waits["links_dead"]),
        ("dim_moves", dim_moves, j["dim_moves"]),
        ("dim_waits", dim_waits, j["dim_waits"]),
    ):
        if got != declared:
            problems.append(
                f"journey {i} (id {pid}): {name} declares {declared} but "
                f"events replay to {got}"
            )
    if sum(dim_moves) != moves:
        problems.append(
            f"journey {i} (id {pid}): {moves} move(s) but dim_moves sums to "
            f"{sum(dim_moves)} (a move without a dimension)"
        )
    if j["delivered"] != (delivered_at is not None) or (
        delivered_at is not None and delivered_at != j["delivery_step"]
    ):
        problems.append(
            f"journey {i} (id {pid}): delivered flag/step disagree with "
            f"the event list"
        )

    # The identity this subsystem exists to provide. Partial journeys
    # (resumed runs trace only post-resume steps, injected_step -1) and
    # undelivered packets are exempt, matching PacketJourney::IdentityHolds.
    if j["injected_step"] >= 0 and j["delivery_step"] >= 0:
        latency = j["delivery_step"] - j["injected_step"]
        decomposed = moves + lost + dead
        if latency != decomposed:
            problems.append(
                f"journey {i} (id {pid}): identity broken: latency "
                f"{latency} != {moves} move(s) + {lost + dead} wait(s)"
            )
        if j["retargets"] == 0 and moves < j["dist0"]:
            problems.append(
                f"journey {i} (id {pid}): {moves} move(s) below initial "
                f"distance {j['dist0']}"
            )
    return problems


def validate_journeys(argv):
    ap = argparse.ArgumentParser(
        prog="check_perf_regression.py validate-journeys",
        description="Check a --journeys packet-journey JSONL artifact.",
    )
    ap.add_argument("jsonl", help="journeys JSONL written with --journeys")
    ap.add_argument(
        "--min-journeys",
        type=int,
        default=1,
        help="fail unless at least this many packets were traced",
    )
    ap.add_argument(
        "--require-delivered",
        action="store_true",
        help="require every traced journey to end delivered",
    )
    args = ap.parse_args(argv)

    problems = []
    journeys = 0
    delivered = 0
    identities = 0
    with open(args.jsonl) as f:
        for i, line in enumerate(f):
            if not line.strip():
                continue
            try:
                j = json.loads(line)
            except ValueError as e:
                problems.append(f"line {i + 1}: not JSON: {e}")
                continue
            journeys += 1
            probs = check_journey(i, j)
            problems.extend(probs)
            if not probs:
                if j["delivered"]:
                    delivered += 1
                    if j["delivered"] and j["injected_step"] >= 0:
                        identities += 1
                elif args.require_delivered:
                    problems.append(
                        f"journey {i} (id {j.get('id')}): not delivered"
                    )

    if journeys < args.min_journeys:
        problems.append(
            f"{journeys} traced journey(s), need >= {args.min_journeys}"
        )

    if problems:
        for p in problems:
            print(f"  FAIL  {p}")
        sys.exit(f"{args.jsonl}: {len(problems)} journey problem(s)")
    print(
        f"{args.jsonl}: {journeys} journey(s) ok ({delivered} delivered, "
        f"{identities} critical-path identit(ies) verified)"
    )


CKPT_MAGIC = b"MDMCKPT1"
CKPT_VERSION = 1
CKPT_HEADER = struct.Struct("<8sIIQI")  # magic, version, flags, size, crc


def check_ckpt_file(path):
    """Returns a list of problems with one checkpoint file (empty = ok)."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        return [f"unreadable: {e}"]
    if len(blob) < CKPT_HEADER.size:
        return [f"truncated header: {len(blob)} < {CKPT_HEADER.size} bytes"]
    magic, version, flags, size, crc = CKPT_HEADER.unpack_from(blob)
    problems = []
    if magic != CKPT_MAGIC:
        return [f"bad magic {magic!r}"]
    if version != CKPT_VERSION:
        problems.append(f"version {version}, expected {CKPT_VERSION}")
    if flags != 0:
        problems.append(f"reserved flags nonzero: {flags:#x}")
    payload = blob[CKPT_HEADER.size:]
    if len(payload) != size:
        problems.append(
            f"payload {len(payload)} byte(s), header declares {size}"
        )
    elif binascii.crc32(payload) != crc:
        problems.append(
            f"payload CRC {binascii.crc32(payload):08x} != header {crc:08x}"
        )
    return problems


def validate_ckpt(argv):
    ap = argparse.ArgumentParser(
        prog="check_perf_regression.py validate-ckpt",
        description="Integrity-check engine checkpoint files "
        "(header framing + CRC-32, no C++ needed).",
    )
    ap.add_argument(
        "paths",
        nargs="+",
        help="checkpoint files, or directories holding ckpt-*.mdc",
    )
    ap.add_argument(
        "--min-files",
        type=int,
        default=1,
        help="fail unless at least this many checkpoint files were found",
    )
    args = ap.parse_args(argv)

    files = []
    for path in args.paths:
        if os.path.isdir(path):
            files.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.startswith("ckpt-") and name.endswith(".mdc")
            )
        else:
            files.append(path)

    bad = 0
    for path in files:
        problems = check_ckpt_file(path)
        if problems:
            bad += 1
            for p in problems:
                print(f"  FAIL  {path}: {p}")
        else:
            size = os.path.getsize(path)
            print(f"  ok    {path}: {size} byte(s), CRC verified")
    if len(files) < args.min_files:
        sys.exit(
            f"found {len(files)} checkpoint file(s), need {args.min_files}"
        )
    if bad:
        sys.exit(f"{bad} of {len(files)} checkpoint file(s) invalid")
    print(f"all {len(files)} checkpoint file(s) valid")


JOURNAL_MAGIC = b"MDMJRNL1"
JOURNAL_VERSION = 1
JOURNAL_HEADER = struct.Struct("<8sI")  # magic, version
JOURNAL_FRAME = struct.Struct("<II")  # payload size, payload crc


def scan_journal(blob):
    """Returns (payloads, valid_bytes, problem) for a journal image: the
    valid frames' payloads in order, the bytes they and the header span,
    and None for a clean file, else why the scan stopped. Raises
    ValueError for a file that is not a run journal."""
    if len(blob) < JOURNAL_HEADER.size:
        return [], 0, (
            f"torn header ({len(blob)} of {JOURNAL_HEADER.size} bytes)")
    magic, version = JOURNAL_HEADER.unpack_from(blob)
    if magic != JOURNAL_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != JOURNAL_VERSION:
        raise ValueError(f"version {version}, expected {JOURNAL_VERSION}")
    pos = JOURNAL_HEADER.size
    payloads = []
    while pos < len(blob):
        if len(blob) - pos < JOURNAL_FRAME.size:
            return payloads, pos, "torn frame header"
        size, crc = JOURNAL_FRAME.unpack_from(blob, pos)
        start = pos + JOURNAL_FRAME.size
        payload = blob[start:start + size]
        if len(payload) < size:
            return payloads, pos, (
                f"torn frame ({size}-byte payload, {len(payload)} on disk)")
        if binascii.crc32(payload) != crc:
            return payloads, pos, (
                f"frame CRC {binascii.crc32(payload):08x} != {crc:08x}")
        payloads.append(payload)
        pos = start + size
    return payloads, pos, None


def validate_journal(argv):
    ap = argparse.ArgumentParser(
        prog="check_perf_regression.py validate-journal",
        description="Integrity-check an experiment-service run journal "
        "(header, frame framing + CRC-32, no C++ needed).",
    )
    ap.add_argument("path", help="queue.journal, or the service's root dir")
    ap.add_argument("--min-frames", type=int, default=0,
                    help="fail unless at least this many valid frames")
    ap.add_argument("--allow-torn-tail", action="store_true",
                    help="accept bytes after the last valid frame (what a "
                    "killed server can leave; a restore drops them)")
    args = ap.parse_args(argv)
    path = args.path
    if os.path.isdir(path):
        path = os.path.join(path, "queue.journal")
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        sys.exit(f"{path}: unreadable: {e}")
    try:
        payloads, valid, problem = scan_journal(blob)
    except ValueError as e:
        sys.exit(f"  FAIL  {path}: {e}")
    frames = len(payloads)
    torn = len(blob) - valid
    print(f"{path}: {frames} frame(s), {len(blob)} byte(s)"
          + (f"; torn tail: {torn} byte(s) from byte {valid} ({problem})"
             if problem else "; no torn tail"))
    if frames < args.min_frames:
        sys.exit(f"  FAIL  {path}: {frames} frame(s), need {args.min_frames}")
    if problem and not args.allow_torn_tail:
        sys.exit(f"  FAIL  {path}: {problem}")
    print(f"journal valid: {frames} frame(s) CRC verified")


def validate_digests(argv):
    ap = argparse.ArgumentParser(
        prog="check_perf_regression.py validate-digests",
        description="Check mdmesh_bench result files against the sim "
        "digests recorded in benchmark/baseline.json.",
    )
    ap.add_argument("results", nargs="+", help="mdmesh_bench --out files")
    ap.add_argument(
        "--baseline", required=True, help="benchmark/baseline.json"
    )
    args = ap.parse_args(argv)
    with open(args.baseline) as f:
        base = json.load(f)
    seed = base.get("digest_seed")
    digests = base.get("sim_digest")
    if not isinstance(digests, dict) or not isinstance(seed, int):
        sys.exit(f"{args.baseline}: expected digest_seed and sim_digest")

    bad = 0
    for path in args.results:
        with open(path) as f:
            raw = json.load(f)
        workload = raw.get("workload")
        got = raw.get("sim_digest")
        if raw.get("smoke") or raw.get("seed") != seed:
            print(f"  FAIL  {path}: not a seed-{seed} full-size run")
            bad += 1
        elif workload not in digests:
            print(f"  FAIL  {path}: no digest recorded for {workload!r}")
            bad += 1
        elif got != digests[workload]:
            print(
                f"  FAIL  {path}: {workload} sim_digest {got} differs from "
                f"{digests[workload]}"
            )
            bad += 1
        else:
            print(f"  ok    {path}: {workload} sim_digest {got}")
    if bad:
        sys.exit(f"{bad} of {len(args.results)} result(s) changed digest")
    print(f"all {len(args.results)} sim digest(s) match {args.baseline}")


def step_records(path):
    """(experiment, spec, perm, seed) -> (steps, per-phase steps)."""
    with open(path) as f:
        recs = records_of(path, json.load(f))
    table = {}
    for rec in recs:
        if "steps" not in rec:
            continue
        key = (
            rec.get("experiment"),
            json.dumps(rec.get("spec"), sort_keys=True),
            rec.get("perm"),
            rec.get("seed"),
        )
        if key in table:
            sys.exit(f"{path}: key {key} occurs more than once")
        phases = [(p.get("name"), p.get("steps")) for p in rec.get("phases", [])]
        table[key] = (rec["steps"], phases)
    return table


def validate_steps(argv):
    ap = argparse.ArgumentParser(
        prog="check_perf_regression.py validate-steps",
        description="Check that every (experiment, spec, perm, seed) record "
        "in both files reports the same total and per-phase steps.",
    )
    ap.add_argument("baseline", help="committed bench JSON")
    ap.add_argument("candidate", help="freshly generated bench JSON")
    args = ap.parse_args(argv)
    base = step_records(args.baseline)
    cand = step_records(args.candidate)
    shared = [key for key in base if key in cand]
    if not shared:
        sys.exit("no (experiment, spec, perm, seed) key in both files")
    bad = 0
    for key in shared:
        name = f"{key[0]} {key[1]} {key[2]} seed={key[3]}"
        (b_steps, b_phases), (c_steps, c_phases) = base[key], cand[key]
        if (b_steps, b_phases) == (c_steps, c_phases):
            print(f"  ok    {name}: {c_steps} steps {[s for _, s in c_phases]}")
            continue
        bad += 1
        print(
            f"  FAIL  {name}: {c_steps} steps {c_phases}, baseline "
            f"{b_steps} steps {b_phases}"
        )
    if bad:
        sys.exit(f"{bad} of {len(shared)} shared record(s) changed steps")
    print(f"all {len(shared)} shared record(s) report the baseline's steps")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "validate-steps":
        validate_steps(sys.argv[2:])
        return
    if len(sys.argv) > 1 and sys.argv[1] == "validate-digests":
        validate_digests(sys.argv[2:])
        return
    if len(sys.argv) > 1 and sys.argv[1] == "validate-ckpt":
        validate_ckpt(sys.argv[2:])
        return
    if len(sys.argv) > 1 and sys.argv[1] == "validate-journal":
        validate_journal(sys.argv[2:])
        return
    if len(sys.argv) > 1 and sys.argv[1] == "validate-trace":
        validate_trace(sys.argv[2:])
        return
    if len(sys.argv) > 1 and sys.argv[1] == "validate-prom":
        validate_prom(sys.argv[2:])
        return
    if len(sys.argv) > 1 and sys.argv[1] == "validate-flight":
        validate_flight(sys.argv[2:])
        return
    if len(sys.argv) > 1 and sys.argv[1] == "validate-journeys":
        validate_journeys(sys.argv[2:])
        return

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed BENCH_engine.json")
    ap.add_argument("candidate", help="freshly generated BENCH_engine.json")
    ap.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="max allowed throughput drop (candidate >= baseline / factor)",
    )
    args = ap.parse_args()
    if args.factor < 1.0:
        ap.error("--factor must be >= 1.0")

    base = load(args.baseline)
    cand = load(args.candidate)

    failures = []
    for key, base_rec in sorted(base.items()):
        name = "/".join(str(part) for part in key)
        if key not in cand:
            # Workload sets may legitimately differ between the full bench
            # (committed baseline) and a --quick CI run; only keys present
            # in BOTH are guarded.
            print(f"  skip  {name}: not in candidate")
            continue
        cand_rec = cand[key]
        base_rate, cand_rate = base_rec["rate"], cand_rec["rate"]
        floor = base_rate / args.factor
        verdict = "ok" if cand_rate >= floor else "FAIL"
        print(
            f"  {verdict:4}  {name}: {cand_rate / 1e6:.2f} M moves/s "
            f"(baseline {base_rate / 1e6:.2f}, floor {floor / 1e6:.2f})"
        )
        if cand_rate < floor:
            failures.append(name)
        if base_rec["rss"] > 0 and cand_rec["rss"] > 0:
            ceiling = max(base_rec["rss"] * 2.0, base_rec["rss"] + 256.0)
            if cand_rec["rss"] > ceiling:
                print(
                    f"  FAIL  {name}: peak RSS {cand_rec['rss']:.0f} MiB > "
                    f"ceiling {ceiling:.0f} (baseline {base_rec['rss']:.0f})"
                )
                failures.append(name + " [rss]")

    # Absolute RSS guards bind regardless of baseline overlap: the --mega
    # fixture's whole point is that the run fits the declared footprint.
    for key, cand_rec in sorted(cand.items()):
        if cand_rec["guard"] <= 0:
            continue
        name = "/".join(str(part) for part in key)
        if cand_rec["rss"] <= 0:
            print(f"  FAIL  {name}: rss_guard_mb set but no peak_rss_mb")
            failures.append(name + " [rss-guard]")
        elif cand_rec["rss"] > cand_rec["guard"]:
            print(
                f"  FAIL  {name}: peak RSS {cand_rec['rss']:.0f} MiB exceeds "
                f"its guard {cand_rec['guard']:.0f}"
            )
            failures.append(name + " [rss-guard]")
        else:
            print(
                f"  ok    {name}: peak RSS {cand_rec['rss']:.0f} MiB within "
                f"guard {cand_rec['guard']:.0f}"
            )

    guarded = sum(1 for key in base if key in cand)
    if guarded == 0:
        sys.exit("no overlapping (workload, spec, mode) keys to guard")
    if failures:
        sys.exit(
            f"{len(failures)} of {guarded} guarded key(s) failed "
            f"(>{args.factor}x slowdown or RSS breach): {', '.join(failures)}"
        )
    print(f"all {guarded} guarded key(s) within {args.factor}x of baseline")


if __name__ == "__main__":
    main()
