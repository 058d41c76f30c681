#!/usr/bin/env python3
"""CLI client for the mdmesh experiment service (examples/experiment_server).

Submits JSON run requests, lists and watches runs, and scrapes metrics over
the server's loopback HTTP control plane. Stdlib only.

Commands:
    submit  build a RunSpec from flags (or --spec-json FILE) and POST /runs
    list    GET /runs — all records + state counts
    get     GET /runs/<id> — one record (status, result, artifact paths)
    wait    poll GET /runs/<id> until it reaches done/failed (prints the
            record; exits 0 for done, 3 for failed)
    status  GET /status — service snapshot
    metrics GET /metrics — Prometheus text

Examples:
    serve_client.py --port 8080 submit --d 2 --n 8 --pattern uniform \\
        --rate 0.1 --warmup 32 --measure 128 --drain
    serve_client.py --port 8080 wait 3
    serve_client.py --port 8080 list

Exit codes: 0 ok, 1 transport/server error, 2 bad usage, 3 run failed,
4 rejected (queue full / draining).
"""

import argparse
import json
import sys
import time
import urllib.error
import urllib.request


def request(port, method, path, body=None, timeout=10.0):
    url = f"http://127.0.0.1:{port}{path}"
    data = body.encode() if isinstance(body, str) else body
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()
    except OSError as e:
        sys.exit(f"cannot reach 127.0.0.1:{port}{path}: {e}")


def build_spec(args):
    if args.spec_json:
        with open(args.spec_json, encoding="utf-8") as f:
            return json.load(f)
    spec = {
        "priority": args.priority,
        "topology": {"d": args.d, "n": args.n, "torus": args.torus},
        "pattern": {"kind": args.pattern, "seed": args.seed},
        "driver": {
            "rate": args.rate,
            "warmup": args.warmup,
            "measure": args.measure,
            "drain": args.drain,
            "seed": args.seed,
        },
    }
    if args.name:
        spec["name"] = args.name
    return spec


def cmd_submit(args):
    spec = build_spec(args)
    status, body = request(args.port, "POST", "/runs", json.dumps(spec))
    print(body, end="")
    if status == 202:
        return 0
    if status in (429, 503):
        return 4
    return 1


def cmd_list(args):
    status, body = request(args.port, "GET", "/runs")
    print(body, end="")
    return 0 if status == 200 else 1


def cmd_get(args):
    status, body = request(args.port, "GET", f"/runs/{args.id}")
    print(body, end="")
    return 0 if status == 200 else 1


def cmd_wait(args):
    deadline = time.monotonic() + args.timeout
    while True:
        status, body = request(args.port, "GET", f"/runs/{args.id}")
        if status != 200:
            print(body, end="", file=sys.stderr)
            return 1
        record = json.loads(body)
        state = record.get("state")
        if state == "done":
            print(body, end="")
            return 0
        if state == "failed":
            print(body, end="", file=sys.stderr)
            return 3
        if time.monotonic() > deadline:
            sys.exit(
                f"run {args.id} still {state} after {args.timeout}s"
            )
        time.sleep(args.interval)


def cmd_status(args):
    status, body = request(args.port, "GET", "/status")
    print(body, end="")
    return 0 if status == 200 else 1


def cmd_metrics(args):
    status, body = request(args.port, "GET", "/metrics")
    print(body, end="")
    return 0 if status == 200 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--port", type=int, required=True,
                    help="experiment_server port on 127.0.0.1")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("submit", help="POST a run request")
    sp.add_argument("--spec-json", default=None,
                    help="JSON spec file (overrides the flags below)")
    sp.add_argument("--name", default="")
    sp.add_argument("--priority", type=int, default=0)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--torus", action="store_true")
    sp.add_argument("--pattern", default="uniform")
    sp.add_argument("--rate", type=float, default=0.1)
    sp.add_argument("--warmup", type=int, default=32)
    sp.add_argument("--measure", type=int, default=128)
    sp.add_argument("--drain", action="store_true")
    sp.add_argument("--seed", type=int, default=1)
    sp.set_defaults(fn=cmd_submit)

    lp = sub.add_parser("list", help="GET /runs")
    lp.set_defaults(fn=cmd_list)

    gp = sub.add_parser("get", help="GET /runs/<id>")
    gp.add_argument("id", type=int)
    gp.set_defaults(fn=cmd_get)

    wp = sub.add_parser("wait", help="poll a run until done/failed")
    wp.add_argument("id", type=int)
    wp.add_argument("--timeout", type=float, default=120.0)
    wp.add_argument("--interval", type=float, default=0.2)
    wp.set_defaults(fn=cmd_wait)

    tp = sub.add_parser("status", help="GET /status")
    tp.set_defaults(fn=cmd_status)

    mp = sub.add_parser("metrics", help="GET /metrics")
    mp.set_defaults(fn=cmd_metrics)

    args = ap.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
