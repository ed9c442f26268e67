#!/usr/bin/env python3
"""Wire-level fuzzer for POST /v1/ingest (CI: no network deps, fixed seed).

Spawns a dpstarj-server on an ephemeral port, then throws a budget of
mutated ingest bodies at it: random byte flips, insertions, deletions,
truncations and duplications of a valid JSON batch, plus a few structural
edits (wrong types, cells past the double range, giant bodies past the 1 MB
cap). The server must answer every one of them from the 2xx/4xx vocabulary of
docs/wire-protocol.md —

  200           the mutation kept the body valid,
  400           malformed JSON / wrong shape / schema-invalid rows,
  404           the table name got mangled,
  413           the body outgrew the parser's cap,

never a 5xx, never a dropped connection, and never a crash: after the
budget the server must still answer /healthz and drain cleanly on SIGINT
with exit code 0. Before the budget, one fixed probe checks that a row whose
revenue is 1e400 (+inf once parsed) answers 400 and is not appended. A fixed
default seed keeps CI deterministic; override it (and the iteration budget)
to widen the search locally.

Usage: fuzz_ingest.py --server PATH [--iterations N] [--seed N] [--sf S]
"""

import argparse
import http.client
import json
import random
import re
import signal
import subprocess
import sys
import time

LISTEN_RE = re.compile(r"listening on http://([0-9.]+):([0-9]+)")

# Statuses the wire protocol allows for an ingest request, however mangled.
ACCEPTABLE = {200, 400, 404, 413}

# Cells past the double range, spliced in as raw text: Python's json module
# writes float("inf") as Infinity, which is not JSON.
NON_FINITE_CELLS = ("1e400", "-1e400")


def valid_body():
    """A well-formed two-row batch for the SSB Lineorder fact table."""
    return json.dumps({
        "table": "Lineorder",
        "rows": [
            [900001, 1, 1, 1, 1, 5, 1234.5, 100.25],
            [900002, 1, 1, 1, 2, 3, 99.0, 42.5],
        ],
    })


def mutate(body: str, rng: random.Random) -> bytes:
    """One random mutation of `body` (operating on bytes, like a real fuzzer)."""
    data = bytearray(body.encode())
    op = rng.randrange(8)
    if op == 0 and data:  # flip random bytes
        for _ in range(rng.randint(1, 8)):
            data[rng.randrange(len(data))] = rng.randrange(256)
    elif op == 1 and data:  # delete a span
        start = rng.randrange(len(data))
        del data[start:start + rng.randint(1, 16)]
    elif op == 2:  # insert random bytes
        start = rng.randrange(len(data) + 1)
        data[start:start] = bytes(rng.randrange(256)
                                  for _ in range(rng.randint(1, 16)))
    elif op == 3 and data:  # truncate
        del data[rng.randrange(len(data)):]
    elif op == 4:  # duplicate a span
        start = rng.randrange(len(data) + 1)
        span = data[start:start + rng.randint(1, 32)]
        data[start:start] = span
    elif op == 5:  # structural: retype a field
        doc = json.loads(body)
        choice = rng.randrange(4)
        if choice == 0:
            doc["table"] = rng.choice([7, None, [], "NoSuchTable", ""])
        elif choice == 1:
            doc["rows"] = rng.choice([{}, "rows", 3.5, None, [[]], [{}]])
        elif choice == 2:
            doc["rows"][0][rng.randrange(8)] = rng.choice(
                [None, True, [], {}, "x", 1e308, -1e308, *NON_FINITE_CELLS])
        else:
            doc["rows"][0] = doc["rows"][0][:rng.randrange(8)]  # wrong arity
        text = json.dumps(doc)
        for raw in NON_FINITE_CELLS:
            text = text.replace(json.dumps(raw), raw)
        data = bytearray(text.encode())
    elif op == 6:  # giant body: must hit the parser's 1 MB cap (413)
        doc = json.loads(body)
        doc["rows"] = [doc["rows"][0]] * 40000
        data = bytearray(json.dumps(doc).encode())
    # op == 7: send the body unmodified (the 200 path stays in rotation)
    return bytes(data)


def post(host, port, path, payload):
    """One request on a fresh connection; returns the status code and the
    response body."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        try:
            conn.request("POST", path, body=payload,
                         headers={"Content-Type": "application/json"})
        except (BrokenPipeError, ConnectionResetError):
            # A legitimate mid-upload rejection: an over-cap Content-Length
            # gets an early 413 + close while we are still writing the body.
            # The response is already on the socket; a real crash surfaces
            # below when getresponse() finds the socket empty.
            pass
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def probe_non_finite(host, port):
    """A valid Lineorder row whose revenue (column 6) is 1e400 must answer 400
    and must not be appended: the valid batches around it count every row
    but that one. Returns the violations found."""
    base = valid_body().encode()
    status, body = post(host, port, "/v1/ingest", base)
    if status != 200:
        return [f"baseline ingest answered {status}"]
    before = json.loads(body)["rows_total"]
    bad = b'{"table": "Lineorder", "rows": [[900003, 1, 1, 1, 3, 4, 1e400, 10.5]]}'
    status, _ = post(host, port, "/v1/ingest", bad)
    problems = []
    if status != 400:
        problems.append(f"revenue 1e400 answered {status}, want 400")
    status, body = post(host, port, "/v1/ingest", base)
    if status != 200:
        return problems + [f"ingest after the probe answered {status}"]
    after = json.loads(body)["rows_total"]
    if after != before + 2:
        problems.append(f"rows_total {before} -> {after} across one two-row "
                        "batch: the refused row was appended")
    return problems


def healthz_ok(host, port):
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--server", required=True,
                        help="path to the dpstarj-server binary")
    parser.add_argument("--iterations", type=int, default=300)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--sf", type=float, default=0.002,
                        help="SSB scale factor for the fuzzed instance")
    args = parser.parse_args(argv[1:])

    proc = subprocess.Popen(
        [args.server, "--port", "0", "--sf", str(args.sf)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    host = port = None
    deadline = time.monotonic() + 60
    try:
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                print("server exited before listening", file=sys.stderr)
                return 1
            m = LISTEN_RE.search(line)
            if m:
                host, port = m.group(1), int(m.group(2))
                break
        if port is None:
            print("server never announced its port", file=sys.stderr)
            return 1

        failures = 0
        for problem in probe_non_finite(host, port):
            print(f"non-finite probe: {problem}", file=sys.stderr)
            failures += 1

        rng = random.Random(args.seed)
        base = valid_body()
        outcomes = {}
        for i in range(args.iterations):
            payload = mutate(base, rng)
            try:
                status, _ = post(host, port, "/v1/ingest", payload)
            except (OSError, http.client.HTTPException) as err:
                print(f"iteration {i}: connection failed ({err}) for "
                      f"{payload[:120]!r}", file=sys.stderr)
                failures += 1
                continue
            outcomes[status] = outcomes.get(status, 0) + 1
            if status not in ACCEPTABLE:
                print(f"iteration {i}: HTTP {status} for {payload[:120]!r}",
                      file=sys.stderr)
                failures += 1
        # The process must have survived the whole budget.
        if not healthz_ok(host, port):
            print("server unhealthy after fuzzing", file=sys.stderr)
            failures += 1
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            rc = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            print("server did not drain after SIGINT", file=sys.stderr)
            return 1

    if rc != 0:
        print(f"server exited {rc} after fuzzing", file=sys.stderr)
        return 1
    if failures:
        print(f"{failures} violations", file=sys.stderr)
        return 1
    summary = ", ".join(f"{n}x {s}" for s, n in sorted(outcomes.items()))
    print(f"fuzz_ingest: {args.iterations} mutated bodies ok ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
