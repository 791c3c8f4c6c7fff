"""Stand-in logprob endpoint: the logistic oracle served over HTTP/1.1.

The benchmark starts this in its own child process, so the server's CPU is
never charged to the client under test::

    python3 perfbench/endpoint.py --oracle ORACLE.json --seed N \
        [--latency-ms MS] [--fail-every N]

It binds an ephemeral localhost port and prints ``PORT <n>`` once it
listens. ``POST /`` answers ``{"prompt", "top_k"}`` the way the in-process
``SyntheticBackend`` would; ``GET /stats`` returns the request counters.

Connections are kept alive and every accepted socket has Nagle's algorithm
turned off. Without ``TCP_NODELAY`` the body write waits on the client's
delayed ACK, about 40 ms per request, and the benchmark would measure the
kernel instead of the client.

Request ``i`` (counted from 0) sleeps for entry ``i mod 4096`` of a seeded
log-normal schedule whose median is ``--latency-ms``, clipped to 5-50 ms, the
latency range the project roadmap sets for this server. Every
``--fail-every``-th request is answered with 503 instead. Only 503 is
scripted: the client treats a 429, like other 4xx answers, as fatal.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

INPUT_MARKER = "### Input:"
RESPONSE_MARKER = "### Response:"
SCHEDULE_LENGTH = 4096
#: Log-normal shape: with sigma 0.5 about 1% of delays reach 3.2x the
#: median, and the clip keeps every delay within the roadmap's range.
LATENCY_SIGMA = 0.5
LATENCY_RANGE_S = (0.005, 0.050)


class Oracle:
    """Logistic model over the feature keys present in the prompt's input block."""

    def __init__(self, spec: dict):
        self.positive, self.negative = spec["classes"]
        self.weights = {str(k): float(v) for k, v in spec["weights"].items()}
        self.bias = float(spec.get("bias", 0.0))

    def answer(self, prompt: str, k: int) -> dict:
        start = prompt.find(INPUT_MARKER)
        block = prompt
        if start >= 0:
            start += len(INPUT_MARKER)
            end = prompt.find(RESPONSE_MARKER, start)
            block = prompt[start:end] if end >= 0 else prompt[start:]
        present = {tok.partition(":")[0] for tok in block.split() if ":" in tok}
        score = self.bias + sum(self.weights.get(key, 0.0) for key in present)
        p_pos = 1.0 / (1.0 + math.exp(-score))
        ranked = sorted(
            ((f" {self.positive}", p_pos), (f" {self.negative}", 1.0 - p_pos)),
            key=lambda item: -item[1],
        )
        return {
            "tokens": [
                {"token": t, "logprob": math.log(p) if p > 0 else float("-inf")}
                for t, p in ranked[:k]
            ]
        }


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.status_200 = 0
        self.status_5xx = 0
        self.injected_wait_s = 0.0

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "status_200": self.status_200,
                "status_5xx": self.status_5xx,
                "injected_wait_s": self.injected_wait_s,
            }


def make_handler(oracle: Oracle, schedule: list[float], fail_every: int, counters: Counters):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def log_message(self, *args):
            pass

        def _send(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, b"{}")
                return
            self._send(200, json.dumps(counters.snapshot()).encode("utf-8"))

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            with counters.lock:
                index = counters.requests
                counters.requests += 1
                delay = schedule[index % len(schedule)]
                counters.injected_wait_s += delay
            if delay:
                time.sleep(delay)
            if fail_every and index % fail_every == fail_every - 1:
                with counters.lock:
                    counters.status_5xx += 1
                self._send(503, b'{"error": "scripted"}')
                return
            answer = oracle.answer(body["prompt"], int(body["top_k"]))
            with counters.lock:
                counters.status_200 += 1
            self._send(200, json.dumps(answer).encode("utf-8"))

    return Handler


def latency_schedule(seed: int, median_ms: float) -> list[float]:
    if median_ms <= 0:
        return [0.0]
    rng = random.Random(f"latency-{seed}")
    mu = math.log(median_ms / 1000.0)
    low, high = LATENCY_RANGE_S
    return [
        min(high, max(low, rng.lognormvariate(mu, LATENCY_SIGMA)))
        for _ in range(SCHEDULE_LENGTH)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--oracle", required=True, help="oracle spec JSON")
    parser.add_argument("--seed", type=int, required=True, help="latency schedule seed")
    parser.add_argument("--latency-ms", type=float, default=0.0, help="median added latency")
    parser.add_argument("--fail-every", type=int, default=0, help="answer every Nth with 503")
    args = parser.parse_args(argv)

    with open(args.oracle, encoding="utf-8") as handle:
        oracle = Oracle(json.load(handle))
    counters = Counters()
    handler = make_handler(
        oracle, latency_schedule(args.seed, args.latency_ms), args.fail_every, counters
    )
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
