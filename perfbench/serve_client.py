"""Load generator of ``serve-estimate``, run as its own process.

Keeping the callers out of the server's process means the server's
interpreter lock is not shared with them.  Protocol on stdin/stdout, one
line each::

    segment <traced 0|1> <seconds>   ->  done
    finish                           ->  <JSON results>

Usage: ``python3 serve_client.py <host> <port> <seed>``.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import random
import re
import sys
import threading
import time
from typing import Dict, Iterator, List, Tuple

NETWORKS = ("alexnet", "vgg16", "googlenet", "resnet152", "bert-base", "mlp")
GPUS = ("titanxp", "p100", "v100")
PASSES = ("forward", "dgrad", "wgrad", "training")
MAX_BATCH = 512
CONNECTIONS = 2
#: one repeated body after every this many distinct ones (a 25% share).
DISTINCT_PER_REPEAT = 3
#: repeats draw from this many most recent distinct bodies per connection,
#: so both connections' candidates fit the server's 1024-entry memo and the
#: share of memo hits does not fall as the server gets faster.
REPEAT_WINDOW = 256
#: responses per connection whose content is re-derived in process, drawn
#: from that connection's first SAMPLE_POOL requests.
SAMPLES_PER_CONNECTION = 12
SAMPLE_POOL = 150
HEADERS = {"Content-Type": "application/json"}

_TIMING = re.compile(rb'"timing": \{[^{}]*(?:\{[^{}]*\}[^{}]*)*\}')


def body_stream(seed: int, conn: int) -> Iterator[Tuple[int, bytes]]:
    """``(body_id, body)`` pairs; a repeat yields an earlier ``body_id``.

    Every block walks each (network, GPU, pass) cell once in a seeded order
    with a fresh batch size, so every seed sends the same cost mix.
    Connection 0 draws odd batch sizes and connection 1 even ones, so no
    body repeats by accident.
    """
    rng = random.Random(f"serve-estimate:{seed}:{conn}")
    cells = [(n, g, p) for n in NETWORKS for g in GPUS for p in PASSES]
    seen = set()
    bodies: List[bytes] = []
    while True:
        order = cells[:]
        rng.shuffle(order)
        for network, gpu, passes in order:
            while True:
                batch = 2 * rng.randrange(MAX_BATCH // 2) + 1 + conn
                if (network, gpu, passes, batch) not in seen:
                    break
            seen.add((network, gpu, passes, batch))
            bodies.append(json.dumps({"network": network, "gpu": gpu,
                                      "batch": batch, "passes": passes}
                                     ).encode("utf-8"))
            yield len(bodies) - 1, bodies[-1]
            if len(bodies) % DISTINCT_PER_REPEAT == 0:
                earlier = rng.randrange(max(0, len(bodies) - REPEAT_WINDOW),
                                        len(bodies))
                yield earlier, bodies[earlier]


def content_digest(payload: bytes) -> str:
    """sha1 of a report body without its volatile ``meta.timing`` block."""
    start = payload.rfind(b'"timing": {')
    if start >= 0:
        match = _TIMING.match(payload, start)
        if match:
            payload = payload[:start] + payload[match.end():]
    return hashlib.sha1(payload).hexdigest()


class Connection:
    """One closed-loop caller: its socket, body stream and records."""

    def __init__(self, index: int, seed: int, host: str, port: int) -> None:
        self.index = index
        self.http = http.client.HTTPConnection(host, port, timeout=120)
        self.stream = body_stream(seed, index)
        rng = random.Random(f"serve-estimate-sample:{seed}:{index}")
        self.sample_positions = set(rng.sample(range(SAMPLE_POOL),
                                               SAMPLES_PER_CONNECTION))
        self.sent = 0
        #: [body_id, status, latency_s, content digest, traced, end_s] per
        #: request (``end_s`` on this process's perf_counter clock).
        self.records: List[list] = []
        #: body_id -> [body, response] for the sampled requests.
        self.samples: Dict[int, List[str]] = {}
        self.errors: List[str] = []

    def drive(self, deadline: float, traced: bool) -> None:
        clock = time.perf_counter
        try:
            while clock() < deadline:
                body_id, body = next(self.stream)
                position = self.sent
                self.sent += 1
                start = clock()
                self.http.request("POST", "/v1/estimate", body=body,
                                  headers=HEADERS)
                response = self.http.getresponse()
                payload = response.read()
                end = clock()
                self.records.append([body_id, response.status, end - start,
                                     content_digest(payload), traced, end])
                if position in self.sample_positions:
                    self.samples[body_id] = [
                        body.decode("utf-8"),
                        base64.b64encode(payload).decode("ascii")]
        except Exception as exc:  # reported; the run counts it as failed
            self.errors.append(f"connection {self.index}: {exc!r}")


def main(argv) -> int:
    host, port, seed = argv[0], int(argv[1]), int(argv[2])
    connections = [Connection(i, seed, host, port) for i in range(CONNECTIONS)]
    try:
        while True:
            command = sys.stdin.readline().split()
            if not command or command[0] == "finish":
                break
            traced, length = command[1] == "1", float(command[2])
            deadline = time.perf_counter() + length
            threads = [threading.Thread(target=c.drive, args=(deadline, traced))
                       for c in connections]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            print("done", flush=True)
    finally:
        for conn in connections:
            conn.http.close()
    print(json.dumps([{"sent": c.sent, "records": c.records,
                       "samples": c.samples, "errors": c.errors}
                      for c in connections]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
