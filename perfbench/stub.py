"""Chat-completions endpoint stub for the refine-stub workload.

    python3 stub.py --table TABLE.json --delay-ms 10

Listens on 127.0.0.1 (a free port), prints ``PORT <n>`` once it accepts
connections, and serves until its standard input closes.  Standard library
only: it runs in its own interpreter and never imports the program.

Every answer is looked up in a table the benchmark built at set-up, so the
stub cannot invent a result:

* a plan prompt is keyed by the SHA-256 of the target problem text; the
  answer is the golden or the truncated plan, as numbered lines, chosen by
  the number of rejected attempts already in the transcript;
* a critique prompt is keyed by the hashes of the problem text and of the
  suggested plan; the answer is a fixed explanation ending in a verdict phrase.

A prompt whose key is missing gets HTTP 404, which the client reports as a
transport failure.  Each completion sleeps a fixed service delay.  The server
speaks HTTP/1.1 with keep-alive and Content-Length, with Nagle's algorithm off
(a delayed ACK would otherwise add tens of milliseconds to each reply on a
reused connection).  ``GET /stats`` returns the counters: chat requests,
connections that carried a chat request, the most requests in flight at once,
and the summed service time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

PROBLEM_START = "(define (problem"
CRITIQUE_OPEN = "The suggested solution:\n"
CRITIQUE_CLOSE = "\n\nPlease carefully evaluate the plan."
TRANSCRIPT_TURN = "The clean plan:\n"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def critique_key(problem_text: str, plan_text: str) -> str:
    return sha(problem_text) + ":" + sha(plan_text)


def problem_text(prompt: str) -> str | None:
    """The last ``(define (problem ...)`` block of the prompt, parentheses balanced."""
    start = prompt.rfind(PROBLEM_START)
    if start < 0:
        return None
    depth = 0
    for i in range(start, len(prompt)):
        ch = prompt[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return prompt[start : i + 1]
    return None


def answer(table: dict, prompt: str) -> str | None:
    problem = problem_text(prompt)
    if problem is None:
        return None
    open_at = prompt.find(CRITIQUE_OPEN)
    if open_at >= 0:
        close_at = prompt.find(CRITIQUE_CLOSE, open_at)
        if close_at < 0:
            return None
        plan = prompt[open_at + len(CRITIQUE_OPEN) : close_at]
        return table["critiques"].get(critique_key(problem, plan))
    entry = table["problems"].get(sha(problem))
    if entry is None:
        return None
    attempt = prompt.count(TRANSCRIPT_TURN)
    return entry["golden"] if attempt >= entry["golden_from"] else entry["truncated"]


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.inflight = 0
        self.inflight_max = 0
        self.service_s = 0.0

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "inflight_max": self.inflight_max,
                "service_s": self.service_s,
            }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.carried_chat = False

    def log_message(self, format, *args):
        pass

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.wfile.flush()

    def do_GET(self):
        if self.path == "/stats":
            self._send(200, self.server.stats.snapshot())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        stats = self.server.stats
        start = time.perf_counter()
        with stats.lock:
            stats.requests += 1
            if not self.carried_chat:
                self.carried_chat = True
                stats.connections += 1
            stats.inflight += 1
            stats.inflight_max = max(stats.inflight_max, stats.inflight)
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length))
            text = None
            if self.path.endswith("/chat/completions"):
                text = answer(self.server.table, body["messages"][-1]["content"])
            time.sleep(self.server.delay_s)
        finally:
            # answered from here on: a client may send its next request as
            # soon as it reads the reply, before this thread finishes
            with stats.lock:
                stats.inflight -= 1
        try:
            if text is None:
                self._send(404, {"error": "prompt not in table"})
            else:
                self._send(
                    200,
                    {
                        "object": "chat.completion",
                        "model": body.get("model", ""),
                        "choices": [
                            {
                                "index": 0,
                                "message": {"role": "assistant", "content": text},
                                "finish_reason": "stop",
                            }
                        ],
                    },
                )
        finally:
            with stats.lock:
                stats.service_s += time.perf_counter() - start


def serve(table: dict, delay_s: float) -> ThreadingHTTPServer:
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.table = table
    server.delay_s = delay_s
    server.stats = Stats()
    return server


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args()
    with open(args.table, encoding="utf-8") as fh:
        table = json.load(fh)
    server = serve(table, args.delay_ms / 1000.0)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    return 0


if __name__ == "__main__":
    sys.exit(main())
