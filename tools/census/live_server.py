"""Drives a live ``repro serve --port 0`` over TCP with every op, then stops it
with SIGINT — the census's entry point for the served front door.

Usage::

    python3 -m tools.census.live_server [SERVE FLAG ...]

The flags go to ``repro serve``.  With ``--epoch-seconds`` the server ticks
itself, so the explicit ``tick`` below is answered with a refusal.  The exit
status is the server's (0 after ``shutting down``), or 1 when a reply is not
the JSON object the protocol promises.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import time
from typing import List, Sequence

#: Two objects, each with a start point and an FSA, at two timestamps.
_ROWS = [
    [1, 100.0, 100.0, 0, 180.0, 180.0, 220.0, 220.0, 10],
    [2, 110.0, 105.0, 0, 185.0, 170.0, 230.0, 215.0, 10],
]
_NEXT = [
    [1, 200.0, 200.0, 10, 280.0, 280.0, 320.0, 320.0, 20],
    [2, 200.0, 190.0, 10, 290.0, 275.0, 330.0, 310.0, 20],
]


def _requests() -> List[bytes]:
    messages = [
        {"op": "hello"},
        {"op": "batch", "client": 1, "seq": 0, "updates": _ROWS},
        {"op": "batch", "client": 1, "seq": 0, "updates": _ROWS},  # a duplicate
        {"op": "tick", "now": 10},
        {"op": "batch", "client": 1, "seq": 1, "updates": _NEXT},
        {"op": "tick", "now": 20},
        {"op": "topk", "k": 5},
        {"op": "topk", "k": 5, "by_score": True},
        {"op": "corridors", "k": 5},
        {"op": "snapshot"},
        {"op": "stats"},
        {"op": "nope"},
        {"op": "batch", "client": 1, "seq": 2, "updates": [[1, "x"]]},
    ]
    lines = [json.dumps(message).encode() + b"\n" for message in messages]
    return lines + [b"not json\n"]


def main(argv: Sequence[str]) -> int:
    command = [sys.executable, "-m", "repro", "serve", "--port", "0", *argv]
    server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        banner = server.stdout.readline()  # "serving on HOST:PORT (...)"
        address = banner.split()[2]
        host, port = address.rsplit(":", 1)
        ticking = "--epoch-seconds" in argv
        bad = 0
        with socket.create_connection((host, int(port)), timeout=30) as connection:
            replies = connection.makefile("rb")
            for line in _requests():
                if ticking and b'"tick"' in line:
                    time.sleep(0.5)  # let the auto-ticker commit an epoch first
                connection.sendall(line)
                reply = json.loads(replies.readline())
                bad += not (isinstance(reply, dict) and "ok" in reply)
        server.send_signal(signal.SIGINT)
        server.communicate(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    return 1 if bad else server.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
