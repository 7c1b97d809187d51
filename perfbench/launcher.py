"""Spawns the benchmark's commands and measures each one from outside.

A child's peak RSS (``ru_maxrss``) starts from the peak of the process that
spawned it, so commands are not spawned by the benchmark process, which
holds the generated inputs, but by this small process, started before any
input exists. It reads one JSON request per line on stdin and answers each
with one JSON line on stdout:

    {"argv": [...], "cwd": "...", "env": {...}, "stderr": "path", "timeout": 120}
    -> {"rc": 0, "wall_s": 1.23, "maxrss_kb": 21000}

    {"self": true} -> {"hwm_kb": 14000}

``hwm_kb`` is this process's own high-water RSS (``VmHWM``), the floor
every child's ``ru_maxrss`` starts from.

A command that outlives its timeout is killed and answered with rc -9.
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, request["timeout"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def high_water_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("self"):
            reply = {"hwm_kb": high_water_kb()}
        else:
            reply = run(request)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
