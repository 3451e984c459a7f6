"""Runs the benchmark's children one at a time, from a small process.

The peak RSS that wait4 reports for a child counts the pages of the process
it was forked from, so the children are forked from this stdlib-only
interpreter rather than from the benchmark process, which holds numpy and
scipy.

Reads one JSON request per line on stdin, {"argv", "cwd", "env", "log",
"timeout"}, and answers each with one JSON line on stdout,
{"wall_s", "peak_rss_mb", "exit_code"}. Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req):
    with open(req["log"], "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
