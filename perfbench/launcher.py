"""Starts the CLI processes on behalf of the benchmark.

Linux folds the peak RSS of the address space a child had before exec()
into the child's ru_maxrss, and a vfork()ed child shares its parent's
address space. Processes started by the benchmark itself would therefore
report the benchmark's own peak memory as theirs. This launcher is started
while the benchmark is still small and stays small, so the ru_maxrss that
wait4 gives it belongs to the CLI process tree alone.

Protocol: one JSON request per line on stdin
({"argv", "env", "log", "timeout"}), one JSON reply per line on stdout
({"code", "wall_s", "cpu_s", "rss_mb"}). Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def launch(argv, env, log_path, timeout):
    with open(log_path, "ab") as log:
        t0 = perf_counter()
        proc = subprocess.Popen(
            argv, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log
        )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss / 1024.0,
    }


def serve():
    for line in sys.stdin:
        req = json.loads(line)
        reply = launch(req["argv"], req["env"], req["log"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
