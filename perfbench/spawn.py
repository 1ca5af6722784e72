"""Starts the benchmark's children and waits for them, on behalf of run.py.

The peak RSS that wait4 reports for a child counts the memory of the
process that started it, because the child begins inside that process's
address space.  run.py grows while it builds inputs and checks outputs, so
it hands every start to this small process (run with -S, importing little).

    python -S spawn.py STDOUT_FILE STDERR_FILE

Reads one JSON request per line on stdin, [argv, timeout_s]; runs argv
with its stdout and stderr sent to the two files, killing it after
timeout_s; answers each request with one JSON line [wall_s, peak_rss_kb,
exit_code].  Exits at the end of its input.
"""

import json
import os
import signal
import sys
import time

child = 0


def expire(signum, frame):
    if child:
        os.kill(child, signal.SIGKILL)


def main() -> None:
    global child
    out_path, err_path = sys.argv[1:3]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    signal.signal(signal.SIGALRM, expire)
    for line in sys.stdin:
        argv, timeout = json.loads(line)
        start = time.perf_counter()
        child = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        signal.alarm(timeout)
        _, status, usage = os.wait4(child, 0)
        child = 0
        signal.alarm(0)
        wall = time.perf_counter() - start
        print(json.dumps([wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]), flush=True)


if __name__ == "__main__":
    main()
