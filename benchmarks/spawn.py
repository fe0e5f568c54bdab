"""Child launcher used by ``run.py``; not meant to be run by hand.

Reads one JSON request per line from standard input: a command, the files
for its standard output and error, and a timeout.  Starts the command,
waits for it with ``os.wait4`` and answers with one JSON line: start and end
on the monotonic clock (ns), user+system CPU seconds, peak RSS (KiB) and
exit code.

It is a separate, small process because Linux reports as a child's peak
RSS at least the peak of the process it was started from (the memory it
shares until ``exec``); measured from the benchmark itself, which parses
megabyte outputs, every child would look as large as the benchmark.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.monotonic_ns()
            proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "start_ns": start,
            "end_ns": end,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "code": proc.returncode,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
