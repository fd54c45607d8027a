#!/usr/bin/env python3
"""Run a command and fail if its peak resident set exceeds a ceiling.

    rss_ceiling.py MIB COMMAND [ARG...]

The command's stdout and stderr pass through; its peak RSS (`ru_maxrss` of
the reaped child) and wall time go to stderr. Exits with the command's
status, or 1 if the command succeeded above the ceiling.
"""

import resource
import subprocess
import sys
import time

ceiling_mib, command = float(sys.argv[1]), sys.argv[2:]
start = time.monotonic()
status = subprocess.call(command)
wall = time.monotonic() - start
# Linux reports ru_maxrss in KiB.
peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {peak_mib:.1f} MiB (ceiling {ceiling_mib:g}), {wall:.2f} s: {' '.join(command)}", file=sys.stderr)
if status == 0 and peak_mib > ceiling_mib:
    print(f"ERROR: peak RSS {peak_mib:.1f} MiB is above the {ceiling_mib:g} MiB ceiling", file=sys.stderr)
    status = 1
sys.exit(status)
