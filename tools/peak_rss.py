"""Run a command and write the peak resident set size of its processes.

    python3 tools/peak_rss.py OUT_FILE COMMAND [ARG ...]

The command runs with this script's standard streams.  When it ends, the
largest resident set size of any of its processes, as
``resource.getrusage(RUSAGE_CHILDREN)`` reports it, is written to
``OUT_FILE`` as ``<MB> MB peak RSS``, and the script exits with the
command's exit code.  Linux reports ``ru_maxrss`` in KiB and macOS in
bytes; both are converted to MiB.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    out, command = argv[0], argv[1:]
    code = subprocess.call(command)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if sys.platform == "darwin":
        peak /= 1024
    with open(out, "w") as f:
        f.write(f"{peak / 1024:.1f} MB peak RSS\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
