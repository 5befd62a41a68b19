"""Run one ``ellfusion`` command as ``python -m ellfusion.cli`` does, with the
host-speed loop sampling it (see ``hostspeed.py``).

    python3 perfbench/clicmd.py OUT COMMAND [ARGS...]

When the command ends, the loop times are written as a JSON list to OUT, and
the process exits with the command's exit code.  ``run.py`` takes the loop
times out of the process's wall time and scales the rest.
"""

import json
import runpy
import sys

from hostspeed import SpeedClock


def main() -> None:
    out = sys.argv[1]
    sys.argv = ["ellfusion.cli", *sys.argv[2:]]
    clock = SpeedClock()
    try:
        runpy.run_module("ellfusion.cli", run_name="__main__", alter_sys=True)
    finally:
        clock.stop()
        with open(out, "w") as handle:
            json.dump(clock.refs, handle)


if __name__ == "__main__":
    main()
