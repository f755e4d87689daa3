"""One untraced dispersim CLI invocation, as the console script runs it.

    python3 launch.py REPORT.json <subcommand> --config C --out O

Writes the monotonic time at which ``dispersim.cli`` finished importing,
the time the command returned, its exit code, the peak resident memory
of this process and the path the package was imported from.
"""

import json
import resource
import sys
import time


def main() -> int:
    import dispersim.cli

    imported = time.monotonic()
    rc = dispersim.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump(
            {
                "imported": imported,
                "done": time.monotonic(),
                "exit": rc,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "module": dispersim.cli.__file__,
            },
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
