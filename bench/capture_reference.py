#!/usr/bin/env python3
"""Write reference/<call>.stdout for every workload call that has none.

    python3 bench/capture_reference.py

Each call runs once at the CLI's default seed.  Existing references are
never overwritten: an output change must show as a benchmark failure, so
replacing a reference means deleting its file on purpose first.
"""

import sys
import tempfile
from pathlib import Path

from run import CLI_MAIN, REFERENCE, Harness, check_call
from workloads import DEFAULT_SEED, WORKLOADS, cli_args, slug


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=REFERENCE.parent) as work:
        harness = Harness(Path(work))
        for _, calls in WORKLOADS.values():
            for call in calls:
                path = REFERENCE / f"{slug(call)}.stdout"
                if path.exists():
                    continue
                child = harness.spawn([sys.executable, "-c", CLI_MAIN] + cli_args(call, DEFAULT_SEED))
                problems = check_call(call, child, child.stdout, None)
                if problems:
                    print(f"{call}: {problems}\n{child.stderr.decode()}", file=sys.stderr)
                    return 1
                path.write_bytes(child.stdout)
                print(f"wrote {path.name} ({child.wall_s:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
