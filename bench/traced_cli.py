"""Run one kalmanres CLI call with every BINDINGS entry traced.

Usage: python3 bench/traced_cli.py TRACE_OUT.json <kalmanres arguments...>

Stdout and the exit code are the CLI's own.  The span report, the import
split and the LR cache statistics go to TRACE_OUT.json.  Exit code 70
means a binding in the table no longer exists.
"""

import json
import sys
import time

BINDING_MISSING = 70


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed: the numpy share of kalmanres's import)

    t1 = time.perf_counter()
    import kalmanres.cli

    t2 = time.perf_counter()

    import tracer

    tr = tracer.Tracer()
    try:
        originals = tracer.install(tr)
    except tracer.BindingError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return BINDING_MISSING
    try:
        code = kalmanres.cli.main(cli_args)
    finally:
        report = tr.report()
        report["import_numpy_s"] = t1 - t0
        report["import_kalmanres_s"] = t2 - t1
        info = originals["schur.lr_coefficient"].cache_info()
        report["lr_cache"] = {"hits": info.hits, "misses": info.misses}
        with open(out_path, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
