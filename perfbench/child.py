"""Run one wcds command in this fresh interpreter and record its timings.

usage: python child.py RESULT_JSON SRC_DIR TRACE(0|1) WCDS_ARGS...

Does what the ``wcds`` console script does (import ``wcds.cli``, call its
``run``), with the program's stdout and stderr untouched. Writes to
RESULT_JSON the monotonic clock at interpreter start, after the import and
after the command, the exit status, and with TRACE=1 the per-layer sums
from ``spans.py``. CLOCK_MONOTONIC is system-wide, so the parent can
subtract its own launch time.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    result_path, src, trace = sys.argv[1:4]
    sys.path.insert(0, src)
    import wcds.cli

    t_imported = time.monotonic()
    if not os.path.abspath(wcds.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"wcds imported from {wcds.cli.__file__}, not from {src}", file=sys.stderr)
        return 70
    tracer = None
    if trace == "1":
        import spans

        tracer = spans.install()
    crashed = False
    try:
        status = wcds.cli.run(sys.argv[4:])
    except Exception:
        traceback.print_exc()
        crashed, status = True, 70
    sys.stdout.flush()
    t_end = time.monotonic()
    result = {"t_start": T_START, "t_imported": t_imported, "t_end": t_end, "status": status, "crashed": crashed}
    if tracer is not None:
        result["layers"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
