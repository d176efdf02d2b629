"""Run one coxgrowth CLI command in this fresh interpreter and record its timings.

Usage: python3 job.py RECORD TRACE SRC ARGS...

Imports ``coxgrowth.cli`` (which must come from SRC), optionally installs the
tracer, calls ``coxgrowth.cli.main(ARGS)`` and writes a JSON record to RECORD:
the monotonic clock after the import and around ``main``, the process CPU
time spent in ``main``, its return code or traceback and, with TRACE 1, the
counters (spans go to RECORD + ".spans").  The report ``main`` prints goes to
this process's standard output, as for a user of the command.
"""

import sys
import time


def main() -> int:
    record_path, trace, src = sys.argv[1:4]
    import coxgrowth.cli
    imported = time.monotonic()

    import json
    import os
    import traceback

    record = {"imported": imported}
    origin = os.path.realpath(coxgrowth.cli.__file__)
    if not origin.startswith(os.path.join(os.path.realpath(src), "")):
        record["error"] = f"coxgrowth.cli was imported from {origin}, not from {src}"
        rc = 3
    else:
        tracer = None
        if trace == "1":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        cli_main = coxgrowth.cli.main
        cpu = time.process_time()
        record["start"] = time.monotonic()
        try:
            rc = cli_main(sys.argv[4:])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            record["error"] = traceback.format_exc()
            rc = 4
        record["end"] = time.monotonic()
        record["cpu"] = time.process_time() - cpu
        if tracer is not None:
            record["counters"] = tracer.counters()
            tracer.write(record_path + ".spans")
    record["rc"] = rc
    sys.stdout.flush()
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
