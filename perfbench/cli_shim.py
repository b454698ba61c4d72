"""Run one ``bidisk`` command line call with layer spans recorded.

    python3 perfbench/cli_shim.py TRACE_JSON ARG...

behaves like ``python3 -m bidisk.cli ARG...`` and also writes the span
totals of the call, and the time ``import bidisk.cli`` took, to TRACE_JSON.
"""

import json
import sys
import time

if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import bidisk.cli

    import_s = time.perf_counter() - start
    import tracer  # after the timed import, so numpy is counted in it

    spans = tracer.Tracer()
    spans.install()
    try:
        code = bidisk.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, **spans.totals()}, fh)
    sys.exit(code)
