"""Run one ``alignbound`` command in this fresh process and print, as a JSON
line, its exit code and the process's peak resident memory in KiB.

    PYTHONPATH=src python3 perfbench/rss_child.py approximate --log ... --out r.json
"""

import contextlib
import io
import json
import resource
import sys

from alignbound.cli import main

if __name__ == "__main__":
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main(sys.argv[1:])
    if rc != 0:
        sys.stderr.write(err.getvalue())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rc": rc, "peak_rss_kb": peak_kb}))
