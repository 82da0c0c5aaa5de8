"""Run one memrec CLI command in this process and report on it.

Usage: ``python3 bench/child.py REPORT.json TRACE(0|1) memrec-args...``

Works like ``python -m memrec memrec-args...`` (memrec must be importable;
the benchmark puts the checkout's ``src`` on ``PYTHONPATH``) and exits with
the CLI's exit code. At exit it writes REPORT.json with the process's peak
resident set and, with TRACE 1, the spans and counters recorded by
``tracing.py`` around memrec's public functions.

The peak comes from ``VmHWM`` in ``/proc/self/status``: it covers only
this program image, whereas the ``ru_maxrss`` of a child also keeps the
high-water mark of the parent it was forked from.
"""

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    report_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    tracer = Tracer()
    if trace:
        tracer.install("memrec")
    from memrec import cli

    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        report = {"code": code, "peak_rss_kb": peak_rss_kb()}
        if trace:
            report["trace"] = tracer.dump()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
