"""Runs `maxstable-pv verify` once in this fresh process and writes what it
measured as JSON.

    python3 verify_child.py CONFIG REPORT RESULT [TRACE]

Wall and CPU time cover the ``cli.main`` call only (imports are measured
separately as set-up).  CPU time and peak RSS include the pool workers,
which the pool has waited for by the time ``cli.main`` returns.  With a
TRACE path, spans are recorded on the package's public names and written
there at the end; run that way with MAXSTABLE_PV_THREADS=1, since spans are
recorded in this process only.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def main(argv):
    config, report, result_path = argv[:3]
    trace_path = argv[3] if len(argv) > 3 else None

    import maxstable_pv
    from maxstable_pv import cli

    entry = cli.main
    tracer = None
    if trace_path:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install(maxstable_pv)
        entry = tracer.wrap("cli.main", cli.main)

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    code = entry(["verify", "--config", config, "--out", report])
    wall = time.perf_counter() - started
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux; children = the largest waited-for worker
        "peak_rss_mb": (self1.ru_maxrss + kids1.ru_maxrss) / 1024.0,
    }
    if tracer is not None:
        tracer.write(trace_path)
        summary = tracer.summary()
        result["layers"] = {name: [value, unit] for name, (value, unit)
                            in tracer_mod.layer_metrics(summary).items()}
        result["self_s"] = {name: span["self_s"] for name, span in summary.items()}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
