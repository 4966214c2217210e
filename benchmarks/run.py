"""Benchmark of `maxstable-pv verify`: time to verdict on three workloads.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmarks/run.py --suite [--seconds S]
    python3 benchmarks/run.py --smoke

Run from the repository root.  Each workload is one ExperimentConfig built
from the workload name and ``--seed`` (the config's master seed); the
program sees only that config, through
``maxstable_pv.cli.main(["verify", "--config", ..., "--out", ...])`` in a
fresh process (``verify_child.py``).

``--trace 0`` measures set-up (the median of several fresh-interpreter
imports of ``maxstable_pv.cli``), then repeats the verify run with the
default worker count for about ``--seconds`` seconds and reports the median
of each end-to-end metric.  ``--trace 1`` ignores ``--seconds`` and makes
three runs of the same config: an untraced serial run (the single-threaded
baseline) side by side with a traced serial run (spans on the package's
public names, see ``tracer.py``), one per CPU, so that host conditions
weigh on both alike; then an untraced pooled run.  It reports the per-layer
metrics.

Every run passes the correctness gate or the benchmark exits 1: the verify
process exits 0, every verdict passes, and the SHA-256 of the report's
canonical JSON is the same for every run of the config (serial, traced and
pooled alike, and equal to the traced run's when one was made earlier in this
checkout).  The metric names and units printed in the last line come from
BENCHMARK.json; the lines before it print every metric, those the last line
leaves out included, and the host.  Results and spans are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Replicate counts are sized so that the traced run of each workload (three
# verify runs) ends well within 180 s on a 2-CPU host; README.md gives the
# verdict margins they leave and why each workload is here.
WORKLOADS = {
    "lln-sigma2-n16k": dict(experiment="lln", model="br", p=2, sigma=2.0, n=2 ** 14,
                            epsilon=1e-3, reps=96),
    "clt-sigma1-n4096": dict(experiment="clt", model="br", p=2, sigma=1.0, n=4096,
                             epsilon=1e-3, reps=2000),
    "facts-n256": dict(experiment="frechet", model="br", sigma=1.0, n=256,
                       epsilon=1e-3, reps=2000),
}
DEFAULT_SEED = 1          # the acceptance suite's master seed
CONFIRM_SEED = 2          # confirms a claim on a seed not used while making it
SMOKE_REPS = 8            # the smallest count for which the harness uses its pool
SETUP_IMPORTS = 7
TIME_LIMIT_S = 170.0


class GateFailure(Exception):
    pass


def _steal_jiffies() -> tuple[int, int] | None:
    """(steal, total) CPU time of the whole host so far, from /proc/stat;
    steal is time the hypervisor gave this machine's CPUs to others."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_report(report: dict) -> str:
    """ExperimentReport.canonical_json() rebuilt from the written report."""
    body = {k: v for k, v in report.items() if k != "wall_time"}
    return json.dumps(body, sort_keys=True, separators=(",", ": "), indent=1)


class Bench:
    def __init__(self, workload: str, seed: int, reps: int | None = None):
        self.workload = workload
        self.config = dict(WORKLOADS[workload], master_seed=seed)
        if reps is not None:
            self.config["reps"] = reps
        self.started = time.perf_counter()
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        self.config_path = os.path.join(self.tmp, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        self.ref_path = os.path.join(
            OUT_DIR, f"ref-{_sha256(json.dumps(self.config, sort_keys=True))[:16]}.sha256")
        self.runs: list[dict] = []

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def remaining(self) -> float:
        return TIME_LIMIT_S - (time.perf_counter() - self.started)

    def _start(self, argv: list[str], env: dict, log: str) -> subprocess.Popen:
        """Starts a child in its own session, its output going to ``log``."""
        with open(log, "w", encoding="utf-8") as fh:
            return subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh,
                                    stderr=subprocess.STDOUT, start_new_session=True)

    def _wait(self, procs: list[subprocess.Popen]) -> None:
        """Waits for every child; past the time limit kills each one's whole
        process group (pool workers included) and waits for it."""
        try:
            for proc in procs:
                proc.wait(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            for proc in procs:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
            raise GateFailure(f"{self.workload}: runs exceeded the {TIME_LIMIT_S:.0f} s limit")

    def setup_times(self) -> list[float]:
        """Import time of maxstable_pv.cli in fresh interpreters; the first
        import (which may write bytecode) is not counted."""
        code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
                "import maxstable_pv.cli; print(repr(time.perf_counter() - t))")
        log = os.path.join(self.tmp, "import.log")
        times = []
        for i in range(SETUP_IMPORTS + 1):
            proc = self._start([sys.executable, "-c", code], dict(os.environ), log)
            self._wait([proc])
            output = _read(log)
            if proc.returncode != 0:
                raise GateFailure(f"importing maxstable_pv.cli failed:\n{output}")
            if i:
                times.append(float(output.split()[-1]))
        return times

    def verify(self, *kinds: str) -> list[dict]:
        """One verify process per kind ('pooled', 'serial' or 'traced'), all
        started together so that they run side by side."""
        children = []
        for kind in kinds:
            index = len(self.runs) + len(children)
            paths = {name: os.path.join(self.tmp, f"{name}-{index}")
                     for name in ("report", "result", "log")}
            argv = [sys.executable, os.path.join(HERE, "verify_child.py"),
                    self.config_path, paths["report"], paths["result"]]
            env = dict(os.environ)
            env.pop("MAXSTABLE_PV_THREADS", None)
            if kind != "pooled":
                env["MAXSTABLE_PV_THREADS"] = "1"
            if kind == "traced":
                argv.append(self.spans_path())
            children.append((kind, paths, self._start(argv, env, paths["log"])))
        self._wait([proc for _, _, proc in children])
        runs = [self._collect(kind, paths, proc.returncode) for kind, paths, proc in children]
        self.runs.extend(runs)
        return runs

    @staticmethod
    def _collect(kind: str, paths: dict, returncode: int) -> dict:
        run = {"kind": kind, "returncode": returncode, "log": _read(paths["log"])[-2000:]}
        if returncode == 0 and os.path.exists(paths["result"]):
            run.update(json.loads(_read(paths["result"])))
        if os.path.exists(paths["report"]):
            text = _read(paths["report"])
            body = json.loads(text)
            run["report_bytes"] = len(text.encode())
            run["sha256"] = _sha256(canonical_report(body))
            run["verdicts"] = body["verdicts"]
            run["truncated"] = int(body["aggregate"].get("truncated", 0))
            run["report_config"] = body["config"]
        return run

    def spans_path(self) -> str:
        return os.path.join(OUT_DIR, f"{self.workload}-seed{self.config['master_seed']}"
                                     f"-reps{self.config['reps']}-spans.json")

    def gate(self, require_verdicts: bool = True) -> list[str]:
        """Problems found in the runs so far; empty when all is correct."""
        problems = []
        allowed = {0} if require_verdicts else {0, 1}
        for i, run in enumerate(self.runs):
            tag = f"run {i} ({run['kind']})"
            if run["returncode"] != 0 or run.get("exit_code") not in allowed:
                problems.append(f"{tag}: exit {run.get('exit_code', run['returncode'])}; "
                                f"{run['log'].strip()[-500:]}")
                continue
            failed = [v["name"] for v in run["verdicts"] if not v["passed"]]
            if require_verdicts and failed:
                problems.append(f"{tag}: failed verdicts {failed}")
            if any(run["report_config"].get(k) != v for k, v in self.config.items()):
                problems.append(f"{tag}: report config differs from the workload config")
        hashes = {run.get("sha256") for run in self.runs}
        if os.path.exists(self.ref_path):
            with open(self.ref_path, encoding="utf-8") as fh:
                hashes.add(fh.read().strip())
        if len(hashes) != 1:
            problems.append(f"canonical report SHA-256 differs between runs: {sorted(map(str, hashes))}")
        return problems

    def counts(self) -> tuple[int, int, int]:
        """(replicates attempted, replicates failed, verdicts failed); a run
        that exits non-zero fails all of its replicates."""
        reps = self.config["reps"]
        runs = self.runs or [{}]        # failing before any verify run fails one run
        failed = sum(reps if run.get("exit_code") != 0 else run.get("truncated", 0)
                     for run in runs)
        verdicts_failed = sum(not v["passed"] for run in runs
                              for v in run.get("verdicts", []))
        return reps * len(runs), failed, verdicts_failed


def timed(bench: Bench, seconds: float) -> dict:
    setup = bench.setup_times()
    measuring = time.perf_counter()
    while True:
        run, = bench.verify("pooled")
        if run.get("exit_code") != 0:
            break
        elapsed = time.perf_counter() - measuring
        mean_run = elapsed / len(bench.runs)
        if elapsed + mean_run > seconds or bench.remaining() < 2 * mean_run + 10:
            break
    ok = [run for run in bench.runs if "wall_s" in run]
    metrics = {"setup_s": (statistics.median(setup), "s")}
    if ok:
        metrics.update({
            "wall_s": (statistics.median(r["wall_s"] for r in ok), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in ok), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MB"),
        })
    metrics["repeats"] = (len(bench.runs), "count")
    return metrics


def traced(bench: Bench) -> dict:
    serial, trace = bench.verify("serial", "traced")
    pooled, = bench.verify("pooled")
    if not all("wall_s" in r for r in (serial, trace, pooled)):
        return {}
    metrics = {name: tuple(value) for name, value in trace["layers"].items()}
    workers = os.cpu_count() or 1
    metrics.update({
        "mc_harness.scaling_eff": (serial["wall_s"] / (workers * pooled["wall_s"]), "ratio"),
        "mc_harness.pool_cpu_overhead_s": (pooled["cpu_s"] - serial["cpu_s"], "s"),
        "cli.report_bytes": (trace["report_bytes"], "B"),
        "trace.serial_wall_s": (serial["wall_s"], "s"),
        "trace.traced_wall_s": (trace["wall_s"], "s"),
        "trace.overhead_frac": (trace["wall_s"] / serial["wall_s"] - 1.0, "frac"),
        "trace.pooled_wall_s": (pooled["wall_s"], "s"),
        "trace.workers": (workers, "count"),
    })
    return metrics


def host_record(seed: int) -> dict:
    import numpy
    import scipy
    nproc = shutil.which("nproc")
    commit = None
    if shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = done.stdout.strip() if done.returncode == 0 else None
    return {
        "nproc": int(subprocess.run([nproc], capture_output=True, text=True).stdout)
        if nproc else None,
        "os_cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": seed,
    }


def declared_metrics(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def select(metrics: dict, declared: list[dict]) -> dict:
    out = {}
    for m in declared:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: measured in {unit}, declared in {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def measure(workload: str, seed: int, seconds: float, trace: int,
            reps: int | None = None, require_verdicts: bool = True) -> dict:
    bench = Bench(workload, seed, reps)
    steal0 = _steal_jiffies()
    try:
        try:
            metrics = traced(bench) if trace else timed(bench, seconds)
            problems = bench.gate(require_verdicts)
        except GateFailure as exc:
            metrics, problems = {}, [str(exc)]
        attempted, failed, verdicts_failed = bench.counts()
        if trace and not problems:
            with open(bench.ref_path, "w", encoding="utf-8") as fh:
                fh.write(bench.runs[1]["sha256"] + "\n")
    finally:
        bench.close()
    steal1 = _steal_jiffies()
    if steal0 and steal1 and steal1[1] > steal0[1]:
        metrics["host.steal_frac"] = ((steal1[0] - steal0[0]) / (steal1[1] - steal0[1]), "frac")
    metrics["truncated_frac"] = (failed / attempted, "frac")
    metrics["verdicts_failed"] = (verdicts_failed, "count")
    runs = [{k: v for k, v in run.items() if k not in ("layers", "verdicts", "report_config")}
            for run in bench.runs]
    return {"workload": workload, "config": bench.config, "trace": trace,
            "problems": problems, "metrics": metrics, "runs": runs,
            "attempted": attempted, "failed": failed}


def print_result(result: dict, declared: list[dict]) -> None:
    print(f"workload {result['workload']}  config {json.dumps(result['config'], sort_keys=True)}")
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"  {name:36s} {value!r:>24} {unit}")
    print(f"host {json.dumps(result['host'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    line = {"correct": not result["problems"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": select(result["metrics"], declared) if not result["problems"] else {}}
    print(json.dumps(line))


def smoke() -> int:
    """Tiny replicate counts: every declared metric is emitted with its unit,
    and the traced run's report is byte-identical to the untraced ones.
    Verdicts are not required to pass at these counts."""
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, 1, 0.0, trace, SMOKE_REPS, require_verdicts=False)
            if result["problems"]:
                print(f"smoke {workload} trace={trace}: {result['problems']}", file=sys.stderr)
                return 1
            emitted = select(result["metrics"], declared_metrics(trace))
            print(f"smoke {workload} trace={trace}: {len(emitted)} metrics, "
                  f"reports identical across {len(result['runs'])} runs")
    print("smoke: ok")
    return 0


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    declared = declared_metrics(trace)
    result = measure(workload, seed, seconds, trace)
    result["host"] = host_record(seed)
    name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print_result(result, declared)
    return 1 if result["problems"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true",
                        help="every workload at the default and the confirmation seed")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "maxstable_pv", "cli.py")):
        print("src/maxstable_pv is missing: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.suite:
        return max(run_one(workload, seed, args.seconds, 0)
                   for workload in WORKLOADS for seed in (DEFAULT_SEED, CONFIRM_SEED))
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
