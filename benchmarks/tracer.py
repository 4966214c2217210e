"""In-memory span recorder for one traced `verify` run.

Spans are recorded from outside the package: ``install`` replaces module
attributes (the names the calling module looks up at run time) with
wrappers that time the call and attach counts to its span.  Nothing under
``src/`` is edited.  Each span is ``[name, start, end, parent, counts]``
where ``parent`` is the index of the span that was open when this one
started (-1 for the root), so a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time

import numpy as np

# span name -> the module attributes wrapped under it
SPAN_TARGETS = {
    "mc_harness.run_experiment": ["mc_harness.run_experiment"],
    "mc_harness.ks": ["mc_harness.ks_statistic", "mc_harness.ks_statistic_two_sample"],
    "path_sim.sample": ["mc_harness.sample_brown_resnick"],
    "path_sim.replicate_rng": ["mc_harness.replicate_rng"],
    "pv_stats.bias": ["pv_stats.clt_bias_functional"],
    "pv_stats.power_variation": ["pv_stats.power_variation"],
    "gauss_kernels.constants": ["gauss_kernels.abs_moment", "gauss_kernels.bias_integral",
                                "pv_stats.lambda_phi_unit"],
    "quadrature": ["gauss_kernels.adaptive_gauss_kronrod",
                   "increment_law.adaptive_gauss_kronrod"],
    "increment_law": ["increment_law.marginal_cdf", "increment_law.cond_cdf",
                      "increment_law.exact_abs_moment"],
}


def _sample_counts(args, kwargs, result, exc):
    path = result if exc is None else getattr(exc, "partial", None)
    if path is None:
        return None
    diag = path.truncation_diag
    return {"generated": diag.atoms_generated, "retained": len(path.atoms),
            "n": path.grid.n, "truncated": int(exc is not None)}


def _bias_counts(args, kwargs, result, exc):
    k = len(args[0].atoms)
    return {"pairs": k * (k - 1) // 2}


def _quadrature_counts(args, kwargs, result, exc):
    if exc is not None:
        result = getattr(exc, "best", None)
        if result is None:
            return None
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    tol = cfg.tolerance(float(np.max(np.abs(result.value))))
    return {"panels": int(result.panels),
            "err_over_tol": float(np.max(np.abs(result.error))) / tol}


COUNTERS = {
    "path_sim.sample": _sample_counts,
    "pv_stats.bias": _bias_counts,
    "quadrature": _quadrature_counts,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                open_spans.pop()
                if counter is not None:
                    span[4] = counter(args, kwargs, result, error)

        return traced

    def install(self, package):
        """Wrap every target in SPAN_TARGETS on the submodules of ``package``."""
        for name, targets in SPAN_TARGETS.items():
            for target in targets:
                module_name, attr = target.split(".")
                module = getattr(package, module_name)
                setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], s[1] - t0, s[2] - t0, s[3], s[4]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)

    def summary(self):
        """Per span name: calls, self seconds, inclusive seconds of the spans
        not nested in a span of the same name, durations and counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "outer_s": 0.0, "durations": [],
                      "counts": []}
               for name in ["cli.main", *SPAN_TARGETS]}
        for i, (name, start, end, parent, counts) in enumerate(spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            entry["durations"].append(end - start)
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                entry["outer_s"] += end - start
            if counts is not None:
                entry["counts"].append(counts)
        return out


def tail_percentile(values):
    """(level, value): the highest integer percentile with at least ten
    samples above it (nearest-rank), never below the median."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0, 0.0
    level = max(50, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(level * n / 100))
    return level, xs[rank - 1]



def layer_metrics(summary):
    """Per-layer metrics of one traced run, as name -> (value, unit).

    Shares (``*_frac``) are self time over the traced ``cli.main`` span; they
    stand in for seconds on layers that some workloads never call.
    """
    sample = summary["path_sim.sample"]
    counts = sample["counts"]
    generated = [c["generated"] for c in counts]
    retained = [c["retained"] for c in counts]
    level, tail = tail_percentile(sample["durations"])
    traced_wall = summary["cli.main"]["durations"][0]
    bias = summary["pv_stats.bias"]
    quad = summary["quadrature"]

    def share(name, key="self_s"):
        return summary[name][key] / traced_wall

    return {
        "path_sim.sample.calls": (sample["calls"], "count"),
        "path_sim.sample.self_s": (sample["self_s"], "s"),
        "path_sim.sample.ms_p50": (1e3 * statistics.median(sample["durations"]), "ms"),
        "path_sim.sample.ms_tail": (1e3 * tail, "ms"),
        "path_sim.sample.tail_level": (level, "%"),
        "path_sim.atoms_generated.mean": (statistics.fmean(generated), "count"),
        "path_sim.atoms_generated.max": (max(generated), "count"),
        "path_sim.atoms_retained.mean": (statistics.fmean(retained), "count"),
        "path_sim.atom_yield": (sum(retained) / sum(generated), "ratio"),
        "path_sim.block_bytes_computed": (
            sum(c["generated"] * (c["n"] + 1) * 8 for c in counts), "B"),
        "path_sim.truncations": (sum(c["truncated"] for c in counts), "count"),
        "path_sim.replicate_rng.self_s": (summary["path_sim.replicate_rng"]["self_s"], "s"),
        "pv_stats.bias.calls": (bias["calls"], "count"),
        "pv_stats.bias.pairs": (sum(c["pairs"] for c in bias["counts"]), "count"),
        "pv_stats.bias.self_s": (bias["self_s"], "s"),
        "pv_stats.bias.self_frac": (share("pv_stats.bias"), "frac"),
        "pv_stats.bias.ms_p50": (
            1e3 * statistics.median(bias["durations"]) if bias["calls"] else 0.0, "ms"),
        "pv_stats.power_variation.calls": (summary["pv_stats.power_variation"]["calls"], "count"),
        "pv_stats.power_variation.self_s": (summary["pv_stats.power_variation"]["self_s"], "s"),
        "pv_stats.power_variation.self_frac": (share("pv_stats.power_variation"), "frac"),
        "gauss_kernels.constants.calls": (summary["gauss_kernels.constants"]["calls"], "count"),
        "gauss_kernels.constants_s": (summary["gauss_kernels.constants"]["outer_s"], "s"),
        "gauss_kernels.constants.frac": (share("gauss_kernels.constants", "outer_s"), "frac"),
        "quadrature.calls": (quad["calls"], "count"),
        "quadrature.panels": (sum(c["panels"] for c in quad["counts"]), "count"),
        "quadrature.err_over_tol_max": (
            max((c["err_over_tol"] for c in quad["counts"]), default=0.0), "ratio"),
        "increment_law.calls": (summary["increment_law"]["calls"], "count"),
        "mc_harness.self_s": (summary["mc_harness.run_experiment"]["self_s"], "s"),
        "mc_harness.ks.calls": (summary["mc_harness.ks"]["calls"], "count"),
        "mc_harness.ks.self_s": (summary["mc_harness.ks"]["self_s"], "s"),
        "mc_harness.ks.self_frac": (share("mc_harness.ks"), "frac"),
        "cli.self_s": (summary["cli.main"]["self_s"], "s"),
    }
