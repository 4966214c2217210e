"""False-alarm rate and paired shift of one acceptance criterion or one
benchmark workload over seeds.

    python3 tools/seed_sweep.py (--criterion N | --workload NAME) --seeds A..B --base REF
    python3 tools/seed_sweep.py --smoke

Run from the repository root.  The tool compares the git ref ``--base``,
exported with ``git archive`` into a temporary directory, against this
checkout's working tree (the head tree).  It reads the experiment configs
from the head tree: a criterion's from the ``CRITERIA`` table of
``tests/test_acceptance.py``, a workload's from the ``WORKLOADS`` table of
``benchmarks/run.py``.  It then runs those same configs at every master
seed A..B under each tree's own ``src/``, one child interpreter per tree,
and pairs the two trees' verdicts by name.

For each verdict it prints one line per seed with measured/threshold at
both trees (a verdict passes below 1), then:

- the failure rate at each tree over the seeds, which at the head tree is
  the false-alarm rate of the verdict as written, if the head is unbiased;
- the mean of measured/threshold at each tree;
- a two-sided sign test on the paired shift head - base over the seeds
  (ties dropped).  A shift the sign test flags is a bias; one red seed
  with no shift is chance.

It closes with the per-seed failure rate of the whole criterion or
workload (a seed fails if any verdict fails).  ``--smoke`` runs criterion 4
at seeds 0..1 with ``_SMOKE_REPS`` replicates, ``HEAD`` against the working
tree, and checks that every verdict ran at both.  The sweep never edits the
acceptance suite or the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SMOKE_REPS = 200

# runs in a child interpreter at the head tree and prints, as JSON, the
# acceptance suite's CRITERIA table and the benchmark's WORKLOADS table
_TABLES_CHILD = """
import json, sys
sys.path[:0] = ["tests", "benchmarks"]
from test_acceptance import CRITERIA
from run import WORKLOADS
print(json.dumps({"criteria": {str(k): v for k, v in CRITERIA.items()},
                  "workloads": WORKLOADS}))
"""

# runs in a child interpreter whose sys.path holds one tree's src/; reads
# {"configs": [[tag, fields], ...], "seeds": [...]} on stdin and prints one
# JSON line per (seed, config)
_CHILD = """
import json, sys
from maxstable_pv import mc_harness as mh
job = json.load(sys.stdin)
for seed in job["seeds"]:
    for tag, fields in job["configs"]:
        report = mh.run_experiment(mh.ExperimentConfig(**fields, master_seed=seed))
        print(json.dumps({"seed": seed, "tag": tag, "verdicts": [
            [v.name, v.measured, v.threshold, v.passed] for v in report.verdicts]}),
            flush=True)
"""


def parse_seeds(text: str) -> list:
    """'A..B' (inclusive) or a single seed."""
    lo, sep, hi = text.partition("..")
    seeds = list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    if not seeds or seeds[0] < 0:
        raise ValueError(f"seeds must be a nonempty range of non-negative integers, got {text!r}")
    return seeds


def sign_test(shifts) -> tuple:
    """(positive, negative, two-sided p) of the exact sign test; zeros dropped."""
    pos = sum(1 for s in shifts if s > 0)
    neg = sum(1 for s in shifts if s < 0)
    m = pos + neg
    if m == 0:
        return 0, 0, 1.0
    tail = sum(math.comb(m, k) for k in range(min(pos, neg) + 1)) / 2 ** m
    return pos, neg, min(1.0, 2.0 * tail)


def export_tree(ref: str, root: str) -> str:
    """``git archive`` of ``ref`` unpacked into the new directory ``root``."""
    os.makedirs(root)
    archive = subprocess.run(["git", "-C", ROOT, "archive", ref], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", root], input=archive, check=True)
    return root


def run_child(tree: str, script: str, stdin: str = "") -> str:
    """stdout of ``script`` run in a child interpreter at ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", script], input=stdin, text=True,
                          capture_output=True, cwd=tree, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep at {tree} failed:\n{proc.stderr}")
    return proc.stdout


def load_tables(tree: str) -> tuple:
    """({criterion: [[tag, fields], ...]}, {workload: fields}) at ``tree``."""
    tables = json.loads(run_child(tree, _TABLES_CHILD))
    return {int(k): v for k, v in tables["criteria"].items()}, tables["workloads"]


def run_tree(tree: str, configs: list, seeds: list) -> dict:
    """{(seed, tag): {name: (measured, threshold, passed)}} at one tree."""
    stdout = run_child(tree, _CHILD, json.dumps({"configs": configs, "seeds": seeds}))
    out = {}
    for line in stdout.splitlines():
        row = json.loads(line)
        verdicts = {name: tuple(rest) for name, *rest in row["verdicts"]}
        if len(verdicts) != len(row["verdicts"]):
            raise RuntimeError(f"{row['tag']} at {tree} names a verdict twice")
        out[row["seed"], row["tag"]] = verdicts
    return out


def report(configs: list, seeds: list, base: dict, head: dict, labels: tuple) -> list:
    """Print the per-verdict tables and summaries; returns the verdict keys seen.
    Raises ValueError if the two trees name different verdicts for a config."""
    keys = []
    failed = {label: set() for label in labels}
    for tag, _ in configs:
        names = list(head[seeds[0], tag])
        for seed in seeds:
            for label, res in zip(labels, (base, head)):
                if set(res[seed, tag]) != set(names):
                    raise ValueError(f"{tag}, seed {seed}: {label} gives verdicts "
                                     f"{sorted(res[seed, tag])}, not {sorted(names)}")
        for name in names:
            keys.append((tag, name))
            print(f"\n{tag} / {name}: measured/threshold ({labels[0]} -> {labels[1]})")
            ratios = {label: [] for label in labels}
            fails = {label: 0 for label in labels}
            for seed in seeds:
                row = []
                for label, res in zip(labels, (base, head)):
                    measured, threshold, passed = res[seed, tag][name]
                    ratios[label].append(measured / threshold)
                    if not passed:
                        failed[label].add(seed)
                        fails[label] += 1
                    row.append(f"{measured / threshold:8.4f}{'' if passed else ' FAIL'}")
                print(f"  seed {seed:4d}: {row[0]:>13} -> {row[1]:>13}")
            for label in labels:
                r = ratios[label]
                print(f"  {label}: failure rate {fails[label]}/{len(r)} = "
                      f"{fails[label] / len(r):.3f}, mean ratio {sum(r) / len(r):.4f}")
            shifts = [b - a for a, b in zip(*(ratios[label] for label in labels))]
            pos, neg, p = sign_test(shifts)
            print(f"  paired shift: mean {sum(shifts) / len(shifts):+.4f}, "
                  f"sign test {pos} up / {neg} down, two-sided p = {p:.3g}")
    print()
    for label in labels:
        print(f"seeds failing any verdict at {label}: {len(failed[label])}/{len(seeds)} "
              f"({sorted(failed[label])})")
    return keys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = ap.add_mutually_exclusive_group()
    what.add_argument("--criterion", type=int,
                      help="a criterion of CRITERIA in tests/test_acceptance.py")
    what.add_argument("--workload", help="a workload of WORKLOADS in benchmarks/run.py")
    ap.add_argument("--seeds", type=parse_seeds, help="A..B, inclusive")
    ap.add_argument("--base", help="git ref of the base tree")
    ap.add_argument("--smoke", action="store_true",
                    help=f"criterion 4, seeds 0..1, {_SMOKE_REPS} reps, HEAD against the "
                         f"working tree")
    args = ap.parse_args(argv)
    if args.smoke:
        args.criterion, args.workload, args.seeds, args.base = 4, None, [0, 1], "HEAD"
    if (args.criterion is None and args.workload is None) or None in (args.seeds, args.base):
        ap.error("--criterion or --workload, --seeds and --base are required without --smoke")
    criteria, workloads = load_tables(ROOT)
    if args.workload is not None:
        if args.workload not in workloads:
            ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
        subject = f"workload {args.workload}"
        table = [(args.workload, workloads[args.workload])]
    else:
        if args.criterion not in criteria:
            ap.error(f"criterion {args.criterion} runs no whole reports; "
                     f"choose from {sorted(criteria)}")
        subject, table = f"criterion {args.criterion}", criteria[args.criterion]
    configs = [(tag, {**fields, "reps": _SMOKE_REPS} if args.smoke else fields)
               for tag, fields in table]
    described = ", ".join(f"{tag} (reps {fields['reps']})" for tag, fields in configs)
    print(f"{subject}, seeds {args.seeds[0]}..{args.seeds[-1]}, "
          f"configs: {described}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        base = run_tree(export_tree(args.base, os.path.join(tmp, "base")), configs, args.seeds)
    head = run_tree(ROOT, configs, args.seeds)
    labels = (args.base, "worktree")
    try:
        keys = report(configs, args.seeds, base, head, labels)
    except ValueError as exc:
        print(f"cannot pair the trees' verdicts: {exc}", file=sys.stderr)
        return 1
    if args.smoke and not (keys and len(base) == len(head) == len(configs) * len(args.seeds)):
        print("smoke: some verdict did not run at both trees", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
