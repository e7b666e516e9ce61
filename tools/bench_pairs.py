"""Paired benchmark runs: a parent revision against the working tree.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --seed 8128 --out BENCH_9.json

The parent revision is exported with ``git archive`` into a temporary
directory.  For every workload of ``BENCHMARK.json`` the script then runs
that tree's own ``perfbench/run.py`` and the working tree's, one after the
other, ``--pairs`` times; the order within a pair alternates, so neither side
always runs first.  Each run is ``run.py --workload W --seed S --seconds T
--trace 0`` with T the ``run_seconds`` of ``BENCHMARK.json``, and its last
output line (one JSON object) is kept.

The output file holds every run's metrics and, for each workload and
metric, the parent's and the change's q1, median and q3, the ratio of the
medians, and in how many of the pairs the change was lower.  Each workload
also records ``inputs_match``: whether all its runs, on both sides, report one
``inputs_sha256``.  If any workload's do not, the two trees measured
different inputs; the file is still written, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3, interpolating linearly between the sorted values."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarise(runs: list[dict]) -> dict:
    """Per workload and metric: each side's quartiles and the pairwise count.

    ``runs`` holds records ``{"workload", "pair", "side", "failed",
    "inputs_sha256", "metrics": {name: value}}``.  Only pairs with both sides
    present count.
    """
    grouped: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        grouped.setdefault(run["workload"], {}).setdefault(run["pair"], {})[run["side"]] = run
    out = {}
    for workload, by_pair in grouped.items():
        pairs = [sides for _, sides in sorted(by_pair.items()) if set(sides) == set(SIDES)]
        metrics = {}
        for name in pairs[0]["parent"]["metrics"] if pairs else ():
            before = [p["parent"]["metrics"][name] for p in pairs]
            after = [p["change"]["metrics"][name] for p in pairs]
            q_before, q_after = _quartiles(before), _quartiles(after)
            lower = sum(a < b for a, b in zip(after, before))
            metrics[name] = {
                "parent": dict(zip(("q1", "median", "q3"), q_before)),
                "change": dict(zip(("q1", "median", "q3"), q_after)),
                "median_ratio": q_after[1] / q_before[1] if q_before[1] else None,
                "change_lower": f"{lower}/{len(pairs)}",
            }
        digests = {p[side].get("inputs_sha256") for p in pairs for side in SIDES}
        out[workload] = {
            "pairs": len(pairs),
            "inputs_match": len(digests) <= 1,
            "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
            "metrics": metrics,
        }
    return out


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(rev: str, tree: str) -> str:
    """Extract the tree of ``rev`` into the new directory ``tree``; returns its full SHA."""
    sha = _git("rev-parse", rev)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    os.mkdir(tree)
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return sha


def _run(tree: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    row = next(line for line in lines if line.startswith("row "))
    fields = dict(f.split("=", 1) for f in row.split()[1:] if "=" in f)
    return {
        "failed": last["failed"],
        "attempted": last["attempted"],
        "inputs_sha256": fields.get("inputs_sha256"),
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=8128)
    parser.add_argument("--out", required=True, help="output file, e.g. BENCH_9.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": os.path.join(tmp, "tree"), "change": ROOT}
        parent_sha = _export(args.parent, trees["parent"])
        for workload in workloads:
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = _run(trees[side], workload, args.seed, seconds)
                    run.update(workload=workload, pair=pair, side=side)
                    runs.append(run)
                    print(f"{workload} pair {pair} {side}: op_cal={run['metrics']['op_cal']:.4g}"
                          f" failed={run['failed']}", file=sys.stderr)

    result = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds} --trace 0",
        "parent": parent_sha,
        "change": {"head": _git("rev-parse", "HEAD"), "dirty": bool(_git("status", "--porcelain"))},
        "pairs": args.pairs,
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
        "summary": summarise(runs),
        "runs": runs,
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    mismatched = [w for w, entry in result["summary"].items() if not entry["inputs_match"]]
    if mismatched:
        print(f"inputs_sha256 differs between runs of: {', '.join(mismatched)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
