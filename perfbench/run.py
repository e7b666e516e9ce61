"""qtorus benchmark: one workload, one run, every metric with its unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense-product --seed 1 --seconds 30 --trace 0

Workloads (see README.md): suite-default, dense-product, maps-roundtrip.
With ``--trace 0`` the run reports the end-to-end metrics: the median set-up
time of several fresh worker processes, the mean op time of a closed loop
with one caller in units of a calibration loop timed during the ops, the
median cold-start time of ``python -m qtorus normalize`` as a multiple of a
bare interpreter start, and peak memory.  With ``--trace 1`` a separate run reports
per-layer metrics from spans recorded around the library's entry points.
Every op is verified outside the timed region.  Lines before the last give
the environment (nproc, Python, git SHA) and one row for the workload; the
last line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("suite-default", "dense-product", "maps-roundtrip")

PROCESS_TIMEOUT = 170  # seconds; a run must end within 180

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_cal": "cal",
    "cli_cold_rel": "x",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(args) -> tuple[dict, float]:
    """Run the workload's worker process; returns its JSON result and its set-up time."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONPATH=SRC)
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return res, res["ready_at"] - spawned_at


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'none' outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def _source_digest() -> str:
    """sha256 over src/qtorus, naming the code measured when there is no git SHA."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qtorus")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _end_to_end(args) -> tuple[dict, dict, dict]:
    res, own_setup = _worker(args)
    lat = res["latencies"]
    cal = res["calibration_s"]
    values = {
        "setup_s": statistics.median([own_setup, *res["setups"]]),
        "op_cal": statistics.mean(lat) / cal,
        "cli_cold_rel": statistics.median(spawn / bare for spawn, bare in res["cli"]),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    res["notes"] = {
        "calibration_ms": round(1e3 * cal, 5),
        "ops": len(lat),
        "op_mean_ms": round(1e3 * statistics.mean(lat), 4),
        "ops_per_s": round(len(lat) / sum(lat), 4),
        "op_p50_ms": round(1e3 * _quantile(lat, 0.5), 4),
        "op_p90_ms": round(1e3 * _quantile(lat, 0.9), 4),
        "setups": 1 + len(res["setups"]),
        "cli_spawns": len(res["cli"]),
        "cli_cold_s": round(statistics.median(spawn for spawn, _ in res["cli"]), 5),
        "bare_start_s": round(statistics.median(bare for _, bare in res["cli"]), 5),
    }
    return values, {k: END_TO_END_UNITS[k] for k in values}, res


def _per_layer(args) -> tuple[dict, dict, dict]:
    res, _ = _worker(args)
    values = res["layers"]
    units = {}
    for name in values:
        if name.endswith((".self_s", ".wall_s")):
            units[name] = "s/op"
        elif name.endswith((".merge_ratio", "overhead_frac")):
            units[name] = "ratio"
        elif name == "phases.scalar_terms_per_mul":
            units[name] = "pairs/call"
        else:
            units[name] = "count/op"
    res["notes"] = {"ops": res["ops"], "spans": res["spans"]}
    return values, units, res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "qtorus", "__init__.py")):
        print(f"error: no qtorus sources under {SRC}", file=sys.stderr)
        return 2

    try:
        values, units, res = (_per_layer if args.trace else _end_to_end)(args)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    failures = res["failures"]
    attempted = res["attempted"]
    print(f"env nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} git={_git_sha()} "
          f"src_sha256={_source_digest()[:16]}")
    print(f"row workload={args.workload} seed={args.seed} trace={args.trace} "
          f"loop=closed callers=1 cpu={res['cpu']} inputs_sha256={res['digest'][:16]} "
          f"jobs={res['jobs']} "
          f"attempted={attempted} failed={len(failures)} "
          f"failed_frac={len(failures) / attempted:.4g} "
          + " ".join(f"{k}={v}" for k, v in res["notes"].items())
          + f" facts={json.dumps(res['facts'], separators=(',', ':'))}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for failure in failures[:5]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
