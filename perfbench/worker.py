"""One workload process: set up, run the closed loop, verify, report JSON.

Started by ``run.py`` in a fresh interpreter, so its set-up time covers the
interpreter start, ``import qtorus`` from the checkout's ``src``, input
generation and one warm-up op.  With ``--probe`` it exits right after set-up.
The loop has one caller: each op starts when the previous one, its
verification and any chore due have finished.  Only the op itself is timed.
The chores, spread evenly over the run, start more set-up probes and time
``python -m qtorus normalize`` cold starts, each between two bare
interpreter starts, so that those samples see the whole run and not one
moment of it.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CLI_TIMEOUT = 30
PROBE_TIMEOUT = 60


def calibration_loop() -> dict:
    """Fixed pure-Python work that touches no qtorus code: dict updates and
    Fraction arithmetic, the same kind of work as the library's."""
    acc: dict = {}
    f = Fraction(1, 3)
    for i in range(300):
        k = (i % 7, i % 5)
        acc[k] = acc.get(k, 0) + f * i
    return acc


class Calibrator:
    """Times calibration_loop right after each op and, while an op runs,
    every INTERVAL seconds of wall time.

    The samples after ops track short ops closely; the SIGALRM interval timer
    spreads samples over long ops, such as a suite pass that lasts seconds.
    """

    INTERVAL = 0.05

    def __init__(self):
        self.seconds = 0.0
        self.samples = 0
        self.armed = False
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def _tick(self, signum, frame) -> None:
        if self.armed:
            self.sample()

    def sample(self) -> None:
        # The loop makes no cycles; with the collector off it does not pay
        # for collections that the op's garbage has made due.
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        calibration_loop()
        self.seconds += perf_counter() - t0
        self.samples += 1
        if enabled:
            gc.enable()

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean(self) -> float:
        return self.seconds / self.samples


def measure(wl, seconds: float | None, ops: int | None = None, log=None,
            calibrator: Calibrator | None = None, chores=()):
    """Run ops until about ``seconds`` of op time, or exactly ``ops`` ops.

    Without an op count the loop stops once the next op, taken to cost as
    much as the last one, would overshoot by more than half of it.  The
    calibrator's ticks are armed only during ops, and their time is taken
    out of the op's.  Chore i runs after the first op that brings op time to
    i/len(chores) of ``seconds``; chores still due at the end run then.
    Returns the per-op latencies and the verification failures.
    """
    latencies: list[float] = []
    failures: list[str] = []
    pending = list(chores)
    busy = 0.0
    k = 0
    while True:
        job = k % len(wl.jobs)
        if log is not None:
            log.op_id = k
            log.active = True
        inside = calibrator.seconds if calibrator else 0.0
        t0 = perf_counter()
        if calibrator:  # armed after t0 and disarmed before t1: ticks land inside
            calibrator.armed = True
        try:
            out = wl.run(wl.jobs[job])
        except Exception as err:  # a broken library fails the op, not the run
            out, error = None, f"job {job}: {type(err).__name__}: {err}"
        else:
            error = None
        if calibrator:
            calibrator.armed = False
        t1 = perf_counter()
        if log is not None:
            log.active = False
        latency = t1 - t0 - ((calibrator.seconds if calibrator else 0.0) - inside)
        if calibrator:
            calibrator.sample()
        latencies.append(latency)
        busy += latency
        error = error or wl.verify(job, out)
        if error:
            failures.append(error)
        k += 1
        if ops is not None:
            done = k >= ops
        else:
            done = busy + latency / 2 >= seconds
        while pending and (done or busy >= seconds * (1 - len(pending) / len(chores))):
            pending.pop(0)()
        if done:
            return latencies, failures


def _setup_probe(args, samples: list[float]) -> None:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe"]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT, check=True)
    samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["ready_at"] - spawned_at)


def _spawn_seconds(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT)
    return perf_counter() - t0, proc


def _cli_normalize(algebra: str, text: str, samples: list, failures: list[str]) -> None:
    """Time one `python -m qtorus normalize` spawn; it must echo its canonical input.

    Appends (spawn seconds, mean seconds of a bare interpreter start just
    before and just after it).
    """
    bare = [sys.executable, "-c", "pass"]
    before, _ = _spawn_seconds(bare)
    spawn, proc = _spawn_seconds(
        [sys.executable, "-m", "qtorus", "normalize", "--algebra", algebra, text])
    after, _ = _spawn_seconds(bare)
    samples.append((spawn, (before + after) / 2))
    if proc.returncode != 0 or proc.stdout.strip() != text:
        failures.append(f"cli normalize {text!r}: exit {proc.returncode}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    args = parser.parse_args(argv)
    # One CPU for the ops, the calibration loop and every process this one
    # starts, so that they all run at the same, current speed of that CPU.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    sys.path.insert(0, SRC)
    import qtorus

    if not os.path.abspath(qtorus.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qtorus imported from {qtorus.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    result = {"ready_at": time.monotonic()}
    if args.probe:
        print(json.dumps(result))
        return 0

    result.update(digest=wl.inputs_digest(), facts=wl.facts(), jobs=len(wl.jobs), cpu=cpu)
    if args.trace:
        import spans

        # Untraced ops first, then the same ops traced: the ratio of their
        # op times is the tracing overhead.
        plain, failures = measure(wl, args.seconds / 4)
        log = spans.SpanLog()
        saved = spans.install(log)
        try:
            traced, traced_failures = measure(wl, None, ops=len(plain), log=log)
        finally:
            spans.uninstall(saved)
        layers = log.layer_metrics(len(traced), workloads.PINNED_TRIALS)
        layers["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        log.save(os.path.join(out_dir, f"spans-{args.workload}.npz"))
        result.update(layers=layers, spans=len(log.start), ops=len(traced),
                      attempted=len(plain) + len(traced), failures=failures + traced_failures)
    else:
        setups: list[float] = []
        cli: list[tuple[float, float]] = []
        cli_failures: list[str] = []
        chores = []
        for i, (algebra, text) in enumerate(wl.cli_inputs()):
            if i % 3 == 0:  # a set-up probe every third CLI spawn
                chores.append(lambda: _setup_probe(args, setups))
            chores.append(lambda a=algebra, t=text: _cli_normalize(a, t, cli, cli_failures))
        calibrator = Calibrator()
        try:
            latencies, failures = measure(wl, args.seconds, calibrator=calibrator, chores=chores)
        finally:
            calibrator.close()
        result.update(latencies=latencies, calibration_s=calibrator.mean(), setups=setups,
                      cli=cli, attempted=len(latencies) + len(cli),
                      failures=failures + cli_failures)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
