"""Closed-loop benchmark of the omq library: one client, one op at a time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src/``.
Workloads: answer-rewrite, answer-chase, rewrite, verify (see
``workloads.py``). The loop issues ops until their summed time reaches
``--seconds`` and at least eleven ops are done (the tail needs ten beyond
it; see ``tail``). Input generation and reference checks run between ops,
off the clock.

Times are in reference seconds. The host is shared, and its speed for this
process swings by a quarter over spells of a few seconds, which is more than
a program change worth measuring. So a fixed chunk of pure-Python work that
runs no omq code (``calibrate``) is timed before the first op, after every
``CAL_EVERY_S`` seconds of op time, and after the last op. Each op's time is
scaled by ``CAL_REF_S`` over the mean of the two samples around it: a
reference second is a second on a host that runs the chunk in
``CAL_REF_S``. Set-up probes are scaled the same way. Over windows of a few
seconds the chunk's time and the ops' time correlate at about 0.9 on a
2-vCPU VM, and the scaled op time swings about half as much.

Each op is checked against its reference. A raising op is counted as
undecided, never dropped or redrawn, and listed with its input and seed.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``tracer.py``; tracing slows the ops, so the two never mix. The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). ``--log FILE`` also
writes one JSON line per op (and per span, when tracing).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 9
CAL_ITERS = 40_000  # one calibration chunk
CAL_REF_S = 0.010  # the chunk's time on the reference host
CAL_EVERY_S = 0.25  # op time between calibration samples
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10
WALL_CAP_S = 150.0  # stop issuing ops after this much wall time


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", help="write per-op (and per-span) JSON lines here")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the first inputs, print 'ready' and exit")
    return ap.parse_args(argv)


def load(workload: str):
    """Import the library from this checkout; return the workload class."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import omq
        import workloads
    except ImportError as e:
        raise SystemExit(f"run.py: cannot import the omq library from {SRC}: {e}")
    if Path(omq.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"run.py: omq imported from {omq.__file__}, not {SRC}")
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[workload]


def calibrate() -> float:
    """The time of one fixed chunk of dict and tuple work: the host's
    current speed for this process, measured with no omq code."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(CAL_ITERS):
        key = (i & 255, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


def measure_setup(args) -> float:
    """Median, over fresh processes, of the time from process start until
    the first op is ready (interpreter, import of omq, first inputs), each
    scaled like an op by the calibration samples before and after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise SystemExit("run.py: set-up probe failed")
        after = calibrate()
        times.append(dt * CAL_REF_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


def peak_rss_mb() -> float:
    """This process's peak resident memory. Linux keeps ``ru_maxrss``
    across exec, so it would report the parent's peak when that is larger;
    the VmHWM line of /proc/self/status is reset by exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the p90 op time (nearest rank), or, below 100
    ops, the highest percentile that still leaves ten samples beyond it.

    A fixed percentile keeps the metric's meaning when a faster program
    completes more ops in the same run."""
    ordered = sorted(times)
    n = len(ordered)
    rank = min(math.ceil(n * TAIL_PERCENTILE / 100), n - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / n


def main(argv=None) -> int:
    args = parse_args(argv)
    workload_cls = load(args.workload)
    from omq.errors import OmqError
    if args.setup_only:
        workload_cls(args.seed)
        print("ready", flush=True)
        return 0

    setup_s = measure_setup(args) if not args.trace else None
    wl = workload_cls(args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    log = open(args.log, "w", encoding="utf-8") if args.log else None
    times: list[float] = []  # per op, unscaled
    segment: list[int] = []  # per op: the calibration sample before it
    cal = [calibrate()]
    since_cal = 0.0
    failures: list[dict] = []
    wrong: list[str] = []
    started = time.monotonic()
    busy = 0.0
    try:
        while ((busy < args.seconds or len(times) <= TAIL_BEYOND)
               and time.monotonic() - started < WALL_CAP_S):
            inp = wl.next_input()
            i = len(times)
            if tracer:
                tracer.begin_op(i)
            error = None
            t0 = time.perf_counter()
            try:
                out = wl.op(inp)
            except Exception as e:  # a crash is counted, never fatal
                error = e
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            times.append(dt)
            segment.append(len(cal) - 1)
            busy += dt
            status = "ok"
            if error is not None:
                status = type(error).__name__
                failures.append({"op": i, "input": inp.ident, "seed": inp.seed,
                                 "error": status,
                                 "omq_error": isinstance(error, OmqError)})
                if not isinstance(error, OmqError):
                    traceback.print_exception(error, file=sys.stderr)
            else:
                try:
                    ok = wl.check(inp, out)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                if not ok:
                    status = "wrong"
                    wrong.append(inp.ident)
            if log:
                log.write(json.dumps({"op": i, "input": inp.ident, "seed": inp.seed,
                                      "s": dt, "status": status}) + "\n")
            since_cal += dt
            if since_cal >= CAL_EVERY_S:
                cal.append(calibrate())
                since_cal = 0.0
        cal.append(calibrate())
        if log and tracer:
            for span in tracer.spans:
                log.write(json.dumps({"span": span}) + "\n")
    finally:
        if log:
            log.close()

    n = len(times)
    decided = n - len(failures)
    for f in failures:
        print(json.dumps({"undecided": f}), file=sys.stderr)
    for ident in wrong:
        print(json.dumps({"wrong_output": ident}), file=sys.stderr)

    if tracer:
        import tracer as tracing
        metrics = tracing.per_layer_metrics(tracer)
    else:
        scaled = [dt * CAL_REF_S / ((cal[k] + cal[k + 1]) / 2)
                  for dt, k in zip(times, segment)]
        tail_s, tail_pct = tail(scaled)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_s": (statistics.median(scaled), "s"),
            "op_tail_s": (tail_s, "s"),
            "ops_per_s": (n / sum(scaled), "1/s"),
            "decided_share": (decided / n, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        print(f"# tail: p{tail_pct:.1f} of {n} ops")
        print(f"# unscaled: ops_per_s {n / busy:.6g} 1/s; calibration chunk "
              f"median {statistics.median(cal):.6g} s over {len(cal)} samples")
    crashes = sorted({f["error"] for f in failures if not f["omq_error"]})
    print(f"# {args.workload} seed {args.seed}: {n} ops, {decided} decided, "
          f"{len(wrong)} wrong outputs, non-OmqError types: {crashes or 'none'}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": n,
        "failed": n - decided,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
