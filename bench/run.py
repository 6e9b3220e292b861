"""Benchmark of algint: one workload in one fresh process, closed loop.

    python3 bench/run.py --workload telescope-qt --seed 1 --seconds 35 --trace 0

A single client sends one record at a time through algint's public entry
points and waits for the verdict; there are no threads and no worker pool.
Every verdict is checked against an answer known without the engine (see
workloads.py), each record runs under a time cap, and each record's result
strings are digested so that two runs of one seed must agree byte for byte.

--trace 0 measures the end-to-end metrics for --seconds seconds: record
times are divided by the time of a reference kernel sampled while they
run, so that a slow phase of a shared host divides out (see README.md).
--trace 1 runs the slow records of the workload and a fixed prefix of its
timed records twice each, untraced and then with the layer wrappers of
tracer.py installed, and reports the per-layer metrics and the
traced/untraced time ratio.  The last line of stdout is one JSON object;
lines before it are a human-readable summary.

Run from the repository root; the program is imported from ./src.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import workloads

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

RECORD_CAP_S = 60
SETUP_SAMPLES = 9  # fresh-interpreter imports per run
REF_EVERY_S = 0.25  # seconds of CPU time between samples of the reference kernel
# Records in the traced run: the slow records of the workload and a fixed
# prefix of the timed records, so its counts repeat exactly.
TRACE_RECORDS = {"telescope-qt": 7, "integrate-qq": 40, "verify-text": 60}


class RecordTimeout(BaseException):
    """Raised by SIGALRM when a record exceeds its cap.  A BaseException, so
    no handler inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise RecordTimeout()


def load_program():
    """Import algint from this checkout's sources and nowhere else."""
    if not (SRC / "algint" / "__init__.py").is_file():
        raise SystemExit(f"bench: no algint sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import algint

    if not pathlib.Path(algint.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: algint imported from {algint.__file__}, not {SRC}")


def import_seconds():
    """Time a fresh interpreter takes to import the CLI (its cold start),
    timed inside the child so that process start and exit are not counted."""
    out = subprocess.run(
        [sys.executable, "-c", _TIMED_IMPORT],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, check=True, timeout=60, capture_output=True, text=True,
    ).stdout
    return float(out)


_TIMED_IMPORT = (
    "import time; start = time.perf_counter(); import algint.cli; "
    "print(time.perf_counter() - start)"
)


# -- the reference kernel


def reference():
    """A product of two fixed degree-23 polynomials with Fraction
    coefficients: pure-Python rational arithmetic, as in algint's rings."""
    a = [Fraction(k + 1, 2 * k + 3) for k in range(24)]
    b = [Fraction(3 * k - 7, k + 5) for k in range(24)]
    out = [Fraction(0)] * 47
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def reference_seconds():
    """One sample of the reference time: the best of three runs of the
    kernel, without garbage collection, so a stray interrupt does not
    count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Samples the reference time every REF_EVERY_S of CPU time, also while a
    record runs: the sample is taken in a SIGPROF handler, and the time the
    handler takes is kept in ``spent`` so that it can be taken off the
    record's latency."""

    def __init__(self):
        self.samples = []  # (perf_counter at the sample, reference seconds)
        self.spent = 0.0

    def _on_timer(self, signum, frame):
        start = time.perf_counter()
        ref = reference_seconds()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, ref))
        self.spent += end - start

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def around(self, start, end):
        """Median reference time of the samples taken during [start, end]
        or within REF_EVERY_S of it; the three nearest if there are fewer."""
        near = [r for t, r in self.samples
                if start - REF_EVERY_S <= t <= end + REF_EVERY_S]
        if len(near) < 3:
            mid = (start + end) / 2
            near = [r for _, r in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
        return statistics.median(near)


# -- one record


def execute(rec):
    """Run one record through the public entry points.

    Returns (result, verdict_ok): the result strings that are digested, and
    whether the verdict matches the expected answer."""
    from algint import cli, parsing, rings, telescoper

    kind = rec["kind"]
    if kind in ("telescope", "integrate"):
        out = cli.run_record(rec["record"])
        expect = rec["record"]["expect"]
        got = out.get("result") or {}
        ok = out["status"] == "ok" and all(got.get(k) == v for k, v in expect.items())
        return out, ok
    if kind == "claim":
        curve = parsing.build_curve(rec["curve"], rings.QQ)
        g = parsing.build_element(rec["g"], curve)
        f = parsing.build_element(rec["f"], curve)
        verdict = g.dx() == f
        return {"verified": verdict, "antiderivative": str(g)}, verdict == rec["expect"]
    if kind == "telescoper":
        curve = parsing.build_curve(rec["curve"], rings.QT)
        f = parsing.build_element(rec["integrand"], curve)
        names = {"t": rings.QT.gen}
        coeffs = tuple(
            parsing.parse_expression(c, names, rings.QT.from_int)
            for c in rec["coefficients"]
        )
        cert = parsing.build_element(rec["certificate"], curve)
        verdict = telescoper.verify_telescoper(f, coeffs, cert)
        return {"verified": verdict, "certificate": str(cert)}, verdict == rec["expect"]
    raise ValueError(f"unknown record kind {kind!r}")


def run_one(rec, tracer=None):
    """(status, latency_s, digest, error) of one capped record."""
    error = digest = None
    start = time.perf_counter()
    frame = None
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, RECORD_CAP_S)
            if tracer is not None:
                tracer.record = rec["id"]
                frame = tracer.enter("bench.record", span=True)
            try:
                result, ok = execute(rec)
            finally:
                if frame is not None:
                    tracer.leave(frame)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok" if ok else "mismatch"
        payload = json.dumps({"id": rec["id"], "result": result}, sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        if not ok:
            error = json.dumps(result, sort_keys=True)[:300]
    except RecordTimeout:
        status, error = "capped", f"over {RECORD_CAP_S} s"
    except Exception as exc:  # a record never stops the run; it counts as failed
        status, error = "error", f"{type(exc).__name__}: {exc}"[:300]
    return status, time.perf_counter() - start, digest, error


# -- determinism across runs of one seed


def check_digests(workload, seed, outcomes):
    """Record ids whose digest differs from an earlier run of this seed."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    mine = known.setdefault(f"{workload}:{seed}", {})
    differ = []
    for rid, (_, _, digest, _) in outcomes:
        if digest is None:
            continue
        if mine.setdefault(rid, digest) != digest:
            differ.append(rid)
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True), encoding="utf-8")
    tmp.replace(path)
    return differ


# -- the two modes


def tail_rank(n):
    """0-based index of the 90th percentile, or of the highest sample with at
    least ten samples beyond it when that is lower, but never below the
    (upper) median.  A fixed percentile keeps the tail in place when the
    number of records in a run changes with the speed of the host."""
    return max(min(math.ceil(0.9 * n) - 1, n - 11), n // 2)


def measure(workload, seed, seconds):
    import tracer

    tracer.check_pristine()  # the untraced run calls the original functions
    import_seconds()  # unmeasured: writes the bytecode cache
    stream = workloads.records(workload, seed)
    # Warm-up: the head of the stream is checked and digested like every
    # record, but runs before the timed window and is not timed.
    warm = [(rec["id"], run_one(rec))
            for rec in itertools.islice(stream, workloads.WARMUP[workload])]
    # The timed window holds whole cycles of records, so every run times the
    # same mix.  The reference kernel is sampled throughout the window, and
    # set-up samples are spread over it outside the timed records.
    setup = []
    outcomes = []
    spans = []  # (start, end, latency) of each timed record
    gen_s = paused = 0.0
    start = time.perf_counter()

    def between_records():
        nonlocal paused
        t0 = time.perf_counter()
        elapsed = t0 - start - paused
        if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(import_seconds())
        paused += time.perf_counter() - t0
        return elapsed

    cycles = 0
    with HostSampler() as host:
        # another cycle while the window would end nearer its target with it
        while cycles == 0 or (elapsed := between_records()) * (1 + 0.5 / cycles) < seconds:
            for _ in range(workloads.CYCLE[workload]):
                between_records()
                t1 = time.perf_counter()
                rec = next(stream)
                gen_s += time.perf_counter() - t1
                spent, t0 = host.spent, time.perf_counter()
                status, latency, digest, error = run_one(rec)
                latency -= host.spent - spent
                outcomes.append((rec["id"], (status, latency, digest, error)))
                spans.append((t0, time.perf_counter(), latency))
            cycles += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_seconds())
    costs = sorted(latency / host.around(t0, t1) for t0, t1, latency in spans)
    lat = sorted(o[1] for _, o in outcomes)
    n = len(lat)
    rank = tail_rank(n)
    checked = warm + outcomes
    failed = [(rid, o) for rid, o in checked if o[0] != "ok"]
    differ = check_digests(workload, seed, checked)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "record_ref.p50": (statistics.median(costs), "ref"),
        "record_ref.tail": (costs[rank], "ref"),
        "records_per_kref": (1000 * n / sum(costs), "1/kref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"# {workload} seed {seed}: {n} records ({cycles} cycles) in {sum(lat):.1f} s after "
          f"{len(warm)} warm-up records in {sum(o[1] for _, o in warm):.1f} s, "
          f"input generation {gen_s:.4f} s")
    print(f"# wall clock: record_s.p50 {statistics.median(lat):.4f}, record_s.tail "
          f"{lat[rank]:.4f}, records_per_s {n / sum(lat):.3f}")
    refs = [r for _, r in host.samples]
    print(f"# reference kernel: {len(refs)} samples, median "
          f"{statistics.median(refs) * 1000:.2f} ms, min {min(refs) * 1000:.2f} ms, "
          f"max {max(refs) * 1000:.2f} ms, {host.spent:.2f} s taken off the latencies")
    print(f"# the tail is p{100 * (rank + 1) / n:.1f} of {n} samples "
          f"({n - 1 - rank} beyond it)")
    print(f"# fail_ratio {len(failed) / len(checked):.4f} ({len(failed)} of {len(checked)}); "
          f"setup samples {[round(s, 4) for s in setup]}")
    report_failures(failed, differ)
    return metrics, len(checked), len(failed), not failed and not differ


def trace(workload, seed):
    import tracer

    # The slow records, then the records the timed window of --trace 0
    # starts with, after the warm-up.
    head = workloads.WARMUP[workload]
    slow = workloads.slow_records(workload, seed)
    records = slow + list(itertools.islice(workloads.records(workload, seed),
                                           head, head + TRACE_RECORDS[workload]))
    tr = tracer.Tracer()
    plain, traced = [], []
    # Each record runs untraced, then traced, so a slow phase of the host
    # weighs on both passes alike; installing the wrappers takes microseconds.
    for r in records:
        tracer.check_pristine()
        plain.append((r["id"], run_one(r)))
        with tracer.installed(tr):
            traced.append((r["id"], run_one(r, tr)))
    tracer.check_pristine()
    plain_s = sum(o[1] for _, o in plain)
    traced_s = sum(o[1] for _, o in traced)
    metrics = tracer.layer_metrics(tr)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    failed = [(rid, b if a[0] == "ok" else a)
              for (rid, a), (_, b) in zip(plain, traced) if "ok" != a[0] or "ok" != b[0]]
    # tracing must not change a single result string
    differ = [rid for (rid, a), (_, b) in zip(plain, traced) if a[2] != b[2]]
    differ += check_digests(workload, seed, plain + traced)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as fh:
        for rid, sid, parent, name, t0, t1 in tr.spans:
            fh.write(json.dumps({"record": rid, "span": sid, "parent": parent,
                                 "name": name, "start_s": t0, "end_s": t1}) + "\n")
    print(f"# {workload} seed {seed}: traced {len(records)} records, "
          f"{traced_s:.2f} s traced vs {plain_s:.2f} s untraced, {len(tr.spans)} spans")
    report_failures(failed, differ)
    return metrics, len(records), len(failed), not failed and not differ


def report_failures(failed, differ):
    for rid, (status, _, _, error) in failed:
        print(f"# FAILED {rid}: {status}: {error}")
    for rid in differ:
        print(f"# NONDETERMINISTIC {rid}: result differs between runs of this seed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    load_program()
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        metrics, attempted, failed, correct = trace(args.workload, args.seed)
    else:
        metrics, attempted, failed, correct = measure(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
