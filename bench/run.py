"""Benchmark runner for dodesym: one process, one closed-loop client.

    python3 bench/run.py --workload catalog-sweep --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the library is imported from its
`src/` directory.  The client sends the next request only after the
previous answer is complete.  Round 0 of a workload is a warm-up: it is
checked and forms the answer digest, but it is not timed.

--trace 0 measures the end-to-end metrics over every timed round.  Timed
rounds run until --seconds have passed and at least 100 answers are
complete, always ending on a round boundary.  Set-up time is sampled in
fresh interpreters spread over the timed phase.  The host's speed drifts
for minutes at a time, so one fixed probe of interpreter work is timed
before every request (see probe.py), and each round's times, and each
set-up sample, are scaled to the speed at which the probe takes its
nominal time.  The report prints the unscaled wall-clock figures too.

--trace 1 runs a fixed number of rounds, set by --seconds alone, untraced
and then traced, and reports per-layer numbers from the traced ones.

Both print a human-readable report and, as the last line of standard
output, one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"

MIN_ANSWERS = 100      # so that ten answers lie beyond p90
MAX_TIMED_S = 120.0    # stop adding rounds past this, whatever the count
SETUP_SAMPLES = 9
SETUP_PROBES = 5       # probes timed on each side of a set-up sample

# Set-up as every CLI call pays it: a fresh interpreter, from before
# `import dodesym` through the first catalog listing.
SETUP_SNIPPET = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import dodesym
from dodesym import catalog
catalog.list_entries()
print(repr(time.perf_counter() - t0))
"""


def measure_setup(probe) -> tuple[float, float]:
    """Wall seconds of one set-up, and the host speed around it."""
    before = [probe.probe() for _ in range(SETUP_PROBES)]
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                          capture_output=True, text=True, timeout=60,
                          cwd=ROOT, check=True)
    after = [probe.probe() for _ in range(SETUP_PROBES)]
    return (float(proc.stdout.strip().splitlines()[-1]),
            probe.speed(before + after))


class Session:
    """Runs rounds of one workload and keeps what the report needs."""

    def __init__(self, workloads, name: str, seed: int, ctx):
        self.w = workloads
        self.name = name
        self.seed = seed
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()
        self.round_log: list[dict] = []

    def run_round(self, r: int, digest: bool = False, probe=None) -> dict:
        """Round r: its wall seconds, the seconds its requests took (probes
        left out), the latency of each answer and, with a probe, the probe
        times taken before its requests."""
        latencies, probes = [], []
        work = dt = 0.0
        start = time.perf_counter()
        for req in self.w.requests(self.name, self.seed, r):
            if probe is not None:
                probes += [probe.probe()
                           for _ in range(1 + int(dt / probe.PROBE_EVERY_S))]
            t0 = time.perf_counter()
            out = self.w.attempt(req, self.ctx)
            dt = time.perf_counter() - t0
            work += dt
            if digest:
                self.digest.update(self.w.digest_line(req, out).encode())
            if not out.ok:
                self.problems.append(f"round {r} {req.kind}: {out.problems}")
            if not req.answer:
                self.check_failures += not out.ok
                continue
            self.attempted += 1
            self.failed += not out.ok
            latencies.append(dt)
        return {"wall": time.perf_counter() - start, "work": work,
                "latencies": latencies, "probes": probes}


def _latency_metrics(work: float, lat_ms: list[float]) -> tuple[float, ...]:
    return (len(lat_ms) / work, statistics.median(lat_ms),
            statistics.quantiles(lat_ms, n=10)[8])


def end_to_end(session: Session, seconds: float, probe) -> tuple[dict, list[str]]:
    setup = [measure_setup(probe)]
    session.run_round(0, digest=True)
    raw_ms, scaled_ms, speeds = [], [], []
    raw_work = scaled_work = elapsed = 0.0
    rounds = 0
    while (elapsed < seconds or len(raw_ms) < MIN_ANSWERS) \
            and elapsed < MAX_TIMED_S:
        rounds += 1
        rnd = session.run_round(rounds, probe=probe)
        rnd["speed"] = probe.speed(rnd["probes"])
        session.round_log.append(rnd)
        elapsed += rnd["wall"]
        speeds.append(rnd["speed"])
        raw_work += rnd["work"]
        scaled_work += rnd["work"] * rnd["speed"]
        raw_ms += [1e3 * x for x in rnd["latencies"]]
        scaled_ms += [1e3 * x * rnd["speed"] for x in rnd["latencies"]]
        if len(setup) < SETUP_SAMPLES and \
                elapsed >= seconds * (len(setup) - 1) / (SETUP_SAMPLES - 1):
            setup.append(measure_setup(probe))
    rate, p50, p90 = _latency_metrics(scaled_work, scaled_ms)
    metrics = {
        "answers_per_s": (rate, "1/s"),
        "answer_p50_ms": (p50, "ms"),
        "answer_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(s * k for s, k in setup), "s"),
    }
    n = len(raw_ms)
    wall_rate, wall_p50, wall_p90 = _latency_metrics(raw_work, raw_ms)
    notes = [f"timed rounds {rounds}: {n} answers in {elapsed:.3f} s"
             f" ({raw_work:.3f} s in requests, the rest in probes)",
             f"answer latency samples n={n}",
             f"host speed per round (probe nominal"
             f" {1e3 * probe.NOMINAL_PROBE_S:g} ms / mean probe):"
             f" median {statistics.median(speeds):.3f},"
             f" range {min(speeds):.3f}-{max(speeds):.3f}",
             f"wall clock, unscaled: answers_per_s {wall_rate:.6g},"
             f" answer_p50_ms {wall_p50:.6g}, answer_p90_ms {wall_p90:.6g},"
             f" setup_s {statistics.median(s for s, _ in setup):.6g}",
             f"setup samples n={len(setup)} (s, host speed): "
             + ", ".join(f"{s:.4f}@{k:.3f}" for s, k in setup)]
    return metrics, notes


def traced(session: Session, seconds: float, tracing,
           trace_path: Path) -> tuple[dict, list[str]]:
    rounds = max(1, round(seconds / session.w.NOMINAL_ROUND_S[session.name] / 2))
    pairs = tracing.PairLog()
    pairs.install()
    try:
        session.run_round(0, digest=True)
        untraced = sum(session.run_round(r)["wall"]
                       for r in range(1, rounds + 1))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall = sum(session.run_round(r)["wall"]
                       for r in range(rounds + 1, 2 * rounds + 1))
        finally:
            tracer.uninstall()
    finally:
        pairs.uninstall()
    tracer.write(trace_path)
    values = tracer.metrics(wall, untraced, pairs.share())
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {k: (v, units[k]) for k, v in values.items()}
    notes = [f"untraced rounds 1..{rounds}: {untraced:.3f} s;"
             f" traced rounds {rounds + 1}..{2 * rounds}: {wall:.3f} s",
             f"tracing overhead (traced / untraced wall): {wall / untraced:.3f}",
             f"spans kept in memory: {len(tracer.spans)}; written to {trace_path}",
             f"repeated (system, field) pairs: {pairs.repeats} of {pairs.calls}"]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dodesym" / "__init__.py").is_file():
        print(f"error: no dodesym sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dodesym
    if Path(dodesym.__file__).resolve().parent != SRC / "dodesym":
        print(f"error: imported dodesym from {dodesym.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r};"
              f" choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    TMP_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_DIR)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        session = Session(workloads, args.workload, args.seed,
                          workloads.Context(tmp))
        if args.trace:
            import tracing
            metrics, notes = traced(session, args.seconds, tracing,
                                    OUT_DIR / f"{stem}-spans.json")
        else:
            import probe
            metrics, notes = end_to_end(session, args.seconds, probe)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass

    correct = session.failed == 0 and session.check_failures == 0
    failed_ratio = session.failed / session.attempted
    result = {
        "correct": correct, "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": session.digest.hexdigest(), "failed_ratio": failed_ratio,
        "notes": notes, "problems": session.problems,
        "rounds": session.round_log, **result,
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(note)
    print(f"failed_ratio {failed_ratio:.6g} ({session.failed} of"
          f" {session.attempted} answers; {session.check_failures} failed"
          " per-round checks)")
    print(f"digest {report['digest']} (round 0 verdicts, residuals, CLI stdout)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in session.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
