"""End-to-end and per-layer benchmark of mtrsched.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 35 --trace 0

Runs one workload (see workloads.py) as a closed loop in this process for
``--seconds`` seconds, checks every op's outputs, and prints one line per
metric followed by a JSON summary as the last line.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` each op also runs
traced and is replayed through the layers, and the metrics are per-layer
means per op.  Every time is normalised by the interpreter-speed probe
of speed.py.  Each run appends a record (metrics, unnormalised times,
commit, kernel backend, Python, nproc, seed and op count) to
perfbench/out/records.jsonl; a traced run also writes its spans there.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import speed
from tracing import NullTracer, Tracer, durations_by_op, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 1
DIGEST_OPS = 20       # ops at the start of a run covered by the pinned digest
SETUP_PROBES = 6      # fresh processes timing set-up, besides this one
MIN_OPS = 100         # a p90 with ten samples beyond it
HARD_STOP_S = 140.0   # the loop gives up here, well before a 180-s limit


def percentile(samples, q: float, min_beyond: int = 10) -> float:
    """Nearest-rank q-th percentile, refused unless at least ``min_beyond``
    samples lie above its rank."""
    xs = sorted(samples)
    rank = max(1, math.ceil(len(xs) * q / 100))  # 1-based
    if len(xs) - rank < min_beyond:
        raise ValueError(f"p{q} of {len(xs)} samples leaves {len(xs) - rank} "
                         f"beyond it; need {min_beyond}")
    return xs[rank - 1]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_in_fresh_process(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=60, check=True)
    raw, normalised = out.stdout.split()
    return float(raw), float(normalised)


def timed(fn, *args) -> float:
    t = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t


def run_loop(wl, inputs, seconds: float, traced: bool, tracer, null):
    """Closed loop over the inputs, with a speed probe before the first op
    and after every op.  Returns raw per-op latencies (untraced run) or
    tracing overheads (traced run) as (op, seconds) pairs, the probe
    times, the failure and attempt counts, and the digest."""
    timings = []
    failed = attempted = 0
    digest = hashlib.sha256()
    tmp_dir = OUT / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    probes = [speed.probe()]
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = attempted >= DIGEST_OPS and (traced or attempted >= MIN_OPS)
        if (elapsed >= seconds and done) or elapsed >= HARD_STOP_S:
            break
        k = attempted
        inp = inputs[k % len(inputs)]
        attempted += 1
        result = None
        try:
            if traced:
                # the same op untraced, alternately before and after the
                # traced one, gives the tracing overhead
                if k % 2:
                    t_off = timed(wl.op, inp, null)
                tracer.op = k
                with tracer.span("op"):
                    t = time.perf_counter()
                    result = wl.op(inp, tracer)
                    t_on = time.perf_counter() - t
                    wl.layers(k, inp, result, tracer, tmp_dir)
                if not k % 2:
                    t_off = timed(wl.op, inp, null)
                timings.append((k, t_on - t_off))
            else:
                t = time.perf_counter()
                result = wl.op(inp, null)
                timings.append((k, time.perf_counter() - t))
            errors = wl.check(inp, result)
        except Exception:
            errors = [traceback.format_exc()]
        probes.append(speed.probe())
        if errors:
            print(f"op {k}: " + "; ".join(errors), file=sys.stderr)
            failed += 1
        if result is not None and k < DIGEST_OPS:
            digest.update(wl.digest(result).encode() + b"\n")
    return timings, probes, failed, attempted, digest.hexdigest()


def layer_metrics(tracer, ops: int, overheads, scale) -> dict:
    """Per-layer means per op from the spans, each op's times scaled by
    its speed factor."""
    per_op = {op: {n: s * scale[op] for n, s in d.items()}
              for op, d in durations_by_op(tracer.spans).items()}
    total: dict[str, float] = {}
    for d in per_op.values():
        for name, s in d.items():
            total[name] = total.get(name, 0.0) + s

    def ms(*names):
        return sum(total.get(n, 0.0) for n in names) * 1000 / ops

    def count(name):
        return tracer.counts.get(name, 0.0) / ops

    seeding = ("heuristics.hwf", "heuristics.mdf", "heuristics.hwf_mdf")
    bnb = sum(d["exact.solve_ilp"] - d.get("exact.solve_lp", 0.0)
              - sum(d.get(n, 0.0) for n in seeding)
              for d in per_op.values() if "exact.solve_ilp" in d)
    op_self = sum(st * scale[op] for (name, _, _, _, op), st
                  in zip(tracer.spans, self_times(tracer.spans)) if name == "op")
    cli_self = [d["cli.main"] - d["exact.solve_ilp"]
                for d in per_op.values() if "cli.main" in d]
    greedy_ms = ms(*seeding) / 3
    return {
        "exact.root_lp_ms": (ms("exact.solve_lp"), "ms"),
        "exact.lp_rows": (count("exact.lp_rows"), "count"),
        "exact.lp_cols": (count("exact.lp_cols"), "count"),
        "exact.ilp_ms": (ms("exact.solve_ilp"), "ms"),
        "exact.bnb_self_ms": (bnb * 1000 / ops, "ms"),
        "exact.fractional_root_ops": (count("exact.fractional_root_ops"), "count"),
        "exact.gap_ops": (count("exact.gap_ops"), "count"),
        "exact.mis2p_ms": (ms("exact.solve_mis_suboptimal"), "ms"),
        "conflict.mis_sets": (count("conflict.mis_sets"), "count"),
        "conflict.enum_ms": (ms("conflict.enum"), "ms"),
        "conflict.matchings": (count("conflict.matchings"), "count"),
        "conflict.build_ms": (ms("conflict.build"), "ms"),
        "heuristics.hwf_ms": (ms("heuristics.hwf"), "ms"),
        "heuristics.mdf_ms": (ms("heuristics.mdf"), "ms"),
        "heuristics.hwf_mdf_ms": (ms("heuristics.hwf_mdf"), "ms"),
        "heuristics.entries": (count("heuristics.entries"), "count"),
        "heuristics.excess_slots": (count("heuristics.excess_slots"), "count"),
        "experiments.exact_greedy_ratio": (
            ms("exact.solve_ilp") / greedy_ms if greedy_ms else 0.0, "ratio"),
        "metrics.validate_ms": (ms("metrics.validate"), "ms"),
        "schedule.json_ms": (ms("schedule.json"), "ms"),
        "schedule.json_bytes": (count("schedule.json_bytes"), "bytes"),
        "bipartite.two_phase_ms": (ms("bipartite.two_phase"), "ms"),
        "model.instance_io_ms": (ms("model.instance_io"), "ms"),
        "experiments.report_ms": (ms("experiments.report"), "ms"),
        "cli.self_ms": (statistics.fmean(cli_self) * 1000 if cli_self else 0.0, "ms"),
        "trace.overhead_ms": (statistics.median(
            dt * scale[k] for k, dt in overheads) * 1000, "ms"),
        "trace.op_self_ms": (op_self * 1000 / ops, "ms"),
    }


def write_spans(path: Path, meta: dict, tracer) -> None:
    selfs = self_times(tracer.spans)
    doc = {"meta": meta, "spans": [
        {"name": n, "start": s, "end": e, "parent": p, "op": op, "self": st}
        for (n, s, e, p, op), st in zip(tracer.spans, selfs)]}
    path.write_text(json.dumps(doc), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mtrsched" / "__init__.py").is_file():
        print(f"error: no mtrsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import mtrsched
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    null = NullTracer()
    inputs = [wl.make_input(args.seed, k) for k in range(wl.pool)]
    wl.op(wl.make_input(DEFAULT_SEED, 0), null)  # warm-up on fixed input
    setup = time.perf_counter() - T0
    setup = (setup, speed.normalised(setup))
    if args.setup_probe:
        print(*setup)
        return 0

    traced = bool(args.trace)
    setups = [setup] if traced else (
        [setup] + [setup_in_fresh_process(args.workload, args.seed)
                   for _ in range(SETUP_PROBES)])
    tracer = Tracer() if traced else None
    timings, probes, failed, attempted, digest = run_loop(
        wl, inputs, args.seconds, traced, tracer, null)
    scale = speed.factors(probes)

    pinned = json.loads((HERE / "digests.json").read_text())[args.workload]
    digest_ok = args.seed != DEFAULT_SEED or digest == pinned
    if not digest_ok:
        print(f"error: digest {digest} of the first {DIGEST_OPS} ops differs "
              f"from the pinned {pinned}", file=sys.stderr)
    ok = attempted - failed
    raw = {"probe_ms": statistics.median(probes) * 1000}
    if traced:
        metrics = layer_metrics(tracer, max(ok, 1), timings, scale)
    else:
        lat = [t * scale[k] for k, t in timings]
        raw_lat = [t for _, t in timings]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(n for _, n in setups), "s"),
            "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
            "latency_p50_ms": (percentile(lat, 50) * 1000, "ms"),
            "latency_p90_ms": (percentile(lat, 90) * 1000, "ms"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
            "ok_ops_frac": (ok / attempted, "frac"),
        }
        raw.update({
            "setup_s": statistics.median(r for r, _ in setups),
            "throughput_ops_s": len(raw_lat) / sum(raw_lat),
            "latency_p50_ms": percentile(raw_lat, 50) * 1000,
            "latency_p90_ms": percentile(raw_lat, 90) * 1000,
        })

    meta = {
        "workload": args.workload, "trace": args.trace, "seed": args.seed,
        "seconds": args.seconds, "ops": attempted, "failed": failed,
        "commit": git_commit(), "backend": mtrsched.kernel_backend(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "digest": digest,
    }
    OUT.mkdir(exist_ok=True)
    record = dict(meta, metrics={k: v for k, (v, _) in metrics.items()},
                  raw=raw)
    with open(OUT / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if traced:
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                    meta, tracer)

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print("unnormalised: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print(json.dumps({
        "correct": failed == 0 and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
