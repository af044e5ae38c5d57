"""Benchmark of the contactsurgery package, end to end and per layer.

    python3 bench/run.py --workload chain-d3 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --out BENCH_a.json
    python3 bench/run.py --compare BENCH_a.json BENCH_b.json

One run sets the workload up several times (fresh import, input draw,
warm-up) and reports the median set-up time.  It then drives a closed
loop with one caller through two or more passes over the run's ops,
sized to take about --seconds at the seed commit.  Every time is CPU time of this
process and the children it has waited for (`cpu_s`), scaled by the
machine's speed around it as a fixed reference load measures it
(`reference`), so that a shared host's drift is left out.  The latency
metrics are over every op run of the loop.  Every result is checked against an independent oracle outside the timed
region.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

With --trace 1 the run times the first block untraced, traced (every
layer's public functions wrapped, see spans.py) and untraced again;
per-layer figures are totals over that block, so they compare across
commits.

`--workload all` runs every workload end to end and then traced, each in
its own child process, one after the other, so each reports its own peak
memory.  `--out` writes the result with the run environment; `--compare`
prints each (workload, metric) ratio and whether it is within the bound
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 7
SETUP_REFERENCE_RUNS = 5  # before and after each set-up
IMPORT_SAMPLES = 5
# A shared host's speed drifts: a fixed loop's CPU time moved by up to
# 40% for tens of seconds at a time on a 2-core machine, and by 15% from
# one 10 ms sample to the next.  So after every op a fixed reference load
# runs for about REFERENCE_SHARE of the op's time, and each op's time is
# scaled by REFERENCE_S over the mean reference time of the runs within
# SPEED_WINDOW ops of it: times read as at the speed where the reference
# takes REFERENCE_S, a typical time of one run on that machine.
REFERENCE_S = 0.015
REFERENCE_SHARE = 0.15
SPEED_WINDOW = 2
PASSES = 2
WALL_CAP_FACTOR = 2  # no further pass after this many times --seconds

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The mean of the slowest tenth of `values`, at least one."""
    ordered = sorted(values)
    k = max(1, round(len(ordered) / 10))
    return sum(ordered[-k:]) / k


def cpu_s() -> float:
    """CPU seconds, user and system, of this process and of every child
    it has waited for.  The kernel leaves out the time the hypervisor runs
    other guests on the core (steal time), which wall time counts; in a
    closed loop with one caller and no sleeps, the two are otherwise the
    same."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timed_op(workload, op, check: bool = True):
    """(ok, CPU seconds) of one op; the oracle runs after the clock stops."""
    start = cpu_s()
    try:
        result = workload.run(op)
    except Exception:
        return False, cpu_s() - start
    elapsed = cpu_s() - start
    if not check:
        return True, elapsed
    try:
        return bool(workload.check(op, result)), elapsed
    except Exception:
        return False, elapsed


def blocks_for(workload, seconds: float) -> int:
    """Blocks per pass, so that PASSES passes take about `seconds` at the
    seed commit.  Fixed by the arguments, so every run of a workload does
    the same work."""
    return max(1, round(seconds / (PASSES * workload.block_s)))


def passes_for(workload, seconds: float) -> int:
    """PASSES, or more where one block is more than `seconds` calls for."""
    return max(PASSES, round(seconds / (len(workload.blocks) * workload.block_s)))


def reference() -> None:
    """A fixed load of plain Python that shares no code with the package:
    Gaussian elimination over Fraction, as the chain kernels do; small
    lists built and walked, as the enumerations do; and a few megabytes
    of tuples and a dict over them, as the word and ledger jobs do."""
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(9)]
         for i in range(9)]
    for c in range(9):
        p = next(r for r in range(c, 9) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, 9):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    lists = [list(range(i % 40)) for i in range(4000)]
    s = 0
    for row in lists:
        for x in row[::3]:
            s += x * x % 7
    tuples = [(i, str(i % 97), (i % 5,)) for i in range(15000)]
    index = {t[0]: t for t in tuples[::3]}
    for i, name, pair in tuples[::7]:
        s += i + len(name) + pair[0]
    assert len(index) == 5000 and m[8][8] != 0 and s > 0


def runs_for(seconds: float) -> int:
    """Runs of `reference` that take about REFERENCE_SHARE of `seconds`."""
    return max(1, round(REFERENCE_SHARE * seconds / REFERENCE_S))


def reference_runs(runs: int) -> tuple[float, int]:
    """(CPU seconds, runs) of `runs` runs of `reference`."""
    start = cpu_s()
    for _ in range(runs):
        reference()
    return cpu_s() - start, runs


def scales(refs: list[tuple[float, int]]) -> list[float]:
    """Per sample, REFERENCE_S over the mean reference run time of the
    samples within SPEED_WINDOW of it."""
    out = []
    for k in range(len(refs)):
        window = refs[max(0, k - SPEED_WINDOW):k + SPEED_WINDOW + 1]
        out.append(REFERENCE_S * sum(n for _, n in window) / sum(t for t, _ in window))
    return out


def measure(workload, seconds: float) -> dict:
    """`passes_for` closed-loop passes over every op, each op followed by its
    share of `reference` runs.  The oracle checks every op on the first
    pass; the library is deterministic, so later passes count only
    exceptions.  Returns every op run's CPU time, scaled by the machine's
    speed around it (`scales`) and unscaled."""
    ops = [op for block in workload.blocks for op in block]
    raw, refs = [], []
    failed = attempted = 0
    wall_start = time.perf_counter()
    for p in range(passes_for(workload, seconds)):
        for op in ops:
            ok, elapsed = timed_op(workload, op, check=p == 0)
            raw.append(elapsed)
            refs.append(reference_runs(runs_for(elapsed)))
            attempted += 1
            failed += not ok
        if time.perf_counter() - wall_start > WALL_CAP_FACTOR * seconds:
            break
    return {"scaled": [e * k for e, k in zip(raw, scales(refs))], "raw": raw,
            "attempted": attempted, "failed": failed,
            "speed": REFERENCE_S * sum(n for _, n in refs) / sum(t for t, _ in refs)}


def setup(workload, blocks: int) -> float:
    """Median set-up time, each scaled by the reference runs around it."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = reference_runs(SETUP_REFERENCE_RUNS)
        start = cpu_s()
        workload.setup(workloads.load_library(), blocks)
        elapsed = cpu_s() - start
        after = reference_runs(SETUP_REFERENCE_RUNS)
        times.append(elapsed * scales([before, after])[0])
    return median(times)


def end_to_end(workload, seconds, setup_s) -> tuple[dict, int, int]:
    res = measure(workload, seconds)
    lat = res["scaled"]
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": median(lat) * 1e3,
        "op_tail_ms": tail(lat) * 1e3,
        "peak_rss_mb": peak_rss_mb(children=workload.name == "cli-mix"),
    }
    print(f"{workload.name}: {len(workload.blocks[0]) * len(workload.blocks)} ops in "
          f"{len(workload.blocks)} blocks, {res['attempted']} runs, {res['failed']} failed; "
          f"{sum(lat) / len(lat) * len(workload.blocks[0]):.3f} s a block; "
          f"machine speed {res['speed']:.3f} of the reference's; unscaled "
          f"ops_per_s {len(res['raw']) / sum(res['raw']):.4f}, "
          f"op_p50_ms {median(res['raw']) * 1e3:.4f}, "
          f"op_tail_ms {tail(res['raw']) * 1e3:.4f}", file=sys.stderr)
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return metrics, res["attempted"], res["failed"]


def import_ms(env) -> float:
    """A fresh `import contactsurgery.cli` minus a bare interpreter start."""
    def spawn(code):
        start = cpu_s()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       capture_output=True, timeout=60)
        return cpu_s() - start

    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(spawn("pass"))
        full.append(spawn("import contactsurgery.cli"))
    return (median(full) - median(bare)) * 1e3


def per_layer(workload) -> tuple[dict, int, int]:
    """Per-layer figures over the first block: an untraced pass, a traced
    pass and a second untraced pass.  For cli-mix the passes call cli.main
    in process, after PASSES passes of subprocesses for cli.process_ms
    (each op's best)."""
    block = workload.blocks[0]
    cli = workload.name == "cli-mix"
    call = workload.run_in_process if cli else workload.run
    tracer = spans.Tracer()
    failed = 0

    def one_pass(traced: bool) -> list[float]:
        nonlocal failed
        times = []
        for i, op in enumerate(block):
            start = cpu_s()
            if traced:
                tracer.begin_op(i)
            try:
                result = call(op)
            except Exception:
                result = None
            finally:
                if traced:
                    tracer.end_op()
            times.append(cpu_s() - start)
            try:
                failed += result is None or not workload.check(op, result)
            except Exception:
                failed += 1
        return times

    process = [math.inf] * len(block) if cli else []
    for p in range(PASSES if cli else 0):
        for i, op in enumerate(block):
            ok, elapsed = timed_op(workload, op, check=p == 0)
            process[i] = min(process[i], elapsed)
            failed += not ok
    plain = one_pass(traced=False)
    undo = spans.instrument(workload.lib, tracer)
    try:
        traced = one_pass(traced=True)
    finally:
        spans.undo(undo)
    plain_again = one_pass(traced=False)

    values = spans.summarize(tracer.spans)
    process_ms = median(process) * 1e3
    main_ms = median(plain) * 1e3 if cli else 0.0

    def per_op_ms(*names):
        return sum(s.end - s.start for s in tracer.spans if s.name in names) / 1e6 / len(block)

    values.update({
        "cli.process_ms": (process_ms, "ms"),
        "cli.main_ms": (main_ms, "ms"),
        "cli.startup_ms": (process_ms - main_ms, "ms"),
        "cli.import_ms": (import_ms(dict(os.environ, PYTHONPATH=str(ROOT / "src"))), "ms"),
        "diagramio.parse_ms": (per_op_ms("diagramio.parse_diagram_file",
                                         "diagramio.parse_open_book_file"), "ms"),
        "diagramio.render_ms": (per_op_ms("diagramio.presentation_to_dict"), "ms"),
        "catalog.load_ms": (per_op_ms("catalog.builtin"), "ms"),
        # Traced time over the mean of the untraced passes on either side.
        "trace_overhead_frac": (2 * sum(traced) / (sum(plain) + sum(plain_again)) - 1, "ratio"),
    })
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    attempted = len(block) * (3 + (PASSES if cli else 0))
    return metrics, attempted, failed


def run_workload(args) -> int:
    if not (ROOT / "src" / "contactsurgery" / "__init__.py").is_file():
        print(f"error: no contactsurgery package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    try:
        setup_s = setup(workload, 1 if args.trace else blocks_for(workload, args.seconds))
        if args.trace:
            metrics, attempted, failed = per_layer(workload)
        else:
            metrics, attempted, failed = end_to_end(workload, args.seconds, setup_s)
    finally:
        workload.close()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print_metrics(args.workload, metrics)
    if args.out:
        write_result(args, {args.workload: result})
    print(json.dumps(result))
    return 0


def print_metrics(workload: str, metrics: dict) -> None:
    print(f"{workload}:")
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:>14.4f} {m['unit']}")


def run_all(args) -> int:
    """Every workload end to end, then every workload traced, each in its
    own child process, one at a time."""
    results: dict = {}
    for trace in (0, 1):
        for name in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print_metrics(name, result["metrics"])
            if trace:
                results[name]["traced"] = result
            else:
                results[name] = result
    if args.out:
        write_result(args, results)
    correct = all(r["correct"] and r["traced"]["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": list(results)}))
    return 0


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def write_result(args, results: dict) -> None:
    for r in results.values():
        r["failed_frac"] = r["failed"] / r["attempted"]
    doc = {
        "env": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit(),
            "seed": args.seed,
            "seconds": args.seconds,
            "samples": {name: r["attempted"] for name, r in results.items()},
        },
        "workloads": results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", "utf-8")


def compare(base_path: str, new_path: str) -> int:
    """Ratio new/base of every shared (workload, metric), checked against
    the end-to-end bounds in BENCHMARK.json; exit 1 on any regression."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base = json.loads(Path(base_path).read_text("utf-8"))["workloads"]
    new = json.loads(Path(new_path).read_text("utf-8"))["workloads"]

    def figures(result):
        values = {"failed_frac": result["failed"] / result["attempted"]}
        for part in (result, result.get("traced", {})):
            values.update((k, m["value"]) for k, m in part.get("metrics", {}).items())
        return values

    regressions = 0
    print(f"{'workload':<10} {'metric':<46} {'base':>12} {'new':>12} {'ratio':>7}  verdict")
    for wl in [w for w in base if w in new]:
        b_fig, n_fig = figures(base[wl]), figures(new[wl])
        for name in [k for k in b_fig if k in n_fig]:
            b, n = b_fig[name], n_fig[name]
            ratio = n / b if b else (float("inf") if n else 1.0)
            if name == "failed_frac":
                verdict = "ok" if n <= b else "REGRESSION"
            elif name in bounds:
                bound, lower = bounds[name]["bound"], bounds[name]["better"] == "lower"
                within = ratio <= 1 + bound if lower else ratio >= 1 - bound
                verdict = f"{'ok' if within else 'REGRESSION'} (bound {bound:.0%})"
            else:
                verdict = "no bound"
            regressions += verdict.startswith("REGRESSION")
            print(f"{wl:<10} {name:<46} {b:>12.4f} {n:>12.4f} {ratio:>7.3f}  {verdict}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="chain-d3, enumerate, cli-mix, symbolic or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the result and run environment here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload or --compare is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
