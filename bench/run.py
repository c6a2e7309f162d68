"""qgamble benchmark: closed-loop workloads with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one operation at a time (closed loop) for S seconds.  Every
operation's output is checked; failed operations are counted, never timed
as a gain.  With --trace 0 the run reports the end-to-end metrics that
BENCHMARK.json declares.  With --trace 1 it runs the workload untraced for
S/2 seconds, then for S/2 seconds with spans around the benchmark's calls
into each qgamble module, and reports the per-layer metrics.  The last line
of standard output is one JSON object; lines before it, starting with '#',
are for people.  Details go to bench/out/.  See bench/DESIGN.md.

The run exits 2 without a result when qgamble cannot be imported from the
checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Fresh processes per set-up or import measurement; the fastest is reported.
PROBES = 12
#: In-process passes over the CLI commands in the traced run.
INPROC_REPEATS = 6
#: Tail latency is read at the highest of these percentiles that leaves at
#: least TAIL_BEYOND samples beyond it.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10

_now = time.perf_counter


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _wall(cmd: list[str], env: dict | None = None) -> float:
    """Wall seconds of one fresh run of `cmd` from the checkout root."""
    t0 = _now()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
    elapsed = _now() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} failed: {proc.stderr.decode()[-500:]}")
    return elapsed


class Loop:
    """Closed-loop passes over the catalogue: the next operation starts when
    the last has ended.  Runs for `seconds`, or for `cycles` whole passes.

    Pass c runs an operation that varies on its inputs(c), any other on
    inputs(0).  Whenever inputs(0) repeat, here or in another loop sharing
    `seen`, the exact counts must repeat too.  `probe`, when given, is
    called PROBES times spread evenly over the window, between operations;
    its results are kept in `probes` and its time is left out of the window
    and of `elapsed`.
    """

    def __init__(self, ops, tracer, seen: dict, seconds: float = math.inf,
                 cycles: int | None = None, probe=None):
        self.latencies: list[float] = []
        self.by_key: dict[str, list[float]] = {}
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0
        self.z_max = 0.0
        self.notes: dict = {}
        self.probes: list[float] = []
        start = _now()
        paused = 0.0
        i = 0
        while True:
            cycle, pos = divmod(i, len(ops))
            active = _now() - start - paused
            if (cycle >= cycles) if cycles is not None else (i and active >= seconds):
                break
            wanted = probe and len(self.probes) < PROBES
            if wanted and active * PROBES >= len(self.probes) * seconds:
                t0 = _now()
                self.probes.append(probe())
                paused += _now() - t0
            op = ops[pos]
            i += 1
            variant = cycle if op.varies else 0
            inputs = op.inputs(variant)
            tracer.begin_op()
            t0 = _now()
            try:
                with tracer.span("bench.op", tag=op.kind):
                    out = op.run(tracer, inputs)
            except Exception as exc:  # a crashing operation is a failed one
                self._record(op, _now() - t0)
                self._fail(op, [f"{type(exc).__name__}: {exc}"])
                continue
            self._record(op, _now() - t0)
            problems = list(out.problems)
            if variant == 0:
                first = seen.setdefault(op.key, {})
                for k in first.keys() & out.counts.keys():
                    if first[k] != out.counts[k]:
                        problems.append(f"{k} changed between repeats: {first[k]!r} -> "
                                        f"{out.counts[k]!r}")
                for k, v in out.counts.items():
                    first.setdefault(k, v)
            if problems:
                self._fail(op, problems)
            self.rounds += out.rounds
            self.z_max = max([self.z_max, *out.z_scores])
            self.notes.update(out.notes)
        self.elapsed = _now() - start - paused

    def _record(self, op, seconds: float) -> None:
        self.latencies.append(seconds)
        self.by_key.setdefault(op.key, []).append(seconds)

    def _fail(self, op, problems):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems += [f"{op.key} ({op.kind}): {p}" for p in problems]

    @property
    def floors(self) -> dict[str, float]:
        """Each distinct operation's fastest repeat in this pass."""
        return {k: min(v) for k, v in self.by_key.items()}

    @property
    def ops_per_s(self) -> float:
        """Operations completed per second of their floor latencies: the mix
        this pass ran, each operation timed at its fastest repeat."""
        floors = self.floors
        return len(self.latencies) / sum(len(v) * floors[k] for k, v in self.by_key.items())

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.latencies) / self.elapsed


def _recheck(ops, seen) -> list[Loop]:
    """Runs inputs(0) of every operation that varies once more, after the
    measured window, so that its exact counts are seen to repeat."""
    from tracing import NullTracer

    varying = [op for op in ops if op.varies]
    return [Loop(varying, NullTracer(), seen, cycles=1)] if varying else []


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest of TAIL_PERCENTILES with at least
    TAIL_BEYOND samples beyond it (nearest rank); the maximum when there are
    too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def _exact_counts(seen: dict) -> dict:
    """Counts summed over the catalogue's distinct operations: identical for a
    seed whatever the run length."""
    branches = [b for c in seen.values() for b in c.get("branches", [])]
    return {
        "protocol.rounds_ledgered_per_cycle": sum(c.get("rounds", 0) for c in seen.values()),
        "protocol.aborts_per_cycle": sum(int(c.get("aborted", False)) for c in seen.values()),
        "analysis.oracle.branches_per_call": (sum(branches) / len(branches)
                                              if branches else 0.0),
    }


def _digest(seen: dict) -> str:
    return hashlib.sha256(json.dumps(seen, sort_keys=True).encode()).hexdigest()[:16]


def _environment(args) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "note": "shared machine without system-wide tracing or cache control: "
                "compare medians only",
    }


def _end_to_end(args, ops, seen):
    from tracing import NullTracer

    probe = [sys.executable, str(BENCH / "probe.py"), args.workload, str(args.seed)]
    _wall(probe)  # a first run also compiles bytecode
    loop = Loop(ops, NullTracer(), seen, seconds=args.seconds, probe=lambda: _wall(probe))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    floors = loop.floors
    tail, pct = _tail(loop.latencies)
    metrics = {
        "setup_s": min(loop.probes),
        "ops_per_s": loop.ops_per_s,
        "op_p50_ms": 1e3 * statistics.median(floors.values()),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    extra = {
        "tail_percentile": pct,
        "samples": len(loop.latencies),
        "raw_ops_per_s": loop.raw_ops_per_s,
        "raw_op_p50_ms": 1e3 * statistics.median(loop.latencies),
        "slowest_floor_ms": 1e3 * max(floors.values()),
        "setup_median_s": statistics.median(loop.probes),
        "rounds_per_s": loop.rounds / loop.elapsed,
        "mc_z_max": loop.z_max,
    }
    return [loop, *_recheck(ops, seen)], metrics, extra


def _peak_bytes_per_round(ops) -> float:
    """tracemalloc peak of each distinct run_session_fast call divided by the
    rounds it was asked for (computed from allocations, not measured RSS);
    mean over the catalogue."""
    from tracing import PeakMemoryTracer

    tracer = PeakMemoryTracer("protocol.fast")
    for op in ops:
        op.run(tracer, op.inputs(0))
    return statistics.fmean(peak / rounds for peak, rounds in tracer.peaks)


def _per_layer(args, workloads, ops, seen, work: Path, declared: list[str]):
    """Per-layer metrics.  Generic ones are computed for every layer that
    BENCHMARK.json declares a `<layer>.calls_per_op` for, and the CLI ones
    for every declared `cli.command_ms.<command>`."""
    from tracing import NullTracer, Tracer

    plain = Loop(ops, NullTracer(), seen, seconds=args.seconds / 2)
    tracer = Tracer()
    traced = Loop(ops, tracer, seen, seconds=args.seconds / 2)
    n_ops = len(traced.latencies)
    totals = tracer.layer_totals()

    def total(layer, key):
        return totals.get(layer, {}).get(key, 0)

    def per(layer, key, denom_key, scale):
        denom = total(layer, denom_key)
        return scale * total(layer, key) / denom if denom else 0.0

    layers = [n.removesuffix(".calls_per_op") for n in declared if n.endswith(".calls_per_op")]
    commands = [n.removeprefix("cli.command_ms.") for n in declared
                if n.startswith("cli.command_ms.")]
    metrics = {}
    for layer in layers:
        metrics[f"{layer}.calls_per_op"] = total(layer, "calls") / n_ops
        metrics[f"{layer}.busy_us_per_op"] = 1e6 * total(layer, "busy_s") / n_ops
        metrics[f"{layer}.self_us_per_op"] = 1e6 * total(layer, "self_s") / n_ops
        metrics[f"{layer}.failures"] = total(layer, "failures")
    metrics.update({
        "protocol.fast.ns_per_round": per("protocol.fast", "busy_s", "rounds_drawn", 1e9),
        "protocol.fast.kept_ratio": per("protocol.fast", "rounds_kept", "rounds_drawn", 1.0),
        "protocol.fast.peak_bytes_per_round":
            _peak_bytes_per_round(ops) if total("protocol.fast", "calls") else 0.0,
        "analysis.oracle_product.us_per_call":
            per("analysis.oracle_product", "busy_s", "calls", 1e6),
        "analysis.oracle_entangled.us_per_call":
            per("analysis.oracle_entangled", "busy_s", "calls", 1e6),
        "analysis.closed_form.us_per_call": per("analysis.closed_form", "busy_s", "calls", 1e6),
        "analysis.sweep.us_per_point": per("analysis.sweep", "busy_s", "calls", 1e6),
        "analysis.mc_z_max": max(plain.z_max, traced.z_max),
        "protocol.engine.us_per_round": per("protocol.engine", "self_s", "rounds", 1e6),
        "protocol.engine.abort_ratio": per("protocol.engine", "aborted", "sessions", 1.0),
        "rounds_per_s": plain.rounds / plain.elapsed,
        "trace.overhead_ratio": plain.ops_per_s / traced.ops_per_s,
    })
    metrics.update(_exact_counts(seen))

    loops = [plain, traced]
    extra = {"ops_per_s_untraced": plain.ops_per_s, "ops_per_s_traced": traced.ops_per_s}
    command_ms: dict[str, float] = {}
    output_bytes = dict.fromkeys(commands, 0)
    import_ms = 0.0
    if args.workload == "cli_cold":
        env = workloads.child_env()
        bare_cmd, cold_cmd = [sys.executable, "-c", "pass"], [sys.executable, "-c",
                                                               "import qgamble.cli"]
        _wall(cold_cmd, env)  # a first run also compiles bytecode
        pairs = [(_wall(bare_cmd, env), _wall(cold_cmd, env)) for _ in range(PROBES)]
        bare, cold = min(b for b, _ in pairs), min(c for _, c in pairs)
        import_ms = 1e3 * (cold - bare)
        extra.update(bare_python_ms=1e3 * bare, import_cli_ms=1e3 * cold)
        inproc_ops = workloads.build("cli_cold", args.seed, work, in_process=True)
        inproc = Loop(inproc_ops, tracer, seen, cycles=INPROC_REPEATS)
        loops.append(inproc)
        command_ms = {op.kind: 1e3 * statistics.median(inproc.by_key[op.key])
                      for op in inproc_ops}
        for op in ops:
            output_bytes[op.kind] += seen.get(op.key, {}).get("bytes", 0)
    metrics["cli.import_ms"] = import_ms
    for name in commands:
        metrics[f"cli.command_ms.{name}"] = command_ms.get(name, 0.0)
        metrics[f"cli.output_bytes.{name}"] = output_bytes[name]
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    extra["spans"] = str(spans_path.relative_to(ROOT))
    return loops, metrics, extra


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import qgamble from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The CLI echoes the paths it writes to, so its output bytes depend on
    # them: every CLI call runs from the checkout root with this relative
    # path, wherever the checkout is and wherever the run was started.
    os.chdir(ROOT)
    work = OUT.relative_to(ROOT) / "tmp"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, work)
        seen: dict = {}
        if args.trace:
            wanted = declared["per_layer"]
            loops, computed, extra = _per_layer(args, workloads, ops, seen, work,
                                                [m["name"] for m in wanted])
        else:
            loops, computed, extra = _end_to_end(args, ops, seen)
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    problems = [p for loop in loops for p in loop.problems]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    notes = {k: v for loop in loops for k, v in loop.notes.items()}
    extra.update(counts_digest=_digest(seen), distinct_ops=len(seen))
    record = {
        "environment": _environment(args), "metrics": metrics, "extra": extra,
        "known_defect_rows": notes, "problems": problems[:20],
        "exact_counts": seen,
        "latency_ms_by_op": {k: [round(1e3 * t, 4) for t in v]
                             for loop in loops[:1] for k, v in loop.by_key.items()},
    }
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    env = record["environment"]
    print(f"# qgamble bench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} numpy={env['numpy']} click={env['click']} "
          f"nproc={env['nproc']} commit={env['commit']}")
    print(f"# attempted={attempted} failed={failed} error_rate={failed / attempted:.6g} "
          + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in extra.items()))
    for name, note in sorted(notes.items()):
        print(f"# known defect, not gated: {name} passed={note['passed']} "
              f"value={note['value']}")
    for problem in problems[:5]:
        print(f"# FAILED {problem}")
    print(f"# details: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
