"""Benchmark entry point.

    python3 perfbench/run.py --workload {search-warm,search-selective}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Builds every input from --seed under
.perfbench/ in the repository, starts a local Ray cluster with one cpu per
usable host cpu (at most 4), runs the workload for about --seconds, checks
the outputs and prints one JSON object as the last stdout line:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  The line before it is a report: host, sample counts, the
per-layer self-time table and any failed checks.  Exits 1 when a check
fails, 2 when the repository is not found or the workload raised.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("search-warm", "search-selective")
# Ray's unix sockets live under <temp dir>/session_<date>_<pid>/sockets/ and
# must stay under the 107-byte AF_UNIX limit.
MAX_RAY_TEMP_LEN = 40
OBJECT_STORE_BYTES = 512 << 20
# /proc is walked for the peak RSS this often (by a child process)
MEM_INTERVAL_S = 0.25
# Ray cpus: the cpus this process may run on, at most this many, so the
# worker count (and memory, ~0.6 GB a worker) stays small on a large host
MAX_CPUS = 4
# Set for this process and every process it starts unless the caller set
# them: no usage reporting, and no Ray memory monitor (it kills workers when
# the whole host, other tenants included, is above 95% of its memory).
RAY_ENV = {
    "RAY_USAGE_STATS_ENABLED": "0",
    "RAY_memory_monitor_refresh_ms": "0",
    "RAY_DATA_DISABLE_PROGRESS_BARS": "1",
    "RAY_DEDUP_LOGS": "0",
}


def n_cpus() -> int:
    return min(MAX_CPUS, len(os.sched_getaffinity(0)))


def short_alias(path: str) -> str:
    """``path`` as a name of at most MAX_RAY_TEMP_LEN bytes that resolves to
    the same directory: itself when short enough, else through the
    ``/proc/<pid>/cwd`` link of this process (whose cwd must be ROOT), so
    Ray's sockets stay inside the checkout however deep it lies."""
    if len(path.encode()) <= MAX_RAY_TEMP_LEN:
        return path
    rel = os.path.relpath(path, ROOT)
    alias = os.path.join(f"/proc/{os.getpid()}/cwd", rel)
    if len(alias.encode()) > MAX_RAY_TEMP_LEN or os.path.realpath(os.getcwd()) != os.path.realpath(ROOT):
        raise RuntimeError(f"no short name for Ray's temp dir {path}")
    return alias


class RaySession:
    """A local Ray cluster with ``n_cpus()`` cpus and its files under
    ``temp_dir``.  ``stop()`` waits until every process the cluster started
    has exited and returns the pids that did not."""

    def __init__(self, temp_dir: str, mem):
        self.temp_dir = temp_dir
        self.mem = mem

    def start(self) -> None:
        import ray

        if not ray.is_initialized():
            os.makedirs(self.temp_dir, exist_ok=True)
            ray.init(
                address="local",
                num_cpus=n_cpus(),
                include_dashboard=False,
                object_store_memory=OBJECT_STORE_BYTES,
                log_to_driver=False,
                logging_level="ERROR",
                _temp_dir=short_alias(self.temp_dir),
            )

    def stop(self) -> set[int]:
        import ray

        from perfbench.stats import descendants, wait_gone

        pids = descendants(os.getpid()) - {self.mem.sampler_pid}
        ray.shutdown()
        return wait_gone(pids)


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def end_to_end(r, peak_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics; query times at nominal host speed
    (``perfbench.hostref``), their raw values in the report."""
    from perfbench.hostref import speed_factor
    from perfbench.stats import dir_bytes, tail
    from perfbench.workloads import TAIL_TOP

    p, tail_s = tail(r.samples, TAIL_TOP)
    p50_s = statistics.median(r.samples)
    qps = len(r.samples) / sum(r.samples)
    f = speed_factor(r.ref_samples)
    metrics = {
        "setup_s": (r.setup_s, "s"),
        "query_p50_ms": (p50_s * f * 1e3, "ms"),
        "query_p95_ms": (tail_s * f * 1e3, "ms"),
        "query_qps": (qps / f, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "index_bytes_per_text_byte": (dir_bytes(r.index_dir) / r.text_bytes, "ratio"),
    }
    raw = {
        "query_p50_ms": p50_s * 1e3,
        f"query_p{p:g}_ms": tail_s * 1e3,
        "query_qps": qps,
        "hostref_ms": statistics.median(r.ref_samples) * 1e3,
    }
    counts = {"tail_percentile": p, "ops": len(r.samples), "window_s": r.window_s, "raw": raw}
    return metrics, {**counts, "setup_parts": r.setup_parts}


def trace_metrics(tracer, r) -> tuple[dict, list[dict]]:
    from perfbench.tracing import layer_table, span_cost_s

    rows, total, _ = layer_table(tracer.spans, "window")
    n_roots = sum(1 for s in tracer.spans if s.parent is None and s.name == "window")
    in_window = n_roots + sum(row["calls"] for row in rows)
    cost = span_cost_s()
    gap = next((row["self_s"] for row in rows if row["name"] == "gap"), 0.0)
    metrics = {
        "pages.generate_s": (sum(s.dur for s in tracer.spans if s.name == "generate_pages"), "s"),
        "trace.query_p50_ms": (statistics.median(r.samples) * 1e3, "ms"),
        "trace.hostref_ms": (statistics.median(r.ref_samples) * 1e3, "ms"),
        "trace.window_s": (total, "s"),
        "trace.gap_share": (gap / total, "ratio"),
        "trace.spans": (in_window, "count"),
        "trace.span_cost_us": (cost * 1e6, "us"),
        "trace.overhead_share": (in_window * cost / total, "ratio"),
    }
    return metrics, rows


def _print_table(name: str, rows: list[dict], total: float) -> None:
    print(f"per-layer self time, {name} window ({total:.3f} s summed over roots):", file=sys.stderr)
    for row in rows:
        print(
            f"  {row['layer']:<22} {row['name']:<32} {row['calls']:>7} "
            f"{row['self_s']:>10.4f} s {100 * row['share']:>6.1f}%",
            file=sys.stderr,
        )
    print(f"  {'sum':<22} {'':<32} {'':>7} {sum(r['self_s'] for r in rows):>10.4f} s", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "indexer_ray", "__init__.py")):
        print(f"perfbench: no indexer_ray package under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    # Ray workers import indexer_ray from the checkout too
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    for k, v in RAY_ENV.items():
        os.environ.setdefault(k, v)

    from perfbench.stats import TreeMemory
    from perfbench.tracing import NullTracer, Tracer
    from perfbench.workloads import WORKLOADS, Ctx

    base = os.path.join(ROOT, ".perfbench")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    ray_tmp = os.path.join(base, "ray")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # temporary files of this process and the processes it starts (Ray's
    # object store falls back to a file under it when /dev/shm is small)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    for k in ("TMPDIR", "RAY_TMPDIR"):
        os.environ[k] = tmp
    ctx = Ctx(work, args.seed, args.seconds, bool(args.trace))
    ctx.t_start = T_START
    ctx.tracer = Tracer() if args.trace else NullTracer()
    mem = TreeMemory(MEM_INTERVAL_S)
    mem.start()

    import ray

    ctx.ray = RaySession(ray_tmp, mem)
    r, layers, crashed, left = None, {}, False, set()
    e2e, counts = {}, {}
    try:
        with ctx.tracer.span("ray.init", "ray"):
            ctx.ray.start()
        r, check = WORKLOADS[args.workload](ctx)
        mem.stop()
        e2e, counts = end_to_end(r, mem.peak_mb)
        check()
        if args.trace:
            from perfbench.probes import all_layers

            layers = all_layers(ctx, r)
            for slow_check in r.traced_checks:
                slow_check()
    except Exception:
        traceback.print_exc()
        crashed = True
    finally:
        mem.stop()
        left = ctx.ray.stop()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    if left:
        print(f"perfbench: processes still running after shutdown: {sorted(left)}", file=sys.stderr)
        return 2
    if crashed:
        return 2

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "host": {
            "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "ray_cpus": n_cpus(),
            "ray": ray.__version__,
            "python": platform.python_version(),
            "commit": _git_commit(),
        },
        **counts,
        "failures": ctx.failures[:20],
    }
    if args.trace:
        tm, rows = trace_metrics(ctx.tracer, r)
        layers.update(tm)
        _print_table(args.workload, rows, tm["trace.window_s"][0])
        report["layers"] = rows
        os.makedirs(os.path.join(base, "traces"), exist_ok=True)
        ctx.tracer.dump(os.path.join(base, "traces", f"{args.workload}-{args.seed}.json"))
        metrics = layers
    else:
        metrics = e2e
    failed = len(ctx.failures)
    result = {
        "correct": failed == 0,
        "attempted": ctx.attempted + len(r.samples),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
