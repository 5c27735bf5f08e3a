#!/usr/bin/env python
"""Benchmark harness — headline extraction throughput + query timings.

Prints ONE JSON line:
  {"metric": "extract_pipeline_e2e", "value": <best sec>, "unit": "sec",
   "headline_s": {"runs", "min", "median", "max"}, "queries": {...},
   "sf": ..., "num_cpus": N, "host": {...}, "docs": D,
   "docs_per_sec": ...}

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS
(default: this machine's CPU count), GRAFT_BENCH_REPLICATION (default
40 → ~200k pages at sf0.1). The headline is the best of
HEADLINE_RUNS runs, with their spread reported. The query sweep
times every registered query (``sorted(QUERIES)``);
GRAFT_SKIP_QUERIES=1 skips it. ``host`` records the CPU count, the
CPUs this process may run on and the Ray version: compare numbers
only within one host.

--scaling: run the headline pipeline in two FRESH processes at
num_cpus=8 and num_cpus=32 on the same input and report both
throughputs + scaling efficiency (BASELINE.json north_rule evidence —
same job, two parallelism levels).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, "") or default)
    except ValueError:
        return default


SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = _env_int("RAY_GRAFT_CPUS", os.cpu_count() or 1)
REPLICATION = _env_int("GRAFT_BENCH_REPLICATION", 40)
HEADLINE_RUNS = 3
# Bench I/O lives on tmpfs when available: a single VM disk caps at
# ~120 MB/s regardless of CPU count, which would measure the disk, not
# the engine, in the scaling comparison (a real cluster reads/writes
# parallel distributed storage).
_TMP_BASE = os.environ.get(
    "GRAFT_BENCH_TMPDIR",
    "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp",
)
CACHE_DIR = os.path.join(_TMP_BASE, "graft_bench_cache")


def corpus_path() -> str:
    key = hashlib.md5(f"{SF_DIR}:{REPLICATION}:v1".encode()).hexdigest()[:12]
    return os.path.join(CACHE_DIR, f"pages_{key}.parquet")


def ensure_corpus() -> str:
    """Materialize (once) the replicated bench corpus to local Parquet."""
    path = corpus_path()
    if os.path.exists(path):
        return path
    os.makedirs(CACHE_DIR, exist_ok=True)
    from web_mass_scraper_ocr_ray.sources.pages import write_bench_corpus

    tmp = path + ".tmp"
    write_bench_corpus(SF_DIR, tmp, replication=REPLICATION)
    os.replace(tmp, path)
    return path


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    import ray.data as rd

    from web_mass_scraper_ocr_ray import PipelineConfig, build_pipeline
    from web_mass_scraper_ocr_ray.pipelines.queries import QUERIES

    path = ensure_corpus()
    # warm OS page cache so we measure compute+shuffle, not first disk read
    n_docs = rd.read_parquet(path, columns=["url"]).count()

    out_dir = os.path.join(_TMP_BASE, "graft_bench_out")
    import shutil
    import statistics

    # ---- headline: the production path — run_pipeline over the input
    # file list with commit groups + lineage manifests, best-of-N from
    # an empty output dir each time (a committed dir would be skipped)
    from web_mass_scraper_ocr_ray.pipelines.extract_pipeline import run_pipeline

    cfg = PipelineConfig(output_dir=out_dir, num_partitions=64,
                         commit_groups=4)
    runs = []
    for _ in range(HEADLINE_RUNS):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.monotonic()
        run_pipeline(path, cfg)
        runs.append(time.monotonic() - t0)
    headline = min(runs)

    # ---- per-query timings on the un-replicated sf tables
    query_times = {}
    query_names = () if os.environ.get("GRAFT_SKIP_QUERIES") else sorted(
        QUERIES)
    for name in query_names:
        t0 = time.monotonic()
        res = QUERIES[name](SF_DIR)
        if hasattr(res, "materialize"):
            res.materialize()
        query_times[name] = round(time.monotonic() - t0, 3)

    ray.shutdown()
    return {
        "metric": "extract_pipeline_e2e",
        "value": round(headline, 3),
        "unit": "sec",
        "headline_s": {"runs": len(runs), "min": round(min(runs), 3),
                       "median": round(statistics.median(runs), 3),
                       "max": round(max(runs), 3)},
        "queries": query_times,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "host": {"cpu_count": os.cpu_count(),
                 "sched_affinity": len(os.sched_getaffinity(0)),
                 "ray_version": ray.__version__},
        "docs": n_docs,
        "docs_per_sec": round(n_docs / headline, 1),
        "replication": REPLICATION,
    }


def run_scaling() -> dict:
    """Same job at num_cpus=8 and 32 in fresh processes (§4.2).

    Uses a larger corpus (default replication 400 → ~2M pages) so the
    32-CPU run is kernel-dominated: scaling efficiency on a job whose
    wall time is mostly fixed latency measures the overhead, not the
    engine."""
    rep = str(_env_int("GRAFT_SCALING_REPLICATION", 2000))

    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_SKIP_QUERIES="1",
                   GRAFT_BENCH_REPLICATION=rep)
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # best-of-N per level: the sandbox VM shares a noisy host — identical
    # 32-CPU runs were observed at 51 s and 72 s. Best-of runs measure
    # the engine, not the neighbor.
    n_runs = _env_int("GRAFT_SCALING_RUNS", 2)
    lo = min((one(8) for _ in range(n_runs)), key=lambda d: d["value"])
    hi = min((one(32) for _ in range(n_runs)), key=lambda d: d["value"])
    tp_lo, tp_hi = lo["docs_per_sec"], hi["docs_per_sec"]
    eff = (tp_hi / tp_lo) / (32 / 8)
    hw = _hardware_envelope()
    return {
        "metric": "scaling_efficiency_8_to_32",
        "value": round(eff, 3),
        "unit": "ratio",
        "docs_per_sec_8": tp_lo,
        "docs_per_sec_32": tp_hi,
        "sec_8": lo["value"],
        "sec_32": hi["value"],
        "docs": hi["docs"],
        "sf": SF_DIR,
        # control experiment: what 8→32 scaling this MACHINE delivers on
        # a pure CPU busy-loop (no Ray, no I/O). Virtualized hosts cap
        # well below 1.0 (frequency/memory/host contention) — engine
        # efficiency can't exceed this envelope on a single VM.
        "hardware_envelope_8_to_32": hw,
        "engine_efficiency_vs_envelope": round(eff / hw, 3) if hw else None,
    }


def _hardware_envelope(seconds: float = 3.0) -> float:
    """Aggregate busy-loop throughput at 32 procs / (4 × at 8 procs)."""
    import multiprocessing as mp

    def agg(n: int) -> float:
        with mp.Pool(n) as p:
            res = p.map(_burn, [seconds] * n)
        return sum(res)

    a8, a32 = agg(8), agg(32)
    return round((a32 / a8) / 4.0, 3)


def _burn(seconds: float) -> int:
    t0 = time.perf_counter()
    x = 0
    iters = 0
    while time.perf_counter() - t0 < seconds:
        for _ in range(10000):
            x += 1
        iters += 10000
    return iters


def run_stress() -> dict:
    """10× stress sweep of the graph/setjoin/tiering families
    (pipelines/stress.py) — r3 verdict #8. Slow (~tens of minutes);
    results recorded in BASELINE.md."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from web_mass_scraper_ocr_ray.pipelines.stress import run_stress_sweep

    k = _env_int("GRAFT_STRESS_K", 10)
    ops = tuple(x for x in os.environ.get("GRAFT_STRESS_OPS", "").split(",")
                if x)
    out = run_stress_sweep(SF_DIR, CACHE_DIR, k=k, ops=ops)
    out["num_cpus"] = NUM_CPUS
    ray.shutdown()
    return out


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--stress" in sys.argv:
        print(json.dumps(run_stress()))
    else:
        print(json.dumps(run_bench()))
