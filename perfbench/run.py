"""gfgm benchmark: seeded closed-loop workloads against the public library API.

    python3 perfbench/run.py --workload common-p-full --seed 1 --seconds 25 --trace 0

One client sends one request at a time from a single process and waits for
its reply (a closed loop).  Requests run in whole blocks (see workloads.py)
for as many blocks as fit in ``--seconds``, at least one.  Every reply is
checked afterwards against closed forms that do not share the library's code
path (checks.py).  The seeded stream holds only requests with a correct
answer; the documented wrong answers are run once per run after the timed
phase, as fixed probes (workloads.PROBES), checked the same way and reported
apart from the stream.

``--trace 0`` prints the end-to-end metrics, in seconds at a reference
machine speed (see ``yardstick``); the raw times are in the report line.  ``--trace 1`` runs every block
twice, untraced and then with spans around each layer (tracing.py), and
prints the per-layer metrics.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics; attempted and failed
count the requests of the stream.  The line before it is a JSON report with
provenance, the tail percentile and its sample count, the fail ratio, every
failed check and the outcome of the probes.  Exit code 2 means the program or the
benchmark could not be set up; no result line is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3

# The yardstick's thread CPU time on the 2-CPU Xeon (Python 3.11, numpy 2.4)
# the benchmark was tuned on.  Timings are scaled to this speed.
YARDSTICK_REF_S = 0.06
# Blocks on each side whose yardsticks set a block's speed.
YARDSTICK_WINDOW = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    pass


def pin_environment():
    """Fix the threads and CPUs the measurement may use; call before numpy is imported.

    The engine's worker pool is meant to be the only source of threads.  A
    multithreaded BLAS would add its own threads to every np.dot, which on
    two CPUs made uniform-margin requests two to six times slower and as
    noisy.  The run, and the set-up probes it starts, stay on one CPU: across
    two, the pool's threads hand the interpreter lock back and forth, and the
    throughput of one run and the next differed by up to 1.7 times.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_library():
    """Import gfgm from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import gfgm
    except ImportError as exc:
        raise SetupError(f"cannot import gfgm from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(gfgm.__file__).resolve().parents:
        raise SetupError(f"gfgm was imported from {gfgm.__file__}, not from {SRC}")
    return gfgm


def setup(workload: str, seed: int):
    """Import the library and build the workload's margins and first block."""
    from workloads import Materializer, RequestStream

    gfgm = load_library()
    materializer = Materializer(gfgm)
    stream = RequestStream(workload, seed)
    first = stream.next_block()
    return gfgm, materializer, stream, first, [materializer.build(r) for r in first]


def yardstick() -> float:
    """Thread CPU time of a fixed computation that does not use the library.

    On a shared host the CPU speed drifts by up to a quarter over tens of
    seconds, and it slows this program and any other computation alike:
    over four minutes on a 2-CPU host, the time of the same common-p
    requests varied with a coefficient of 0.14, a shorter version of this
    computation by 0.14, and their ratio by 0.05.
    So the benchmark times the yardstick next to the work and reports
    work * YARDSTICK_REF_S / yardstick.  It mixes FFTs with interpreted
    arithmetic, as the engine does.  Thread CPU time leaves out any other
    thread of the process that runs meanwhile.
    """
    import numpy as np

    x = np.cos(np.arange(1 << 14) * 1e-3)
    t0 = time.thread_time()
    for _ in range(100):
        np.fft.irfft(np.fft.rfft(x) ** 3)
    acc = 0
    for i in range(250_000):
        acc += i * i % 7
    return time.thread_time() - t0


def setup_at_reference_speed(setup_s: float) -> float:
    yardstick()
    return setup_s * YARDSTICK_REF_S / statistics.median(yardstick() for _ in range(3))


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it, at the reference speed."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if out.returncode != 0:
        raise SetupError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    return float(out.stdout.strip().splitlines()[-1])


def warm_up(gfgm, materializer):
    """One tiny call per path, so first-call costs (lazy imports) stay out of the timing."""
    from fractions import Fraction

    measures = ["var:0.9", "es:0.9", "entropic:0.001", "std"]
    for family in ("exp", "uniform", "discrete"):
        gfgm.bounds_common_p(materializer.family(family), 6, Fraction(1, 2), measures)
        gfgm.convex_bounds_fast(materializer.family(family), 6, Fraction(1, 2), measures[1:])
    yardstick()
    margin = materializer.discrete
    gfgm.bounds_general_p([margin] * 3, ["1/2", "1/3", "2/3"], measures)
    gfgm.bounds_general_p([materializer.exp] * 3, ["1/2", "1/3", "2/3"], measures, mc_n=100)
    driver = gfgm.ExchangeableDriver(gfgm.min_convex(4, Fraction(1, 2)))
    gfgm.allocation_report(driver, [margin] * 4, 0.9)


class Run:
    """Closed loop over blocks: one request at a time, each timed on its own."""

    def __init__(self, api: dict):
        self.api = api
        self.requests: list[tuple] = []
        self.results: list[object] = []
        self.latencies: list[float] = []
        self.blocks: list[tuple[int, float]] = []  # (requests, seconds) per execute call
        self.wall = 0.0

    def execute(self, block: list[tuple], built: list[list]):
        start = time.perf_counter()
        for req, calls in zip(block, built):
            t0 = time.perf_counter()
            try:
                result = [self.api[name](*args, **kwargs) for name, args, kwargs in calls]
            except Exception as exc:  # a failed request is counted, not fatal
                result = exc
            self.latencies.append(time.perf_counter() - t0)
            self.requests.append(req)
            self.results.append(result)
        elapsed = time.perf_counter() - start
        self.blocks.append((len(block), elapsed))
        self.wall += elapsed


class TracedRun(Run):
    """The same loop with a span around every layer call; tracing is on only inside it."""

    def __init__(self, api: dict, tracer):
        super().__init__({name: tracer.top(fn, "allocation.report_s" if name == "allocation_report"
                                           else "bounds.self_s") for name, fn in api.items()})
        self.tracer = tracer

    def execute(self, block: list[tuple], built: list[list]):
        self.tracer.install()
        try:
            for req, calls in zip(block, built):
                self.tracer.request = len(self.requests)
                super().execute([req], [calls])
        finally:
            self.tracer.uninstall()


def run_probes(api: dict, materializer, workload: str) -> Run:
    """The workload's fixed probes, untimed and untraced."""
    from workloads import PROBES

    probes = Run(api)
    block = list(PROBES[workload])
    probes.execute(block, [materializer.build(req) for req in block])
    return probes


def run_blocks(runs: list[Run], materializer, stream, first, first_built,
               seconds: float) -> list[float]:
    """Whole blocks while the next one is expected to end within ``seconds``.

    Each block goes through every run in turn, so an untraced and a traced
    run see the same requests under the same machine conditions.  Returns
    the yardstick timed before each block.
    """
    block, built, yards = first, first_built, []
    start = time.perf_counter()
    while True:
        yards.append(yardstick())
        for run in runs:
            run.execute(block, built)
        spent = time.perf_counter() - start
        if spent + spent / len(yards) > seconds:
            return yards
        block = stream.next_block()
        built = [materializer.build(req) for req in block]


def at_reference_speed(run: Run, yards: list[float]) -> tuple[list[float], float]:
    """The run's request latencies and timed seconds at the reference speed.

    A block's speed is the median yardstick of the blocks within
    YARDSTICK_WINDOW of it, which smooths out single slow samples.
    """
    latencies, wall, i = [], 0.0, 0
    for b, (size, elapsed) in enumerate(run.blocks):
        near = yards[max(0, b - YARDSTICK_WINDOW):b + YARDSTICK_WINDOW + 1]
        scale = YARDSTICK_REF_S / statistics.median(near)
        latencies += [lat * scale for lat in run.latencies[i:i + size]]
        wall += elapsed * scale
        i += size
    return latencies, wall


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def check_all(run: Run) -> tuple[int, int, dict]:
    """(failed requests, unexpected failures, failures by check name)."""
    import checks

    failed = unexpected = 0
    by_check: dict[str, dict] = {}
    for req, result in zip(run.requests, run.results):
        if isinstance(result, Exception):
            detail = f"{type(result).__name__}: {result}"
            failures = [("raised", detail, checks.known_exception(req, result))]
        else:
            try:
                failures = checks.check(req, result).failures
            except Exception as exc:  # a reply the checks cannot read is a failed reply
                failures = [("unreadable", f"{type(exc).__name__}: {exc}", None)]
        if failures:
            failed += 1
        unexpected += any(known is None for _, _, known in failures)
        for name, detail, known in failures:
            entry = by_check.setdefault(name, {"count": 0, "known": known, "example": detail})
            entry["count"] += 1
    return failed, unexpected, by_check


def provenance(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gfgm").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "env": {k: v for k, v in os.environ.items() if k.startswith("GFGM_")},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def per_layer(tracer, run: Run, untraced: Run) -> tuple[dict, dict]:
    import checks
    from tracing import DIST_KINDS, LAYERS, MEASURE_KINDS

    n = len(run.requests)
    self_s = tracer.self_times()
    traced_total = sum(run.latencies)
    values: dict[str, tuple[float, str]] = {}
    for family in ("exp", "discrete", "uniform", "general"):
        values[f"aggregation.{family}_s"] = (self_s.get(f"aggregation.{family}_s", 0.0) / n, "s")
    values["aggregation.calls"] = (tracer.counts["aggregation.calls"] / n, "count")
    for kind in MEASURE_KINDS:
        for dist in DIST_KINDS:
            key = f"measures.{kind}.{dist}_s"
            values[key] = (self_s.get(key, 0.0) / n, "s")
    values["measures.calls"] = (tracer.counts["measures.calls"] / n, "count")
    values["bounds.self_s"] = (self_s.get("bounds.self_s", 0.0) / n, "s")
    evaluated = attaining = 0
    for results in run.results:
        for result in results if isinstance(results, list) else []:
            if hasattr(result, "point_labels"):
                evaluated += len(result.point_labels)
                attaining += len({lab for _, lab in [*result.minima.values(), *result.maxima.values()]})
    values["bounds.useful_ratio"] = (attaining / evaluated if evaluated else 0.0, "ratio")
    values["sums.extremal_points_s"] = (self_s.get("sums.extremal_points_s", 0.0) / n, "s")
    values["sums.points"] = (tracer.counts["sums.points"] / n, "count")
    values["vertices.enumerate_s"] = (self_s.get("vertices.enumerate_s", 0.0) / n, "s")
    values["vertices.count"] = (tracer.counts["vertices.count"] / n, "count")
    sample_s = self_s.get("copula.sample_s", 0.0)
    values["copula.sample_s"] = (sample_s / n, "s")
    values["copula.draws_per_s"] = (tracer.counts["copula.draws"] / sample_s if sample_s else 0.0, "1/s")
    values["allocation.report_s"] = (self_s.get("allocation.report_s", 0.0) / n, "s")
    atoms = sum(checks.atom_count(req) for req in run.requests if req[0] == "allocation")
    values["allocation.atoms"] = (atoms / n, "count")
    values["trace.overhead_ratio"] = (
        statistics.median(run.latencies) / statistics.median(untraced.latencies), "ratio")
    values["trace.accounted_ratio"] = (sum(self_s.values()) / traced_total, "ratio")

    buckets = set(self_s)
    layers = {
        layer: "called" if any(b.startswith(layer + ".") for b in buckets) else "not called"
        for layer in LAYERS
    }
    details = {"layers": layers, "missing_names": tracer.missing,
               "unclassified_s": {b: s / n for b, s in self_s.items() if b not in values}}
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_environment()
    sys.path.insert(0, str(HERE))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    try:
        t0 = time.perf_counter()
        gfgm, materializer, stream, first, first_built = setup(args.workload, args.seed)
        own_setup = time.perf_counter() - t0
        own_setup = setup_at_reference_speed(own_setup)
        if args.setup_probe:
            print(own_setup)
            return 0
        setups = [own_setup]
        if not args.trace:
            setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    warm_up(gfgm, materializer)
    names = ("bounds_common_p", "convex_bounds_fast", "bounds_general_p", "allocation_report")
    run = Run({name: getattr(gfgm, name) for name in names})
    runs = [run]
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        traced = TracedRun(run.api, tracer)
        runs.append(traced)
    yards = run_blocks(runs, materializer, stream, first, first_built, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = run_probes(run.api, materializer, args.workload)

    report = {"workload": args.workload, "provenance": provenance(args.seed)}
    if args.trace:
        metrics, report["trace"] = per_layer(tracer, traced, run)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        run = traced
    failed, unexpected, by_check = check_all(run)
    probe_failed, probe_unexpected, probe_checks = check_all(probes)
    n = len(run.requests)
    if not args.trace:
        latencies, wall = at_reference_speed(run, yards)
        tail_s, tail_pct = tail(latencies)
        metrics = {
            "setup_s": statistics.median(setups),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_s,
            "requests_per_s": n / wall,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        report["latency_tail"] = {"percentile": tail_pct, "samples": n}
        report["setup_samples_s"] = setups
        report["raw"] = {"latency_p50_s": statistics.median(run.latencies),
                         "latency_tail_s": tail(run.latencies)[0], "requests_per_s": n / run.wall}
    report.update({
        "blocks": len(yards),
        "yardstick_s": {"median": statistics.median(yards), "min": min(yards), "max": max(yards),
                        "reference": YARDSTICK_REF_S},
        "requests": n,
        "timed_s": run.wall,
        "fail_ratio": {"value": failed / n, "unit": "ratio"},
        "unexpected_failures": unexpected,
        "failed_checks": by_check,
        "probes": {"requests": len(probes.requests), "failed": probe_failed,
                   "fail_ratio": {"value": probe_failed / max(len(probes.requests), 1),
                                  "unit": "ratio"},
                   "unexpected_failures": probe_unexpected, "failed_checks": probe_checks},
    })
    print(json.dumps({"report": report}))
    correct = unexpected == 0 and probe_unexpected == 0
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
