"""Smoke tests of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size (one block) with and without tracing and
checks the result line against BENCHMARK.json, checks that request lists
depend on the seed and only on it, exercises the tracer on a renamed name,
under threads and on overlapping spans, and checks that the benchmark
refuses to run where the library's sources are absent.  Exits non-zero on
the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, _shared_self  # noqa: E402
from workloads import WORKLOADS, request_list  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_request_lists():
    for workload in WORKLOADS:
        a = request_list(workload, 11, 4)
        assert a == request_list(workload, 11, 4), f"{workload}: same seed, different requests"
        assert a != request_list(workload, 12, 4), f"{workload}: different seeds, same requests"


def test_result_lines():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in WORKLOADS:
            out = run_bench(ROOT, workload, trace)
            assert out.returncode == 0, f"{workload} trace={trace}: {out.stderr[-2000:]}"
            last = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
            assert last["correct"] is True, f"{workload}: {out.stdout.splitlines()[-2][:2000]}"
            assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {sorted(set(got) ^ set(want))}"
            assert all(isinstance(m["value"], float) for m in last["metrics"].values())
            print(f"ok {workload} trace={trace}: {last['attempted']} requests, "
                  f"{last['failed']} failed", flush=True)


def test_tracer_tolerates_missing_names_and_threads():
    module = types.ModuleType("fake")
    module.work = lambda x: x + 1
    tracer = Tracer()
    tracer.patch(module, "work", "layer.work_s", lambda a, k, r: ("layer.calls", 1))
    tracer.patch(module, "gone", "layer.gone_s")
    assert tracer.missing == ["fake.gone"]
    top = tracer.top(lambda: [t.start() or t for t in threads], "bounds.self_s")
    threads = [threading.Thread(target=lambda: [module.work(i) for i in range(2000)])
               for _ in range(8)]
    for t in top():
        t.join(timeout=30)
        assert not t.is_alive()
    tracer.uninstall()
    assert module.work(1) == 2 and not hasattr(module.work, "__wrapped__")
    assert tracer.counts["layer.calls"] == 16000
    assert len(tracer.spans) == 16001
    assert len({s[0] for s in tracer.spans}) == 16001, "span ids must be unique"


def test_shared_self_time():
    # Root 0..10 on thread 1; two pool children overlap on 2..6 and 4..8.
    spans = [
        (0, "bounds.self_s", 0.0, 10.0, None, 0, 1),
        (1, "aggregation.exp_s", 2.0, 6.0, 0, 0, 2),
        (2, "measures.var.grid_s", 4.0, 8.0, 0, 0, 3),
    ]
    got = _shared_self(spans)
    assert abs(sum(got.values()) - 10.0) < 1e-12
    assert abs(got["bounds.self_s"] - 4.0) < 1e-12
    assert abs(got["aggregation.exp_s"] - 3.0) < 1e-12
    assert abs(got["measures.var.grid_s"] - 3.0) < 1e-12


def test_refuses_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = run_bench(bare, WORKLOADS[0], 0)
        assert out.returncode != 0, "must fail without the library's sources"
        assert '"metrics"' not in out.stdout, "must not print a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [test_request_lists, test_shared_self_time,
             test_tracer_tolerates_missing_names_and_threads, test_refuses_without_sources,
             test_result_lines]
    for test in tests:
        test()
        print(f"passed {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
