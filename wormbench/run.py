"""wormgnn benchmark: end-to-end timings, a traced per-layer run, and a compare mode.

Run from the root of a checkout that holds ``src/wormgnn``::

    python3 wormbench/run.py --workload classify-cells --seed 1 --seconds 30 --trace 0
    python3 wormbench/run.py --seed 1 --seconds 30        # every workload in turn
    python3 wormbench/run.py --compare RESULTS_A RESULTS_B

A run repeats one iteration, each after the previous one returns, until
``--seconds`` would be exceeded: set the workload up, then run its
operation.  A first, untimed iteration is the warm-up.  End-to-end metrics
are medians over the timed iterations.  Every unit of work is checked (see
``workloads.py``); a unit that fails its checks, raises, or gives another
result than the first repetition of the same input counts as failed, and
the run goes on.

With ``--trace 1`` the iterations alternate between untraced and traced.
Per-layer metrics come from the spans of the traced ones (see
``tracing.py``); the untraced ones give the per-kind cell times and the
tracing overhead (traced / untraced).  Counts must repeat exactly between
traced iterations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.  Each run also writes its samples,
check failures, digests and an environment record to
``wormbench/.out/runs/``, and a traced run writes its spans to
``wormbench/.out/traces/``.  ``--compare A B`` reads two such result sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / ".out"
MIN_OPERATIONS = 3
WORKLOADS = ("classify-cells", "predict-rollout", "cv-sweep")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def use_sources() -> bool:
    """Put the checkout's ``src`` first on the import path; False if it is absent."""
    src = ROOT / "src"
    if not (src / "wormgnn" / "__init__.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def median(values) -> float:
    return float(statistics.median(values))


def median_of(samples: dict, metric: str) -> float:
    """Median of a sample set; 0 when every unit that would give one failed."""
    values = samples.get(metric)
    return median(values) if values else 0.0


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
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
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas_dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_dep.get('name')} {blas_dep.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Ledger:
    """Attempted and failed units of work, checked against the first repetition."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] = {}

    def record(self, check) -> None:
        self.attempted += 1
        problems = list(check.problems)
        first = self.reference.setdefault(check.label, check.digest)
        if check.digest != first:
            problems.append(f"digest {check.digest} differs from the first repetition's {first}")
        if problems:
            self.failures.append(f"{check.label}: " + "; ".join(problems))

    def crash(self, label: str) -> None:
        self.attempted += 1
        self.failures.append(f"{label}: raised\n{traceback.format_exc()}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    def digest(self) -> str:
        from workloads import digest

        return digest(sorted(self.reference.items()))


def _iteration(workload, ledger: Ledger, samples: dict) -> float:
    """Set the workload up, then run its operation once; returns the wall time.

    Setting up before every operation spreads the set-up samples over the
    whole run, so they see the same machine load as the operations.
    """
    started = time.perf_counter()
    try:
        with workload.scope("setup"):
            check = workload.setup()
    except Exception:
        ledger.crash(f"{workload.name} setup")
        return time.perf_counter() - started
    samples.setdefault("setup_s", []).append(time.perf_counter() - started)
    ledger.record(check)
    if check.problems:
        return time.perf_counter() - started
    try:
        result = workload.operation()
    except Exception:
        ledger.crash(f"{workload.name} operation")
    else:
        for check in result.checks:
            ledger.record(check)
        for metric, values in result.samples.items():
            samples.setdefault(metric, []).extend(values)
    return time.perf_counter() - started


def _peak_rss_mb(workers: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
                  out_dir: Path = OUT_DIR) -> dict:
    """One benchmark run; returns the full record, whose ``result`` is the printed line."""
    import tracing
    import workloads

    spec = load_spec()
    ledger = Ledger()
    load_before = os.getloadavg()
    work_dir = out_dir / "work" / f"{name}-{os.getpid()}-{time.time_ns()}"
    workload = workloads.WORKLOADS[name](seed, size, work_dir)
    untraced: dict[str, list[float]] = {}
    traced: dict[str, list[float]] = {}
    tracer = tracing.Tracer() if trace else None
    reps: list[list[int]] = []
    try:
        # one checked but untimed iteration first, so lazy set-up and
        # first-touch memory are not timed
        _iteration(workload, ledger, {})
        deadline = time.perf_counter() + seconds
        times: list[float] = []
        while True:
            if trace and len(reps) < len(times) - len(reps):
                first = len(tracer.runs)
                workload.tracer = tracer
                with tracer.installed():
                    times.append(_iteration(workload, ledger, traced))
                workload.tracer = None
                reps.append(list(range(first, len(tracer.runs))))
            else:
                times.append(_iteration(workload, ledger, untraced))
            enough = len(reps) >= 2 if trace else len(times) >= MIN_OPERATIONS
            if enough and time.perf_counter() + median(times) > deadline:
                break
    finally:
        workload.close()
    load_after = os.getloadavg()

    workers = workloads.SWEEP_WORKERS if name == "cv-sweep" else 0
    if trace:
        values, counts = tracing.per_layer_metrics(tracing.SpanTotals(tracer), reps)
        differ = [f"iteration {i} counted {c}" for i, c in enumerate(counts) if c != counts[0]]
        ledger.record(workloads.Check("exact counts", differ, workloads.digest(counts[0])))
        for metric in ("cell_s.mlp", "cell_s.node_mlp", "cell_s.gnn_static", "cell_s.gnn_dynamic",
                       "cell_s.predict_mlp", "cell_s.predict_gnn_dynamic", "rollout16_s",
                       "sweep_cells_per_s"):
            if metric in untraced:
                values[metric] = median(untraced[metric])
        for metric in ("cli.cell_busy_s", "cli.worker_busy_share"):
            if metric in traced or metric in untraced:
                values[metric] = median(traced.get(metric, []) + untraced.get(metric, []))
        for metric in ("setup_s", "op_s", "mlp_cell_s"):
            base = median_of(untraced, metric)
            values[f"trace.overhead.{metric}"] = median_of(traced, metric) / base if base else 0.0
        wanted = spec["per_layer"]
        trace_path = out_dir / "traces" / f"{name}_seed{seed}_{time.time_ns()}.npz"
        tracer.save(trace_path)
    else:
        counts = []
        values = {
            "setup_s": median_of(untraced, "setup_s"),
            "op_s": median_of(untraced, "op_s"),
            "mlp_cell_s": median_of(untraced, "mlp_cell_s"),
            "peak_rss_mb": _peak_rss_mb(workers),
        }
        wanted = spec["end_to_end"]
        trace_path = None
    unknown = sorted(set(values) - {m["name"] for m in wanted})
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size,
        "result": result,
        "samples": untraced,
        "traced_samples": traced,
        "exact_counts": counts[0] if counts else None,
        "failures": ledger.failures,
        "digest": ledger.digest(),
        "load_average": {"before": load_before, "after": load_after},
        "environment": environment(),
        "trace_file": str(trace_path) if trace_path else None,
    }


def report(record: dict) -> list[str]:
    """Human-readable lines: every metric and sample set with its spread."""
    result = record["result"]
    lines = [f"wormbench {record['workload']} seed={record['seed']} "
             f"seconds={record['seconds']} trace={record['trace']}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
    for name, values in record["samples"].items():
        q1, q3 = quartiles(values)
        lines.append(f"  sample {name:35s} median {median(values):.6g} "
                     f"q1 {q1:.6g} q3 {q3:.6g} n={len(values)}")
    share = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    lines.append(f"  attempted {result['attempted']} failed {result['failed']} "
                 f"failed_share {share:.6g}")
    lines += [f"  FAILED {failure}" for failure in record["failures"]]
    lines.append(f"  digest {record['digest']}")
    lines.append(f"  load_average {json.dumps(record['load_average'])}")
    lines.append(f"  environment {json.dumps(record['environment'], sort_keys=True)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wormbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; without it every workload runs in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result sets (directories or files of run records)")
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], load_spec())
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not use_sources():
        print(f"wormbench: no wormgnn sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    runs_dir = OUT_DIR / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    for name in [args.workload] if args.workload else WORKLOADS:
        try:
            record = run_benchmark(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"wormbench: {exc}", file=sys.stderr)
            return 1
        path = runs_dir / f"{name}_seed{args.seed}_trace{args.trace}_{time.time_ns()}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print("\n".join(report(record)))
        print(f"  record {path.relative_to(ROOT)}")
        print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
