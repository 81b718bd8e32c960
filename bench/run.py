"""Benchmark of the ptnm command-line experiments; BENCHMARK.json names its metrics.

Run from the repository root:

    python3 bench/run.py --workload fit-chain --seed 0 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, one table

A run measures set-up, warms up, then repeats passes of the workload's
operations for ``--seconds``. Each operation is one in-process call of
``ptnm.cli.main`` with a generated argv (see ``workloads.py``); only that call
is timed. After it, outside the timed region, the operation's files are
checked against references and hashed.

``--trace 0`` prints the end-to-end metrics:

- ``wall_s``: wall time of one pass, the time a user waits for the
  workload's results, taken as the sum over operations of each one's fastest
  time in the run (see ``_fastest_pass``; a failed operation's time counts
  too). The median pass time and its tail percentile are printed and
  recorded beside it;
- ``setup_s``: median over several samples of the time to import ptnm (with
  numpy and scipy) in a fresh interpreter plus the time to generate the
  workload's inputs;
- ``peak_rss_mb``: peak resident memory of this process after the timed passes.

``--trace 1`` runs half the budget untraced and half traced (``tracing.py``)
and prints the per-layer metrics: self time and call counts per layer, per
traced pass, plus the tracing overhead.

Operations are counted in ``attempted``; ``failed`` counts those that raised,
exited nonzero, or failed their check. ``correct`` is false only when an
output contradicts a reference or an earlier run of the same input; a fit the
program itself reports as not converged is a failed operation with correct
output. Every written file is hashed and compared with the first pass of the
run and with earlier runs of the same source tree, workload and seed.

BLAS and OpenMP run on one thread, set before numpy is imported: the thread
count changes the floating-point path of a fit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

OUT_DIR = os.path.join("bench", "out")
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("fit-chain", "measure-sweep", "fig3-paper")
LAYERS = ("cli", "reconstruct", "measures", "process_tensor", "models", "tensorops", "io")
SCHEDULE_K = (2, 3, 4, 5, 6)  # the CLI's default fit schedule


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join("src", "ptnm", "__init__.py")):
        print("bench: src/ptnm not found; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, os.path.abspath("src"))
    return _run(args)


# ---------------------------------------------------------------------------
# One operation: timed CLI call, then check and hash outside the timing
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed operations, and the output digests seen so far."""

    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list[str] = []

    def run(self, main, op) -> float:
        from workloads import OpFailed, WrongOutput

        self.attempted += 1
        captured = io.StringIO()
        code = None
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = main(list(op.argv))
        except (Exception, SystemExit):
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        elapsed = time.perf_counter() - start

        if error is not None or code != 0:
            self._fail(op, error or f"exit code {code}: {captured.getvalue().strip()[-200:]}")
            return elapsed
        try:
            op.check(op.out_dir)
        except OpFailed as exc:
            self._fail(op, str(exc))
        except (WrongOutput, OSError, ValueError, KeyError) as exc:
            self._fail(op, f"wrong output: {exc}", wrong=True)
        digest = _digest_dir(op.out_dir)
        first = self.digests.setdefault(op.label, digest)
        if digest != first:
            self._fail(op, f"wrong output: files differ from the first run ({digest[:12]} != {first[:12]})",
                       wrong=True)
        return elapsed

    def _fail(self, op, reason: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        self.failures.append(f"{op.label}: {reason}")


def _digest_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            h.update(name.encode() + b"\0" + hashlib.sha256(handle.read()).digest())
    return h.hexdigest()


def _passes(ops, seconds: float, run_op) -> list[list[float]]:
    """Repeat passes while the next one is expected to end within ``seconds``
    (always at least one); return each pass's timed operation durations."""
    passes: list[list[float]] = []
    start = time.perf_counter()
    while True:
        passes.append([run_op(op) for op in ops])
        if time.perf_counter() - start + statistics.fmean(map(sum, passes)) > seconds:
            return passes


def _fastest_pass(passes: list[list[float]]) -> float:
    """One pass with every operation at its fastest observed time.

    Speed on a shared host flips between two states about 1.6x apart that
    last seconds; a median over passes lands in either state from run to run,
    while the per-operation minimum keeps the uncontended one.
    """
    return sum(min(times) for times in zip(*passes))


def _setup_sample(make, seed: int, work: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ptnm.cli"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    make(seed, work)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


def _run(args) -> int:
    import ptnm
    from ptnm import cli

    import tracing
    import workloads

    src = os.path.abspath("src") + os.sep
    if not os.path.abspath(ptnm.__file__).startswith(src):
        print(f"bench: imported ptnm from {ptnm.__file__}, not from {src}", file=sys.stderr)
        return 2

    make = workloads.WORKLOADS[args.workload]
    work = os.path.join(OUT_DIR, "work")
    setup = [_setup_sample(make, args.seed, work) for _ in range(SETUP_SAMPLES)]
    ops, warm = make(args.seed, work)
    for op in warm:
        Tally({}).run(cli.main, op)

    source = _source_digest()
    store = os.path.join(OUT_DIR, "hashes", source[:16], f"{args.workload}-seed{args.seed}.json")
    digests = _load_json(store, {})
    known = dict(digests)
    tally = Tally(digests)

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = _passes(ops, budget, lambda op: tally.run(cli.main, op))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": [{"label": op.label, "argv": list(op.argv)} for op in ops],
        "environment": _environment(source),
        "samples": {"setup_s": setup, "untraced_op_s": untraced},
    }
    if args.trace:
        tracer = tracing.Tracer()
        unmeasured, restore = tracing.install(tracer)
        try:
            traced = _passes(ops, budget, lambda op: tally.run(
                lambda argv: tracer.call("cli.main", cli.main, argv), op))
        finally:
            restore()
        metrics = _layer_metrics(tracer, traced, untraced, len(unmeasured))
        record["samples"]["traced_op_s"] = traced
        record["unmeasured_hooks"] = unmeasured
        record["spans"] = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
    else:
        metrics = {
            "wall_s": {"value": _fastest_pass(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    if digests != known:
        _write_json(store, digests)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record.update(
        pass_s=_pass_stats([sum(p) for p in untraced]),
        failed_ops=tally.failed / tally.attempted,
        failures=tally.failures,
        result=result,
    )
    path = os.path.join(OUT_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    _write_json(path, record)

    _print_summary(record, metrics, tally, path)
    print(json.dumps(result))
    return 0


def _pass_stats(samples: list[float]) -> dict:
    """Median pass time, and the highest percentile with at least ten samples
    beyond it (none below 11 samples)."""
    n = len(samples)
    stats = {"samples": n, "median": statistics.median(samples), "percentile": None, "value": None}
    if n >= 11:
        stats.update(percentile=100.0 * (n - 10) / n, value=sorted(samples)[n - 11])
    return stats


# Per-layer metrics that are one span's self time or call count per traced pass.
SPAN_METRICS = {
    "reconstruct.fit_s": "reconstruct.fit",
    "reconstruct.optimizer_self_s": "reconstruct.minimize",
    "reconstruct.predict_s": "reconstruct.predict",
    "reconstruct.predict_calls": "reconstruct.predict",
    "measures.osee_series_s": "measures.osee_series",
    "measures.ee_series_s": "measures.ee_series",
    "measures.nm_ee_s": "measures.nm_ee",
    "measures.nm_ee_calls": "measures.nm_ee",
    "process_tensor.build_s": "process_tensor.build",
    "process_tensor.build_calls": "process_tensor.build",
    "process_tensor.norm_sq_s": "process_tensor.norm_sq",
    "models.xx_chain_model_s": "models.xx_chain_model",
    "models.uqdm_memory_series_s": "models.uqdm_memory_series",
    "models.uqdm_overlaps_s": "models.uqdm_overlaps",
    "models.uqdm_env_entropy_s": "models.uqdm_env_entropy",
    "models.uqdm_env_entropy_calls": "models.uqdm_env_entropy",
    "tensorops.entropy_s": "tensorops.entropy",
    "tensorops.entropy_calls": "tensorops.entropy",
    "io.write_s": "io.write",
}


def _layer_metrics(tracer, traced: list[list[float]], untraced: list[list[float]], unmeasured: int) -> dict:
    """Per-layer metrics: totals per traced pass, means per call, and ratios."""
    duration, self_time, calls = tracer.totals()
    n = len(traced)
    m: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = {"value": value, "unit": unit}

    def matching(table, prefix: str, suffix: str = "") -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix) and k.endswith(suffix))

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, value in self_time.items():
        layer = name.split(".")[0]
        layer_self[layer if layer in layer_self else "cli"] += value
    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self[layer] / n, "s")
    for metric, span in SPAN_METRICS.items():
        if metric.endswith("_calls"):
            put(metric, calls.get(span, 0) / n, "count")
        else:
            put(metric, self_time.get(span, 0.0) / n, "s")

    put("reconstruct.objective_s", matching(self_time, "reconstruct.objective") / n, "s")
    put("reconstruct.objective_calls", matching(calls, "reconstruct.objective") / n, "count")
    for k in SCHEDULE_K:
        span = f"reconstruct.objective.k{k}"
        put(f"reconstruct.objective_ms.k{k}",
            1e3 * duration[span] / calls[span] if calls.get(span) else 0.0, "ms")
    iterations = tracer.counts.get("reconstruct.iterations", 0)
    put("reconstruct.iterations", iterations / n, "count")
    put("reconstruct.ms_per_iteration",
        1e3 * duration.get("reconstruct.minimize", 0.0) / iterations if iterations else 0.0, "ms")
    put("reconstruct.final_loss", tracer.maxima.get("reconstruct.final_loss", 0.0), "1")
    put("measures.series_calls", matching(calls, "measures.", "_series") / n, "count")
    put("io.files_written", tracer.counts.get("io.files_written", 0) / n, "count")
    put("io.bytes_written", tracer.counts.get("io.bytes_written", 0) / n, "B")

    put("trace.wall_s", _fastest_pass(traced), "s")
    put("trace.overhead_s", _fastest_pass(traced) - _fastest_pass(untraced), "s")
    put("trace.accounted_share", sum(layer_self.values()) / sum(map(sum, traced)), "1")
    put("trace.unmeasured_hooks", unmeasured, "count")
    return m


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def _environment(source: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_revision": _git_revision(),
        "source_sha256": source,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    """HEAD of the checkout's own ``.git``, if it has one (no git subprocess)."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over the package sources: the code identity when git is absent."""
    h = hashlib.sha256()
    root = os.path.join("src", "ptnm")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()


def _load_json(path: str, default):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return default


def _write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1)
    os.replace(tmp, path)


def _print_summary(record: dict, metrics: dict, tally: Tally, path: str) -> None:
    env = record["environment"]
    samples = record["samples"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"threads {THREADS}  nproc {env['nproc']}  numpy {env['numpy']}  scipy {env['scipy']}")
    print(f"  passes: {len(samples['untraced_op_s'])} untraced"
          + (f", {len(samples['traced_op_s'])} traced" if "traced_op_s" in samples else "")
          + f"; setup samples: {len(samples['setup_s'])}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    stats = record["pass_s"]
    tail = "needs 11 passes" if stats["value"] is None else f"p{stats['percentile']:.0f} {stats['value']:.6g} s"
    print(f"  untraced pass time: median {stats['median']:.6g} s, {tail}, {stats['samples']} passes")
    print(f"  failed_ops                       {record['failed_ops']:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for failure in tally.failures[:10]:
        print(f"    {failure}")
    if "unmeasured_hooks" in record:
        print(f"  unmeasured hooks: {', '.join(record['unmeasured_hooks']) or 'none'}")
    print(f"  record: {path}")


# ---------------------------------------------------------------------------
# Every workload in one command
# ---------------------------------------------------------------------------


def _run_all(args) -> int:
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            status = 1
        rows.append((name, result))
    print()
    print(f"{'workload':14s} {'metric':32s} {'value':>12s} unit")
    for name, result in rows:
        for metric, entry in result["metrics"].items():
            print(f"{name:14s} {metric:32s} {entry['value']:12.6g} {entry['unit']}")
        print(f"{name:14s} {'failed_ops':32s} {result['failed'] / result['attempted']:12.6g} "
              f"share ({result['failed']} of {result['attempted']}; correct={result['correct']})")
    return status


if __name__ == "__main__":
    sys.exit(main())
