"""Seeded end-to-end and per-layer benchmark of the densityball CLI.

Usage, from the root of a source checkout::

    python3 perfbench/run.py                       # every workload, one fresh process each
    python3 perfbench/run.py --workload ball-hist --seed 3 --seconds 15 --trace 0

A workload run is a closed loop with one client: after set-up (imports, the
warm-up op's input and one untimed warm-up op) it runs ops back to back for
``--seconds``, each through ``densityball.cli.main(argv)`` in this process and
each on its own seeded input, and checks every output.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs half the time untraced and half with
spans around the calls into each module, and reports the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  The last line of stdout
is one JSON object; the full results go to ``.perfbench-out/BENCH_*.json``.

The program is imported from ``src/`` next to this directory and nowhere else,
so the script fails when that source tree is missing.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, op_seed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 3  # set-ups per untraced run: this process plus fresh probe processes
PROCESS_TIMEOUT_S = 170


def import_program():
    """Import densityball from ``src/`` of this checkout, or exit non-zero."""
    if not (SRC / "densityball" / "__init__.py").is_file():
        sys.exit(f"perfbench: no densityball sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import densityball.cli

    if Path(densityball.__file__).resolve().parent != SRC / "densityball":
        sys.exit(f"perfbench: densityball was imported from {densityball.__file__}, not {SRC}")
    return densityball.cli


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _blas_threads():
    """Thread count of the loaded OpenBLAS, asked from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": threads,
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }


def run_op(cli, workload, op, tracer=None) -> dict:
    """Run one op, check its output; the record says whether it failed and why."""
    if tracer is not None:
        tracer.op = op.index
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        code = cli.main(op.argv)
        errors = [] if code == 0 else [f"exit code {code}"]
    except (Exception, SystemExit):
        errors = ["raised: " + traceback.format_exc(limit=3)]
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if tracer is not None:
        tracer.op = None
    output, sample = b"", None
    if not errors:
        output = op.out_path.read_bytes()
        errors, sample = workload.check(op, output)
    return {"op": op.index, "seed": op.seed, "sizes": workload.sizes(), "wall_s": wall, "cpu_s": cpu,
            "bytes_out": len(output), "ok": not errors, "errors": errors[:3],
            "_output": output, "_sample": sample}


def timed_phase(cli, workload, seed, seconds, work, first_index, tracer=None):
    records, index = [], first_index
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        op = workload.prepare(index, op_seed(seed, index), work)
        records.append(run_op(cli, workload, op, tracer))
        if index > 1:
            del records[-1]["_output"]  # only op 1 is replayed; keep RSS free of old outputs
        index += 1
    return records, time.perf_counter() - start


def setup_probe(workload_name: str, seed: int) -> float:
    """Set-up time of a fresh process, measured by that process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(cli, workload, seed: int, seconds: float, trace: bool, setup_samples: int, spec: dict,
                 t0: float = T0, out_dir: Path = OUT) -> dict:
    """One workload run: set-up, timed ops, checks; returns the results document."""
    work = out_dir / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        warm = run_op(cli, workload, workload.prepare(0, op_seed(seed, 0), work))
        setup = [time.perf_counter() - t0]
        if not warm["ok"]:
            problems.append(f"warm-up op failed: {warm['errors']}")
        if trace:
            records, elapsed = timed_phase(cli, workload, seed, seconds / 2, work, 1)
            tracer = spans.Tracer()
            with spans.installed(tracer):
                traced, _ = timed_phase(cli, workload, seed, seconds / 2, work, 1 + len(records), tracer)
        else:
            records, elapsed = timed_phase(cli, workload, seed, seconds, work, 1)
            traced = []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = records + traced
        # The same input and seed must give identical bytes.
        first = ops[0]
        replay = run_op(cli, workload, workload.prepare(first["op"], first["seed"], work))
        if first["ok"] and replay["_output"] != first["_output"]:
            first["ok"] = False
            first["errors"].append("replaying the op gave different output bytes")
        samples = [r["_sample"] for r in ops if r["ok"]]
        pooled = workload.check_pooled(samples) if samples else []
        if pooled:
            for r in ops:
                if r["ok"]:
                    r["ok"] = False
                    r["errors"].append("pooled band failed")
            problems.extend(pooled)
        for _ in range(0 if trace else setup_samples - 1):
            try:
                setup.append(setup_probe(workload.name, seed))
            except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError, IndexError) as exc:
                problems.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r["ok"] for r in ops)
    walls = [r["wall_s"] for r in records]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(walls),
        "ops_per_s": len(records) / elapsed,
        "cpu_per_op_s": statistics.median(r["cpu_s"] for r in records),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": failed / len(ops),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["error_rate"] = "ratio"
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        overhead = statistics.median(r["wall_s"] for r in traced) / metrics["op_p50_s"] - 1.0
        ball_entries = workload.n * workload.top_dim if hasattr(workload, "top_dim") else None
        metrics.update(spans.layer_metrics(names, tracer, len(traced),
                                           statistics.mean(r["bytes_out"] for r in traced),
                                           ball_entries, overhead))
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"spans_{workload.name}_seed{seed}.json")
    reported = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "sizes": workload.sizes(),
        "op_count": len(ops),
        "untraced_op_count": len(records),
        "setup_samples_s": setup,
        "correct": failed == 0 and not problems and warm["ok"],
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "reported": [m["name"] for m in reported],
        "layer_map": spans.LAYER_MAP,
        "unmeasured": spans.UNMEASURED,
        "ops": [{k: v for k, v in r.items() if not k.startswith("_")} for r in [warm] + ops],
    }


def write_results(result: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{result['workload']}_seed{result['seed']}_trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return path


def driver_line(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in result["reported"]},
    }


def print_metrics(result: dict) -> None:
    ops = result["untraced_op_count"]
    for name, m in result["metrics"].items():
        note = f"  ({ops} ops)" if name == "op_p50_s" else ""
        print(f"{result['workload']:>13}  {name:<52} {m['value']:.6g} {m['unit']}{note}")
    for problem in result["problems"]:
        print(f"{result['workload']:>13}  problem: {problem}")


def run_all(args, spec) -> int:
    """Run every workload in its own fresh process and print every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, m in line["metrics"].items():
            combined["metrics"][f"{workload['name']}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (default: run all, one process each)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None, help="timed phase length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up in this fresh process and exit")
    args = parser.parse_args(argv)
    cli = import_program()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        work = OUT / "work" / f"probe-{workload.name}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            warm = run_op(cli, workload, workload.prepare(0, op_seed(args.seed, 0), work))
            setup_s = time.perf_counter() - T0
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if not warm["ok"]:
            sys.exit(f"perfbench: warm-up op failed: {warm['errors']}")
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = run_workload(cli, workload, args.seed, args.seconds, bool(args.trace), SETUP_SAMPLES, spec)
    path = write_results(result, OUT)
    print_metrics(result)
    print(f"results: {path}")
    print(json.dumps(driver_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
