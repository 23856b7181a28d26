"""wva-sense benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload angle_dense --seed 1234 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, tracing off

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` the run prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run (see bench/README.md). Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Exit code 2 means the
checkout is unusable, 1 that a pass could not be verified at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
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
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden.json"
WORK = Path(".bench_work")
WORKLOAD_NAMES = ("angle_dense", "quickstart", "fine_grid")
GOLDEN_SEED = 1234  # the osa.seed of configs/bench.json
SETUP_REPEATS = 15

# Fresh-interpreter set-up: import the package and its CLI, parse the configs.
_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import wva_sense, wva_sense.cli
from wva_sense.config import load_scenario
for path in sys.argv[2:]:
    load_scenario(path)
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "points/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class PassResult:
    wall_s: float
    latencies: list[float]
    values: dict[str, object]
    failures: dict[str, str]  # op name -> reason
    problems: dict[str, list[str]] = field(default_factory=dict)  # verification
    digests: dict[str, object] = field(default_factory=dict)


def _fail(msg: str, code: int = 2) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def _thread_env() -> None:
    # One thread per library so a small shared machine measures the program, not
    # the scheduler; must be set before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _check_checkout() -> None:
    src = ROOT / "src" / "wva_sense"
    for need in (src / "__init__.py", src / "cli.py", ROOT / "configs" / "bench.json",
                 ROOT / "configs" / "bench_sidelobe.json"):
        if not need.is_file():
            _fail(f"not a wva-sense checkout: {need.relative_to(ROOT)} is missing")


def _import_package() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import wva_sense

    if Path(wva_sense.__file__).resolve().parent != (ROOT / "src" / "wva_sense").resolve():
        _fail(f"imported wva_sense from {wva_sense.__file__}, not this checkout")


# ---------------------------------------------------------------------------
# Running and verifying passes
# ---------------------------------------------------------------------------


def run_pass(wl) -> PassResult:
    """Run the workload's operations once, timing each; outputs are kept on disk.

    Output directories are emptied first, so a file that a pass fails to
    write cannot be verified from an earlier pass.
    """
    for op in wl.ops:
        if op.out is not None:
            shutil.rmtree(op.out, ignore_errors=True)
    latencies, values, failures = [], {}, {}
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t_pass = time.perf_counter()
        for op in wl.ops:
            t0 = time.perf_counter()
            try:
                value = op.call()
            except Exception:  # an operation that raises counts as failed
                value, failures[op.name] = None, traceback.format_exc(limit=3)
            latencies.append(time.perf_counter() - t0)
            values[op.name] = value
            if op.expect_code is not None and op.name not in failures \
                    and value != op.expect_code:
                failures[op.name] = f"exit code {value}, expected {op.expect_code}"
        wall = time.perf_counter() - t_pass
    return PassResult(wall, latencies, values, failures)


def _files_only(digest: dict[str, str]) -> dict[str, str]:
    return {k: v for k, v in digest.items() if k != "manifest.json"}


def verify_pass(wl, res: PassResult, reference: PassResult | None,
                golden: dict | None, seed: int) -> None:
    """Fill res.digests and res.problems (op name -> what failed verification)."""
    from workloads import manifest_problems, output_digest, value_digest

    problems: dict[str, list[str]] = {op.name: [] for op in wl.ops}
    for op in wl.ops:
        if op.name in res.failures:
            continue
        if op.out is not None:
            digest = output_digest(op.out)
            problems[op.name] += manifest_problems(op.out, digest)
        else:
            digest = value_digest(res.values[op.name])
        res.digests[op.name] = digest
    try:
        for name, found in wl.checks(res.values).items():
            if name not in res.failures:
                problems[name] += found
    except (OSError, KeyError, ValueError, AttributeError, TypeError) as exc:
        for op in wl.ops:
            if op.name not in res.failures:
                problems[op.name].append(f"science checks could not run: {exc!r}")
    for op in wl.ops:
        digest = res.digests.get(op.name)
        if digest is None:
            continue
        if reference is not None and digest != reference.digests.get(op.name):
            problems[op.name].append("outputs differ from the first pass of this run")
        if golden is None or op.name not in golden:
            continue
        want = golden[op.name]
        if seed == GOLDEN_SEED and digest != want:
            problems[op.name].append(f"outputs differ from golden seed-{GOLDEN_SEED} record")
        elif not op.seeded and seed != GOLDEN_SEED:
            # The manifest records the seed; the other files must not depend on it.
            if _files_only(digest) != _files_only(want):
                problems[op.name].append("seed-independent outputs differ from golden")
    res.problems = {k: v for k, v in problems.items() if v}


def _report_problems(res: PassResult, label: str) -> None:
    for name, reason in res.failures.items():
        print(f"FAILED {label} {name}: {reason.strip().splitlines()[-1]}", file=sys.stderr)
    for name, found in res.problems.items():
        for p in found:
            print(f"MISMATCH {label} {name}: {p}", file=sys.stderr)


def setup_sample(configs) -> float:
    """One fresh interpreter: seconds to import the package and parse the configs."""
    cmd = [sys.executable, "-I", "-c", _SETUP_CHILD, str(ROOT / "src"), *map(str, configs)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
    if done.returncode != 0:
        _fail(f"set-up child failed: {done.stderr.strip()}", 1)
    return float(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: float) -> float:
    xs = sorted(values)
    k = (len(xs) - 1) * pct / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wva_sense").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(wl, seed: int) -> dict:
    import numpy

    return {
        "workload": wl.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "n_points": wl.n_points,
        "array_bytes_real": wl.n_points * 8,
        "array_bytes_complex": wl.n_points * 16,
        "points_per_pass": wl.points_per_pass,
        "ops_per_pass": len(wl.ops),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def _metric_line(name: str, value, unit: str, note: str = "") -> str:
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"  {name:<28} {shown:>14} {unit:<12} {note}".rstrip()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 write_golden: bool, quick: bool) -> int:
    _thread_env()
    _check_checkout()
    os.chdir(ROOT)
    _import_package()
    # The benchmark's own modules import wva_sense, so they load only now.
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    work = WORK / name  # fixed: manifests record paths relative to the root
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[name](work, ROOT, seed)
        golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden = golden_all.get(name)
        if not (trace or write_golden):
            setup_sample(wl.configs)  # may compile bytecode, which users pay once

        first = run_pass(wl)  # warm-up; also the reference for later passes
        verify_pass(wl, first, None, None if write_golden else golden, seed)
        _report_problems(first, "warm-up")
        if write_golden:
            if first.failures or first.problems or seed != GOLDEN_SEED:
                _fail(f"golden needs a clean pass at seed {GOLDEN_SEED}", 1)
            golden_all[name] = first.digests
            GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")
            print(f"wrote golden digests for {name} to {GOLDEN.relative_to(ROOT)}")
            return 0

        passes = [first]
        if trace:
            body = _traced_runs(wl, first, golden, seed, seconds, passes, quick)
        else:
            body = _timed_runs(wl, first, golden, seed, seconds, passes, quick)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = len(wl.ops) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    mismatched = sum(len(p.problems) for p in passes)
    env = environment(wl, seed)
    env["passes"] = len(passes)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"n_points {wl.n_points}  points/pass {wl.points_per_pass}  ops/pass {len(wl.ops)}")
    for line in body["lines"]:
        print(line)
    print(_metric_line("fail_ratio", failed / attempted, "ratio", f"{failed}/{attempted} ops"))
    print(_metric_line("mismatch_ratio", mismatched / attempted, "ratio",
                       f"{mismatched}/{attempted} ops"))
    print("record " + json.dumps({**env, **body["record"]}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": body["metrics"],
    }))
    return 0


def _timed_runs(wl, first, golden, seed, seconds, passes, quick) -> dict:
    """Untraced passes for `seconds` and at least wl.min_ops operations
    (one pass when `quick`).

    The set-up samples are spread between the passes, not taken in one
    burst: the machine's speed drifts over seconds, and a burst would
    sample only one moment of it.
    """
    measured: list[PassResult] = []
    setup: list[float] = []
    n_setup = 1 if quick else SETUP_REPEATS
    expected_passes = max(1.0, seconds / first.wall_s)
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        last = measured[-1].wall_s if measured else first.wall_s
        n_ops = len(measured) * len(wl.ops)
        if measured and (quick or (n_ops >= wl.min_ops and elapsed + last > seconds)):
            break
        gc.collect()
        res = run_pass(wl)
        verify_pass(wl, res, first, golden, seed)
        _report_problems(res, f"pass {len(measured) + 1}")
        measured.append(res)
        due = math.ceil(n_setup * len(measured) / expected_passes)
        while len(setup) < min(n_setup, due):
            setup.append(setup_sample(wl.configs))
    while len(setup) < n_setup:
        setup.append(setup_sample(wl.configs))
    passes.extend(measured)

    lat = [x for p in measured for x in p.latencies]
    wall = statistics.median(p.wall_s for p in measured)
    tail_n = sum(1 for x in lat if x > percentile(lat, wl.tail_pct))
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "points_per_s": wl.points_per_pass / wall,
        "op_s.p50": percentile(lat, 50),
        "op_s.tail": percentile(lat, wl.tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_s": f"median of {len(measured)} passes",
        "points_per_s": f"{wl.points_per_pass} points/pass",
        "op_s.p50": f"n={len(lat)}",
        "op_s.tail": f"p{wl.tail_pct:g}, n={len(lat)}, {tail_n} beyond",
    }
    return {
        "lines": [_metric_line(k, v, END_TO_END_UNITS[k], notes.get(k, ""))
                  for k, v in values.items()],
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "record": {"measured_passes": len(measured), "op_samples": len(lat),
                   "tail_pct": wl.tail_pct, "setup_samples_s": setup,
                   "pass_walls_s": [p.wall_s for p in measured],
                   "op_latencies_s": {op.name: [p.latencies[i] for p in measured]
                                      for i, op in enumerate(wl.ops)}},
    }


def _traced_runs(wl, first, golden, seed, seconds, passes, quick) -> dict:
    """Alternate untraced and traced passes for `seconds` (one pair when
    `quick`); per-layer metrics come from the traced ones."""
    import spans as layer_trace

    tracer = layer_trace.Tracer()
    plain: list[PassResult] = []
    traced: list[tuple[PassResult, dict]] = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        pair = (plain[-1].wall_s + traced[-1][0].wall_s) if traced else 0.0
        if traced and (quick or elapsed + pair > seconds):
            break
        gc.collect()
        res = run_pass(wl)
        verify_pass(wl, res, first, golden, seed)
        _report_problems(res, f"untraced pass {len(plain) + 1}")
        plain.append(res)

        gc.collect()
        tracer.reset()
        uninstall = layer_trace.install(tracer)
        try:
            res = run_pass(wl)
        finally:
            uninstall()
        prof = layer_trace.profile(tracer, res.wall_s)
        tracer.reset()
        # Byte-identical outputs under tracing: compared with the first pass.
        verify_pass(wl, res, first, golden, seed)
        _report_problems(res, f"traced pass {len(traced) + 1}")
        traced.append((res, prof))
    passes.extend(plain)
    passes.extend(r for r, _ in traced)

    per_pass = [layer_trace.layer_metrics(prof, wl.points_per_pass) for _, prof in traced]
    names = list(per_pass[0])
    metrics, lines = {}, []
    for n in names:
        vals = [m[n][0] for m in per_pass]
        unit = per_pass[0][n][1]
        value = None if any(v is None for v in vals) else statistics.median(vals)
        metrics[n] = {"value": 0 if value is None else value, "unit": unit}
        lines.append(_metric_line(n, value, unit, "" if value is not None else "(not called)"))
    wall_t = statistics.median(r.wall_s for r, _ in traced)
    wall_u = statistics.median(r.wall_s for r in plain)
    extra = {"trace.wall_s": wall_t, "trace.untraced_wall_s": wall_u,
             "trace.overhead_s": wall_t - wall_u}
    for k, v in extra.items():
        metrics[k] = {"value": v, "unit": "s"}
        lines.append(_metric_line(k, v, "s"))
    # Self times plus unattributed time account for the traced wall time.
    prof = traced[len(traced) // 2][1]
    accounted = sum(prof["layer_self"].values()) + prof["unattributed_s"]
    lines.append(f"  accounting: sum(layer self_s) + unattributed = {accounted:.6f} s "
                 f"of traced wall {prof['wall_s']:.6f} s ({prof['n_spans']} spans)")
    return {"lines": lines, "metrics": metrics,
            "record": {"traced_passes": len(traced), "untraced_passes": len(plain)}}


# ---------------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.rstrip("\n").splitlines()
        for line in lines[:-1]:
            print(line)
        if done.returncode != 0 or not lines:
            code = code or done.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of the run (set-up and warm-up excluded)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"record the output digests at seed {GOLDEN_SEED} "
                        "into bench/golden.json instead of measuring")
    parser.add_argument("--quick", action="store_true",
                        help="one measured pass and one set-up sample (smoke test); "
                        "op_s.tail then has fewer than 10 samples beyond it")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        if args.write_golden:
            parser.error("--write-golden takes one workload")
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.write_golden, args.quick)


if __name__ == "__main__":
    sys.exit(main())
