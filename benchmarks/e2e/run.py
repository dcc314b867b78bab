"""End-to-end benchmark of the UniLoc reproduction.

    python3 benchmarks/e2e/run.py --workload indoor-walker --seed 0 --seconds 12 --trace 0

Runs one workload (see ``workloads.py`` and README.md) in a fresh
subprocess with ``PYTHONHASHSEED=0`` and, where ``setarch -R`` works,
ASLR disabled.  Prints every metric as ``name value unit n=<samples>``,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The traced run also writes its spans as JSONL.

A run is correct when every pass reproduces the first timed pass step
for step and, for seeds listed in ``expected.json``, the committed
digest.  An incorrect run still prints its result, then exits 1.

``--write-expected`` regenerates ``expected.json`` instead.  The first
run in a checkout builds the artifact cache under ``.bench_e2e/`` and
records how long that took.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
WORK_DIR = ROOT / ".bench_e2e"
CACHE_DIR = WORK_DIR / "cache"
#: Named by ``workloads.CACHE_BUILD_RECORD``.
CACHE_BUILD_RECORD = WORK_DIR / "cache-build.json"
EXPECTED_PATH = BENCH_DIR / "expected.json"
EXPECTED_SEEDS = range(10)
WORKLOAD_NAMES = ("indoor-walker", "outdoor-walker", "fleet-population", "fleet-chaos")
#: The measured process is killed after this long, so the run always ends
#: within the 180 s a run may take.
CHILD_TIMEOUT_S = 170.0
CACHE_BUILD_TIMEOUT_S = 800.0


class BenchError(RuntimeError):
    """The measured process failed; no result can be reported."""


def load_benchmark() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.cache
def _aslr_prefix() -> list[str]:
    """``["setarch", "-R"]`` when it can disable ASLR here, else ``[]``."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    probe = subprocess.run([setarch, "-R", "true"], capture_output=True)
    return [setarch, "-R"] if probe.returncode == 0 else []


def _child(task: str, spec: dict[str, Any], out: Path, timeout_s: float) -> None:
    """Run one ``workloads.py`` task in a fresh, pinned-down interpreter."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")  # the checkout's code and nothing else
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        *_aslr_prefix(),
        sys.executable,
        str(BENCH_DIR / "workloads.py"),
        task,
        "--spec",
        json.dumps(spec),
        "--out",
        str(out),
    ]
    try:
        # The child's stdout goes to fd 2: this process's stdout carries
        # only the metrics.
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=2, timeout=timeout_s)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{task} did not finish within {timeout_s:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{task} exited with code {proc.returncode}")


def ensure_cache() -> None:
    """Build the artifact cache once per checkout (atomically), recording
    its build time for the traced run."""
    if CACHE_DIR.is_dir() and CACHE_BUILD_RECORD.exists():
        return
    WORK_DIR.mkdir(exist_ok=True)
    staging = WORK_DIR / "cache.building"
    for stale in (staging, CACHE_DIR):
        shutil.rmtree(stale, ignore_errors=True)
    _child("build-cache", {"root": str(staging)}, CACHE_BUILD_RECORD, CACHE_BUILD_TIMEOUT_S)
    staging.rename(CACHE_DIR)


def _git_revision() -> str:
    """HEAD's commit, read from ``.git`` without running git ("unknown" outside a clone)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def load_expected() -> dict[str, dict[str, str]]:
    """Workload -> seed -> the digest its full-size run must reproduce."""
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())["digests"]


def verify(record: dict[str, Any], expected: dict[str, dict[str, str]]) -> list[str]:
    """Return the reasons a run's outputs are wrong (empty when correct)."""
    problems = []
    digest = record["digest"]
    want = expected.get(record["workload"], {}).get(str(record["seed"]))
    if want is not None and digest != want:
        problems.append(f"digest {digest[:16]} differs from expected.json {want[:16]}")
    replays = [d for d in record["replay_digests"] if d != digest]
    if replays:
        problems.append(f"{len(replays)} pass(es) did not reproduce the first timed pass")
    if record["failed"]:
        problems.append(f"{record['failed']} walker-steps raised or diverged")
    return problems


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    sizes: dict[str, Any] | None = None,
    out: Path | None = None,
) -> int:
    """Run one workload, print its metrics and result line; returns the exit code.

    ``sizes`` (``max_length``, ``n_lanes``, ``min_passes``) shrinks the
    workload for tests; the command line always runs the full size.
    """
    benchmark = load_benchmark()
    declared = benchmark["per_layer" if trace else "end_to_end"]
    ensure_cache()
    started = time.perf_counter()
    result_path = WORK_DIR / f"result-{os.getpid()}.json"
    spec = {
        "name": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cache_root": str(CACHE_DIR),
        "work_dir": str(WORK_DIR),
        **(sizes or {}),
    }
    aslr = "disabled (setarch -R)" if _aslr_prefix() else "enabled"
    try:
        _child("run", spec, result_path, CHILD_TIMEOUT_S)
        record = json.loads(result_path.read_text())
    finally:
        result_path.unlink(missing_ok=True)
    record["wall_s"] = time.perf_counter() - started
    record["stamp"].update(
        git_revision=_git_revision(),
        host=platform.node(),
        machine=platform.machine(),
        nproc=os.cpu_count(),
        aslr=aslr,
    )
    problems = verify(record, load_expected())
    metrics = record["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    for name, spec_ in metrics.items():
        print(f"{name} {spec_['value']:.6g} {spec_['unit']} n={spec_['n']}")
    failed_frac = record["failed"] / record["attempted"]
    print(f"ops_failed_frac {failed_frac:.6g} ratio n={record['attempted']}")
    for key, value in record["stamp"].items():
        print(f"# {key}: {value}")
    if record["trace_path"]:
        print(f"# spans: {record['trace_path']}")
    for problem in problems:
        print(f"# INCORRECT: {problem}")
    record["correct"] = not problems
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n")
    line = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(line))
    return 0 if record["correct"] else 1


def write_expected(workloads: list[str], seeds: range) -> None:
    """Regenerate ``expected.json``: one reference digest per workload and seed."""
    ensure_cache()
    digests = load_expected()
    result_path = WORK_DIR / f"digest-{os.getpid()}.json"
    try:
        for workload in workloads:
            for seed in seeds:
                spec = {
                    "name": workload,
                    "seed": seed,
                    "cache_root": str(CACHE_DIR),
                    "work_dir": str(WORK_DIR),
                }
                _child("digest", spec, result_path, CHILD_TIMEOUT_S)
                digests.setdefault(workload, {})[str(seed)] = json.loads(result_path.read_text())
                print(f"{workload} seed {seed}: {digests[workload][str(seed)]}")
    finally:
        result_path.unlink(missing_ok=True)
    payload = {
        "about": "sha256 over each step's repr of (uniloc1, uniloc2, selected); "
        "see workloads.step_repr",
        "digests": digests,
    }
    EXPECTED_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full run record here")
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help=f"regenerate expected.json for seeds {EXPECTED_SEEDS.start}-{EXPECTED_SEEDS.stop - 1}",
    )
    args = parser.parse_args(argv)
    try:
        if args.write_expected:
            workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
            write_expected(workloads, EXPECTED_SEEDS)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
        return run(args.workload, args.seed, seconds, bool(args.trace), out=args.out)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
