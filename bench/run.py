"""varcodes benchmark: one workload per run, one JSON result line at the end.

    python3 bench/run.py --workload codewords --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 42 --trace 0

Generates the seeded inputs (inputs.py), times set-up in fresh processes,
runs the workload process (workload.py) with BLAS/OpenMP threads forced to
1, checks every job (checks.py) and prints the metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from workload import THREAD_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("codewords", "subspaces", "cli_build")
# Half are taken before the workload process and half after it, so that
# setup_s sees the host's speed at two moments ~40 s apart.
SETUP_SAMPLES = 10
# Each run must end within 180 s; the workload process gets what is left.
RUN_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    return env


def run_child(argv: list[str], stdout=subprocess.DEVNULL) -> subprocess.Popen:
    """Start a workload process; the caller waits for it via wait_child."""
    return subprocess.Popen(
        [sys.executable, str(BENCH / "workload.py"), *argv],
        env=child_env(),
        cwd=ROOT,
        stdout=stdout,
        stdin=subprocess.DEVNULL,
    )


def wait_child(proc: subprocess.Popen, deadline: float) -> None:
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process ran out of time") from None
    if rc != 0:
        raise BenchError(f"workload process exited with {rc}")


def setup_seconds(inputs_dir: Path, deadline: float, count: int) -> list[float]:
    """Time from spawning a fresh process to its first job being ready."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = run_child(["--inputs", str(inputs_dir), "--setup-only"], subprocess.PIPE)
        try:
            wait_s = max(0.0, deadline - time.monotonic())
            ready, _, _ = select.select([proc.stdout], [], [], wait_s)
            line = proc.stdout.readline() if ready else b""
            samples.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            wait_child(proc, deadline)
        if line.strip() != b"ready":
            raise BenchError("set-up process did not report ready")
    return samples


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def grade(
    workload: str, spec: dict, inputs_dir: Path, passes: list[dict]
) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every job execution of every pass."""
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))[workload]
    jobs = {job["id"]: job for job in spec["jobs"]}
    infos = {}
    for job in spec["jobs"]:
        if "artifact" in job and job["artifact"] not in infos:
            art = json.loads((inputs_dir / job["artifact"]).read_text(encoding="utf-8"))
            infos[job["artifact"]] = checks.code_info(art)
    attempted = failed = 0
    problems = []
    outcomes: dict[str, set] = {}
    for p in passes:
        hierarchies: dict[str, dict[int, int]] = {}
        for rec in p["jobs"]:
            job = jobs[rec["id"]]
            info = infos.get(job.get("artifact"))
            found = checks.job_problems(job, rec, expected[rec["id"]], info)
            if job["kind"] == "ghw" and "value" in rec:
                hierarchies.setdefault(job["artifact"], {})[job["r"]] = rec["value"]
            attempted += 1
            failed += bool(found)
            problems += [f"{rec['id']} (workers={p['workers']}): {msg}" for msg in found]
            outcome = (rec.get("exit"), rec.get("sha256"), rec.get("error"))
            outcomes.setdefault(rec["id"], set()).add(outcome)
        for name, values in hierarchies.items():
            found = checks.hierarchy_problems(values)
            failed += bool(found)
            problems += [f"ghw hierarchy of {name}: {msg}" for msg in found]
    for job_id, seen in outcomes.items():
        if len(seen) > 1:
            problems.append(
                f"DETERMINISM: {job_id} differs between passes: {sorted(map(str, seen))}"
            )
    return attempted, failed, problems


def pass_estimate(spec: dict, passes: list[dict], workers: int) -> float:
    """Wall time of one pass at `workers`: the sum over jobs of the job's
    mean duration over every execution with the same arguments.

    A job that takes no --workers (CLI jobs without "workers") runs
    identically in every pass, so all of its executions count, whatever
    the pass's workers.  The mean uses every second the run measured: on a
    shared host a job's time drifts by +-20% from one execution to the
    next, and cli_build's 6-arc search fits only about three times in a
    run, too few for a median to settle.
    """
    total = 0.0
    for job in spec["jobs"]:
        fixed = job["kind"] == "cli" and not job.get("workers")
        times = [
            rec["seconds"]
            for p in passes
            if fixed or p["workers"] == workers
            for rec in p["jobs"]
            if rec["id"] == job["id"]
        ]
        total += statistics.fmean(times)
    return total


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    load_before = os.getloadavg()
    work = OUT / f"run-{workload}-{seed}-{os.getpid()}"
    inputs_dir = work / "inputs"
    try:
        spec = inputs.make_inputs(workload, seed, inputs_dir)
        (inputs_dir / "jobs.json").write_text(json.dumps(spec), encoding="utf-8")
        setup = [] if trace else setup_seconds(inputs_dir, deadline, SETUP_SAMPLES // 2)
        out = work / "result.json"
        argv = ["--inputs", str(inputs_dir), "--seconds", str(seconds)]
        argv += ["--trace", str(trace), "--out", str(out)]
        wait_child(run_child(argv), deadline)
        if not trace:
            setup += setup_seconds(inputs_dir, deadline, SETUP_SAMPLES - len(setup))
        result = json.loads(out.read_text(encoding="utf-8"))
        attempted, failed, problems = grade(workload, spec, inputs_dir, result["passes"])
        if trace:
            shutil.move(result["trace_file"], OUT / f"{workload}.trace.jsonl.gz")
            if result["counts"][0] != result["counts"][1]:
                problems.append(
                    "DETERMINISM: layer counts differ between the traced workers=1 and "
                    "workers=2 passes"
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = {w: [p["wall_s"] for p in result["passes"] if p["workers"] == w] for w in (1, 2)}
    if trace:
        values, kind = result["layers"], "per_layer"
    else:
        values, kind = {
            "setup_s": statistics.median(setup),
            "wall_s": pass_estimate(spec, result["passes"], 1),
            "wall_2w_s": pass_estimate(spec, result["passes"], 2),
            # The peak after set-up and the first workers=1 pass: the
            # workers=2 peak depends on how the two threads' block buffers
            # happen to overlap in time, so it goes to the provenance only.
            "peak_rss_mb": result["rss_first_pass_mb"],
        }, "end_to_end"
    spec_metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    provenance = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": result["python"],
        "numpy": result["numpy"],
        "thread_env": result["thread_env"],
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "git_commit": git_commit(),
        "setup_samples_s": setup,
        "peak_rss_all_passes_mb": result["rss_all_passes_mb"],
        "pass_walls_s": walls,
        "failed_frac": failed / attempted,
        "problems": problems,
        "run_s": time.monotonic() - t_begin,
    }
    record = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.joinpath(f"{workload}.result.json").write_text(
        json.dumps({**record, "provenance": provenance, "passes": result["passes"]}, indent=1),
        encoding="utf-8",
    )
    return {"record": record, "provenance": provenance}


def main() -> int:
    ap = argparse.ArgumentParser(description="varcodes benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=42)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "varcodes" / "__init__.py").is_file():
        print(f"error: no varcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    try:
        for name in names:
            runs[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, run in runs.items():
        prov = run["provenance"]
        for msg in prov["problems"]:
            print(f"{name}: {msg}", file=sys.stderr)
        for metric, m in run["record"]["metrics"].items():
            print(f"{name:10s} {metric:30s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
        print(f"{name:10s} {'failed_frac':30s} {prov['failed_frac']:>14.6g} ratio", file=sys.stderr)
        print(json.dumps({"provenance": prov}, sort_keys=True))
    if len(runs) == 1:
        record = next(iter(runs.values()))["record"]
    else:
        record = {
            "correct": all(r["record"]["correct"] for r in runs.values()),
            "attempted": sum(r["record"]["attempted"] for r in runs.values()),
            "failed": sum(r["record"]["failed"] for r in runs.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, r in runs.items()
                for metric, m in {
                    **r["record"]["metrics"],
                    "failed_frac": {"value": r["provenance"]["failed_frac"], "unit": "ratio"},
                }.items()
            },
        }
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
