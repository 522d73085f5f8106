"""The program process of one benchmark run.

Started by run.py with the BLAS/OpenMP thread variables forced to 1 and
`src` on PYTHONPATH.  It sees only the generated inputs in --inputs:
artifacts and descriptors plus jobs.json.  It prints nothing to stdout
except "ready" with --setup-only; everything else goes to the --out JSON.

Untraced: set up, then run passes over the job list with workers = 1, 2,
2, 1, 1, 2, ... while another pass fits in --seconds, then fill what is
left with executions of the longest job that is the same in every pass.
Traced: one untraced workers=1 pass (the overhead base), one traced
workers=1 pass (the layer metrics) and one traced workers=2 pass (CPU use,
and a second copy of every count for the determinism check).
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Workload:
    def __init__(self, inputs: Path):
        """Set-up: imports, field tables, input artifacts.  Timed as setup_s."""
        import numpy  # noqa: F401  (part of set-up cost)
        from varcodes import cli, codes, gf

        self.cli, self.codes = cli, codes
        self.inputs = inputs
        spec = json.loads((inputs / "jobs.json").read_text(encoding="utf-8"))
        self.jobs = spec["jobs"]
        for q in spec.get("fields", []):
            gf.GF.from_order(q)
        self.artifacts = {}
        for job in self.jobs:
            name = job.get("artifact")
            if name and name not in self.artifacts:
                self.artifacts[name] = json.loads((inputs / name).read_text(encoding="utf-8"))
                codes.LinearCode.from_dict(self.artifacts[name])

    def run_job(self, job: dict, workers: int, tmp: str) -> dict:
        codes = self.codes
        rec = {"id": job["id"]}
        t0 = time.perf_counter()
        try:
            if job["kind"] == "cli":
                argv = [
                    a.replace("{in}", str(self.inputs)).replace("{tmp}", tmp) for a in job["argv"]
                ]
                if job.get("workers"):
                    argv += ["--workers", str(workers)]
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    rec["exit"] = self.cli.main(argv)
                text = out.getvalue().encode("utf-8")
                rec["stdout_bytes"] = len(text)
                rec["sha256"] = hashlib.sha256(text).hexdigest()
                if job.get("parse"):
                    rec["stdout"] = text.decode("utf-8")
            else:
                # A fresh object per job: d and wdist are memoized on the code.
                code = codes.LinearCode.from_dict(self.artifacts[job["artifact"]])
                if job["kind"] == "d":
                    value = codes.min_distance(code, workers=workers)
                elif job["kind"] == "wdist":
                    value = codes.weight_distribution(code, workers=workers).to_dict()
                else:
                    value = codes.ghw(code, job["r"], workers=workers)
                rec["exit"] = 0
                rec["value"] = value
                rec["sha256"] = hashlib.sha256(
                    json.dumps(value, sort_keys=True).encode("utf-8")
                ).hexdigest()
        except Exception as exc:  # a failed job is recorded, the run goes on
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["seconds"] = time.perf_counter() - t0
        return rec

    def run_pass(self, workers: int, scratch: Path) -> dict:
        tmp = tempfile.mkdtemp(dir=scratch)
        try:
            gc.collect()
            cpu0, t0 = time.process_time(), time.perf_counter()
            jobs = [self.run_job(job, workers, tmp) for job in self.jobs]
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            written = sum(p.stat().st_size for p in Path(tmp).iterdir())
        finally:
            shutil.rmtree(tmp)
        return {
            "workers": workers,
            "wall_s": wall,
            "cpu_s": cpu,
            "artifact_bytes": written,
            "jobs": jobs,
        }

    def fill(self, passes: list[dict], seconds: float, scratch: Path) -> dict | None:
        """More executions of the longest job that runs the same in every
        pass, while another fits in `seconds`; None when none fits.

        Such a job takes no --workers and does not read the per-pass
        directory.  On cli_build it is the compare job, most of every pass,
        which otherwise fits only about three times in a run.
        """
        same = [
            job
            for job in self.jobs
            if job["kind"] == "cli"
            and not job.get("workers")
            and not any("{tmp}" in a for a in job["argv"])
        ]
        if not same:
            return None
        mean = {
            job["id"]: statistics.fmean(
                rec["seconds"] for p in passes for rec in p["jobs"] if rec["id"] == job["id"]
            )
            for job in same
        }
        job = max(same, key=lambda j: mean[j["id"]])
        tmp = tempfile.mkdtemp(dir=scratch)
        jobs = []
        t0 = time.perf_counter()
        try:
            while time.perf_counter() - t0 + mean[job["id"]] <= seconds:
                jobs.append(self.run_job(job, 1, tmp))
        finally:
            shutil.rmtree(tmp)
        if not jobs:
            return None
        wall = time.perf_counter() - t0
        return {"workers": None, "wall_s": wall, "cpu_s": None, "artifact_bytes": 0, "jobs": jobs}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    if args.setup_only:
        Workload(args.inputs)
        print("ready", flush=True)
        return 0

    from tracing import Tracer, installed, layer_metrics

    scratch = args.out.parent

    traced = [Tracer() for _ in range(3)] if args.trace else []
    with installed(traced[0]) if traced else nullcontext():
        work = Workload(args.inputs)
    result = {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    if not traced:
        passes = []
        t_start = time.perf_counter()
        # 1, 2, 2, 1, 1, 2, ...: drifts hit both sides alike.
        while len(passes) < 2 or elapsed * (len(passes) + 1) / len(passes) <= args.seconds:
            workers = 1 + (len(passes) + 1) // 2 % 2
            passes.append(work.run_pass(workers, scratch))
            if len(passes) == 1:
                result["rss_first_pass_mb"] = max_rss_mb()
            elapsed = time.perf_counter() - t_start
        extra = work.fill(passes, args.seconds - elapsed, scratch)
        if extra:
            passes.append(extra)
    else:
        passes = [work.run_pass(1, scratch)]
        for tracer, workers in zip(traced[1:], (1, 2)):
            with installed(tracer):
                passes.append(work.run_pass(workers, scratch))
        for tracer, p in zip(traced[1:], passes[1:]):
            tracer.add("codes.artifact_bytes", p["artifact_bytes"])
            tracer.add("cli.stdout_bytes", sum(j.get("stdout_bytes", 0) for j in p["jobs"]))
        metrics = layer_metrics(traced[:2])
        metrics["codes.artifact_bytes"] = traced[1].counts["codes.artifact_bytes"]
        metrics["cli.stdout_bytes"] = traced[1].counts["cli.stdout_bytes"]
        metrics["proc.cpu_s"] = passes[2]["cpu_s"]
        metrics["proc.cpu_per_wall"] = passes[2]["cpu_s"] / passes[2]["wall_s"]
        metrics["trace.overhead_frac"] = passes[1]["wall_s"] / passes[0]["wall_s"] - 1
        result["layers"] = metrics
        result["counts"] = [traced[1].summary(), traced[2].summary()]
        trace_path = args.out.with_suffix(".trace.jsonl.gz")
        t0 = traced[0].start[0] if len(traced[0].start) else 0
        with gzip.open(trace_path, "wt", encoding="utf-8", compresslevel=1) as fh:
            traced[0].write_jsonl(fh, "setup", t0)
            traced[1].write_jsonl(fh, "pass", t0)
        result["trace_file"] = str(trace_path)
    result["passes"] = passes
    result["rss_all_passes_mb"] = max_rss_mb()
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
