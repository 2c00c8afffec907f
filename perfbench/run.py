"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {ingest,cold_read,serve_hot} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  Each worker (``worker.py``) is a
fresh interpreter that sets one workload up and measures it.
Untraced, a run has three parts, each a worker that measures the named
workload for a third of ``--seconds``; the samples of the parts are
pooled and ``setup_s`` is the median of their set-up times.  Traced,
every workload's per-layer section runs in a worker of its own for a
third of ``--seconds``, so every per-layer metric is printed whichever
workload is named; the named workload's section runs last and gives
the tracing overhead.  Stdout ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- every metric
``BENCHMARK.json`` lists as ``end_to_end`` with ``--trace 0``, as
``per_layer`` with ``--trace 1``.  The line before it records the
environment.  Spans of a traced run go to ``.perfbench/<run>/``.

Nothing here sets BLAS or OpenMP thread variables: the program runs
with whatever the environment holds, and the result records it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import stats

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ingest", "cold_read", "serve_hot")

#: Parts per run.  Spreading the measuring over every part samples
#: the machine over the whole run instead of over one stretch of it.
PARTS = 3

#: Wall-clock budget of a whole run; a worker still running at the end
#: of it is killed together with the processes it started.
RUN_BUDGET_S = 170.0


def run_worker(root: Path, args: argparse.Namespace, out: Path,
               workload: str, part: int, parts: int, seconds: float,
               deadline: float) -> dict[str, Any]:
    """Run one ``worker.py`` to completion and parse its JSON line.

    The worker leads its own process group, so the server and load
    generator it starts go down with it if it has to be killed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--part", str(part), "--parts", str(parts),
           "--out", str(out / workload), "--spawned", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result: dict[str, Any] = json.loads(lines[-1])
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {root / 'src' / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in manifest["per_layer" if args.trace else "end_to_end"]}
    out = root / ".perfbench" / (f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    out.mkdir(parents=True, exist_ok=True)

    deadline = time.monotonic() + RUN_BUDGET_S
    pooled: dict[str, Any] = {}
    if args.trace:
        # Every section in its own process, the named workload's last
        # so that its tracing overhead is the one reported.
        sections = sorted(WORKLOADS, key=lambda w: w == args.workload)
        runs = [run_worker(root, args, out, section, 0, 1,
                           args.seconds / len(WORKLOADS), deadline)
                for section in sections]
        values: dict[str, float] = {}
        for r in runs:
            values.update(r["layers"])
    else:
        runs = [run_worker(root, args, out, args.workload, part, PARTS,
                           args.seconds, deadline)
                for part in range(PARTS)]
        samples = [r["samples"] for r in runs]
        values = dict(end_to_end(samples),
                      setup_s=statistics.median(r["setup_s"] for r in runs))
        for key, value in samples[0].items():
            if isinstance(value, list):
                n = sum(len(p[key]) for p in samples)
                pooled[key] = {"samples": n,
                               "tail_supported": stats.supported_tail(n)}
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise RuntimeError(f"the workers measured no {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted.items()}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    environment = runs[-1]["environment"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment,
        "setup_s": [r["setup_s"] for r in runs],
        "failures": [f for r in runs for f in r["failures"]],
        "details": [r["details"] for r in runs],
        "pooled": pooled,
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": environment,
                      "failures": record["failures"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(parts: list[dict[str, Any]]) -> dict[str, float]:
    """The end-to-end metrics from the samples of a run's parts.

    Every workload's parts report the same keys: ``latency_s``, one
    sample per operation; ``work_mb`` and ``work_s``, the megabytes
    handled and the seconds taken by each timed piece of work; and
    single values (peak RSS, ratios the seed fixes), of which the
    median over the parts is taken.  Sample lists are pooled over the
    parts.
    """
    pooled = {k: [x for p in parts for x in p[k]]
              for k, v in parts[0].items() if isinstance(v, list)}
    out = {k: statistics.median(p[k] for p in parts)
           for k, v in parts[0].items() if not isinstance(v, list)}
    lat = pooled["latency_s"]
    out.update(latency_p50_ms=stats.percentile(lat, 50) * 1e3,
               throughput_mb_s=sum(pooled["work_mb"]) / sum(pooled["work_s"]))
    return out


if __name__ == "__main__":
    sys.exit(main())
