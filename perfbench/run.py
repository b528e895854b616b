"""The repo benchmark: one closed-loop workload, measured end to end or per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload fdd-8x8 --seed 1 --seconds 20 --trace 0

Workloads are defined in ``perfbench/bench.py``; metric names and units are
read from ``BENCHMARK.json``.  The run happens in a freshly spawned
interpreter (``bench.py``), next to a do-nothing interpreter that imports the
same modules, so peak RSS is the run's own.  The report lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``attempted``/``failed`` count the
scheduled slot memberships the exact-SINR audit checked and those that fail
``SINR >= beta``.  The exit code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Every run, set-up and audit included, must end within this.
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child(args: list[str], deadline: float) -> dict:
    """Run ``bench.py args`` in a fresh interpreter; return its JSON line.

    The child gets its own process group, so a run that overstays the
    deadline is killed together with any pool workers it started.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # numpy asks for transparent huge pages on large arrays by default;
    # whether a 2 MiB page is granted depends on address alignment, which
    # moved peak RSS by up to 8% between identical runs.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "bench.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"bench.py {' '.join(args)} overran the deadline")
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench.py {' '.join(args)} exited {proc.returncode}:\n{err.strip()}"
        )
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"bench.py {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def tail_percentile(samples: list[float]) -> tuple[int, float, int] | None:
    """Highest whole percentile with at least ten samples beyond it.

    Returns ``(percentile, value, samples beyond)`` by the nearest-rank
    rule, or ``None`` when there are fewer than 20 samples (the median
    would be the only candidate).
    """
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    q = math.floor(100 * (1 - 10 / n))
    rank = math.ceil(q * n / 100)
    return q, ordered[rank - 1], n - rank


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no repro package under {ROOT / 'src'}; run from a checkout")
    if not spec_path.is_file():
        return fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    host = {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "load_avg_1_5_15": [round(x, 2) for x in os.getloadavg()],
    }
    try:
        baseline = child(["--baseline"], deadline)
        run = child(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", str(args.trace),
            ],
            deadline,
        )
    except RuntimeError as exc:
        return fail(str(exc))
    host["numpy"] = run["numpy"]
    loop = run["reference_loop_s"]
    host["reference_loop_ms"] = round(1e3 * loop["median"], 3)

    walls = run["ref_walls"]
    base_kib = baseline["baseline_kib"]
    parent_mib = (run["parent_kib"] - base_kib) / 1024
    worker_mib = None if run["worker_kib"] is None else run["worker_kib"] / 1024
    audit = run["audit"]
    attempted, failed = audit["memberships"], audit["infeasible"]

    problems = []
    if run["determinism_mismatches"]:
        problems.append(
            "runs of one seed disagree: " + ", ".join(run["determinism_mismatches"])
        )
    if audit["self_check_mismatched_slots"]:
        problems.append(
            f"audit disagrees with the dense model on "
            f"{audit['self_check_mismatched_slots']} slots"
        )
    if run["exact_model"] and failed:
        # The scheduler worked under the exact dense model, so an infeasible
        # membership is an output error, not a measurement.
        problems.append(f"{failed} infeasible memberships under the exact model")
    if attempted < 1:
        problems.append("the audit saw no slot membership")
    if run["sim"]["delivered"] < 1:
        problems.append("nothing was delivered")

    if args.trace:
        values = run["layers"]
    else:
        values = {
            "setup_s": statistics.median(run["setup_ref_walls"]),
            "epoch_wall_s.p50": statistics.median(walls),
            "sim_slots_per_s": run["sim_slots"] / math.fsum(walls),
            "peak_rss_mib": parent_mib,
        }
    missing = {m["name"] for m in wanted} - set(values)
    if missing:
        problems.append(f"metrics not measured: {sorted(missing)}")
    metrics = {
        m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted
    }

    print(f"host: {json.dumps(host)}")
    print(
        f"workload: {args.workload} seed={args.seed} trace={args.trace} "
        f"paths={run['paths']} x {run['plays']} plays x "
        f"{run['epochs_per_path']} epochs x {run['epoch_slots']} slots"
    )
    print(
        f"setup: median of {len(run['setup_walls'])} builds; epoch wall: "
        f"{len(walls)} epochs, "
        + ("the lowest of its untraced plays" if args.trace
           else "each the lowest of its plays")
    )
    raw = run["epoch_walls"]
    print(
        "times are at reference speed (the reference loop in "
        f"{1e3 * loop['reference']:g} ms; this run's median "
        f"{1e3 * loop['median']:.3f} ms); as measured: "
        f"setup_s = {statistics.median(run['setup_walls']):.6f} s, "
        f"epoch_wall_s.p50 = {statistics.median(raw):.6f} s, "
        f"sim_slots_per_s = {run['sim_slots'] / math.fsum(raw):.3f} slots/s"
    )
    if not args.trace:
        tail = tail_percentile(walls)
        if tail is None:
            print(f"epoch_wall_s.tail: omitted, {len(walls)} epochs < 20")
        else:
            q, value, beyond = tail
            print(
                f"epoch_wall_s.tail: p{q} = {value:.6f} s "
                f"({beyond} of {len(walls)} epochs beyond)"
            )
    print(
        f"infeasible_frac: {failed / attempted if attempted else float('nan'):.6f} "
        f"({failed} of {attempted} audited slot memberships below beta)"
    )
    if audit["unseen"]:
        print(f"audit cannot see: {json.dumps(audit['unseen'])}")
    rss_note = (
        "peak_rss_mib is the engine process's peak over the first build and the first "
        "play of path 0, minus the baseline"
    )
    if worker_mib is not None:
        rss_note += (
            f"; largest pool worker: {worker_mib:.1f} MiB peak, not net of the "
            "baseline (workers fork from the engine process and share its pages)"
        )
    print(f"rss: {rss_note} (baseline {base_kib / 1024:.1f} MiB)")
    print(f"sim: {json.dumps(run['sim'], sort_keys=True)}")
    print(f"schedule digest: {run['schedule_digest']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
