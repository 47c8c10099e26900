"""The negspin benchmark: cold-CLI latency per workload, and per-layer traces.

    python3 perfbench/run.py --workload cli-defaults --seed 1 --seconds 35 --trace 0

Run from a checkout holding ``src/negspin``.  With ``--trace 0`` it runs the
workload's invocations (see workloads.py) as one-at-a-time cold
``python -m negspin ...`` subprocesses with ``PYTHONPATH=src``, pass after
pass, for ``--seconds``, and reports the end-to-end metrics:

* ``wall_s``: median wall time of one pass (all invocations, import included);
* ``latency_p50_s``: median wall time of one invocation over all passes;
* ``setup_s``: median wall time of ``import negspin.cli`` in a fresh
  interpreter, over about eleven samples taken between the invocations,
  spread over the run;
* ``peak_rss_mb``: median over passes of the largest child max-RSS;
* ``error_frac``: invocations with a wrong outcome (validate.py) over those
  attempted.

With ``--trace 1`` it reports the per-layer metrics instead: the import
breakdown from ``python -X importtime -c "import negspin.cli"`` (median of
seven fresh interpreters) and the in-process traced run of tracer.py.

Each outcome is validated against the seed's ``manifest.json``.  Errors a
slot already had at the seed (non-finite inputs, the negative control's
non-strict JSON) count in ``error_frac``; any other error is a regression:
its invocation is counted in ``failed`` and the run reports
``"correct": false``, so its timings must not be used.  Children run one at
a time with single-threaded BLAS.  The last stdout line is the JSON result;
run details and spans go under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from validate import load_manifest, new_errors, validate
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
IMPORT_CMD = [sys.executable, "-c", "import negspin.cli"]
# fresh imports timed per run for setup_s, spread over it (one more at the start)
SETUP_SAMPLES = 10
# fresh -X importtime interpreters per traced run
IMPORTTIME_REPEATS = 7
# no single child may run longer; the whole run must end within 180 s
CHILD_TIMEOUT_S = 120.0
# above this, sweeps-scaled's ~114k spans a pass visibly slow the traced passes
# (BASELINE.md); the traced landau-scaled and cli-defaults runs read below it
TRACE_OVERHEAD_LIMIT = 0.15
# "import time: <self us> | <cumulative us> | <indented module name>"
IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def child_env() -> dict:
    # Single-threaded BLAS: on a shared host a threaded LAPACK call waits for
    # its slowest thread, so load on either core stalls it; one thread made
    # the 4x4-heavy invocations both faster and steadier (BASELINE.md).
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(cmd: list[str], env: dict, timeout: float = CHILD_TIMEOUT_S):
    """Run one child to completion: (wall s, exit code, stdout, stderr, max-RSS MB)."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "child.stdout", "w+b") as out, open(OUT_DIR / "child.stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (wall, proc.returncode, out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"), usage.ru_maxrss / 1024.0)


def negspin_cmd(argv) -> list[str]:
    return [sys.executable, "-m", "negspin", *argv]


def time_import(env: dict) -> float:
    """Wall seconds of one fresh ``import negspin.cli``, interpreter start included."""
    wall, code, _, err, _ = spawn(IMPORT_CMD, env)
    if code != 0:
        raise RuntimeError(f"import negspin.cli failed: {err.strip()[-200:]}")
    return wall


def import_breakdown(env: dict) -> dict:
    """Median cumulative import seconds of a few modules under -X importtime."""
    names = {"negspin.cli": "import.negspin_cli_s", "scipy.linalg": "import.scipy_linalg_s",
             "numpy": "import.numpy_s"}
    samples = {metric: [] for metric in names.values()}
    for _ in range(IMPORTTIME_REPEATS):
        _, code, _, err, _ = spawn([sys.executable, "-X", "importtime", *IMPORT_CMD[1:]], env)
        if code != 0:
            raise RuntimeError(f"import negspin.cli failed: {err.strip()[-200:]}")
        seen = {}
        for line in err.splitlines():
            match = IMPORT_LINE.match(line)
            if match and match.group(2) in names:
                seen.setdefault(names[match.group(2)], int(match.group(1)) / 1e6)
        for metric in samples:
            # a module that negspin.cli no longer imports costs it nothing
            samples[metric].append(seen.get(metric, 0.0))
    return {metric: statistics.median(v) for metric, v in samples.items()}


class Tally:
    """Outcome counts of a run, split into seed-known and new errors."""

    def __init__(self, pinned: dict):
        self.pinned = pinned
        self.attempted = 0
        self.wrong = 0
        self.new = 0
        self.reasons: dict[str, str] = {}

    def add(self, slot: str, errors: list[str]) -> bool:
        """Record one outcome; True when it has an error the seed did not have.

        Novelty is decided per error, not per slot: a slot that was already
        wrong at the seed still fails the run when it goes wrong another way
        (a different exit code, a new traceback, a loosened check).
        """
        self.attempted += 1
        if not errors:
            return False
        self.wrong += 1
        self.reasons.setdefault(slot, "; ".join(errors))
        fresh = new_errors(errors, self.pinned[slot]["seed_errors"])
        if not fresh:
            return False
        self.new += 1
        print(f"new error in {slot}: {'; '.join(fresh)}", file=sys.stderr)
        return True


def cold_run(invocations, pinned: dict, seconds: float, env: dict, tally: Tally) -> dict:
    """Passes over the invocations until the next would overrun ``seconds``.

    A fresh ``import negspin.cli`` is timed at the start and after every
    further ``seconds / SETUP_SAMPLES`` of invocation time, so ``setup_s``
    spans the same host drift as the passes.  Those samples do not count
    against the budget.
    """
    spawn(IMPORT_CMD, env)  # writes the bytecode cache, as any earlier run would have
    setup = [time_import(env)]
    pass_walls, latencies, pass_rss = [], [], []
    spent = since_setup = 0.0
    while True:
        walls, rss = [], 0.0
        clean = True
        for inv in invocations:
            t, code, out, err, maxrss = spawn(negspin_cmd(inv.argv), env)
            errors = validate(inv.expect, inv.fmt, code, out, err, pinned[inv.slot])
            clean &= not tally.add(inv.slot, errors)
            walls.append(t)
            rss = max(rss, maxrss)
            since_setup += t
            if since_setup >= seconds / SETUP_SAMPLES:
                setup.append(time_import(env))
                since_setup = 0.0
        wall = sum(walls)
        spent += wall
        if clean:  # a pass with a new error posts no timing
            pass_walls.append(wall)
            pass_rss.append(rss)
            latencies += walls
        if spent + wall > seconds:
            break
    print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup))
    return {
        "wall_s": (statistics.median(pass_walls) if pass_walls else 0.0, len(pass_walls)),
        "latency_p50_s": (statistics.median(latencies) if latencies else 0.0, len(latencies)),
        "peak_rss_mb": (statistics.median(pass_rss) if pass_rss else 0.0, len(pass_rss)),
        "setup_s": (statistics.median(setup), len(setup)),
    }


def traced_run(workload: str, seed: int, seconds: float, env: dict, tally: Tally) -> dict:
    result_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.tsv"
    cmd = [sys.executable, str(HERE / "tracer.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--out", str(result_path), "--spans", str(spans_path)]
    _, code, _, err, _ = spawn(cmd, env)
    if code != 0:
        raise RuntimeError(f"traced run failed: {err.strip()[-400:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    for slot, errors in result["outcomes"]:
        tally.add(slot, errors)
    print(f"machine: {json.dumps(result['machine'])}")
    print(f"traced passes: {result['passes']}; spans of the first in {spans_path.name}")
    return result["metrics"]


def metric_units(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "negspin" / "cli.py").is_file():
        print(f"error: no src/negspin under {ROOT}; run from a negspin checkout",
              file=sys.stderr)
        return 2
    pinned = load_manifest()[args.workload]
    invocations = generate(args.workload, args.seed)
    env = child_env()
    tally = Tally(pinned)
    units = metric_units(bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}: {len(invocations)} invocations per pass")

    if args.trace:
        metrics = import_breakdown(env)
        metrics.update(traced_run(args.workload, args.seed, args.seconds, env, tally))
        counts = {}
        if metrics["trace_overhead_frac"] > TRACE_OVERHEAD_LIMIT:
            print(f"warning: trace overhead {metrics['trace_overhead_frac']:.3f} is above "
                  f"{TRACE_OVERHEAD_LIMIT}; this run's per-layer times are inflated by the "
                  "tracer and should not be compared with another run's")
    else:
        measured = cold_run(invocations, pinned, args.seconds, env, tally)
        measured["error_frac"] = (tally.wrong / tally.attempted, tally.attempted)
        metrics = {k: v for k, (v, _) in measured.items()}
        counts = {k: n for k, (_, n) in measured.items()}

    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           + ", ".join(sorted(set(units) ^ set(metrics))))
    for name in sorted(metrics):
        samples = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:48s} {metrics[name]:>16.6g} {units[name]}{samples}")
    print(f"wrong outcomes: {tally.wrong} of {tally.attempted}, {tally.new} not seen at the seed")
    for slot, reason in sorted(tally.reasons.items()):
        print(f"  {slot}: {reason}")
    print(json.dumps({
        "correct": tally.new == 0,
        "attempted": tally.attempted,
        "failed": tally.new,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
