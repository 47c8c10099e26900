"""Run the same command lines on two trees and print where their outputs differ.

    python tools/compare.py REV [ARGV_FILE]

REV is a git revision, such as the parent of a change.  Its files are
exported with ``git archive`` into a temporary directory, which leaves the
repository untouched; the other tree is this checkout, with its
uncommitted edits.  Both run the same invocations:

* every slot of the benchmark workloads at seeds 1-3
  (``perfbench/workloads.py`` of this checkout, loaded read-only);
* every ``negspin ...`` line of this checkout's README.md, in json and in
  csv, with any ``--out`` dropped so the output reaches stdout;
* one invocation per line of ARGV_FILE, if given: the arguments after
  ``negspin``, in shell quoting, with ``#`` comments.

Each tree runs all of them through ``negspin.cli.main`` in one child
interpreter, inside a scratch working directory.  For every invocation
whose exit code, stderr or stdout differs, the script prints the
invocation, what differs and the largest relative difference between the
numbers of the two outputs; it ends with a summary line and exits 1 when
anything differs.  Stdlib only, but for the numpy that ``versions`` reads.

The same list, with ``compare_cases.txt`` as ARGV_FILE, is pinned in
``tests/output_digests.json``: one SHA-256 of (exit code, stdout, stderr)
per invocation, with the numpy and BLAS versions that printed them.  A
tier-1 test checks this checkout against it, and ``pin_digests.py``
re-pins it after a change that alters output on purpose.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "tools" / "compare_cases.txt"
DIGESTS = ROOT / "tests" / "output_digests.json"
SEEDS = (1, 2, 3)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

# runs in the child: reads a JSON list of argv, writes [file of negspin.cli,
# [[exit code, stdout, stderr], ...]]; an exception escaping main is its traceback
CHILD = """
import contextlib, io, json, sys, traceback
import negspin.cli
outcomes = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = negspin.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = "raised"
    outcomes.append([code, out.getvalue(), err.getvalue()])
json.dump([negspin.cli.__file__, outcomes], sys.stdout)
"""


def workload_invocations() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up here
    spec.loader.exec_module(workloads)
    return [list(inv.argv) for name in workloads.WORKLOADS for seed in SEEDS
            for inv in workloads.generate(name, seed)]


def _without_out(argv: list[str]) -> list[str]:
    kept, skip = [], False
    for token in argv:
        if skip or token == "--out":
            skip = token == "--out"
        elif not token.startswith("--out="):
            kept.append(token)
    return kept


def readme_invocations() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = [line for block in text.split("```sh\n")[1:]
             for line in block.split("```", 1)[0].splitlines()]
    examples = [argv[1:] for argv in (shlex.split(line, comments=True) for line in lines)
                if argv[:1] == ["negspin"]]
    return [[*_without_out(argv), "--format", fmt] for fmt in ("json", "csv") for argv in examples]


def file_invocations(path: str) -> list[list[str]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]


def all_invocations(path: str | Path | None) -> list[list[str]]:
    """The workload and README invocations, then those of the file at
    ``path`` if given, each once, in that order."""
    invocations = [*workload_invocations(), *readme_invocations()]
    if path is not None:
        invocations += file_invocations(path)
    return list(map(list, dict.fromkeys(map(tuple, invocations))))


def run_tree(tree: Path, invocations: list[list[str]], cwd: Path) -> list[list]:
    """The [exit code, stdout, stderr] of every invocation on ``tree``."""
    cwd.mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(invocations),
                          capture_output=True, text=True, cwd=cwd, env=env, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"the child on {tree} failed:\n{proc.stderr}")
    module, outcomes = json.loads(proc.stdout)
    if not Path(module).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"the child on {tree} imported negspin from {module}")
    return outcomes


def versions() -> dict[str, str]:
    """The numpy and BLAS builds of this interpreter, which decide the
    last digits of every eigenvalue."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def output_digests(tree: Path, cwd: Path) -> dict[str, str]:
    """The SHA-256 of [exit code, stdout, stderr] as JSON, per invocation of
    the list pinned in ``DIGESTS``, keyed by its ``negspin`` arguments."""
    invocations = all_invocations(CASES)
    return {shlex.join(argv): hashlib.sha256(json.dumps(outcome).encode()).hexdigest()
            for argv, outcome in zip(invocations, run_tree(tree, invocations, cwd))}


def largest_relative_difference(old: str, new: str) -> float | None:
    """max |a - b| / max(|a|, |b|) over the numbers of two texts, paired in
    order; None when they hold different counts of numbers."""
    a, b = NUMBER.findall(old), NUMBER.findall(new)
    if len(a) != len(b):
        return None
    worst = 0.0
    for x, y in zip(map(float, a), map(float, b)):
        if x != y:
            # an overflow to inf on one side only counts as a difference of 1
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if math.isfinite(scale) else 1.0)
    return worst


def _last_line(text: str) -> str:
    return (text.strip().splitlines() or [""])[-1]


def describe(old: list, new: list) -> list[str]:
    """What differs between two outcomes, one line each."""
    lines = []
    if old[0] != new[0]:
        lines.append(f"exit code {old[0]} -> {new[0]}")
    for label, i in (("stderr", 2), ("stdout", 1)):
        if old[i] != new[i]:
            gap = largest_relative_difference(old[i], new[i])
            detail = ("its numbers differ in count" if gap is None
                      else f"largest relative difference of its numbers {gap:.3g}")
            lines.append(f"{label} differs, {detail}")
            if label == "stderr":
                lines += [f"  - {_last_line(old[2])}", f"  + {_last_line(new[2])}"]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python tools/compare.py REV [ARGV_FILE]", file=sys.stderr)
        return 2
    invocations = all_invocations(argv[1] if len(argv) == 2 else None)
    with tempfile.TemporaryDirectory(prefix="negspin-compare-") as tmp:
        base = Path(tmp) / "base"
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", argv[0]],
                                 stdout=subprocess.PIPE, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base, filter="data")
        old = run_tree(base, invocations, Path(tmp) / "cwd-base")
        new = run_tree(ROOT, invocations, Path(tmp) / "cwd-head")
    differ = 0
    for args, a, b in zip(invocations, old, new):
        if a != b:
            differ += 1
            print("negspin " + shlex.join(args))
            print("\n".join("  " + line for line in describe(a, b)))
    print(f"{len(invocations)} invocations: {len(invocations) - differ} identical, "
          f"{differ} differ (exit code, stderr or stdout) between {argv[0]} and this checkout")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
