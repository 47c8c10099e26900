"""Traced in-process run of one workload's invocations (a child of run.py).

Calls ``negspin.cli.main(argv)`` in this interpreter for every invocation of
the workload, alternating untraced and traced passes for the time budget.
On traced passes every public function of the six package modules is
rebound, in every negspin namespace that holds it, to a wrapper recording a
span (id, parent id, invocation id, name, start, end) in memory.  The
numpy/scipy eigen- and singular-value solvers are wrapped too, for counts
and inclusive time only (no spans), so their time stays in the self time of
the negspin function that called them.  Self time is a span's duration
minus its child spans.

    PYTHONPATH=src python perfbench/tracer.py --workload W --seed N \
        --seconds S --out result.json --spans spans.tsv

Writes aggregate per-layer numbers to --out and the spans of the first
traced pass to --spans.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import scipy.linalg

import negspin.cli

from validate import load_manifest, validate
from workloads import generate

LAYERS = ("cli", "clifford", "matrix_core", "spectral", "fields", "dynamics")
KERNELS = (
    (np.linalg, ("eigh", "eigvalsh", "svd")),
    (scipy.linalg, ("eigh", "eigvalsh", "eigh_tridiagonal", "eigvalsh_tridiagonal")),
)
# the landau command's own level tolerance
LEVEL_TOL = 1e-6


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.hidden: defaultdict[int, float] = defaultdict(float)
        self.stack = [0]
        self.next_id = 1
        self.invocation = 0
        self.kernel_calls = 0
        self.kernel_s = 0.0
        self.kernel_depth = 0
        self.landau_case = False  # in a landau invocation with known analytic levels
        self.eigs: list[np.ndarray] = []
        self.counts: Counter = Counter()

    def wrap(self, name, fn, hook=None):
        clock = time.perf_counter
        stack = self.stack
        spans = self.spans

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.invocation, name, start, end))
            if hook is not None:
                hook(self, args, result)
                # the hook runs inside the caller's span; keep it out of its self time
                self.hidden[parent] += clock() - end
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_kernel(self, fn):
        clock = time.perf_counter

        def kernel(*args, **kwargs):
            # count only the outermost call: scipy's eigvalsh calls its eigh
            self.kernel_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.kernel_depth -= 1
            if self.kernel_depth == 0:
                self.kernel_s += clock() - start
                self.kernel_calls += 1
                if self.landau_case and fn.__name__ != "svd":
                    self.eigs.append(result[0] if isinstance(result, tuple) else result)
            return result

        kernel.__wrapped__ = fn
        return kernel


def _hermitian_eig_hook(tracer, args, result):
    tracer.counts["sum_dim3"] += len(args[0]) ** 3


def _landau_matrix_hook(tracer, args, result):
    if not tracer.landau_case:  # a rejected input's matrix says nothing of the solver
        return
    tracer.counts["landau_bytes"] += result.nbytes
    tracer.counts["landau_nonzero"] += int(np.count_nonzero(result))
    tracer.counts["landau_entries"] += result.size


HOOKS = {
    "matrix_core.hermitian_eig": _hermitian_eig_hook,
    "fields.landau_hamiltonian_matrix": _landau_matrix_hook,
}


def build_patches(tracer: Tracer) -> list[tuple]:
    """(namespace, attribute, original, wrapper) for every rebinding."""
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "negspin" or n.startswith("negspin."))]
    targets = []
    for layer in LAYERS:
        module = sys.modules[f"negspin.{layer}"]
        for attr, fn in vars(module).items():
            if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                    or getattr(fn, "__module__", None) != module.__name__):
                continue
            name = f"{layer}.{attr}"
            targets.append((module, attr, fn, tracer.wrap(name, fn, HOOKS.get(name))))
    for owner, attrs in KERNELS:
        for attr in attrs:
            fn = getattr(owner, attr)
            targets.append((owner, attr, fn, tracer.wrap_kernel(fn)))
    patches = []
    for owner, attr, fn, wrapper in targets:
        patches.append((owner, attr, fn, wrapper))
        for ns in namespaces:
            for other, value in list(vars(ns).items()):
                if value is fn and ns is not owner:
                    patches.append((ns, other, fn, wrapper))
    return patches


def set_patches(patches, on: bool) -> None:
    for ns, attr, fn, wrapper in patches:
        setattr(ns, attr, wrapper if on else fn)


def run_one(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = negspin.cli.main(list(argv))
        except Exception:  # an uncaught error is what a cold run shows as a traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def landau_levels(b, pz, q, k_max) -> np.ndarray:
    """+-E_k, E_k = m0 c^2 + hbar |q| b k / (m0 c) + pz^2/2m0 in natural units."""
    e = 1.0 + abs(q) * b * np.arange(k_max + 1) + pz * pz / 2.0
    return np.concatenate([-e, e])


def run_pass(invocations, manifest, tracer: Tracer | None):
    """One pass; returns (wall seconds, [(slot, errors)], eigen counts)."""
    wall = 0.0
    outcomes = []
    matched = computed = 0
    clock = time.perf_counter
    for number, inv in enumerate(invocations, start=1):
        if tracer is not None:
            tracer.invocation = number
            tracer.landau_case = inv.landau is not None
            tracer.eigs = []
        start = clock()
        code, stdout, stderr = run_one(inv.argv)
        wall += clock() - start
        outcomes.append((inv.slot, validate(inv.expect, inv.fmt, code, stdout, stderr,
                                            manifest[inv.slot])))
        if tracer is not None and inv.landau is not None and tracer.eigs:
            eigs = np.concatenate([np.ravel(e) for e in tracer.eigs])
            levels = landau_levels(*inv.landau)
            computed += eigs.size
            matched += int(np.sum(np.min(np.abs(eigs[:, None] - levels[None, :]), axis=1)
                                  <= LEVEL_TOL))
    return wall, outcomes, (matched, computed)


def self_times(tracer: Tracer) -> tuple[dict, Counter]:
    child = defaultdict(float)
    for _, parent, _, _, start, end in tracer.spans:
        child[parent] += end - start
    own = defaultdict(float)
    calls = Counter()
    for sid, _, _, name, start, end in tracer.spans:
        own[name] += (end - start) - child[sid] - tracer.hidden[sid]
        calls[name] += 1
    return own, calls


def layer_metrics(tracer: Tracer, wall: float, eig_counts) -> dict:
    own, calls = self_times(tracer)
    m = {}
    for layer in LAYERS[1:]:  # cli's only public function is main
        m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
    m["clifford.calls"] = sum(v for k, v in calls.items() if k.startswith("clifford."))
    m["cli.main.self_s"] = own["cli.main"]
    for name in ("matrix_core.hermitian_eig", "fields.pauli_reduction_check",
                 "fields.disc_spinor", "spectral.free_spectrum",
                 "spectral.helicity_eigenstates", "spectral.correspondence_check"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = own[name]
    for name in ("fields.landau_hamiltonian_matrix", "fields.coulomb_radial_spectrum",
                 "dynamics.observable_series", "dynamics.dominant_frequency"):
        m[f"{name}.self_s"] = own[name]
    m["dynamics.evolve.calls"] = calls["dynamics.evolve"]
    c = tracer.counts
    m["matrix_core.hermitian_eig.sum_dim3"] = c["sum_dim3"]
    m["fields.landau_hamiltonian_matrix.bytes"] = c["landau_bytes"]
    m["fields.landau_hamiltonian_matrix.nonzero_frac"] = (
        c["landau_nonzero"] / c["landau_entries"] if c["landau_entries"] else 0.0)
    matched, computed = eig_counts
    m["fields.landau.useful_eig_frac"] = matched / computed if computed else 0.0
    m["kernel.linalg_calls"] = tracer.kernel_calls
    m["kernel.linalg_s"] = tracer.kernel_s
    m["traced_wall_s"] = wall
    return m


def write_spans(path: Path, tracer: Tracer, invocations) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# invocations: " + json.dumps([[i.slot, *i.argv] for i in invocations]) + "\n")
        fh.write("id\tparent\tinvocation\tname\tstart_s\tend_s\n")
        for sid, parent, inv, name, start, end in tracer.spans:
            fh.write(f"{sid}\t{parent}\t{inv}\t{name}\t{start!r}\t{end!r}\n")


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    args = ap.parse_args()

    manifest = load_manifest()[args.workload]
    invocations = generate(args.workload, args.seed)
    began = time.perf_counter()
    # first-call costs (numpy's lazy imports, lru caches) at default sizes
    for command in dict.fromkeys(inv.command for inv in invocations):
        run_one([command])

    untraced, traced, outcomes = [], [], []

    def plain_pass():
        wall, got, _ = run_pass(invocations, manifest, None)
        untraced.append(wall)
        outcomes.extend(got)

    def traced_pass():
        tracer = Tracer()
        patches = build_patches(tracer)
        set_patches(patches, True)
        try:
            wall, got, eig_counts = run_pass(invocations, manifest, tracer)
        finally:
            set_patches(patches, False)
        outcomes.extend(got)
        traced.append(layer_metrics(tracer, wall, eig_counts))
        if len(traced) == 1:
            write_spans(args.spans, tracer, invocations)

    while True:
        pair_start = time.perf_counter()
        # alternate which pass goes first, so order effects cancel in the overhead
        for one_pass in ((plain_pass, traced_pass) if len(traced) % 2 == 0
                         else (traced_pass, plain_pass)):
            one_pass()
        now = time.perf_counter()
        if now - began + (now - pair_start) > args.seconds:
            break

    # counts are ints and repeat exactly, so median_low keeps them ints
    metrics = {key: (statistics.median_low if isinstance(traced[0][key], int)
                     else statistics.median)([p[key] for p in traced]) for key in traced[0]}
    metrics["trace_overhead_frac"] = (
        statistics.median(p["traced_wall_s"] for p in traced) / statistics.median(untraced) - 1.0)
    result = {
        "metrics": metrics,
        "passes": len(traced),
        "untraced_wall_s": untraced,
        "outcomes": outcomes,
        "machine": machine(),
    }
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
