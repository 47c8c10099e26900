"""Package surface: every public definition is used, no module imports a
private name of another, and start-up stays light."""

import ast
import builtins
import gc
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from negspin import __main__ as entry
from negspin.cli import EXIT_CHECK_FAILED, main

MODULES = ("clifford", "matrix_core", "tridiagonal", "spectral", "fields", "dynamics")
SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"

# Runs one start-up path in a fresh interpreter, then prints which of argparse,
# dataclasses, json, the Coulomb solver, numpy, numpy.fft, numpy.ma (which
# np.unique and np.median import on their first call), numpy.random and scipy
# it loaded.
PROBE = """\
import sys
try:
    {body}
finally:
    print(sorted({{"argparse", "dataclasses", "json", "negspin.tridiagonal", "numpy",
                  "numpy.fft", "numpy.ma", "numpy.random", "scipy"}}.intersection(sys.modules)))
"""
MAIN = "from negspin.cli import main; sys.exit(main({argv!r}))"


def test_the_package_binds_no_library_name():
    # each library name is imported from the module that defines it: the
    # package binds only its two constants, answers no other name, and its
    # import loads no numpy
    probe = ("import sys, negspin\n"
             "print(sorted(name for name in vars(negspin) if not name.startswith('__')))\n"
             "try:\n"
             "    negspin.hamiltonian\n"
             "except AttributeError:\n"
             "    print('AttributeError', 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['MIN_OSCILLATOR_LEVELS']", "AttributeError False"]


def _library_example() -> str:
    """The code block of the README's "Library example" section."""
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _references(node, skip=None) -> set[str]:
    """Names and attribute names used under ``node``, outside the subtree ``skip``."""
    found = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current is skip:
            continue
        if isinstance(current, ast.Name):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        stack.extend(ast.iter_child_nodes(current))
    return found


def test_every_public_definition_is_used():
    # a public function or class must be used elsewhere in the package
    # itself; being exported or shown in the README is not enough, since code
    # that only its own tests call belongs in the tests
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "negspin").glob("*.py"))}
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            used = set().union(*(_references(t, skip=node) for t in trees.values()))
            if node.name not in used:
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


def test_no_module_imports_a_private_name_of_another():
    # a private helper shared across modules is a second way in to what one
    # public function should build; dunders such as __version__ are public
    private = []
    for path in sorted((SRC / "negspin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "negspin"):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def test_every_raise_is_one_that_main_reports():
    # cli.main turns exactly these three families into one error line and
    # exit 2, so any other exception would escape it as a traceback
    families = (ValueError, ArithmeticError, MemoryError)
    stray = []
    for path in sorted((SRC / "negspin").glob("*.py")):
        module = importlib.import_module(
            "negspin" if path.stem == "__init__" else f"negspin.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(module, exc.id, None) or getattr(builtins, exc.id)
            if not issubclass(cls, families):
                stray.append(f"{path.name}:{node.lineno}: {exc.id}")
    assert stray == []


DENSE_SOLVERS = {"svd", "eig", "eigh", "eigvals", "eigvalsh"}


def test_only_hermitian_eig_calls_a_dense_solver():
    # one eigensolver: every decomposition in the package goes through
    # matrix_core.hermitian_eig, which vets its input and bounds the
    # residuals of what it returns
    found = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if (isinstance(child, ast.Attribute) and child.attr in DENSE_SOLVERS
                    and ast.unparse(child.value).endswith("linalg")):
                found.append(f"{module}{inner}: {ast.unparse(child)}")
            elif isinstance(child, ast.ImportFrom) and (child.module or "").endswith("linalg"):
                found.extend(f"{module}{inner}: imports {a.name}" for a in child.names
                             if a.name in DENSE_SOLVERS)
            visit(child, module, inner)

    for path in sorted((SRC / "negspin").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    assert found == ["matrix_core.hermitian_eig: np.linalg.eigh"]


UNIT_NAMES = {"params", "m0", "c", "hbar", "q"}


def test_core_takes_no_unit_and_does_not_import_cli():
    # the core computes in m0 = c = hbar = 1; negspin.commands alone applies
    # a unit system, so no core function takes a unit (a record field is
    # an __init__ parameter too) and no core module reaches the front
    found = []
    for module in MODULES:
        tree = ast.parse((SRC / "negspin" / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                found += [f"{module}: parameter {p.arg}" for p in params
                          if p is not None and p.arg in UNIT_NAMES]
            elif isinstance(node, ast.ClassDef):
                found += [f"{module}: field {f.target.id}" for f in node.body
                          if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                          and f.target.id in UNIT_NAMES]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[-1], *(a.name for a in node.names)]
                found += [f"{module}: imports cli" for name in names if name == "cli"]
            elif isinstance(node, ast.Import):
                found += [f"{module}: imports cli" for a in node.names
                          if a.name.split(".")[-1] == "cli"]
    assert found == []


def test_library_example_prints_what_it_documents():
    proc = subprocess.run(
        [sys.executable, "-c", _library_example()],
        capture_output=True, text=True, cwd=SRC.parent,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[-1.5 -1.5  1.5  1.5]"
    assert [float(v) for v in lines[1].split()] == pytest.approx(
        [2.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0], rel=0.0, abs=1e-12)
    assert lines[2] == "(5, 4, 4)"


# start-up path -> (code run in a fresh interpreter, exit code, probed modules loaded)
START_UP = {
    "import": ("import negspin.cli", 0, []),
    "help": ("import runpy; sys.argv = ['negspin', '--help']; "
             "runpy.run_module('negspin', run_name='__main__')", 0, []),
    "coulomb-help": (MAIN.format(argv=["coulomb", "--help"]), 0, []),
    "non-finite": (MAIN.format(argv=["lorentz", "--v", "nan,0,0"]), 2, []),
    "unknown-config-key": (MAIN.format(argv=["dispersion", "--config", "{config}"]), 2, []),
    "non-positive-units": (MAIN.format(argv=["dispersion", "--units", "custom", "--m0", "-1"]),
                           2, []),
    # a flag the command does not take
    "identities-seed": (MAIN.format(argv=["identities", "--seed", "1"]), 2, []),
    "reduction-units": (MAIN.format(argv=["reduction", "--units", "custom", "--c", "2"]), 2, []),
    # a value outside its flag's range
    "reduction-trials": (MAIN.format(argv=["reduction", "--trials", "0"]), 2, []),
    # a lorentz flag of the mode it does not run
    "lorentz-mode": (MAIN.format(argv=["lorentz", "--sweep", "2", "--v", "0.5,0,0"]), 2, []),
    # a landau level too close to the truncation for its --n-max
    "landau-kmax": (MAIN.format(argv=["landau", "--n-max", "40", "--k-max", "40"]), 2, []),
    # a grid the library rejects loads numpy, but neither the Coulomb solver
    # nor json
    "coulomb-coarse": (MAIN.format(argv=["coulomb", "--n-points", "100"]), 2, ["numpy"]),
    # the controls: a computing command does load numpy, a JSON report json,
    # and only coulomb the Coulomb solver (no path loads argparse, and no
    # record is a dataclass)
    "identities": (MAIN.format(argv=["identities"]), 0, ["json", "numpy"]),
    "coulomb": (MAIN.format(argv=["coulomb"]), 0, ["json", "negspin.tridiagonal", "numpy"]),
    "zitter": (MAIN.format(argv=["zitter", "--format", "csv"]), 0, ["numpy"]),
    "reduction": (MAIN.format(argv=["reduction", "--trials", "300"]), 0, ["json", "numpy"]),
}


@pytest.mark.parametrize("case", START_UP)
def test_start_up_loads_numpy_only_to_compute(tmp_path, case):
    body, code, loaded = START_UP[case]
    config = tmp_path / "run.cfg"
    config.write_text("voltage=9\n")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body.replace("{config}", str(config)))],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loaded)


def test_the_process_entry_freezes_the_collector_at_exit():
    # run_module raises the entry's SystemExit, so the finally block sees the
    # collector as the interpreter's teardown will
    probe = ("import gc, runpy, sys\n"
             "sys.argv = ['negspin', 'identities']\n"
             "try:\n"
             "    runpy.run_module('negspin', run_name='__main__')\n"
             "finally:\n"
             "    print(gc.get_freeze_count() > 0)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True"


def test_only_the_process_entry_freezes(monkeypatch, capsys):
    # cli.main runs many times in one test or tool process, where a freeze
    # would pin every live object; entry.run, once per process, freezes once
    count = gc.get_freeze_count()
    argv = ["reduction", "--trials", "1", "--wrong-energy"]
    assert main(argv) == EXIT_CHECK_FAILED
    assert gc.get_freeze_count() == count
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(gc.get_freeze_count()))
    monkeypatch.setattr(sys, "argv", ["negspin", *argv])
    with pytest.raises(SystemExit) as stop:
        entry.run()
    capsys.readouterr()
    assert stop.value.code == EXIT_CHECK_FAILED
    assert frozen == [count]


# what `python -m negspin` must print exactly as cli.main does: a JSON pass, a
# CSV table, a failed check, a rejection before numpy and one after it, and a
# report written to --out
SAME_BYTES = {
    "json": ["lorentz", "--v", "0.6,0,0"],
    "csv": ["dispersion", "--steps", "5", "--format", "csv"],
    "check-failed": ["reduction", "--trials", "1", "--wrong-energy"],
    "rejected-before-numpy": ["landau", "--n-max", "40", "--k-max", "40"],
    "rejected-after-numpy": ["coulomb", "--n-points", "100"],
    "out-file": ["landau", "--format", "csv", "--out", "{out}"],
}


@pytest.mark.parametrize("case", SAME_BYTES)
def test_module_run_prints_what_main_prints(tmp_path, capsys, case):
    outputs = {}
    for path in ("main", "module"):
        out = tmp_path / f"{path}.out"
        argv = [arg.replace("{out}", str(out)) for arg in SAME_BYTES[case]]
        if path == "main":
            code = main(argv)
            captured = capsys.readouterr()
            stdout, stderr = captured.out.encode(), captured.err.encode()
        else:
            proc = subprocess.run([sys.executable, "-m", "negspin", *argv], capture_output=True,
                                  env={**os.environ, "PYTHONPATH": str(SRC)})
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        outputs[path] = (code, stdout, stderr, out.read_bytes() if out.exists() else None)
    assert outputs["module"] == outputs["main"]
    assert (outputs["main"][3] is not None) == (case == "out-file")


def test_console_script_runs_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["negspin"]
    # the call under `if __name__ == "__main__":` in negspin/__main__.py
    tree = ast.parse((SRC / "negspin" / "__main__.py").read_text(encoding="utf-8"))
    guard = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    called = [node.value.func.id for node in guard.body
              if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)]
    assert [f"negspin.__main__:{name}" for name in called] == [target]
