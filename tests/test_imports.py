"""Every name a zhat module imports is referenced in that module, every
name the package exports resolves, and each command loads only the
modules it runs.

Names re-exported through ``__all__`` and ``from __future__`` imports are
exempt from the first check. String annotations count as references.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zhat

SRC = Path(__file__).resolve().parents[1] / "src" / "zhat"


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def referenced_names(tree: ast.Module) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = [node.annotation]
        else:
            continue
        for ann in filter(None, annotations):
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    text = ast.parse(sub.value, mode="eval")
                    names |= {n.id for n in ast.walk(text) if isinstance(n, ast.Name)}
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:  # built from a table, not listed: exempts nothing
                return set()
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = referenced_names(tree) | exported_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def unread_locals(fn: ast.AST) -> set[str]:
    """Names a function stores but never reads, nested scopes included;
    _-prefixed names and global or nonlocal declarations are exempt."""
    stored, read, declared = set(), set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            (stored if isinstance(node.ctx, ast.Store) else read).add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return {n for n in stored - read - declared if not n.startswith("_")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_locals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = [f"{name} in {fn.name} (line {fn.lineno})"
              for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for name in sorted(unread_locals(fn))]
    assert not unread, f"{path.name} stores names it never reads: {', '.join(unread)}"


def test_every_exported_name_resolves():
    missing = [name for name in zhat.__all__ if not hasattr(zhat, name)]
    assert not missing, f"zhat.__all__ names missing from the package: {', '.join(missing)}"
    namespace: dict = {}
    exec("from zhat import *", namespace)
    assert set(zhat.__all__) <= set(namespace)


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run of code with args, which must succeed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def module_order(code: str, *args: str) -> list[str]:
    """sys.modules of a fresh interpreter after it ran code with args, in
    the order the imports started."""
    return run_fresh(code + "\nprint(*sys.modules, file=sys.stderr)", *args).stderr.split()


def loaded_modules(code: str, *args: str) -> set[str]:
    """sys.modules of a fresh interpreter after it ran code with args."""
    return set(module_order(code, *args))


RUN_CLI = "import sys\nfrom zhat.cli import main\nassert main(sys.argv[1:]) == 0"
LAYERS = {"zhat.setdsl", "zhat.measure", "zhat.analytic", "zhat.density", "zhat.verify"}


@pytest.mark.parametrize("args", [("sn", "rho", "1125896954054519"),
                                  ("sn", "mul", "2^inf*3", "3*5")])
def test_sn_arithmetic_loads_no_numpy_and_no_set_layer(args):
    loaded = loaded_modules(RUN_CLI, *args)
    assert "zhat.supernatural" in loaded
    assert not loaded & ({"numpy"} | LAYERS)


def test_importing_the_cli_loads_no_numpy():
    loaded = loaded_modules("import sys\nimport zhat.cli")
    assert "zhat.cli" in loaded and "numpy" not in loaded


def test_an_euler_bracket_loads_neither_density_nor_verify():
    loaded = loaded_modules(RUN_CLI, "measure", "--euler", "1-1/p^2", "--cutoff", "1e4")
    assert "zhat.measure" in loaded
    assert not loaded & {"zhat.density", "zhat.verify"}


# exact commands and the zhat modules each one loads besides zhat, zhat.cli
# and zhat._primes: pure integer and rational work needs no numpy
SET_TRACE = {"zhat._ie", "zhat.setdsl", "zhat._counts", "zhat.measure"}
EXACT_COMMANDS = [
    (("measure", "--multiples", "4,6,9,25"), {"zhat._ie", "zhat.measure"}),
    (("measure", "--set", "kfree(2)|cong(1,4)", "--chain", "primorial", "--cutoff", "1e6"),
     SET_TRACE),
    (("measure", "--set", "kfree(2)", "--chain", "primorial^2", "--levels", "6",
      "--output", "csv"), SET_TRACE),
    (("verify", "eulerian", "--set", "coprime(2)", "--mlist", "12,90,210"),
     {"zhat._ie", "zhat.setdsl", "zhat._counts", "zhat.verify"}),
    (("verify", "union-dense", "--supports", "2,3;3,5;7"), {"zhat.verify"}),
    (("verify", "omega", "--k", "2", "--pbound", "13"), {"zhat.verify"}),
    (("verify", "counterexample", "--base", "4", "--terms", "12"), {"zhat.verify"}),
    (("sn", "limit", "--seq", "factorial", "--terms", "60", "--pmax", "13"),
     {"zhat.supernatural"}),
    # floor sums: a Moebius sum and the Lucy prime count
    (("density", "--set", "kfree(2) \\ primes", "--method", "asymptotic", "--r", "2e7"),
     {"zhat._ie", "zhat.setdsl", "zhat.measure", "zhat.density"}),
    # Dirichlet series ratios in closed form: certified zeta values, the
    # prime zeta function and no sieve
    (("density", "--method", "analytic", "--set", "primes", "--cutoff", "1e9"),
     {"zhat._ie", "zhat.setdsl", "zhat.measure", "zhat.analytic", "zhat.density"}),
    (("density", "--method", "analytic", "--set", "kfree(2) \\ multiples(3)"),
     {"zhat._ie", "zhat.setdsl", "zhat.measure", "zhat.analytic", "zhat.density"}),
    # closed forms, and floor sums over the inclusion-exclusion terms
    (("verify", "davenport-erdos", "--family", "p^2", "--pmax", "31", "--certified-points", "50",
      "--rmax", "1e7"),
     {"zhat._ie", "zhat.setdsl", "zhat.measure", "zhat.analytic", "zhat.density", "zhat.verify"}),
    # polynomial images by Hensel descent: every depth has at most
    # _hensel._INT_BATCH classes, evaluated with Python ints (the options
    # come first so that the test ids above stay as they are)
    (("verify", "--set", "image(5*x^2-7*x-8)", "eulerian", "--mlist", "12,360,9999"),
     {"zhat._ie", "zhat.setdsl", "zhat._counts", "zhat._hensel", "zhat.verify"}),
    (("measure", "--set", "image(x^2+y^2)", "--chain", "explicit:2,6,30,210,630"),
     SET_TRACE | {"zhat._hensel"}),
]


@pytest.mark.parametrize("args, runs", EXACT_COMMANDS,
                         ids=["-".join(args[:2]) for args, _ in EXACT_COMMANDS])
def test_exact_commands_load_no_numpy(args, runs):
    loaded = loaded_modules(RUN_CLI, *args)
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("zhat")} == {"zhat", "zhat.cli", "zhat._primes"} | runs


def test_a_set_theorem_imports_its_layers_before_verify():
    # leaf first: verify starts importing after the set layer
    order = module_order(RUN_CLI, "verify", "eulerian", "--set", "kfree(2)", "--mlist", "12")
    assert order.index("zhat.setdsl") < order.index("zhat.verify")


NUMPY_FREE_COMMANDS = [("sn", "rho", "1125896954054519"), ("sn", "mul", "2^inf*3", "3*5"),
                       *(args for args, _ in EXACT_COMMANDS)]


# every record is a zhat._primes.Record, a plain class, so a command that
# loads no numpy loads neither module
@pytest.mark.parametrize("args", NUMPY_FREE_COMMANDS,
                         ids=["-".join(args[:2]) for args in NUMPY_FREE_COMMANDS])
def test_plain_record_commands_load_neither_dataclasses_nor_inspect(args):
    loaded = loaded_modules(RUN_CLI, *args)
    assert not loaded & {"dataclasses", "inspect"}


def test_no_zhat_module_loads_dataclasses():
    loaded = loaded_modules("import sys\nimport zhat.setdsl, zhat._counts, zhat.measure, zhat.density, "
                            "zhat.analytic, zhat.verify")
    assert "zhat.verify" in loaded and "dataclasses" not in loaded


@pytest.mark.parametrize("args", NUMPY_FREE_COMMANDS,
                         ids=["-".join(args[:2]) for args in NUMPY_FREE_COMMANDS])
def test_numpy_free_commands_print_the_same_with_numpy_blocked(args):
    # with numpy unimportable, a branch that reaches for it fails loudly
    # instead of loading it
    blocked = "import sys\nsys.modules['numpy'] = None\n" + RUN_CLI
    assert run_fresh(blocked, *args).stdout == run_fresh(RUN_CLI, *args).stdout


def test_the_analytic_library_steps_load_no_set_layer():
    loaded = loaded_modules("import sys\nfrom zhat.analytic import dlog_zeta_check, vm_identity_scan")
    assert "zhat.analytic" in loaded
    assert not loaded & {"zhat.setdsl", "zhat.density", "zhat.verify"}


@pytest.mark.parametrize("args, absent", [
    (("verify", "counterexample", "--base", "4", "--terms", "6"), {"zhat.setdsl", "zhat.measure"}),
    (("density", "--set", "kfree(2)", "--method", "buck", "--level-cutoff", "1e3"),
     {"zhat.analytic", "zhat.verify"}),
    # an estimator reads box masks only: the exact engine stays unloaded
    (("density", "--set", "kfree(2)", "--method", "asymptotic", "--r", "1e5"), {"zhat._counts"}),
], ids=["verify-counterexample", "density-buck", "density-asymptotic"])
def test_commands_skip_layers_they_do_not_run(args, absent):
    loaded = loaded_modules(RUN_CLI, *args)
    assert not loaded & absent


def test_compiling_an_exact_set_loads_neither_the_engine_nor_numpy():
    # the exact engine's plan is built at compile time, in setdsl
    loaded = loaded_modules("import sys\nfrom zhat.setdsl import compile_set\n"
                            "assert compile_set('!multiples(4,9,25,49,121,169)').mode == 'exact'")
    assert "zhat.setdsl" in loaded
    assert not loaded & {"zhat._counts", "numpy"}
