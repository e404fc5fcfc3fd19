"""The package namespace: layers loaded on first use, and the public names.

Each check that counts what a process loads runs in a fresh interpreter,
because the test process itself has imported every layer."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdm

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
P2 = str(ROOT / "fans" / "p2.json")
LAYERS = ("linalg", "toric", "cohomology", "ifunction", "dmodule", "loop_model",
          "serialize")

# The names `from qdm import *` gives, in order, with the module each one
# is defined in.
PUBLIC = [
    ("toric", ["FanData", "ChargeMatrix", "MoriCone", "FanError", "NefBasisError",
               "make_fan", "parse_fan", "charge_matrix", "mori_generators",
               "enumerate_degrees", "in_cone", "wall_relations"]),
    ("cohomology", ["CohomRing", "CohomClass", "build_ring", "monomials"]),
    ("ifunction", ["Series", "euler_ratio", "check_ratio", "build_f", "component"]),
    ("dmodule", ["DiffOp", "EmptyWindowError", "apply",
                 "gkz_operator", "find_annihilators", "semiclassical"]),
    ("loop_model", ["CriticalData", "ComponentAbsentError", "critical_component",
                    "euler_ratio_n", "check_stabilization"]),
]


def _python(*args, **env):
    """Run the interpreter on args from the repository root, with the
    package on its path, no bytecode written and env added."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])),
               **env)
    return subprocess.run([sys.executable] + list(args), env=env, cwd=str(ROOT),
                          capture_output=True, text=True, timeout=120)


# Records the package modules a process compiles into the file argv[1], then
# imports the package (argv[2] == "import") or runs the CLI on argv[2:].
COMPILED = r"""
import json, runpy, sys
target, argv = sys.argv[1], sys.argv[2:]
package = %r
seen = []

def hook(event, args):
    if event == "compile" and isinstance(args[1], str) and args[1].startswith(package):
        seen.append(args[1][len(package):].lstrip("/\\").rsplit(".", 1)[0])

sys.addaudithook(hook)
try:
    if argv == ["import"]:
        import qdm
    else:
        sys.argv = ["qdm"] + argv
        runpy.run_module("qdm.cli", run_name="__main__")
except SystemExit as exc:
    if exc.code:
        raise
finally:
    with open(target, "w") as fh:
        json.dump(seen, fh)
""" % str(SRC / "qdm")


@pytest.mark.parametrize("argv, unused", [
    (["import"], set(LAYERS) | {"cli"}),
    (["cohomology", P2], {"dmodule", "ifunction", "loop_model"}),
    (["ifunction", P2], {"dmodule", "loop_model"}),
    (["loop-model", P2], {"dmodule"}),
    (["operators", P2], {"loop_model"}),
], ids=["import", "cohomology", "ifunction", "loop-model", "operators"])
def test_a_process_compiles_only_the_layers_it_runs(tmp_path, argv, unused):
    # with no cached bytecode read, as in a fresh checkout, every module a
    # process loads is compiled from source, so a layer a subcommand never
    # runs must not be loaded at all
    target = tmp_path / "compiled.json"
    proc = _python("-c", COMPILED, str(target), *argv,
                   PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"))
    assert proc.returncode == 0, proc.stderr
    compiled = json.loads(target.read_text())
    assert "__init__" in compiled
    if argv != ["import"]:
        assert {"cli", "toric", "linalg", "cohomology", "serialize"} <= set(compiled)
    assert not unused & set(compiled), compiled


@pytest.mark.parametrize("command", ["cohomology", "ifunction", "operators", "loop-model"])
def test_the_module_entry_point_writes_nothing_to_stderr(command):
    # runpy warns on stderr when qdm.cli is in sys.modules before it runs
    proc = _python("-m", "qdm.cli", command, P2)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["ok"] is True


# Installs the frozen benchmark's tracer right after `import qdm.cli`, as its
# traced pass does, then checks that uninstall puts back every original.
TRACER = r"""
import importlib.util, sys
import qdm.cli
spec = importlib.util.spec_from_file_location("perfbench_layers", %r)
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
tracer = layers.Tracer()
traced_code = tracer.wrap("probe", len).__code__
uninstall = layers.install(tracer)
modules = [sys.modules["qdm." + layer] for layer in layers.LAYERS]
classes = [getattr(sys.modules["qdm." + layer], cls) for layer, (cls, _) in
           layers.METHODS.items()]
wrapped = [(obj, attr, value) for obj in modules + classes
           for attr, value in list(vars(obj).items())
           if getattr(value, "__code__", None) is traced_code]
homes = {(obj.__name__, attr) for obj, attr, _ in wrapped}
for layer, names in layers.FUNCTIONS.items():
    for name in names:
        if ("qdm." + layer, name) not in homes:
            raise SystemExit("qdm.%%s.%%s was not wrapped" %% (layer, name))
uninstall()
for obj, attr, value in wrapped:
    if vars(obj)[attr] is not value.__wrapped__:
        raise SystemExit("%%s.%%s was not restored" %% (obj.__name__, attr))
print(len(wrapped))
""" % str(ROOT / "perfbench" / "layers.py")


def test_the_benchmark_tracer_installs_after_importing_the_cli():
    proc = _python("-c", TRACER)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert int(proc.stdout) > 0


def test_public_names_keep_their_order_and_objects():
    assert qdm.__all__ == [name for _, names in PUBLIC for name in names]
    assert qdm.__version__ == "0.1.0"
    for home, names in PUBLIC:
        module = importlib.import_module("qdm." + home)
        assert getattr(qdm, home) is module
        for name in names:
            assert getattr(qdm, name) is getattr(module, name), name
    for layer in LAYERS:
        assert getattr(qdm, layer) is sys.modules["qdm." + layer]


def test_dir_lists_the_public_names_before_they_load():
    proc = _python("-c", "import qdm; print(sorted(set(qdm.__all__) - set(dir(qdm))))")
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qdm.no_such_name
    assert not hasattr(qdm, "DiffOps")
