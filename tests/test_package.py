"""The package's import boundary: ``import nfmigsim`` loads the data plane
only, and every exported name still resolves.  Each check runs in a fresh
interpreter, since this one has long since loaded every module."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import nfmigsim

SRC = Path(nfmigsim.__file__).resolve().parents[1]
README = SRC.parent / "README.md"
DATA_PLANE = ["nfmigsim", "nfmigsim.errors", "nfmigsim.memory", "nfmigsim.migration", "nfmigsim.model"]
CONTROL_PLANE = ("engine", "policy", "scenario", "runner")  # in import order
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'nfmigsim')))"


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that finds nfmigsim under src; its stdout."""
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_import_loads_only_the_data_plane():
    assert json.loads(fresh(f"import json, sys, nfmigsim; {LOADED}")) == DATA_PLANE


def test_every_exported_name_is_its_home_modules_object():
    # Each name is read from the package first, so a lazy one loads through it.
    code = f"""
import importlib, json, nfmigsim
values = {{name: getattr(nfmigsim, name) for name in nfmigsim.__all__}}
order = ("errors", "memory", "model", "migration") + {CONTROL_PLANE!r}
modules = [importlib.import_module("nfmigsim." + name) for name in order]
homes = {{}}
for name, value in values.items():
    home = next(m for m in modules if hasattr(m, name))  # the module that defines it
    homes[name] = [home.__name__, getattr(home, name) is value]
print(json.dumps(homes))
"""
    homes = json.loads(fresh(code))
    assert sorted(homes) == sorted(nfmigsim.__all__)
    assert [name for name, (_, same) in homes.items() if not same] == []
    lazy = {name: home for name, (home, _) in homes.items() if home.split(".")[1] in CONTROL_PLANE}
    assert lazy == {name: f"nfmigsim.{module}" for name, module in nfmigsim._HOME.items()}


def test_star_import_binds_every_exported_name():
    code = "import nfmigsim; from nfmigsim import *; print(sorted(set(nfmigsim.__all__) - set(dir())))"
    assert fresh(code).strip() == "[]"


def test_dir_lists_every_exported_name_and_lazy_module():
    code = "import json, nfmigsim; print(json.dumps(dir(nfmigsim)))"
    listed = json.loads(fresh(code))
    assert set(nfmigsim.__all__) | set(CONTROL_PLANE) <= set(listed)
    assert listed == sorted(listed)


def test_a_lazy_submodule_resolves_after_a_bare_import():
    code = "import sys, nfmigsim; print(nfmigsim.runner is sys.modules['nfmigsim.runner'])"
    assert fresh(code).strip() == "True"


def test_an_unknown_name_raises_attribute_error():
    code = """
import nfmigsim
try:
    nfmigsim.no_such_name
except AttributeError as exc:
    print(exc)
try:
    from nfmigsim import no_such_name
except ImportError as exc:
    print(type(exc).__name__)
"""
    assert fresh(code).splitlines() == [
        "module 'nfmigsim' has no attribute 'no_such_name'",
        "ImportError",
    ]


def test_the_cli_loads_every_module():
    code = f"import json, sys; from nfmigsim.cli import main; main(['policy-table']); {LOADED}"
    loaded = json.loads(fresh(code).splitlines()[-1])
    assert loaded == sorted(
        DATA_PLANE + ["nfmigsim.cli"] + [f"nfmigsim.{name}" for name in CONTROL_PLANE]
    )


def test_readme_library_example_runs_on_the_data_plane_alone():
    section = README.read_text(encoding="utf-8").split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    loaded = json.loads(fresh(f"{block}\nimport json, sys\n{LOADED}").splitlines()[-1])
    assert loaded == DATA_PLANE
