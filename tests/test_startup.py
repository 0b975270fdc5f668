"""Start-up stays lean, and numpy stays optional.

``import repro`` and a scenario lookup load neither numpy (the optional
batch-kernel backend) nor the sweep executor with ``multiprocessing``.
numpy loads on the first backend resolution (:mod:`repro.sim.kernels`),
and a sweep resolves it in the supervisor, before any fork.  Each case
runs in a fresh interpreter, because this one has long imported both.
The no-numpy cases block the import with a ``sys.meta_path`` finder, so
they pin the scalar fallback on interpreters that have numpy too.
"""

import json
import subprocess
import sys

import pytest

from repro.sim.experiments import run_scenario
from repro.sim.kernels import numpy_or_none, use_backend
from repro.testing import subprocess_env

HAS_NUMPY = numpy_or_none() is not None

#: Prepended to a script: every later ``import numpy`` raises ImportError.
BLOCK_NUMPY = """\
import sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoNumpy())
"""

#: A cell with a batch kernel, so a numpy request has something to change.
KERNEL_CELL = ("labeled-bfs/grid", 18, 0)


def run_python(script: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=subprocess_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_import_and_scenario_lookup_load_neither_numpy_nor_the_executor():
    out = run_python(
        "import sys, repro\n"
        "from repro.sim import experiments\n"
        "experiments.get_scenario('sssp/er')\n"
        "print(sorted(m for m in ('numpy', 'multiprocessing', 'repro.api.run')"
        " if m in sys.modules))\n"
    )
    assert out.strip() == "[]"


def test_executor_names_still_resolve_from_repro_api():
    out = run_python(
        "import sys, repro.api as api\n"
        "assert 'repro.api.run' not in sys.modules\n"
        "from repro.api import run_sweep_spec\n"
        "from repro.api.run import run_report_spec, smoke_spec\n"
        "assert api.run_report_spec is run_report_spec\n"
        "assert api.smoke_spec is smoke_spec and api.run_sweep_spec is run_sweep_spec\n"
        "assert all(hasattr(api, name) for name in api.__all__)\n"
        "print('ok')\n"
    )
    assert out.strip() == "ok"


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy is not installed")
def test_a_numpy_request_imports_numpy():
    out = run_python(
        "import sys\n"
        "from repro.sim.kernels import set_backend\n"
        "before = 'numpy' in sys.modules\n"
        "set_backend('numpy')\n"
        "print(before, 'numpy' in sys.modules)\n"
    )
    assert out.split() == ["False", "True"]


def test_blocked_numpy_resolves_to_scalar_and_gives_the_numpy_row():
    out = run_python(
        BLOCK_NUMPY
        + "import json\n"
        "from repro.sim.experiments import run_scenario\n"
        "from repro.sim.kernels import available_backends, current_backend, use_backend\n"
        "assert current_backend() == 'scalar', current_backend()\n"
        "assert available_backends() == ('scalar',)\n"
        "with use_backend('numpy'):\n"
        "    assert current_backend() == 'scalar'\n"
        f"    row = run_scenario(*{KERNEL_CELL!r})\n"
        "assert 'numpy' not in sys.modules\n"
        "print(json.dumps(row))\n"
    )
    # This interpreter dispatches the kernel when numpy is installed; the
    # blocked one runs the scalar path, and the rows must agree.
    with use_backend("numpy"):
        expected = run_scenario(*KERNEL_CELL)
    assert json.loads(out) == json.loads(json.dumps(expected))


def test_blocked_numpy_repro_info_reports_scalar():
    out = run_python(
        BLOCK_NUMPY
        + "from repro.__main__ import main\n"
        "sys.exit(main(['info', '--json']))\n"
    )
    backend = json.loads(out)["backend"]
    assert backend == {"active": "scalar", "available": ["scalar"]}


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy is not installed")
@pytest.mark.parametrize("backend", [None, "numpy"])
def test_sweep_supervisor_imports_numpy_before_forking_its_workers(backend, tmp_path):
    # Each forked worker records whether numpy was already imported when
    # it entered its loop: inherited from the supervisor, not imported by
    # each worker in turn.  The default request resolves to numpy too.
    out = run_python(
        "import os, sys\n"
        "from repro.api import SweepSpec, run_sweep_spec\n"
        "from repro.api import run\n"
        "loop = run._worker_loop\n"
        "def recording_loop(*args):\n"
        f"    with open(os.path.join({str(tmp_path)!r}, str(os.getpid())), 'w') as f:\n"
        "        f.write(str('numpy' in sys.modules))\n"
        "    loop(*args)\n"
        "run._worker_loop = recording_loop\n"
        "assert 'numpy' not in sys.modules\n"
        "rows = run_sweep_spec(SweepSpec(scenarios=('bfs/grid', 'sssp/er'),\n"
        f"    sizes=(12, 16), seeds=(0,), workers=2, backend={backend!r}))\n"
        "print(len(rows))\n"
    )
    assert out.strip() == "4"
    seen = [path.read_text() for path in tmp_path.iterdir()]
    assert seen and set(seen) == {"True"}, seen
