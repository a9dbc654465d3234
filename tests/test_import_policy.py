"""What an ``awdit`` process imports, probed from a fresh interpreter.

Only a CC check gains more from numpy than numpy's import costs, so
:mod:`repro.graph.csr` imports it lazily and only a CC check loads it; the
packages resolve their re-exports on first access, so the CLI loads no
baseline checker, no history generator and, in batch mode, not the
streaming checker.  Each probe runs ``repro.cli.main`` in a new interpreter and
prints ``sys.modules`` afterwards, since the test process itself has long
since imported everything.

A numpy that is installed but does not import must not break a CC check:
the check finishes on the pure-Python sides with the same output.
"""

import json
import os
import re
import subprocess
import sys
from textwrap import dedent

import pytest

from repro.graph import csr
from repro.histories.formats import save_history
from repro.histories.generator import RandomHistoryConfig, generate_random_history

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Run in a fresh interpreter: ``repro.cli.main(argv)``, then the exit code
#: and every loaded module name as one JSON line.  An empty argv only
#: imports the CLI.
PROBE = dedent(
    """
    import contextlib, io, json, sys
    import repro.cli
    argv = json.loads(sys.argv[1])
    code = None
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            code = repro.cli.main(argv)
    print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
    """
)


def _env(pythonpath):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [*pythonpath, SRC, env.get("PYTHONPATH")])
    )
    return env


def _probe(argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        env=_env([]),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _unwanted(modules, batch):
    """The loaded modules that no RC or RA check should need."""
    found = [
        name
        for name in modules
        if name == "numpy"
        or name.startswith("repro.baselines.")
        or name == "repro.histories.generator"
    ]
    if batch and "repro.core.compiled.online" in modules:
        found.append("repro.core.compiled.online")
    return found


@pytest.fixture(scope="module")
def history_path(tmp_path_factory):
    history = generate_random_history(
        RandomHistoryConfig(num_sessions=3, num_transactions=60, num_keys=6, seed=11)
    )
    path = tmp_path_factory.mktemp("policy") / "h.plume"
    save_history(history, str(path), fmt="plume")
    return str(path)


def test_bare_import_loads_no_engine():
    loaded = _probe([])["modules"]
    assert _unwanted(loaded, batch=True) == []


@pytest.mark.parametrize("mode", ["batch", "stream"])
@pytest.mark.parametrize("level", ["rc", "ra"])
def test_rc_and_ra_never_load_numpy(history_path, level, mode):
    argv = ["check", history_path, "-i", level]
    if mode == "stream":
        argv.append("--stream")
    out = _probe(argv)
    assert out["code"] in (0, 1)
    assert _unwanted(out["modules"], batch=mode == "batch") == []


@pytest.mark.parametrize("mode", ["batch", "stream"])
def test_cc_loads_numpy_when_available(history_path, mode):
    argv = ["check", history_path, "-i", "cc"]
    if mode == "stream":
        argv.append("--stream")
    out = _probe(argv)
    assert out["code"] in (0, 1)
    assert ("numpy" in out["modules"]) == csr.HAVE_NUMPY
    others = [name for name in _unwanted(out["modules"], mode == "batch") if name != "numpy"]
    assert others == []


def _without_elapsed(text):
    return re.sub(r" in [0-9.]+ ms ", " ", text)


def test_numpy_that_fails_to_import_falls_back(history_path, tmp_path):
    # A numpy package that is found but raises on import, first on the
    # path: find_spec sees it, so only the import itself can fail.
    broken = tmp_path / "broken" / "numpy"
    broken.mkdir(parents=True)
    (broken / "__init__.py").write_text('raise ImportError("numpy is broken")\n')
    argv = [sys.executable, "-m", "repro.cli", "check", history_path, "-i", "cc", "--profile"]

    def run(pythonpath):
        env = _env(pythonpath)
        env.pop("AWDIT_NO_NUMPY", None)
        return subprocess.run(argv, env=env, capture_output=True, text=True)

    want = run([])
    got = run([str(broken.parent)])
    assert got.returncode == want.returncode, got.stderr
    assert "Traceback" not in got.stderr
    assert _without_elapsed(got.stdout) == _without_elapsed(want.stdout)
    assert re.search(r"saturation_kernel\s+fallback", got.stderr), got.stderr
