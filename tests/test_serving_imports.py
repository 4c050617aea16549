"""What a serving process imports, and that it serves without scipy.

A server needs only numpy: scipy serves ``baselines/`` and the pin tests
in ``test_core_params_hypothesis.py``, and the five AQP baselines serve
``bench/`` and ``workload.run``.  Both checks run in a fresh interpreter,
because this suite's own process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import DurableDatabase, QueryService, load_dataset
from repro.workload import QueryGenerator, WorkloadSpec

#: Modules a server must never load: (name prefix, why it is excluded).
FORBIDDEN = [
    ("scipy", "the server needs only numpy"),
    ("repro.baselines", "baselines serve bench/ and workload.run only"),
    ("repro.workload.runner", "workload.run is a lazy export"),
]

#: Records, for every module the interpreter looks up, the chain of
#: modules whose code was running when it was first imported.
_RECORD_IMPORTERS = """
import sys

CHAINS = {}
_SKIP = {"importlib", "importlib._bootstrap", "importlib._bootstrap_external"}


class _Recorder:
    def find_spec(self, name, path=None, target=None):
        if name not in CHAINS:
            chain, frame = [], sys._getframe(1)
            while frame is not None:
                module = frame.f_globals.get("__name__") or "<exec>"
                if module not in _SKIP and (not chain or chain[-1] != module):
                    chain.append(module)
                frame = frame.f_back
            CHAINS[name] = " <- ".join(chain)
        return None


sys.meta_path.insert(0, _Recorder())
"""

_BLOCK_SCIPY = """
import sys


class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked in this process ({name})")
        return None


sys.meta_path.insert(0, _NoScipy())
"""


def _python(script: str) -> str:
    """Run ``script`` in a fresh interpreter that finds this checkout's ``repro``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _matches(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


@pytest.fixture(scope="module")
def server_imports() -> dict[str, str]:
    """``{module: importer chain}`` for every module ``import repro.service.cli`` loads.

    A module loaded before the recorder was installed has the chain ``"?"``.
    """
    script = _RECORD_IMPORTERS + textwrap.dedent(
        """
        import json

        import repro.service.cli

        # In the order they were first looked up, so a package precedes its submodules.
        loaded = {name: chain for name, chain in CHAINS.items() if name in sys.modules}
        loaded.update({name: "?" for name in sys.modules if name not in loaded})
        print(json.dumps(loaded))
        """
    )
    return json.loads(_python(script))


@pytest.mark.parametrize("prefix,why", FORBIDDEN, ids=[prefix for prefix, _ in FORBIDDEN])
def test_server_cli_does_not_import(server_imports, prefix, why):
    loaded = [name for name in server_imports if _matches(name, prefix)]
    first = loaded[0] if loaded else None
    assert not loaded, (
        f"`import repro.service.cli` loaded {len(loaded)} {prefix}* module(s) ({why}); "
        f"{first} was imported by {server_imports[first] if first else ''}"
    )


def test_server_cli_imports_its_own_stack(server_imports):
    # The recorder itself works: the check above is not vacuous.
    assert "repro.service.cli" in server_imports
    assert "numpy" in server_imports
    assert server_imports["repro.core.chi2_table"].startswith("repro.core.hypothesis <- ")


def lifecycle(path) -> list[list[str]]:
    """Register, ingest, query, checkpoint, reopen, query again.

    Returns ``float.hex`` of every answer and bound of both query passes,
    so two runs compare bit for bit.
    """
    table = load_dataset("power", rows=10_000)
    statements = [
        str(query)
        for query in QueryGenerator(table, WorkloadSpec(num_queries=20, seed=3)).generate()
    ]

    def answers(service: QueryService) -> list[list[str]]:
        results = [service.execute_scalar(sql) for sql in statements]
        return [[float.hex(float(r.value)), float.hex(r.lower), float.hex(r.upper)] for r in results]

    database = DurableDatabase(path, partition_size=2_000)
    service = QueryService(database=database)
    service.register_table(table)
    service.ingest("power", load_dataset("power", rows=1_000, seed=1))
    before = answers(service)
    service.checkpoint()
    database.close()
    database = DurableDatabase.open(path, partition_size=2_000)
    after = answers(QueryService(database=database))
    database.close()
    return before + after


def test_durable_lifecycle_without_scipy_matches_with_scipy(tmp_path):
    pytest.importorskip("scipy.stats")  # the in-process reference run has it loaded
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    script = _BLOCK_SCIPY + textwrap.dedent(
        f"""
        import json

        sys.path.insert(0, {tests_dir!r})
        from test_serving_imports import lifecycle

        answers = lifecycle({str(tmp_path / "blocked")!r})
        assert not [name for name in sys.modules if name.startswith("scipy")]
        print(json.dumps(answers))
        """
    )
    blocked = json.loads(_python(script))
    assert len(blocked) == 40
    assert blocked == lifecycle(tmp_path / "loaded")
