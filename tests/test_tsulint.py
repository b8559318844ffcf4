"""Tests for the project-invariant linter (tools/tsulint).

Each rule gets three kinds of fixture, written into ``tmp_path`` under the
path shapes the rule is scoped to (``src/repro/api/...`` etc.):

* a **violation** fixture the rule must flag,
* a **clean** fixture it must not flag,
* a **suppressed** fixture where a ``# tsulint: disable=...`` comment
  silences the finding.

The suite ends with the self-check CI relies on: running the full rule set
over this repository's ``src/`` and ``tests/`` yields zero diagnostics.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from tsulint.cli import main as tsulint_main  # noqa: E402
from tsulint.engine import Suppressions, lint_files  # noqa: E402
from tsulint.rules import RULES, rule_by_code  # noqa: E402

REPO = Path(__file__).resolve().parent.parent

#: A minimal taxonomy module; placed at src/repro/exceptions.py so the
#: index recognises DataError & co. as TsubasaError subclasses.
EXCEPTIONS_SRC = """\
class TsubasaError(Exception):
    pass

class SketchError(TsubasaError):
    pass

class DataError(TsubasaError):
    pass

_ERROR_CODES = {
    TsubasaError: 1,
    SketchError: 2,
    DataError: 3,
}
"""

#: A minimal spec module; placed at src/repro/api/spec.py so the drift
#: rule (TSU006) has a surface to check against.
SPEC_SRC = """\
from dataclasses import dataclass

OPS = ("corr_pair", "network")


@dataclass(frozen=True)
class QuerySpec:
    op: str
    theta: float | None = None

    def resolve(self) -> str:
        return self.op


_REQUIRED = {
    "corr_pair": ("op",),
    "network": ("op", "theta"),
}
_OPTIONAL = {
    "corr_pair": ("theta",),
}
"""


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return root


def run(root: Path, *, select: set[str] | None = None, require_reasons=False):
    diagnostics, _ = lint_files(
        [root], RULES, select=select, require_reasons=require_reasons
    )
    return diagnostics


def codes(diagnostics) -> list[str]:
    return [d.rule for d in diagnostics]


# ---------------------------------------------------------------------------
# TSU001 — blocking calls inside async def


def test_tsu001_flags_blocking_calls(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/api/handlers.py": """\
            import time
            from pathlib import Path

            async def handler(p: Path):
                time.sleep(0.1)
                open("log.txt")
                return p.read_text()
            """
        },
    )
    diagnostics = run(tmp_path, select={"TSU001"})
    assert codes(diagnostics) == ["TSU001", "TSU001", "TSU001"]
    assert "time.sleep" in diagnostics[0].message


def test_tsu001_clean_async_and_nested_sync(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/api/handlers.py": """\
            import asyncio
            import time

            async def handler():
                await asyncio.sleep(0.1)

                def sync_helper():
                    # Runs on its own call stack (e.g. in an executor).
                    time.sleep(0.1)

                return sync_helper

            def plain():
                time.sleep(0.1)
            """
        },
    )
    assert run(tmp_path, select={"TSU001"}) == []


def test_tsu001_scoped_to_api_and_streams(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/core/offline.py": """\
            import time

            async def batch():
                time.sleep(0.1)
            """
        },
    )
    assert run(tmp_path, select={"TSU001"}) == []


# ---------------------------------------------------------------------------
# TSU002 — threading lock held across await


def test_tsu002_flags_lock_across_await(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/streams/hub.py": """\
            import threading

            _lock = threading.Lock()

            async def publish(event):
                with _lock:
                    await event.send()
            """
        },
    )
    diagnostics = run(tmp_path, select={"TSU002"})
    assert codes(diagnostics) == ["TSU002"]
    assert "_lock" in diagnostics[0].message


def test_tsu002_clean_when_released_before_await(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/streams/hub.py": """\
            import asyncio
            import threading

            _lock = threading.Lock()
            _alock = asyncio.Lock()

            async def publish(event):
                with _lock:
                    queued = event.prepare()
                await queued.send()
                async with _alock:
                    await queued.confirm()
            """
        },
    )
    assert run(tmp_path, select={"TSU002"}) == []


# ---------------------------------------------------------------------------
# TSU003 — raw mmap reads outside generation-validated scopes


def test_tsu003_flags_unvalidated_reads(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/core/reader.py": """\
            class Peeker:
                def peek(self, store):
                    return store.arrays()

            def raw(store):
                return store._read_maps
            """
        },
    )
    diagnostics = run(tmp_path, select={"TSU003"})
    assert codes(diagnostics) == ["TSU003", "TSU003"]


def test_tsu003_generation_validated_scope_is_exempt(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/core/reader.py": """\
            class Validated:
                def consistent(self, store):
                    before = store.read_generation()
                    data = store.arrays()
                    after = store.read_generation()
                    return data if before == after else None

            def helper(store):
                with store.read_windows_consistent() as windows:
                    return windows.arrays()
            """
        },
    )
    assert run(tmp_path, select={"TSU003"}) == []


def test_tsu003_mmap_store_itself_is_exempt(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/storage/mmap_store.py": """\
            class MmapStore:
                def _commit(self):
                    return self._write_maps
            """
        },
    )
    assert run(tmp_path, select={"TSU003"}) == []


# ---------------------------------------------------------------------------
# TSU004 — exception taxonomy


def test_tsu004_flags_foreign_raise(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/exceptions.py": EXCEPTIONS_SRC,
            "src/repro/core/compute.py": """\
            from repro.exceptions import DataError

            def check(x):
                if x < 0:
                    raise ValueError("negative")
                if x > 10:
                    raise DataError("too large")
            """,
        },
    )
    diagnostics = run(tmp_path, select={"TSU004"})
    assert codes(diagnostics) == ["TSU004"]
    assert "'ValueError'" in diagnostics[0].message


def test_tsu004_dunder_allowances(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/exceptions.py": EXCEPTIONS_SRC,
            "src/repro/core/proxy.py": """\
            class Proxy:
                def __getattr__(self, name):
                    raise AttributeError(name)

                def __next__(self):
                    raise StopIteration
            """,
        },
    )
    assert run(tmp_path, select={"TSU004"}) == []


def test_tsu004_project_check_missing_registration(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/exceptions.py": """\
            class TsubasaError(Exception):
                pass

            class DataError(TsubasaError):
                pass

            class OrphanError(TsubasaError):
                pass

            _ERROR_CODES = {
                TsubasaError: 1,
                DataError: 3,
            }
            """
        },
    )
    diagnostics = run(tmp_path, select={"TSU004"})
    assert codes(diagnostics) == ["TSU004"]
    assert "'OrphanError'" in diagnostics[0].message
    assert "not registered" in diagnostics[0].message


def test_tsu004_project_check_duplicate_code(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/exceptions.py": """\
            class TsubasaError(Exception):
                pass

            class DataError(TsubasaError):
                pass

            _ERROR_CODES = {
                TsubasaError: 1,
                DataError: 1,
            }
            """
        },
    )
    diagnostics = run(tmp_path, select={"TSU004"})
    assert codes(diagnostics) == ["TSU004"]
    assert "unique" in diagnostics[0].message


# ---------------------------------------------------------------------------
# TSU005 — frombuffer read-only guard


def test_tsu005_flags_unguarded_frombuffer(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/api/decode.py": """\
            import numpy as np

            def decode(payload):
                return np.frombuffer(payload, dtype=np.float64)
            """
        },
    )
    diagnostics = run(tmp_path, select={"TSU005"})
    assert codes(diagnostics) == ["TSU005"]
    assert "read-only" in diagnostics[0].message


def test_tsu005_setflags_guard_passes(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/api/decode.py": """\
            import numpy as np

            def decode(payload):
                array = np.frombuffer(payload, dtype=np.float64)
                array.setflags(write=False)
                return array

            def decode_flags(payload):
                array = np.frombuffer(payload, dtype=np.float64)
                array.flags.writeable = False
                return array
            """
        },
    )
    assert run(tmp_path, select={"TSU005"}) == []


def test_tsu005_scoped_to_api(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/core/kernel.py": """\
            import numpy as np

            def scratch(payload):
                return np.frombuffer(payload, dtype=np.float64)
            """
        },
    )
    assert run(tmp_path, select={"TSU005"}) == []


# ---------------------------------------------------------------------------
# TSU006 — spec field drift


def test_tsu006_flags_unknown_spec_attribute(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/api/spec.py": SPEC_SRC,
            "src/repro/api/wire.py": """\
            def serialize(spec):
                return {"op": spec.op, "theta": spec.thetta}
            """,
        },
    )
    diagnostics = run(tmp_path, select={"TSU006"})
    assert codes(diagnostics) == ["TSU006"]
    assert "'thetta'" in diagnostics[0].message


def test_tsu006_real_fields_and_methods_pass(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/api/spec.py": SPEC_SRC,
            "src/repro/api/wire.py": """\
            def serialize(spec):
                return {"op": spec.op, "resolved": spec.resolve()}
            """,
        },
    )
    assert run(tmp_path, select={"TSU006"}) == []


def test_tsu006_project_check_op_table_drift(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/api/spec.py": """\
            from dataclasses import dataclass

            OPS = ("corr_pair",)


            @dataclass(frozen=True)
            class QuerySpec:
                op: str


            _REQUIRED = {
                "corr_pair": ("nonexistent",),
                "badop": ("op",),
            }
            """
        },
    )
    diagnostics = run(tmp_path, select={"TSU006"})
    messages = [d.message for d in diagnostics]
    assert codes(diagnostics) == ["TSU006", "TSU006"]
    assert any("'nonexistent'" in m for m in messages)
    assert any("'badop'" in m for m in messages)


# ---------------------------------------------------------------------------
# TSU007 — private names stay inside their module


def test_tsu007_flags_private_imports(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/api/remote.py": """\
            from repro.api.server import _apply_mask, encode_ws_frame
            from .frames import _HEADER

            def handler():
                from repro.api.server import _window_points
                return _apply_mask, encode_ws_frame, _HEADER, _window_points
            """
        },
    )
    diagnostics = run(tmp_path, select={"TSU007"})
    assert codes(diagnostics) == ["TSU007"] * 3
    assert [d.line for d in diagnostics] == [1, 2, 5]
    assert "'_apply_mask'" in diagnostics[0].message


def test_tsu007_public_dunder_and_foreign_imports_pass(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/api/remote.py": """\
            from os import _exit
            from repro import __version__
            from repro.api.server import apply_ws_mask

            def _local():
                return _exit, __version__, apply_ws_mask
            """,
            "tests/test_remote.py": """\
            from repro.api.remote import _WsClientConnection
            """,
        },
    )
    assert run(tmp_path, select={"TSU007"}) == []


def test_tsu007_suppression_with_reason(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/api/remote.py": """\
            # tsulint: disable=TSU007 -- test fixture
            from repro.api.server import _apply_mask
            """
        },
    )
    assert run(tmp_path, select={"TSU007"}, require_reasons=True) == []


# ---------------------------------------------------------------------------
# TSU008 — symmetric packing lives in repro/core/packing.py


def test_tsu008_flags_diagonal_packing(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/storage/blobs.py": """\
            import numpy as np
            from numpy import tril_indices

            def pack(matrix):
                n = matrix.shape[0]
                upper = matrix[np.triu_indices(n)]
                lower = matrix[tril_indices(n, 0)]
                return upper, lower, np.triu_indices(n, k=0)
            """
        },
    )
    diagnostics = run(tmp_path, select={"TSU008"})
    assert codes(diagnostics) == ["TSU008"] * 3
    assert [d.line for d in diagnostics] == [6, 7, 8]
    assert "packed_index" in diagnostics[0].message


def test_tsu008_pair_enumeration_and_helper_module_pass(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/core/queries.py": """\
            import numpy as np
            from repro.core.packing import pair_index

            def pairs(n, offset):
                return pair_index(n), np.triu_indices(n, k=2), np.triu_indices(n, offset)
            """,
            "src/repro/core/packing.py": """\
            import numpy as np

            def packed_index(n):
                return np.triu_indices(n)

            def pair_index(n):
                return np.triu_indices(n, k=1)
            """,
            "tests/test_blobs.py": """\
            import numpy as np

            upper = np.triu_indices(4)
            pairs = np.triu_indices(4, k=1)
            """,
        },
    )
    assert run(tmp_path, select={"TSU008"}) == []


def test_tsu008_flags_pair_maps(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/analysis/geography.py": """\
            import numpy as np
            from numpy import tril_indices

            def pairs(n):
                rows, cols = np.triu_indices(n, k=1)
                return rows, cols, np.triu_indices(n, 1), tril_indices(n, k=1)
            """
        },
    )
    diagnostics = run(tmp_path, select={"TSU008"})
    assert codes(diagnostics) == ["TSU008"] * 3
    assert [d.line for d in diagnostics] == [5, 6, 6]
    assert all("pair_index" in d.message for d in diagnostics)


def test_tsu008_suppression_with_reason(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/analysis/export.py": """\
            import numpy as np

            # tsulint: disable=TSU008 -- test fixture
            upper = np.triu_indices(4)
            """
        },
    )
    assert run(tmp_path, select={"TSU008"}, require_reasons=True) == []


# ---------------------------------------------------------------------------
# TSU009 — sketch providers are read-only after construction


def test_tsu009_flags_provider_state_writes(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/engine/providers.py": """\
            class SketchProvider:
                pass

            class CachedProvider(SketchProvider):
                def __init__(self):
                    self.reads = 0
                    self._cache = {}

                def read(self, i):
                    self.reads += 1
                    self._cache[i] = i
                    self._state.rows = i
                    self.a, self.b = i, i
                    self.last: int = i

            class Wrapper(CachedProvider):
                def build(self):
                    self._tables = []
            """
        },
    )
    diagnostics = run(tmp_path, select={"TSU009"})
    assert codes(diagnostics) == ["TSU009"] * 6
    assert [d.line for d in diagnostics] == [10, 11, 12, 13, 14, 18]
    assert "CachedProvider.read" in diagnostics[0].message
    assert "Wrapper.build" in diagnostics[-1].message


def test_tsu009_init_locals_and_other_classes_pass(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/engine/providers.py": """\
            class SketchProvider:
                def helper(self):
                    return 1

            class ReadOnlyProvider(SketchProvider):
                def __init__(self, tables):
                    self._tables = tables
                    self._tables[0] = 0

                def read(self, i):
                    rows = self._tables[i]
                    rows[0] = 1
                    self._tables.extend([i])
                    return rows

            class Counter:
                def bump(self):
                    self.count = 1
            """,
            "src/repro/api/client.py": """\
            class SketchProvider:
                pass

            class Elsewhere(SketchProvider):
                def read(self):
                    self.count = 1
            """,
        },
    )
    assert run(tmp_path, select={"TSU009"}) == []


def test_tsu009_suppression_with_reason(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/engine/providers.py": """\
            class SketchProvider:
                pass

            class Provider(SketchProvider):
                def read(self):
                    self.reads = 1  # tsulint: disable=TSU009 -- test fixture
            """
        },
    )
    assert run(tmp_path, select={"TSU009"}, require_reasons=True) == []


# ---------------------------------------------------------------------------
# Suppressions


def test_inline_suppression_with_reason(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/api/handlers.py": """\
            import time

            async def handler():
                time.sleep(0.01)  # tsulint: disable=TSU001 -- test fixture
            """
        },
    )
    assert run(tmp_path, require_reasons=True) == []


def test_standalone_suppression_comment_line(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/api/handlers.py": """\
            import time

            async def handler():
                # tsulint: disable=TSU001 -- startup probe runs pre-loop
                time.sleep(0.01)
            """
        },
    )
    assert run(tmp_path, require_reasons=True) == []


def test_bare_suppression_flagged_in_require_reasons_mode(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/api/handlers.py": """\
            import time

            async def handler():
                time.sleep(0.01)  # tsulint: disable=TSU001
            """
        },
    )
    assert run(tmp_path) == []
    diagnostics = run(tmp_path, require_reasons=True)
    assert codes(diagnostics) == ["TSU900"]


def test_suppression_only_covers_named_rule(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/api/handlers.py": """\
            import time

            async def handler():
                time.sleep(0.01)  # tsulint: disable=TSU002 -- wrong rule
            """
        },
    )
    assert codes(run(tmp_path)) == ["TSU001"]


def test_disable_all_covers_everything():
    suppressions = Suppressions(
        "x = 1  # tsulint: disable=all -- generated file\n"
    )
    assert suppressions.active_for("TSU001", 1) is not None
    assert suppressions.active_for("TSU006", 1) is not None


# ---------------------------------------------------------------------------
# Engine behavior


def test_unparseable_file_yields_tsu000(tmp_path):
    write_tree(tmp_path, {"src/repro/core/broken.py": "def f(:\n"})
    diagnostics = run(tmp_path)
    assert codes(diagnostics) == ["TSU000"]


def test_rule_registry_is_complete():
    assert [rule.code for rule in RULES] == [
        "TSU001",
        "TSU002",
        "TSU003",
        "TSU004",
        "TSU005",
        "TSU006",
        "TSU007",
        "TSU008",
        "TSU009",
    ]
    for rule in RULES:
        assert rule.description
        assert rule_by_code(rule.code) is rule
    with pytest.raises(KeyError):
        rule_by_code("TSU999")


# ---------------------------------------------------------------------------
# CLI


def test_cli_exit_codes(tmp_path, capsys):
    write_tree(
        tmp_path,
        {
            "src/repro/api/handlers.py": """\
            import time

            async def handler():
                time.sleep(0.01)
            """
        },
    )
    assert tsulint_main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "TSU001" in out
    (tmp_path / "src/repro/api/handlers.py").write_text(
        "async def handler():\n    return 1\n", encoding="utf-8"
    )
    assert tsulint_main([str(tmp_path)]) == 0


def test_cli_usage_errors(capsys):
    assert tsulint_main([]) == 2
    assert tsulint_main(["--select", "TSU999", "src"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule codes" in err


def test_cli_list_rules(capsys):
    assert tsulint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.code in out


# ---------------------------------------------------------------------------
# Self-check: this repository passes its own linter (what CI enforces).


def test_repository_is_clean_under_all_rules():
    diagnostics, n_files = lint_files(
        [REPO / "src", REPO / "tests"], RULES, require_reasons=True
    )
    assert diagnostics == [], "\n".join(d.render() for d in diagnostics)
    assert n_files > 50
