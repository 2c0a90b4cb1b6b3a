"""The documentation layer must not rot.

Runs the same two checks the CI docs job runs via
``tools/check_docs.py``: the public API surface of ``repro.core`` and
``repro.serving`` is fully docstringed (the pydocstyle D100–D104
missing-docstring rules), and every relative link in ``docs/``,
``README.md`` and ``CHANGES.md`` points at a file that exists.
"""

import ast
import dataclasses
import importlib.util
import inspect
import re
from pathlib import Path

from repro.core.config import EngineConfig, ServingConfig

_TOOL = (
    Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"
)
_spec = importlib.util.spec_from_file_location("check_docs", _TOOL)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


_TUNING = Path(__file__).resolve().parent.parent / "docs" / "TUNING.md"


def test_public_api_is_docstringed():
    assert check_docs.check_docstrings() == []


def test_markdown_links_resolve():
    assert check_docs.check_markdown_links() == []


def test_tuning_guide_covers_every_engine_knob():
    """docs/TUNING.md names every EngineConfig and ServingConfig field."""
    guide = _TUNING.read_text(encoding="utf-8")
    for config in (EngineConfig, ServingConfig):
        for field in dataclasses.fields(config):
            assert f"`{field.name}`" in guide, (
                f"docs/TUNING.md does not document "
                f"{config.__name__}.{field.name}"
            )


def test_tuning_guide_lists_only_real_knobs():
    """Every `` `name` `` bullet of docs/TUNING.md is a config field."""
    knobs = {
        field.name
        for config in (EngineConfig, ServingConfig)
        for field in dataclasses.fields(config)
    }
    for line in _TUNING.read_text(encoding="utf-8").splitlines():
        if line.startswith("- `"):
            for name in re.findall(r"`([^`]+)`", line.split(" — ")[0]):
                assert name in knobs, (
                    f"docs/TUNING.md documents {name}, which is no knob"
                )


def test_knob_count_only_goes_down():
    """A ratchet: lower these bounds when a knob goes, never raise them."""
    assert len(dataclasses.fields(EngineConfig)) <= 19
    assert len(dataclasses.fields(ServingConfig)) <= 6


def test_src_lines_only_go_down():
    """A ratchet on the size of ``src/``: lower the bound when lines go.

    Counts what ``find src -name '*.py' | xargs cat | wc -l`` prints
    (newlines in every ``.py`` file under ``src/``), the number CI
    writes to the job summary.
    """
    src = _TUNING.parent.parent / "src"
    lines = sum(
        path.read_bytes().count(b"\n") for path in src.rglob("*.py")
    )
    assert lines <= 16178


#: Fields nothing outside ``tests/`` sets, each with why it stays a
#: field.  The list may only shrink: a name that gains a setter must
#: leave it, and a new name needs a caller, not an entry here.
_SET_BY_TESTS_ONLY = {
    "degrade_on_fault": "chooses a behaviour (raise the typed fault or "
    "answer quick), not a number a constant could hold",
    "coalesce_window_ms": "caps how long a quick batch waits behind a "
    "running accurate search: a trade of quick latency for accurate "
    "latency on one GIL, which the tests drive to both ends",
}


def test_every_knob_is_set_outside_tests():
    """An option only tests set is a constant.

    Every field of both configs is passed by keyword in some call under
    ``src/``, ``bench/``, ``benchmarks/`` or ``examples/`` (a CLI flag
    counts through the keyword ``cli.py`` forwards it as), test
    directories excluded — or is on the allow-list above.
    """
    root = _TUNING.parent.parent
    passed = set()
    for directory in ("src", "bench", "benchmarks", "examples"):
        for path in sorted((root / directory).rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            passed.update(
                keyword.arg
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                for keyword in node.keywords
            )
    unset = {
        field.name
        for config in (EngineConfig, ServingConfig)
        for field in dataclasses.fields(config)
        if field.name not in passed
    }
    assert unset == set(_SET_BY_TESTS_ONLY)


def test_every_knob_is_read():
    """A field nothing reads is not a knob.

    Every field is read off a config object (``config.<name>``, which
    covers ``self.config.`` / ``self._config.`` / ``engine.config.``)
    somewhere under ``src/repro`` outside ``core/config.py`` — directly,
    or through a property of its own config class that is.  A
    same-named attribute of another class does not count.
    """
    package = _TUNING.parent.parent / "src" / "repro"
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(package.rglob("*.py"))
        if path != package / "core" / "config.py"
    )

    def is_read(name):
        return re.search(rf"config\.{name}\b", source) is not None

    for config in (EngineConfig, ServingConfig):
        properties = {
            name: inspect.getsource(member.fget)
            for name, member in vars(config).items()
            if isinstance(member, property)
        }
        for field in dataclasses.fields(config):
            assert is_read(field.name) or any(
                is_read(name) and re.search(rf"self\.{field.name}\b", body)
                for name, body in properties.items()
            ), f"{config.__name__}.{field.name} is read by nothing in src/"


def test_view_verbs_are_written_once():
    """A pinned view's verbs live on ``query_path.PinnedView``.

    ``quantile_many`` and ``ts_merges_built`` exist only on views (and
    on the systems that pin one per call), so a definition of either
    anywhere else under ``src/repro`` is a second copy of the query
    surface — the way ``SnapshotHandle`` and ``ClusterSnapshot`` each
    carried their own until their caches and counters drifted apart.
    """
    package = _TUNING.parent.parent / "src" / "repro"
    defined = {
        (node.name, path.relative_to(package).as_posix())
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and node.name in ("quantile_many", "ts_merges_built")
    }
    assert defined == {
        ("quantile_many", "core/query_path.py"),
        ("ts_merges_built", "core/query_path.py"),
    }
