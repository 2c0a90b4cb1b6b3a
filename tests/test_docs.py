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
    assert len(dataclasses.fields(EngineConfig)) <= 18
    assert len(dataclasses.fields(ServingConfig)) <= 4


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
    assert lines <= 13854


def test_backends_lines_only_go_down():
    """A ratchet on ``src/repro/storage/backends.py``, which is to
    stay under 800 lines: lower the bound when lines go.

    Counts what ``wc -l`` prints for the file, the number CI writes to
    the job summary beside the ``src/`` count.
    """
    backends = _TUNING.parent.parent / "src" / "repro" / "storage"
    lines = (backends / "backends.py").read_bytes().count(b"\n")
    assert lines <= 752


def test_docs_lines_only_go_down():
    """A ratchet on the size of ``docs/``: lower the bound when lines go.

    Counts what ``cat docs/*.md | wc -l`` prints, the number CI writes
    to the job summary beside the ``src/`` count.
    """
    lines = sum(
        path.read_bytes().count(b"\n") for path in _TUNING.parent.glob("*.md")
    )
    assert lines <= 2255


def test_stats_classes_only_go_down():
    """A ratchet on the classes under ``src/`` named like a stats
    surface (``...Stats``, ``Report``, ``Metrics``, ``Counters``,
    ``Tally``): counts belong in the engine's one stats table, so lower
    the bound when one goes, never raise it."""
    pattern = re.compile(r"^class \w*(Stats|Report|Metrics|Counters|Tally)\b")
    src = _TUNING.parent.parent / "src"
    classes = [
        line
        for path in src.rglob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if pattern.match(line)
    ]
    assert len(classes) <= 7, classes


#: Fields nothing outside ``tests/`` sets, each with why it stays a
#: field.  The list may only shrink: a name that gains a setter must
#: leave it, and a new name needs a caller, not an entry here.
_SET_BY_TESTS_ONLY = {}


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


def test_restore_reaches_no_private_state():
    """Restore code speaks to what it restores through its public surface.

    ``persistence/*.py``, ``cluster/persistence.py`` and
    ``ingest/wal.py`` neither read, write nor call an ``_``-prefixed
    attribute of an ``engine``, ``shard`` or ``cluster`` (nor name one
    to ``getattr`` / ``setattr``): a field written after construction
    skips the checks its owner makes when it takes state back.
    """
    package = _TUNING.parent.parent / "src" / "repro"
    paths = sorted((package / "persistence").glob("*.py")) + [
        package / "cluster" / "persistence.py",
        package / "ingest" / "wal.py",
    ]
    reaches = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                owner, name = node.value, node.attr
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "setattr", "hasattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                owner, name = node.args[0], str(node.args[1].value)
            else:
                continue
            if (
                isinstance(owner, ast.Name)
                and owner.id in ("engine", "shard", "cluster")
                and name.startswith("_")
            ):
                reaches.append(
                    f"{path.relative_to(package)}:{node.lineno} "
                    f"{owner.id}.{name}"
                )
    assert reaches == []


#: Public names nothing outside ``tests/`` calls, each with the
#: DESIGN.md system it reproduces.  The list may only shrink: a name
#: that gains a caller must leave it, and a new name needs a caller,
#: not an entry here.
_KEPT_FOR_THE_PAPER = {
    "StrawmanEngine": "system 18, the strawman baseline (always sorted)",
    "MemoryBudget.from_megabytes": "system 16, epsilon from a memory budget",
    "epsilon_for_budget": "system 16, epsilon from a memory budget",
    "calibrate_gk": "system 20, the harness's sketch calibration",
    "calibrate_qdigest": "system 20, the harness's sketch calibration",
    "section_2_4_example": "system 20, the worked example of Section 2.4",
    "quick_relative_error_bound": "system 20, the theory bounds",
    "update_disk_accesses_bound": "system 20, the theory bounds",
}


def _public_names(package):
    """``(qualified name, name, path, line)`` of every public
    module-level function or class under ``package``, and of every
    public method or property of a public class."""
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            yield node.name, node.name, path, node.lineno
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif (
                    isinstance(item, ast.Assign)
                    and isinstance(item.value, ast.Call)
                    and getattr(item.value.func, "id", None) == "property"
                ):
                    names = [
                        t.id for t in item.targets if isinstance(t, ast.Name)
                    ]
                else:
                    continue
                for name in names:
                    if not name.startswith("_"):
                        yield f"{node.name}.{name}", name, path, item.lineno


def test_every_public_name_has_a_caller():
    """A public name only tests call is kept for the tests alone.

    Every public module-level function or class under ``src/repro``,
    and every public method or property of a public class, appears as
    a whole word in some ``.py`` file under ``src/``, ``bench/``,
    ``benchmarks/``, ``examples/`` or ``tools/`` — its own ``def`` or
    ``class`` line and ``src/**/__init__.py`` re-exports excluded — or
    is on the allow-list above.
    """
    root = _TUNING.parent.parent
    lines = {
        path: path.read_text(encoding="utf-8").splitlines()
        for directory in ("src", "bench", "benchmarks", "examples", "tools")
        for path in sorted((root / directory).rglob("*.py"))
        if not (directory == "src" and path.name == "__init__.py")
    }
    uncalled = set()
    for qualified, name, defined_in, defined_at in _public_names(
        root / "src" / "repro"
    ):
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(
            word.search(line)
            for path, text in lines.items()
            for number, line in enumerate(text, 1)
            if (path, number) != (defined_in, defined_at)
        ):
            uncalled.add(qualified)
    assert uncalled == set(_KEPT_FOR_THE_PAPER)
