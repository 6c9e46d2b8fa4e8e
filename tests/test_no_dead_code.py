"""Every top-level ``def`` and ``class`` under ``src/repro`` has a user.

A symbol counts as used when code in the program refers to it by name:
``src/``, ``examples/``, ``benchmarks/`` or the corpus generators
``tests/corpus/gen_*.py``.  Tests alone do not keep a symbol alive.  A
reference is a name, an attribute, or the original name of an aliased
import (``import configure as configure_logging``).  These do not
count:

* the symbol's own definition, including recursive calls in its body;
* imports in ``__init__.py`` files (package re-exports);
* strings, so neither ``__all__`` entries nor docstrings.

Decorated definitions count as used: the registry decorators register
them.

The scan is by name, so it cannot see a mutually referencing cluster
of dead symbols (two classes that only call each other, say): each
keeps the other alive.  Such clusters still need a reader.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Documented API that no program path calls.  One line of reason each.
ALLOWLIST = {
    "read_metrics_jsonl": "reads --metrics-out files back (docs/OBSERVABILITY.md)",
    "run_load_sweep": "library sweep (README.md, EXPERIMENTS.md)",
    "run_seed_sweep": "library sweep (README.md, EXPERIMENTS.md)",
    "find_saturation_load": "library sweep (README.md, EXPERIMENTS.md)",
    "snapshot_utilization": "warmup baseline for measure_utilization (EXPERIMENTS.md)",
    "check_in_order_delivery": "the in-order delivery audit (DESIGN.md, repro.verify)",
    "max_message_age": "the message-age livelock monitor (DESIGN.md, repro.verify)",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def program_files(root: Path) -> list[Path]:
    files = list((root / "src").rglob("*.py"))
    files += (root / "examples").rglob("*.py")
    files += (root / "benchmarks").rglob("*.py")
    files += (root / "tests" / "corpus").glob("gen_*.py")
    return sorted(f for f in files if "__pycache__" not in f.parts)


def references(path: Path, tree: ast.Module) -> set[str]:
    """Names this file refers to, outside each name's own definition."""
    is_init = path.name == "__init__.py"
    found: set[str] = set()
    for top in tree.body:
        names: set[str] = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not is_init:
                names.update(a.name.rsplit(".", 1)[-1] for a in node.names if a.asname)
        if isinstance(top, _DEFINITIONS):
            names.discard(top.name)
        found |= names
    return found


@functools.lru_cache(maxsize=None)
def scan(root: Path = ROOT) -> tuple[dict[str, str], frozenset[str]]:
    """(``{symbol: "path:line"}`` for undecorated top-level definitions
    under ``src/repro``, every name the program refers to)."""
    package = root / "src" / "repro"
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in program_files(root):
        tree = ast.parse(path.read_text(), filename=str(path))
        used |= references(path, tree)
        if package not in path.parents:
            continue
        for node in tree.body:
            if isinstance(node, _DEFINITIONS) and not node.decorator_list:
                defined[node.name] = f"{path.relative_to(root)}:{node.lineno}"
    return defined, frozenset(used)


def dead_symbols(root: Path = ROOT, allowlist=ALLOWLIST) -> list[str]:
    defined, used = scan(root)
    return sorted(
        f"{where}: {name}" for name, where in defined.items()
        if name not in used and name not in allowlist
    )


def test_every_top_level_symbol_has_a_user():
    dead = dead_symbols()
    assert not dead, (
        "top-level symbols nothing in src/, examples/, benchmarks/ or "
        "tests/corpus/gen_*.py references (delete them, or add documented "
        "API to ALLOWLIST with a reason):\n  " + "\n  ".join(dead)
    )


def test_allowlist_holds_only_live_definitions():
    """An allowlisted name that no longer exists, or that gained a user,
    must leave the list."""
    defined, used = scan()
    assert set(ALLOWLIST) <= set(defined)
    assert not set(ALLOWLIST) & used


# -- the scan itself, on small synthetic trees ----------------------------


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_scan_flags_an_unreferenced_def(tmp_path):
    root = write_tree(tmp_path, {
        "src/repro/mod.py": "def used():\n    pass\n\n\ndef orphan():\n    pass\n",
        "src/repro/cli.py": "from repro.mod import used\nused()\n",
    })
    assert dead_symbols(root, {}) == ["src/repro/mod.py:5: orphan"]


def test_scan_flags_an_unreferenced_class(tmp_path):
    root = write_tree(tmp_path, {"src/repro/mod.py": "class Orphan:\n    pass\n"})
    assert dead_symbols(root, {}) == ["src/repro/mod.py:1: Orphan"]


def test_allowlist_silences_a_documented_symbol(tmp_path):
    root = write_tree(tmp_path, {"src/repro/mod.py": "def api():\n    pass\n"})
    assert dead_symbols(root, {"api": "documented"}) == []


def test_recursive_call_does_not_count(tmp_path):
    root = write_tree(tmp_path, {
        "src/repro/mod.py": "def walk(n):\n    return walk(n - 1) if n else 0\n",
    })
    assert dead_symbols(root, {}) == ["src/repro/mod.py:1: walk"]


def test_package_reexport_and_all_do_not_count(tmp_path):
    root = write_tree(tmp_path, {
        "src/repro/__init__.py": (
            "from repro.mod import orphan\n"
            "from repro.mod import orphan as public_orphan\n"
            "__all__ = ['orphan', 'public_orphan']\n"
        ),
        "src/repro/mod.py": "def orphan():\n    pass\n",
    })
    assert dead_symbols(root, {}) == ["src/repro/mod.py:1: orphan"]


def test_decorated_definition_counts_as_used(tmp_path):
    root = write_tree(tmp_path, {
        "src/repro/mod.py": (
            "REGISTRY = []\n\n\n"
            "def register(fn):\n    REGISTRY.append(fn)\n    return fn\n\n\n"
            "@register\ndef handler():\n    pass\n"
        ),
    })
    assert dead_symbols(root, {}) == []


def test_aliased_import_counts(tmp_path):
    root = write_tree(tmp_path, {
        "src/repro/log.py": "def configure():\n    pass\n",
        "src/repro/cli.py": (
            "from repro.log import configure as configure_logging\n"
            "configure_logging()\n"
        ),
    })
    assert dead_symbols(root, {}) == []


@pytest.mark.parametrize("user", [
    "examples/demo.py",
    "benchmarks/perf/run.py",
    "tests/corpus/gen_corpus.py",
])
def test_program_users_outside_src_count(tmp_path, user):
    root = write_tree(tmp_path, {
        "src/repro/mod.py": "def helper():\n    pass\n",
        user: "from repro.mod import helper\nhelper()\n",
    })
    assert dead_symbols(root, {}) == []


def test_tests_alone_do_not_keep_a_symbol_alive(tmp_path):
    root = write_tree(tmp_path, {
        "src/repro/mod.py": "def helper():\n    pass\n",
        "tests/test_mod.py": "from repro.mod import helper\nhelper()\n",
    })
    assert dead_symbols(root, {}) == ["src/repro/mod.py:1: helper"]
