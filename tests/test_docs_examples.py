"""Keep documentation honest: README snippets, the docs/ set and the
examples must run, and every repro module must document itself.

Two extraction policies, both marker-based (never positional):

- README.md: the quickstart block is found by its printed marker
  (``quickstart ok``); other python blocks are illustrative.
- docs/*.md: **every** python block must carry a ``# doc-exec:`` marker
  as its first line and execute cleanly — prose-only snippets must use a
  non-python fence (``sh``/``text``), so code the docs show can never
  drift from code that runs.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestReadmeQuickstart:
    def test_quickstart_snippet_executes(self):
        """Extract and run the quickstart code block of README.md (found
        by its printed marker, not by position — other sections carry
        python blocks of their own, e.g. the TCP cluster example with
        ``...`` placeholders that are documentation, not programs)."""
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
        quickstart = [b for b in blocks if "quickstart ok" in b]
        assert quickstart, "README lost its quickstart code block"
        exec(compile(quickstart[0], "<README quickstart>", "exec"), {})


DOC_FILES = ["ARCHITECTURE.md", "OPERATIONS.md"]


class TestDocsSet:
    """The architecture & operations doc set (docs/), validated in CI."""

    def test_docs_exist_and_are_linked_from_readme(self):
        readme = (ROOT / "README.md").read_text()
        for name in DOC_FILES:
            assert (ROOT / "docs" / name).exists(), f"docs/{name} missing"
            assert f"docs/{name}" in readme, f"README does not link docs/{name}"

    @pytest.mark.parametrize("name", DOC_FILES)
    def test_every_python_block_is_marked_and_executes(self, name):
        """The docs/ policy: a python fence is a *program*. Every block
        must open with a ``# doc-exec: <slug>`` marker line and run
        cleanly in an empty namespace (launched clusters and in-process
        agents included — they are the point of these docs)."""
        text = (ROOT / "docs" / name).read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
        assert blocks, f"docs/{name} has no executable python blocks"
        for block in blocks:
            first = block.lstrip().splitlines()[0]
            assert first.startswith("# doc-exec:"), (
                f"docs/{name}: python block without a doc-exec marker "
                f"(starts {first!r}); use a sh/text fence for prose snippets"
            )
            exec(compile(block, f"<docs/{name} {first}>", "exec"), {})

    def test_documents_named_in_the_source_exist(self):
        """A module that cites a document the repository does not have
        sends its reader nowhere: every ``*.md`` file a ``src/repro``
        module names must exist at the repository root or under docs/."""
        dangling = set()
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            for name in re.findall(r"[\w./-]*\w\.md\b", path.read_text()):
                bases = (ROOT, ROOT / "docs")
                if not any((base / name).is_file() for base in bases):
                    dangling.add(f"{path.relative_to(ROOT)}: {name}")
        assert not dangling, f"documents named but missing: {sorted(dangling)}"


class TestDocCoverage:
    """Every public module, class and module-level function of ``repro``
    must carry a docstring — the invariants live in the code, not only in
    CHANGES.md."""

    def iter_modules(self):
        pkg = importlib.import_module("repro")
        yield pkg
        for info in pkgutil.walk_packages(pkg.__path__, "repro."):
            yield importlib.import_module(info.name)

    def test_public_modules_and_classes_have_docstrings(self):
        missing = []
        for mod in self.iter_modules():
            if not inspect.getdoc(mod):
                missing.append(mod.__name__)
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # re-exports are documented at their source
                if not inspect.getdoc(obj):
                    missing.append(f"{mod.__name__}.{name}")
        assert missing == [], f"undocumented public surface: {missing}"


EXAMPLES = [
    "quickstart.py",
    "incremental_analytics.py",
]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_scripts_run(script):
    """Fast examples run end-to-end in a subprocess (slow ones are covered
    by their own dedicated tests and by the bench suite)."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


def test_examples_exist_and_documented():
    listed = {"quickstart.py", "supernovae_detection.py",
              "concurrent_telescopes.py", "incremental_analytics.py",
              "cluster_experiment.py"}
    present = {p.name for p in (ROOT / "examples").glob("*.py")}
    assert listed <= present
    readme = (ROOT / "README.md").read_text()
    for name in listed:
        assert name in readme, f"{name} missing from README examples table"
