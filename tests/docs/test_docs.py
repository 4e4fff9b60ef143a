"""Documentation honesty tests.

Docs rot silently; these tests keep them wired to the code:

* every intra-repo Markdown link in ``README.md`` / ``docs/`` resolves,
  and every Markdown file cited by README, ``docs/`` or the source trees
  exists (same checker the CI docs job runs);
* ``docs/scenarios.md`` documents exactly the registered scenario set;
* the module docstrings advertised as runnable doctests actually run.
"""

from __future__ import annotations

import doctest
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.matching.incremental
import repro.pricing.registry
import repro.simulation.scenarios
import repro.spatial.index
from repro.simulation.scenarios import available_scenarios

REPO_ROOT = Path(__file__).resolve().parents[2]
LINK_CHECKER = REPO_ROOT / "tools" / "check_markdown_links.py"
SCENARIOS_DOC = REPO_ROOT / "docs" / "scenarios.md"


class TestMarkdownLinks:
    def test_intra_repo_links_resolve(self):
        process = subprocess.run(
            [sys.executable, str(LINK_CHECKER), str(REPO_ROOT)],
            capture_output=True,
            text=True,
        )
        assert process.returncode == 0, (
            f"broken Markdown links:\n{process.stdout}{process.stderr}"
        )

    def test_docs_tree_exists(self):
        for name in (
            "architecture.md",
            "paper_map.md",
            "scenarios.md",
            "service.md",
        ):
            assert (REPO_ROOT / "docs" / name).is_file(), f"docs/{name} is missing"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_markdown_links", LINK_CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMarkdownCitations:
    def test_every_cited_markdown_file_exists(self):
        checker = _load_checker()
        dangling = [
            f"{path.relative_to(REPO_ROOT)}:{line}: {cited}"
            for path in checker.iter_citing_files(REPO_ROOT)
            for line, cited in checker.check_citations(path, REPO_ROOT)
        ]
        assert not dangling, "documents cited but missing:\n" + "\n".join(dangling)

    def test_checker_flags_a_dangling_citation(self, tmp_path):
        checker = _load_checker()
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "guide.md").write_text("see guide.md\n", encoding="utf-8")
        (tmp_path / "README.md").write_text(
            "See `docs/guide.md`, <https://example.org/x.md>.\n", encoding="utf-8"
        )
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            '"""Rationale in NOTES.md; layout in docs/guide.md."""\n', encoding="utf-8"
        )
        assert checker.main(tmp_path) == 1
        found = {
            (path.name, cited)
            for path in checker.iter_citing_files(tmp_path)
            for _line, cited in checker.check_citations(path, tmp_path)
        }
        assert found == {("mod.py", "NOTES.md")}


class TestScenarioDocSync:
    def _documented_scenarios(self):
        text = SCENARIOS_DOC.read_text(encoding="utf-8")
        return sorted(re.findall(r"^## `([a-z0-9_]+)`$", text, flags=re.MULTILINE))

    def test_doc_enumerates_exactly_the_registered_set(self):
        documented = self._documented_scenarios()
        registered = available_scenarios()
        missing = sorted(set(registered) - set(documented))
        stale = sorted(set(documented) - set(registered))
        assert not missing, (
            f"scenarios registered but undocumented in docs/scenarios.md: {missing}"
        )
        assert not stale, (
            f"scenarios documented in docs/scenarios.md but not registered: {stale}"
        )

    def test_doc_mentions_paper_provenance_per_scenario(self):
        text = SCENARIOS_DOC.read_text(encoding="utf-8")
        assert text.count("**Paper provenance:**") == len(available_scenarios())


class TestDoctests:
    @pytest.mark.parametrize(
        "module",
        [
            repro.matching.incremental,
            repro.pricing.registry,
            repro.simulation.scenarios,
            repro.spatial.index,
        ],
        ids=lambda module: module.__name__,
    )
    def test_module_doctests_pass(self, module):
        results = doctest.testmod(module, verbose=False)
        assert results.attempted > 0, f"{module.__name__} has no doctests"
        assert results.failed == 0
