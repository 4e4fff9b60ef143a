#!/usr/bin/env python
"""Check that intra-repository Markdown links and citations resolve.

Two checks, one exit code:

* **links** — scans ``README.md`` and every ``docs/*.md`` file for
  inline links (``[text](target)``), skips external targets
  (``http(s)://``, ``mailto:``) and pure in-page anchors (``#...``), and
  verifies that each remaining target — resolved relative to the file
  containing the link, with any ``#fragment`` stripped — exists on disk;
* **citations** — scans the same Markdown files plus every ``.py`` and
  ``.md`` file under ``src/``, ``benchmarks/``, ``examples/`` and
  ``tools/`` for any Markdown file path named in prose or code (a word
  ending in ``.md``, outside URLs) and verifies that it exists, resolved
  relative to the citing file or to the repository root.

Used by the CI docs job and wrapped by ``tests/docs/test_docs.py``.
Exit code 0 when every link and citation resolves; 1 otherwise, with one
line per broken one.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: Inline Markdown links, excluding images; target is group 1.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")
#: A Markdown path named anywhere in a line: the whole ``[\w./-]`` run
#: ending in ``.md``.
_CITATION_RE = re.compile(r"(?<![\w./-])([\w./-]*[\w-]\.md)\b")
_URL_RE = re.compile(r"\w+://\S+")
#: Source trees whose files may cite Markdown documents.
_CITING_DIRS = ("src", "benchmarks", "examples", "tools")
_CITING_SUFFIXES = (".py", ".md")


def iter_markdown_files(root: Path) -> Iterator[Path]:
    readme = root / "README.md"
    if readme.exists():
        yield readme
    docs = root / "docs"
    if docs.is_dir():
        yield from sorted(docs.glob("*.md"))


def iter_citing_files(root: Path) -> Iterator[Path]:
    """README, ``docs/*.md`` and the source files of :data:`_CITING_DIRS`."""
    yield from iter_markdown_files(root)
    for name in _CITING_DIRS:
        tree = root / name
        if tree.is_dir():
            for path in sorted(tree.rglob("*")):
                if path.suffix in _CITING_SUFFIXES and path.is_file():
                    yield path


def check_file(path: Path, root: Path) -> List[Tuple[int, str]]:
    """Broken links of one file as ``(line_number, target)`` pairs."""
    broken: List[Tuple[int, str]] = []
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for match in _LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL_PREFIXES) or target.startswith("#"):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            try:
                resolved.relative_to(root.resolve())
            except ValueError:
                broken.append((line_number, f"{target} (escapes the repository)"))
                continue
            if not resolved.exists():
                broken.append((line_number, target))
    return broken


def check_citations(path: Path, root: Path) -> List[Tuple[int, str]]:
    """Cited Markdown paths of one file that exist neither relative to
    the file nor to the repository root, as ``(line_number, path)``."""
    dangling: List[Tuple[int, str]] = []
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for match in _CITATION_RE.finditer(_URL_RE.sub(" ", line)):
            cited = match.group(1)
            if not ((path.parent / cited).exists() or (root / cited).exists()):
                dangling.append((line_number, cited))
    return dangling


def main(root: Path) -> int:
    failures = 0
    checked = 0
    for path in iter_markdown_files(root):
        checked += 1
        for line_number, target in check_file(path, root):
            failures += 1
            print(f"{path.relative_to(root)}:{line_number}: broken link -> {target}")
    if not checked:
        print("no Markdown files found", file=sys.stderr)
        return 1
    for path in iter_citing_files(root):
        for line_number, cited in check_citations(path, root):
            failures += 1
            print(f"{path.relative_to(root)}:{line_number}: dangling citation -> {cited}")
    if failures:
        print(f"{failures} broken link(s) or citation(s)", file=sys.stderr)
        return 1
    print(f"all intra-repo links and citations resolve across {checked} Markdown file(s)")
    return 0


if __name__ == "__main__":
    repo_root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    sys.exit(main(repo_root))
