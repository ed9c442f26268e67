#!/usr/bin/env python3
"""Markdown link checker for the repo's docs tree (CI: no network, no deps).

Verifies every inline link/image target in the given markdown files:
  * relative paths must exist on disk (anchors stripped first);
  * intra-repo anchors (`#...`, on the same file or a linked .md file) must
    match a heading's GitHub-style slug;
  * http(s)/mailto targets are skipped — CI has no business hitting the
    network, and external rot is a different problem from tree rot.

Every run also checks code: every markdown path that a file under src/,
bench/, tests/ or tools/ cites (e.g. a "see docs/design.md" comment) must
exist, relative to the repository root or to the citing file.

Usage: check_md_links.py DOC [DOC ...]
Exits non-zero listing every broken link or citation.
"""

import re
import sys
from pathlib import Path

# Inline links and images: [text](target) / ![alt](target). Good enough for
# this repo's markdown; reference-style links are not used here.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^()\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)


def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a heading."""
    text = heading.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)  # drop punctuation (incl. backticks)
    return text.replace(" ", "-")


def heading_slugs(md_path: Path) -> set:
    content = CODE_FENCE_RE.sub("", md_path.read_text(encoding="utf-8"))
    return {github_slug(m.group(1)) for m in HEADING_RE.finditer(content)}


def check_file(md_path: Path) -> list:
    errors = []
    content = CODE_FENCE_RE.sub("", md_path.read_text(encoding="utf-8"))
    for match in LINK_RE.finditer(content):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        if path_part:
            resolved = (md_path.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(f"{md_path}: broken link '{target}' "
                              f"(no such file: {path_part})")
                continue
        else:
            resolved = md_path
        if anchor and resolved.suffix == ".md":
            if anchor not in heading_slugs(resolved):
                errors.append(f"{md_path}: broken anchor '{target}' "
                              f"(no heading slugs to '#{anchor}' in "
                              f"{resolved.name})")
    return errors


REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "bench", "tests", "tools")
SOURCE_SUFFIXES = {".h", ".cc", ".cpp", ".py"}
# A cited markdown path: not the tail of a URL or of a longer path.
CITED_MD_RE = re.compile(r"(?<![\w:/.-])([\w-][\w./-]*\.md)\b")


def check_sources() -> tuple:
    errors = []
    checked = 0
    for top in SOURCE_DIRS:
        for path in sorted((REPO_ROOT / top).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            checked += 1
            text = path.read_text(encoding="utf-8", errors="replace")
            for lineno, line in enumerate(text.splitlines(), 1):
                for match in CITED_MD_RE.finditer(line):
                    cited = match.group(1)
                    if not ((REPO_ROOT / cited).exists() or
                            (path.parent / cited).exists()):
                        errors.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: "
                                      f"cites missing '{cited}'")
    return errors, checked


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors, sources = check_sources()
    checked = 0
    for name in argv[1:]:
        path = Path(name)
        if not path.exists():
            errors.append(f"{name}: file not found")
            continue
        errors.extend(check_file(path))
        checked += 1
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        print(f"{checked} files and {sources} source files ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
