#!/usr/bin/env python3
"""Fail on broken intra-repo markdown links.

Scans every tracked *.md file (skipping build trees and third_party) for
inline markdown links ``[text](target)`` and reference definitions
``[label]: target``, and verifies that every *relative* target resolves to
an existing file or directory.  Anchors (``path#heading`` or ``#heading``)
are checked against a GitHub-style slugging of the target file's headings,
including GitHub's ``-1``/``-2`` numbering of duplicate headings — so the
README's deep links into docs/ sections break the build when a heading is
renamed.  Fenced blocks and inline code spans are stripped before both the
link scan and the heading scan.  External links (http/https/mailto) are
not fetched.

README.md and docs/*.md describe the tree as it is, so there the inline
code spans are scanned too: every backticked repo path (``src/``,
``tests/``, ``bench/``, ``examples/``, ``tools/``, ``docs/``) must name an
existing file or directory, relative to the repo root.  ``{a,b}`` groups
expand to every alternative and ``*`` must match at least one file.  The
history files (CHANGES.md, ROADMAP.md) may name deleted paths.

Usage: python3 tools/check_docs_links.py [repo_root]
Exit status: 0 when all links resolve, 1 otherwise (each failure printed).
"""

import glob
import os
import re
import sys

SKIP_DIRS = {"build", "third_party", ".git", ".claude"}

INLINE_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
IMAGE_LINK = re.compile(r"\!\[[^\]]*\]\(([^)\s]+)\)")
REF_DEF = re.compile(r"^\s*\[[^\]]+\]:\s*(\S+)", re.MULTILINE)
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)
INLINE_CODE = re.compile(r"`[^`\n]*`")
REPO_PATH = re.compile(
    r"(?<![\w/.-])(?:src|tests|bench|examples|tools|docs)/[\w./{},*+-]*"
)


def strip_code(text: str) -> str:
    """Remove fenced blocks and inline code spans before scanning."""
    return INLINE_CODE.sub("", CODE_FENCE.sub("", text))


def expand_braces(path: str) -> list:
    """Shell-style ``{a,b}`` expansion (groups do not nest)."""
    match = re.search(r"\{([^{}]*)\}", path)
    if not match:
        return [path]
    head, tail = path[: match.start()], path[match.end() :]
    return [
        expanded
        for alternative in match.group(1).split(",")
        for expanded in expand_braces(head + alternative + tail)
    ]


def code_path_failures(root: str, md: str) -> tuple:
    """(paths checked, failures) for the backticked repo paths of `md`."""
    with open(md, encoding="utf-8") as f:
        text = CODE_FENCE.sub("", f.read())
    rel = os.path.relpath(md, root)
    checked, failures = 0, []
    for span in INLINE_CODE.findall(text):
        for token in REPO_PATH.findall(span):
            token = token.rstrip(".,")
            for path in expand_braces(token):
                checked += 1
                full = os.path.join(root, path)
                found = glob.glob(full) if "*" in path else os.path.exists(full)
                if not found:
                    failures.append(f"{rel}: code span names missing '{path}'")
    return checked, failures


def slugify(heading: str) -> str:
    """GitHub's anchor slugging, close enough for ASCII docs."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def md_files(root: str):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def anchors_of(path: str) -> set:
    with open(path, encoding="utf-8") as f:
        text = strip_code(f.read())
    anchors = set()
    seen = {}
    for heading in HEADING.findall(text):
        slug = slugify(heading)
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        # GitHub numbers repeated headings: #slug, #slug-1, #slug-2, ...
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


def main() -> int:
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    failures = []
    checked = 0
    for md in md_files(root):
        with open(md, encoding="utf-8") as f:
            text = strip_code(f.read())
        targets = (
            INLINE_LINK.findall(text)
            + IMAGE_LINK.findall(text)
            + REF_DEF.findall(text)
        )
        for target in targets:
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme
                continue
            path_part, _, anchor = target.partition("#")
            resolved = (
                md
                if not path_part
                else os.path.normpath(
                    os.path.join(os.path.dirname(md), path_part)
                )
            )
            checked += 1
            rel = os.path.relpath(md, root)
            if not os.path.exists(resolved):
                failures.append(f"{rel}: broken link target '{target}'")
                continue
            if anchor and resolved.endswith(".md"):
                if slugify(anchor) not in anchors_of(resolved):
                    failures.append(
                        f"{rel}: missing anchor '#{anchor}' in '{target}'"
                    )
    code_paths = 0
    current_docs = [os.path.join(root, "README.md")] + sorted(
        glob.glob(os.path.join(root, "docs", "*.md"))
    )
    for md in current_docs:
        if not os.path.exists(md):
            continue
        count, missing = code_path_failures(root, md)
        code_paths += count
        failures += missing
    for failure in failures:
        print(f"FAIL {failure}")
    print(
        f"check_docs_links: {checked} intra-repo links and {code_paths} "
        f"code-span paths checked, {len(failures)} broken"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
