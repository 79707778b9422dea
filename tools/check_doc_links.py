#!/usr/bin/env python
"""Fail on broken intra-repo references in the Markdown docs.

Checks every ``*.md`` file at the repo root and under ``docs/`` for

* Markdown links ``[text](target)`` whose target is a repo path, and
* backtick-quoted path-like references (``src/repro/…/*.py``,
  ``docs/*.md``, ``.github/workflows/ci.yml``, …)

and verifies each resolves to an existing file or directory.  Targets
that are URLs, anchors, or known *generated* paths (benchmark output,
campaign stores) are exempt.  It also fails on *orphaned* docs: every
file under ``docs/`` must be referenced from at least one other scanned
document (README or a sibling doc), so a new doc — e.g.
``docs/PERFORMANCE.md`` — cannot land unreachable from the entry
points.  CI runs this in the campaign-smoke job; locally::

    python tools/check_doc_links.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK_PATH = re.compile(
    r"`([A-Za-z0-9_.][A-Za-z0-9_./-]*/"
    r"[A-Za-z0-9_.-]+\.(?:py|md|json|jsonl|yml|yaml|bench|txt|toml))`"
)

#: Path prefixes that are generated at run time, not checked in.
GENERATED_PREFIXES = (
    "benchmarks/out",
    "my_circuit.bench",
)


def is_exempt(target: str) -> bool:
    if target.startswith(("http://", "https://", "mailto:", "#")):
        return True
    return any(
        target == p or target.startswith(p + "/")
        for p in GENERATED_PREFIXES
    )


def candidate_targets(text: str):
    for match in MD_LINK.finditer(text):
        yield match.group(1).split("#", 1)[0]
    for match in BACKTICK_PATH.finditer(text):
        yield match.group(1)


def check_file(path: Path, targets: list[str]) -> list[str]:
    errors = []
    for target in targets:
        if not target or is_exempt(target):
            continue
        # Resolve relative to the doc's directory, the repo root, or the
        # package root (docs shorthand like `logic/compiled.py`).
        if not any(
            (base / target).exists()
            for base in (path.parent, REPO, REPO / "src" / "repro")
        ):
            errors.append(f"{path.relative_to(REPO)}: broken ref {target!r}")
    return errors


#: Process files, not documentation: ISSUE.md is the per-PR work order,
#: CHANGES.md the running log — both reference historical states.
SKIP = {"ISSUE.md", "CHANGES.md"}


def check_orphans(doc_targets: dict[Path, list[str]]) -> list[str]:
    """Every docs/*.md file must be referenced by another scanned doc."""
    referenced: set[str] = set()
    for doc, targets in doc_targets.items():
        for target in targets:
            name = target.rsplit("/", 1)[-1]
            if name.endswith(".md") and name != doc.name:
                referenced.add(name)
    return [
        f"docs/{doc.name}: orphaned (not referenced from any other doc)"
        for doc in doc_targets
        if doc.parent.name == "docs" and doc.name not in referenced
    ]


def main() -> int:
    docs = [
        p
        for p in sorted(REPO.glob("*.md")) + sorted(REPO.glob("docs/*.md"))
        if p.name not in SKIP
    ]
    doc_targets = {
        doc: list(candidate_targets(doc.read_text())) for doc in docs
    }
    errors: list[str] = []
    for doc, targets in doc_targets.items():
        errors.extend(check_file(doc, targets))
    errors.extend(check_orphans(doc_targets))
    if errors:
        print("\n".join(errors), file=sys.stderr)
        print(f"\n{len(errors)} broken doc reference(s)", file=sys.stderr)
        return 1
    print(f"doc links ok ({len(docs)} files checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
