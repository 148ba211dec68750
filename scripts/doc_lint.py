#!/usr/bin/env python3
"""Documentation consistency lint (the CI docs job).

Three checks, all over the committed tree (no build needed):

1. Markdown link check: every relative link target in README.md,
   DESIGN.md, EXPERIMENTS.md, ROADMAP.md, CHANGES.md and docs/*.md must
   exist on disk (fragments are stripped; http/https/mailto links are
   not fetched).

2. Schema registry check: the set of `dcfb-<kind>-v<N>` version strings
   appearing in src/, tools/, bench/ and scripts/ must equal the set of
   schemas registered in docs/SCHEMAS.md.  A schema added to the code
   without a registry row -- or a registry row whose string vanished
   from the code -- fails.  (tests/ is excluded: negative-case tests
   mention deliberately-invalid versions.)

3. Binary-name check: every `dcfb-<name>` or `dcfb_<name>` binary named
   in README.md, DESIGN.md, EXPERIMENTS.md or docs/*.md must be an
   `add_executable` target in some CMakeLists.txt, so prose cannot keep
   documenting a tool that was deleted.  Schema strings (`dcfb-*-vN`)
   are not binaries and are skipped; CHANGES.md and ROADMAP.md keep
   history and are not checked.

Exit status: 0 clean, 1 with findings listed on stderr.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "ROADMAP.md",
    ROOT / "CHANGES.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

CODE_DIRS = ["src", "tools", "bench", "scripts"]
CODE_SUFFIXES = {".h", ".cpp", ".py"}

BINARY_DOC_FILES = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
SCHEMA_RE = re.compile(r"dcfb-[a-z]+-v[0-9]+")
BINARY_RE = re.compile(r"\bdcfb[-_][a-z][a-z0-9_-]*[a-z0-9]")
TARGET_RE = re.compile(r"add_executable\(\s*([A-Za-z0-9_.+-]+)")


def check_links(errors):
    for doc in DOC_FILES:
        if not doc.exists():
            errors.append(f"{doc.relative_to(ROOT)}: file missing")
            continue
        text = doc.read_text(encoding="utf-8")
        # Fenced code blocks routinely show shell syntax like
        # [--flag](...)-free usage lines; strip them before linking.
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        for m in LINK_RE.finditer(text):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure in-page fragment
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                line = text[: m.start()].count("\n") + 1
                errors.append(
                    f"{doc.relative_to(ROOT)}:{line}: broken link "
                    f"-> {target}"
                )


def code_schemas():
    found = set()
    for d in CODE_DIRS:
        for path in (ROOT / d).rglob("*"):
            if path.suffix not in CODE_SUFFIXES or not path.is_file():
                continue
            found |= set(SCHEMA_RE.findall(
                path.read_text(encoding="utf-8", errors="replace")))
    return found


def registered_schemas():
    registry = ROOT / "docs" / "SCHEMAS.md"
    if not registry.exists():
        return None
    found = set()
    for line in registry.read_text(encoding="utf-8").splitlines():
        if line.startswith("|"):
            m = SCHEMA_RE.search(line)
            if m:
                found.add(m.group(0))
    return found


def check_schemas(errors):
    in_code = code_schemas()
    in_registry = registered_schemas()
    if in_registry is None:
        errors.append("docs/SCHEMAS.md: file missing")
        return
    for schema in sorted(in_code - in_registry):
        errors.append(
            f"docs/SCHEMAS.md: schema {schema} used in the code but "
            "not registered"
        )
    for schema in sorted(in_registry - in_code):
        errors.append(
            f"docs/SCHEMAS.md: schema {schema} registered but absent "
            "from src//tools//bench//scripts/"
        )


def executable_targets():
    targets = set()
    for cmake in ROOT.rglob("CMakeLists.txt"):
        targets |= set(TARGET_RE.findall(cmake.read_text(encoding="utf-8")))
    return targets


def check_binaries(errors):
    targets = executable_targets()
    for doc in BINARY_DOC_FILES:
        if not doc.exists():
            continue
        for lineno, line in enumerate(
                doc.read_text(encoding="utf-8").splitlines(), 1):
            for name in BINARY_RE.findall(line):
                if SCHEMA_RE.fullmatch(name) or name in targets:
                    continue
                errors.append(
                    f"{doc.relative_to(ROOT)}:{lineno}: binary {name} "
                    "is not an add_executable target"
                )


def main():
    errors = []
    check_links(errors)
    check_schemas(errors)
    check_binaries(errors)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        print(f"doc_lint: {len(errors)} finding(s)", file=sys.stderr)
        return 1
    print(f"doc_lint: {len(DOC_FILES)} documents, links, schema "
          "registry and binary names clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
