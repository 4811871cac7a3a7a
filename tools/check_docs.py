#!/usr/bin/env python3
"""Docs link gate: every intra-repo link must resolve.

Usage: check_docs.py [REPO_ROOT]

Every relative markdown link in README.md and docs/*.md must point at a
file or directory that exists, resolved against the file that contains
the link. External links (http/https/mailto) and pure anchors (#...)
are skipped, as are targets that resolve outside the repository root
(GitHub UI paths like ../../actions/...). Anchors on intra-repo targets
are stripped before the existence check. Grep-grade by design: no
markdown parser dependency.

The reference page's coverage of the spec keys is checked by the
ctest case ScenarioParse.ReferencePageDocumentsEveryKey, which reads
the keys from the library itself.

Exit status: 0 when every link resolves, 1 with every problem listed.
"""

import os
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def doc_files(root):
    files = [os.path.join(root, "README.md")]
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        for name in sorted(os.listdir(docs)):
            if name.endswith(".md"):
                files.append(os.path.join(docs, name))
    return [f for f in files if os.path.isfile(f)]


def check_links(root):
    problems = []
    for path in doc_files(root):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for lineno, line in enumerate(text.splitlines(), start=1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                bare = target.split("#", 1)[0]
                if not bare:
                    continue
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), bare))
                # GitHub UI paths (e.g. ../../actions/...) resolve above
                # the repo root; they are not filesystem claims.
                if not resolved.startswith(os.path.normpath(root) + os.sep):
                    continue
                if not os.path.exists(resolved):
                    rel = os.path.relpath(path, root)
                    problems.append(
                        f"{rel}:{lineno}: broken link '{target}' "
                        f"(resolved to {os.path.relpath(resolved, root)})")
    return problems


def main(argv):
    root = os.path.abspath(argv[1] if len(argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    problems = check_links(root)
    if problems:
        for p in problems:
            print(f"check_docs: {p}", file=sys.stderr)
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"check_docs: OK ({len(doc_files(root))} doc file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
