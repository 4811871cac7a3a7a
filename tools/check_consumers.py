#!/usr/bin/env python3
"""Consumer gate: every library header must have a consumer.

Usage: check_consumers.py [REPO_ROOT]

A header under src/<mod>/include is live when a consumer #includes it.
Consumers are the files under bench/, examples/, tools/ and
scenario_bench/, plus every live file of the library: a live header,
and the src/<mod>/src/<name>.cpp that implements a live <name>.hpp.
Liveness spreads until nothing changes, so a header that only another
dead header (or its implementation) includes is dead too. tests/ is
not a consumer: code that only tests reach should leave the library
together with its tests.

Exit status: 0 when every header is live, 1 naming each dead one.
"""

import os
import re
import sys

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]', re.M)
CONSUMER_DIRS = ("bench", "examples", "tools", "scenario_bench")
SOURCE_EXTS = (".cpp", ".cc", ".hpp", ".h")


def sources(top):
    """C++ files under `top`, skipping hidden (build) directories."""
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                yield os.path.join(dirpath, name)


def includes(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return INCLUDE_RE.findall(fh.read())


def library_headers(root):
    """Include path (oci/<mod>/<name>.hpp) -> (header, its own .cpp)."""
    headers = {}
    src = os.path.join(root, "src")
    for mod in sorted(os.listdir(src)):
        include_dir = os.path.join(src, mod, "include")
        for path in sources(include_dir):
            stem = os.path.splitext(os.path.basename(path))[0]
            own_cpp = os.path.join(src, mod, "src", stem + ".cpp")
            headers[os.path.relpath(path, include_dir)] = (path, own_cpp)
    return headers


def dead_headers(root):
    headers = library_headers(root)
    pending = [p for d in CONSUMER_DIRS for p in sources(os.path.join(root, d))]
    live = set()
    while pending:
        for inc in includes(pending.pop()):
            if inc in headers and inc not in live:
                live.add(inc)
                pending.extend(p for p in headers[inc] if os.path.isfile(p))
    return [headers[inc][0] for inc in sorted(set(headers) - live)], len(headers)


def main(argv):
    root = os.path.abspath(argv[1] if len(argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    dead, total = dead_headers(root)
    if dead:
        for path in dead:
            print(f"check_consumers: {os.path.relpath(path, root)}: no consumer; only "
                  f"tests/, its own .cpp or dead headers include it", file=sys.stderr)
        print(f"check_consumers: {len(dead)} dead header(s)", file=sys.stderr)
        return 1
    print(f"check_consumers: OK ({total} library header(s), all reached from "
          f"{', '.join(d + '/' for d in CONSUMER_DIRS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
