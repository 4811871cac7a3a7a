#!/usr/bin/env python3
"""Consumer gate: every library header and function must have a consumer.

Usage: check_consumers.py [REPO_ROOT]
       check_consumers.py --symbols BUILD_DIR BENCH_BUILD_DIR

Header mode (the default). A header under src/<mod>/include is live
when a consumer #includes it. Consumers are the files under bench/,
examples/, tools/ and scenario_bench/, plus every live file of the
library: a live header, and the src/<mod>/src/<name>.cpp that
implements a live <name>.hpp. Liveness spreads until nothing changes,
so a header that only another dead header (or its implementation)
includes is dead too. tests/ is not a consumer: code that only tests
reach should leave the library together with its tests.

Symbol mode (--symbols) does the same one level down, with the linker
as the judge. BUILD_DIR is a build of this tree and BENCH_BUILD_DIR
one of the scenario_bench/ package, both configured with

    -DCMAKE_BUILD_TYPE=None
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections"
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

and built with every bench, example and tool (tests may be off).
Section GC drops each function that nothing in a binary calls, and -O0
leaves no call inlined away, so a strong oci:: function (nm type T)
that a liboci_*.a archive defines is live when at least one consumer
binary keeps it: a bench, an example, a tool or scenario_bench.
ORACLES below names the few kept only for a test that compares against
them or reads them; an entry that a binary keeps, or that no archive
defines any more, is stale.

Exit status: 0 when everything is live, 1 naming each dead header,
dead function or stale ORACLES entry.
"""

import glob
import os
import re
import subprocess
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


def check_headers(root):
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


# -- Symbol mode -----------------------------------------------------------

# Library functions no consumer binary keeps, each with the test that
# needs it as an oracle or a probe. Signatures as `nm -C` prints them.
ORACLES = {
    "oci::net::StackNetwork::backlog() const":
        "StackNetwork.PacketConservation: offered = delivered + dropped + backlog",
    "oci::photonics::DieStack::max_reach(oci::util::Wavelength, double) const":
        "PaperClaims.DeepStackMachinery reads the reach through a 200-die stack",
    "oci::tdc::Tdc::convert_ideal(oci::util::Time) const":
        "Tdc.StochasticMatchesIdealAwayFromBoundaries compares convert() against it",
    "oci::tdc::DelayLine::ideal_code(oci::util::Time) const":
        "Tdc::convert_ideal's latch; DelayLine.IdealCodeCountsBoundaries reads it",
}

NM_RE = re.compile(r"^[0-9a-fA-F]+ ([A-Za-z]) (oci::.*)$")


def cache_entry(build, key):
    with open(os.path.join(build, "CMakeCache.txt"), encoding="utf-8") as fh:
        for line in fh:
            name, sep, value = line.partition("=")
            if sep and name.split(":")[0] == key:
                return value.strip()
    return ""


def gc_build_problem(build):
    """Why `build` cannot show what section GC keeps, or None."""
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        return "no CMakeCache.txt (not a configured build directory)"
    config = cache_entry(build, "CMAKE_BUILD_TYPE").upper()
    cxx = (cache_entry(build, "CMAKE_CXX_FLAGS") + " " +
           cache_entry(build, f"CMAKE_CXX_FLAGS_{config}")).split()
    link = (cache_entry(build, "CMAKE_EXE_LINKER_FLAGS") + " " +
            cache_entry(build, f"CMAKE_EXE_LINKER_FLAGS_{config}")).split()
    levels = [f for f in cxx if f.startswith("-O")]
    if "-ffunction-sections" not in cxx:
        return "its C++ flags lack -ffunction-sections"
    if levels and levels[-1] != "-O0":
        return f"it compiles at {levels[-1]}, where inlining hides callers; use -O0"
    if not any("--gc-sections" in f for f in link):
        return "its linker flags lack -Wl,--gc-sections"
    return None


def functions(path, kinds):
    """Demangled oci:: symbols of nm type in `kinds` that `path` defines."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    return {m.group(2) for m in map(NM_RE.match, out.splitlines())
            if m and m.group(1) in kinds}


def consumer_binaries(root, build, bench_build):
    """One binary per bench/, examples/ and tools/ source, and scenario_bench."""
    binaries = [os.path.join(build, d, os.path.splitext(os.path.basename(cpp))[0])
                for d in ("bench", "examples", "tools")
                for cpp in sorted(glob.glob(os.path.join(root, d, "*.cpp")))]
    return binaries + [os.path.join(bench_build, "scenario_bench")]


def check_symbols(root, build, bench_build):
    problems = [f"{b}: {p}" for b in (build, bench_build) if (p := gc_build_problem(b))]
    binaries = consumer_binaries(root, build, bench_build)
    problems += [f"{b}: missing; build every bench, example and tool"
                 for b in binaries if not os.path.isfile(b)]
    archives = sorted(glob.glob(os.path.join(build, "src", "*", "liboci_*.a")))
    if not archives:
        problems.append(f"{build}: no src/*/liboci_*.a archives")
    if problems:
        for problem in problems:
            print(f"check_consumers: {problem}", file=sys.stderr)
        return 1

    defined = {}  # function -> the archive that defines it
    for archive in archives:
        defined.update(dict.fromkeys(functions(archive, "T"), os.path.basename(archive)))
    kept = set()
    for binary in binaries:
        kept |= functions(binary, "T")

    dead = sorted(set(defined) - kept - set(ORACLES), key=lambda f: (defined[f], f))
    for fn in dead:
        print(f"check_consumers: {defined[fn]}: {fn}: no consumer binary keeps it",
              file=sys.stderr)
    stale = [(fn, "a consumer binary keeps it" if fn in kept else "no archive defines it")
             for fn in sorted(ORACLES) if fn in kept or fn not in defined]
    for fn, why in stale:
        print(f"check_consumers: ORACLES entry {fn} ({ORACLES[fn]}) is stale: {why}",
              file=sys.stderr)
    if dead or stale:
        print(f"check_consumers: {len(dead)} dead function(s), {len(stale)} stale "
              f"ORACLES entr{'y' if len(stale) == 1 else 'ies'}", file=sys.stderr)
        return 1
    print(f"check_consumers: OK ({len(defined)} library function(s) in {len(archives)} "
          f"archive(s): {len(defined) - len(ORACLES)} kept by {len(binaries)} consumer "
          f"binaries, {len(ORACLES)} test oracle(s))")
    return 0


def main(argv):
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    if len(argv) > 1 and argv[1] == "--symbols":
        if len(argv) != 4:
            print(__doc__.split("\n\n")[1], file=sys.stderr)
            return 2
        return check_symbols(os.path.abspath(here), argv[2], argv[3])
    return check_headers(os.path.abspath(argv[1] if len(argv) > 1 else here))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
