#!/usr/bin/env python3
"""List the library functions that no product binary links.

Usage:
    tools/symbol_census.py --build DIR

A "product binary" is every ``bench_*`` and ``example_*`` program of the
repository's build DIR plus ``bench/e2e``'s ``bench_e2e``, built in
DIR/e2e.  The census reads the text symbols (``nm`` types T, t and W)
that ``libbroadway_core.a`` defines inside namespace ``broadway`` (functions,
members and the lambdas and local classes within them; not standard
library templates instantiated on broadway types) and removes every one
that some product binary defines.  Compiler clones (``.cold``,
``.isra.0``, ...) count as the function they were cloned from, and every
symbol is counted by its demangled name, so the constructor and
destructor variants (C1/C2, D0/D1/D2) of one member count once.  What is
left is code only the tests call, or nothing calls.  A keep list (KEEP
below) then removes the functions kept on purpose although no product
calls them: the HTTP codec and the extension header getters, trace I/O,
``TraceCollector`` and the consistency functions.

The answer is only meaningful on a build where each function has its own
section, nothing is inlined away and the linker drops unreferenced
sections.  Configure both projects that way first, for example:

    F="-ffunction-sections -fno-inline"; L="-Wl,--gc-sections"
    cmake -S . -B build-census -DCMAKE_BUILD_TYPE=RelWithDebInfo \\
        -DBROADWAY_BUILD_TESTS=OFF -DCMAKE_CXX_FLAGS="$F" \\
        -DCMAKE_EXE_LINKER_FLAGS="$L"
    cmake --build build-census -j 4
    cmake -S bench/e2e -B build-census/e2e -DCMAKE_BUILD_TYPE=Release \\
        -DCMAKE_CXX_FLAGS="$F" -DCMAKE_EXE_LINKER_FLAGS="$L"
    cmake --build build-census/e2e -j 4
    tools/symbol_census.py --build build-census

The script checks both CMake caches for these flags and stops if one is
missing.  It prints the counts (library symbols, unlinked, kept, reported)
and then each reported symbol under its source file.

Exit status: 0 on success, 1 on a missing or misconfigured build.
"""

import argparse
import collections
import pathlib
import re
import subprocess
import sys

# Functions kept although no product binary calls them: the input and
# protocol surface the paper's proxy speaks, and the paper's own
# definitions.  Each entry is (source file stem, regex on the demangled
# name); a symbol is kept when both match.
KEEP = [
    # The HTTP codec: the paper's protocol extensions on the wire.
    ("codec", r".*"),
    # Extension-header getters (get_*) of the same protocol extensions.
    ("extensions", r"broadway::get_"),
    # Trace I/O: the input surface.
    ("trace_io", r".*"),
    # TraceCollector: the §6.1.2 trace-collection methodology.
    ("collector", r"broadway::TraceCollector::"),
    # The consistency functions of §2 / Eq. 5.
    ("function", r".*"),
]

REQUIRED_FLAGS = {
    "CMAKE_CXX_FLAGS": ["-ffunction-sections", "-fno-inline"],
    "CMAKE_EXE_LINKER_FLAGS": ["--gc-sections"],
}

TEXT_TYPES = {"T", "t", "W"}

# Mangled names of entities in namespace broadway: _ZN8broadway... for a
# (possibly const- or ref-qualified) member or free function, _ZZN... for
# a lambda or local entity inside one.
BROADWAY = re.compile(r"_ZZ?N[KVRO]*8broadway")


def fail(message):
    print(f"symbol_census: {message}", file=sys.stderr)
    sys.exit(1)


def check_cache(build):
    cache = build / "CMakeCache.txt"
    if not cache.is_file():
        fail(f"{build} is not a CMake build directory")
    values = {}
    for line in cache.read_text().splitlines():
        match = re.match(r"([A-Z_]+):[A-Z]+=(.*)", line)
        if match:
            values[match.group(1)] = match.group(2)
    for variable, flags in REQUIRED_FLAGS.items():
        for flag in flags:
            if flag not in values.get(variable, ""):
                fail(f"{build}: {variable} lacks {flag}")


def nm_text_symbols(path):
    """Yield (object file, mangled name) for each broadway text symbol."""
    proc = subprocess.run(["nm", "-A", "--defined-only", str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=True)
    for line in proc.stdout.splitlines():
        # "<archive>:<member>:<address> <type> <name>" for an archive,
        # "<binary>:<address> <type> <name>" for an executable.
        location, kind, name = line.split(" ", 2)
        if kind not in TEXT_TYPES or not BROADWAY.match(name):
            continue
        member = location.split(":")[-2] if location.count(":") >= 2 else ""
        yield member, name.split(".", 1)[0]


def demangle(names):
    """Demangled forms of `names`, in order."""
    proc = subprocess.run(["c++filt"], input="\n".join(names),
                          stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout.splitlines()


def source_stem(member):
    """codec.cpp.o -> codec."""
    return member.split(".", 1)[0]


def kept(member, name):
    stem = source_stem(member)
    return any(stem == file and re.match(pattern, name)
               for file, pattern in KEEP)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True, type=pathlib.Path,
                        help="the repository build (bench/e2e in BUILD/e2e)")
    build = parser.parse_args().build.resolve()
    e2e_build = build / "e2e"
    check_cache(build)
    check_cache(e2e_build)

    library = build / "libbroadway_core.a"
    binaries = sorted(p for p in build.iterdir()
                      if p.is_file() and p.name.startswith(
                          ("bench_", "example_")))
    binaries.append(e2e_build / "bench_e2e")
    for path in [library] + binaries:
        if not path.is_file():
            fail(f"missing {path}")

    members, mangled = zip(*nm_text_symbols(library))
    defined = {}
    for member, name in zip(members, demangle(mangled)):
        defined.setdefault(name, member)
    linked = set()
    for binary in binaries:
        linked.update(demangle([name for _, name in nm_text_symbols(binary)]))

    unlinked = {name: member for name, member in defined.items()
                if name not in linked}
    reported = {name: member for name, member in unlinked.items()
                if not kept(member, name)}
    print(f"binaries:         {len(binaries)}")
    print(f"library symbols:  {len(defined)}")
    print(f"unlinked:         {len(unlinked)}")
    print(f"kept:             {len(unlinked) - len(reported)}")
    print(f"reported:         {len(reported)}")
    by_file = collections.defaultdict(list)
    for name, member in reported.items():
        by_file[member].append(name)
    for member in sorted(by_file):
        print(f"\n{member}")
        for name in sorted(by_file[member]):
            print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
