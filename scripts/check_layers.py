#!/usr/bin/env python3
"""Layering check for src/: every #include stays inside the library stack.

src/CMakeLists.txt builds mdmesh as a stack of static libraries, each
allowed to depend only on the layers below it (DESIGN.md section 2). CMake
enforces that only for code that links: a header-only include from a
higher layer (obs including a serve/ header, say) compiles and links
without complaint. This script reads the stack from src/CMakeLists.txt —
the source directories of each add_library(mdmesh_X ...) and the PUBLIC
deps of each target_link_libraries(mdmesh_X ...) — and fails when a file
under src/<dir>/ includes a header from a directory outside its own
library and that library's transitive deps.

One file is exempt: core/mdmesh.h, the umbrella header of the mdmesh
INTERFACE target, which may include anything that target links.

Usage: check_layers.py [SRC_DIR]   (default: the src/ next to scripts/)
Exit status: 0 when every include is in bounds, 1 otherwise.
"""

import os
import re
import sys

# Header -> the INTERFACE target whose link closure it may include.
UMBRELLAS = {"core/mdmesh.h": "mdmesh"}

CALL_RE = re.compile(r"(add_library|target_link_libraries)\s*\(([^)]*)\)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"/]+)/[^"]+"', re.M)
KEYWORDS = {"PUBLIC", "PRIVATE", "INTERFACE"}


def parse_stack(cmake_text):
    """Returns ({target: set of source dirs}, {target: set of linked deps})."""
    text = re.sub(r"#[^\n]*", "", cmake_text)
    dirs, deps = {}, {}
    for call, body in CALL_RE.findall(text):
        args = body.split()
        if not args:
            continue
        target = args[0]
        if call == "add_library":
            dirs.setdefault(target, set()).update(
                a.split("/")[0] for a in args[1:] if "/" in a)
            continue
        # A dependency is visible to the target's sources and consumers
        # when linked PUBLIC (static libraries) or INTERFACE (the umbrella).
        visible = False
        for a in args[1:]:
            if a in KEYWORDS:
                visible = a != "PRIVATE"
            elif visible:
                deps.setdefault(target, set()).add(a)
    return dirs, deps


def reachable_dirs(target, dirs, deps):
    seen, todo, out = set(), [target], set()
    while todo:
        t = todo.pop()
        if t in seen:
            continue
        seen.add(t)
        out |= dirs.get(t, set())
        todo.extend(deps.get(t, ()))
    return out


def main(argv):
    src = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src")
    with open(os.path.join(src, "CMakeLists.txt")) as f:
        dirs, deps = parse_stack(f.read())
    owner = {}
    for target, ds in dirs.items():
        for d in ds:
            owner[d] = target
    src_dirs = sorted(d for d in os.listdir(src)
                      if os.path.isdir(os.path.join(src, d)))

    errors, files, includes = [], 0, 0
    for d in src_dirs:
        if d not in owner:
            errors.append(f"src/{d}/ belongs to no add_library(...) in "
                          "src/CMakeLists.txt")
            continue
        for name in sorted(os.listdir(os.path.join(src, d))):
            if not name.endswith((".h", ".cpp")):
                continue
            rel = f"{d}/{name}"
            target = UMBRELLAS.get(rel, owner[d])
            allowed = reachable_dirs(target, dirs, deps)
            with open(os.path.join(src, rel)) as f:
                text = f.read()
            files += 1
            for m in INCLUDE_RE.finditer(text):
                inc_dir = m.group(1)
                if inc_dir not in owner:
                    continue  # not one of src/'s directories
                includes += 1
                if inc_dir not in allowed:
                    line = text.count("\n", 0, m.start()) + 1
                    errors.append(
                        f"src/{rel}:{line}: includes {m.group(0).split()[-1]}"
                        f" from {owner[inc_dir]}, which {target} does not "
                        f"link (it reaches {', '.join(sorted(allowed))})")
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"check_layers: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print(f"check_layers: {files} files, {includes} cross-directory "
          f"includes, all within their library's deps")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
