#!/usr/bin/env python3
"""List every `val` in a lib/**/*.mli that no other compilation unit uses.

Run from the repository root after `dune build @check`:

    dune build @check && python3 .github/unused_exports.py

The compiler's reference tables decide, not a grep: `ocamlcmt -annot`
prints, for each identifier use in a `.cmt`, the site of its definition.
A use from another unit points at the `val` in the defining module's
`.mli`; a module's own uses point into its `.ml`.  So a `val` whose
`.mli` line no reference points at is called by nothing outside its own
module.  Every `.cmt` under _build/default counts: lib/, bin/, bench/,
perfbench/, examples/ and the tests.

Exits 1 and lists each such export, 0 when there is none.
"""

import concurrent.futures
import os
import re
import subprocess
import sys

BUILD = os.path.join("_build", "default")
REF = re.compile(r'^\s*(?:int_ref|ext_ref)\s+\S+\s+"([^"]+\.mli)"\s+(\d+)\s')
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*|\([^)]*\))")


def cmt_files():
    for root, _, files in os.walk(BUILD):
        for name in files:
            if name.endswith(".cmt"):
                yield os.path.join(root, name)


def references(includes, cmt):
    # ocamlcmt resolves a use's definition site through the .cmi of the
    # unit it comes from, so every object directory goes on the path.
    out = subprocess.run(
        ["ocamlcmt", *includes, "-annot", "-o", "-", cmt],
        check=True, capture_output=True, text=True,
    ).stdout
    return {(m.group(1), int(m.group(2)))
            for m in map(REF.match, out.splitlines()) if m}


def exported_vals():
    for root, _, files in os.walk("lib"):
        for name in sorted(files):
            if name.endswith(".mli"):
                path = os.path.join(root, name)
                with open(path) as f:
                    for line, text in enumerate(f, 1):
                        m = VAL.match(text)
                        if m:
                            yield path, line, m.group(1)


def main():
    cmts = list(cmt_files())
    if not cmts:
        sys.exit("no .cmt under %s: run `dune build @check` first" % BUILD)
    includes = []
    for d in sorted({os.path.dirname(c) for c in cmts}):
        includes += ["-I", d]
    used = set()
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        for refs in pool.map(lambda c: references(includes, c), cmts):
            used |= refs
    unused = [(path, line, name) for path, line, name in sorted(exported_vals())
              if (path, line) not in used]
    for path, line, name in unused:
        print("%s:%d: val %s has no caller outside its module" % (path, line, name))
    print("%d unused exports (%d .cmt files read)" % (len(unused), len(cmts)))
    sys.exit(1 if unused else 0)


if __name__ == "__main__":
    main()
