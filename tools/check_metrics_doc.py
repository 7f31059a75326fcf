#!/usr/bin/env python3
"""Fails when src/ and the DESIGN.md metric catalogue disagree.

Scans src/ for telemetry registrations — counter("..."), gauge("..."),
histogram("...") and the labeled("base", key, value) variant — and
checks both directions:

- every stampede_* series name appears in DESIGN.md (any backticked
  `stampede_...` token counts, so labeled series documented as
  `name{key=...}` match their base name);
- every catalogue row (a line starting with | `stampede_...`) names a
  series that src/ registers, so a deleted instrument takes its row
  with it.

Run from anywhere:  python3 tools/check_metrics_doc.py [repo-root]
Wired into ctest as check_metrics_doc (tier-1), so adding an instrument
without documenting it, or removing one without its row, breaks the
build.
"""

import pathlib
import re
import sys

REGISTRATION = re.compile(
    r'(?:counter|gauge|histogram|labeled)\(\s*(?:telemetry::labeled\(\s*)?'
    r'"(stampede_[A-Za-z0-9_]+)"'
)
DOCUMENTED = re.compile(r"`(stampede_[A-Za-z0-9_]+)")
CATALOGUE_ROW = re.compile(r"^\| `(stampede_[A-Za-z0-9_]+)", re.MULTILINE)


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    design = root / "DESIGN.md"
    if not design.is_file():
        print(f"check_metrics_doc: no DESIGN.md at {design}", file=sys.stderr)
        return 2

    registered = {}
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        text = path.read_text(encoding="utf-8", errors="replace")
        for match in REGISTRATION.finditer(text):
            registered.setdefault(match.group(1), path.relative_to(root))

    design_text = design.read_text(encoding="utf-8")
    documented = set(DOCUMENTED.findall(design_text))
    rows = CATALOGUE_ROW.findall(design_text)

    failed = False
    missing = sorted(name for name in registered if name not in documented)
    if missing:
        print("check_metrics_doc: metrics registered in src/ but absent "
              "from the DESIGN.md metric catalogue:", file=sys.stderr)
        for name in missing:
            print(f"  {name}  (registered in {registered[name]})",
                  file=sys.stderr)
        failed = True
    stale = sorted({name for name in rows if name not in registered})
    if stale:
        print("check_metrics_doc: DESIGN.md metric-catalogue rows naming "
              "series nothing in src/ registers:", file=sys.stderr)
        for name in stale:
            print(f"  {name}", file=sys.stderr)
        failed = True
    if failed:
        return 1

    print(f"check_metrics_doc: {len(registered)} registered stampede_* "
          f"series all documented; {len(rows)} catalogue rows all "
          f"registered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
