"""Pin output digests from earlier benchmark runs.

Every run writes the sha256 of each output it produced (decision logs,
sweep results) into ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
This script merges those into ``perfbench/digests.json``, which runs
then check against::

    python3 perfbench/pin_digests.py

A pinned digest is never changed here: a run that disagrees with one is
reported and the script exits 1.  After a deliberate model change,
delete the stale entries from ``digests.json`` and pin again.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    path = HERE / "digests.json"
    pinned = json.loads(path.read_text())
    added, clashes = 0, []
    for result in sorted((HERE / "out").glob("*-seed*-trace*.json")):
        for key, value in json.loads(result.read_text())["digests"].items():
            if key not in pinned:
                pinned[key] = value
                added += 1
            elif pinned[key] != value:
                clashes.append(f"{key}: {result.name} has {value[:12]}, "
                               f"pinned {pinned[key][:12]}")
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"{added} digest(s) added, {len(pinned)} pinned")
    for line in clashes:
        print(f"clash: {line}", file=sys.stderr)
    return 1 if clashes else 0


if __name__ == "__main__":
    sys.exit(main())
