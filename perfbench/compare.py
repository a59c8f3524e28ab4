"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds records as run.py appends them to perfbench/out/records.jsonl.
For every workload, trace mode and metric the script prints the median of
each side and the ratio after/before.  It refuses (exit 2) when the records
were made with different kernel backends, because a backend change moves
every number and is not a code change.
"""

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def medians(records: list[dict]) -> dict:
    values = defaultdict(list)
    for r in records:
        for name, v in r["metrics"].items():
            values[(r["workload"], r["trace"], name)].append(v)
    return {key: (statistics.median(v), len(v)) for key, v in values.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    backends = {r["backend"] for r in before + after}
    if len(backends) != 1:
        print(f"error: records come from different kernel backends "
              f"{sorted(backends)}; refusing to compare", file=sys.stderr)
        return 2
    a, b = medians(before), medians(after)
    print(f"{'workload':14s} {'trace':5s} {'metric':32s} "
          f"{'before':>14s} {'after':>14s} {'after/before':>12s}")
    for key in sorted(a.keys() & b.keys()):
        (va, na), (vb, nb) = a[key], b[key]
        ratio = f"{vb / va:12.4f}" if va else f"{'-':>12s}"
        print(f"{key[0]:14s} {key[1]:<5d} {key[2]:32s} "
              f"{va:14.6g} {vb:14.6g} {ratio}  (n={na}/{nb})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
