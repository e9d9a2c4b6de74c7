"""Fold paired perfbench runs of a parent and a change into one BENCH file.

Each directory holds the ``.bench_results/*.json`` files of untraced runs
(``--trace 0``), copied there after each run.  A parent run and a change
run of the same workload and seed make a pair; a run without its partner
is an error, and traced runs are skipped.  For each workload and each
end-to-end metric of ``BENCHMARK.json`` the output gives each side's
median and quartiles, and how many pairs the change won (ties count for
neither side), in the direction the metric calls better.  It also gives
each side's largest share of failed jobs.

``--timings`` takes the ``scripts/koszul_timings.py --json`` output of
each side, the rows at the dimension cap that the 20-second workloads do
not reach.  Rows of the same kind and algebra make a pair, and may
repeat; the output gives each side's seconds and ``peak_rss_mb`` in file
order (null for a row from before the script recorded it) and whether
every digest of the two sides is the same.  Run from the root of a
checkout:

    python3 scripts/bench_fold.py runs/parent runs/change --out BENCH_n.json \\
        --timings runs/parent.jsonl runs/change.jsonl \\
        --parent-commit 99547cf --change-commit "the commit that adds BENCH_n.json"
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict:
    """Untraced runs keyed by (workload, seed)."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        run = json.loads(path.read_text())
        meta = run["metadata"]
        if meta["trace"] == 0:
            runs[(meta["workload"], meta["seed"])] = run
    return runs


def spread(values: list) -> dict:
    """Median and quartiles, the quartiles taken inside the range of the data."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def fold(parent: dict, change: dict, end_to_end: list) -> dict:
    """Per workload: the seeds, the run settings, the largest failed share
    of each side and, for each metric, both spreads and the wins."""
    unmatched = sorted(set(parent) ^ set(change))
    if unmatched:
        raise ValueError(f"runs without a partner: {unmatched}")
    out = {}
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload)
        pairs = [(parent[workload, s], change[workload, s]) for s in seeds]
        entry = {
            "seeds": seeds,
            "seconds": sorted({run["metadata"]["seconds"] for pair in pairs for run in pair}),
            "max_failed_share": {
                side: max(pair[i]["also"]["failed_share"]["value"] for pair in pairs)
                for i, side in enumerate(("parent", "change"))
            },
            "metrics": {},
        }
        for metric in end_to_end:
            name, higher = metric["name"], metric["better"] == "higher"
            p = [a["metrics"][name]["value"] for a, _ in pairs]
            c = [b["metrics"][name]["value"] for _, b in pairs]
            wins = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": spread(p),
                "change": spread(c),
                "wins": wins,
                "pairs": len(pairs),
            }
        out[workload] = entry
    return out


def fold_timings(parent: list, change: list) -> dict:
    """Per kind and algebra: each side's seconds and peak RSS, and whether
    the digests match."""

    def keyed(rows):
        out = {}
        for row in rows:
            out.setdefault(f"{row['kind']} {row['algebra']}", []).append(row)
        return out

    parent, change = keyed(parent), keyed(change)
    unmatched = sorted(set(parent) ^ set(change))
    if unmatched:
        raise ValueError(f"timing rows without a partner: {unmatched}")
    return {
        key: {
            **{
                field: {
                    "parent": [r.get(field) for r in rows],
                    "change": [r.get(field) for r in change[key]],
                }
                for field in ("seconds", "peak_rss_mb")
            },
            "sha256_match": len({r["sha256"] for r in rows + change[key]}) == 1,
        }
        for key, rows in parent.items()
    }


def load_timings(path: Path) -> list:
    """The rows of one ``koszul_timings.py --json`` output."""
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="directory of the parent's run files")
    ap.add_argument("change", type=Path, help="directory of the change's run files")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--timings", type=Path, nargs=2, metavar=("PARENT", "CHANGE"),
                    help="each side's koszul_timings.py --json output")
    ap.add_argument("--parent-commit", default="", help="what the parent runs measured")
    ap.add_argument("--change-commit", default="", help="what the change runs measured")
    args = ap.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        workloads = fold(load_runs(args.parent), load_runs(args.change), end_to_end)
        if args.timings:
            cap_rows = fold_timings(*map(load_timings, args.timings))
    except ValueError as e:
        print(f"bench_fold: {e}", file=sys.stderr)
        return 2
    report = {
        "parent": args.parent_commit,
        "change": args.change_commit,
        "workloads": workloads,
    }
    if args.timings:
        report["cap_rows"] = cap_rows
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
