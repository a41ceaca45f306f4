"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads cli-small,scan-fock]
        [--trace 0|1] [--out perfbench/trajectory/<name>.json]

Runs ``perfbench/run.py`` once per (seed, workload), seeds outermost, with
``run_seconds`` from BENCHMARK.json. For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to the metric's bound; with ``--trace 1`` it
checks that every count metric repeats exactly between runs of one seed
(list a seed twice, as in ``--seeds 1,1,2,2``). ``--out`` keeps all of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in declared["workloads"])
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in declared[section]}
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    manifest = None
    ok = True
    for seed in args.seeds:
        for w in workloads:
            cmd = declared["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(declared["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[w].append({"seed": seed, "correct": result["correct"],
                            "attempted": result["attempted"], "failed": result["failed"],
                            "metrics": values})
            ok &= result["correct"]
            if manifest is None:
                record = ROOT / "perfbench" / "out" / f"result_{w}_seed{seed}_trace{args.trace}.json"
                manifest = json.loads(record.read_text(encoding="utf-8"))["manifest"]
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    for w, rs in runs.items():
        summary[w] = {}
        for name, m in metrics.items():
            values = [r["metrics"][name] for r in rs]
            entry = {"median": statistics.median(values)}
            if m["unit"] != "s" and args.trace:
                # Counts must repeat exactly for one seed; some (output bytes)
                # legitimately change with the drawn inputs.
                by_seed = {}
                for r in rs:
                    by_seed.setdefault(r["seed"], set()).add(r["metrics"][name])
                entry["repeats_exactly"] = all(len(v) == 1 for v in by_seed.values())
                entry["same_across_seeds"] = len(set(values)) == 1
                ok &= entry["repeats_exactly"]
            elif len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3)
                if entry["median"]:
                    entry["spread"] = (q3 - q1) / abs(entry["median"])
            summary[w][name] = entry
            line = f"{w:15s} {name:40s} median {entry['median']:.6g}"
            if "spread" in entry:
                line += f"  spread {entry['spread']:.4f}"
                if "bound" in m:
                    line += f" (bound {m['bound']}, third {m['bound'] / 3:.4f})"
            if "repeats_exactly" in entry:
                line += (f"  repeats_exactly={entry['repeats_exactly']}"
                         f" same_across_seeds={entry['same_across_seeds']}")
            print(line)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps({"trace": args.trace, "run_seconds": declared["run_seconds"],
                        "manifest": manifest, "summary": summary, "runs": runs},
                       indent=1) + "\n",
            encoding="utf-8",
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
