"""Alternating benchmark pairs: a parent tree against a change tree.

    python tools/bench_pairs.py PARENT CHANGE --seeds A-B [--workload W]
        [--json PATH]

For each workload W and each seed s in A..B it runs the benchmark command
of CHANGE's BENCHMARK.json (``python3 perfbench/run.py``) with
``--workload W --seed s --seconds R --trace 0`` once in each tree, with
that tree as the working directory: the parent first on odd seeds, the
change first on even ones.  R is the file's run_seconds, so both sides run
as long as the benchmark sets.
It reads the result object on the last stdout line of each run.  For each
end-to-end metric of that BENCHMARK.json it prints the parent and change
medians, the pairs the change won (strictly better in the metric's
direction) and the parent's quartiles and interquartile range
(numpy.percentile 25/75); then the attempted and failed operations of
each side.  The workloads are those of the file; --workload, which may be
given more than once, runs only the ones it names.  --json writes every
run and summary to PATH.  Neither tree is edited.

Exit status 1 if a run exits non-zero, prints no result line or reports
``correct: false``; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")
METHOD = ("alternating pairs, each side in its own tree; the parent runs "
          "first on odd seeds; metrics are the end-to-end values of the "
          "last stdout line; quartiles are numpy.percentile 25/75 "
          "(linear) of the parent's runs; a win is a strictly better "
          "change value")


def parse_seeds(text: str) -> list[int]:
    """Seeds A..B of "A-B", or the one seed of "A"."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def read_result(stdout: str) -> dict | None:
    """The result object on the last non-empty line of a run's stdout,
    None if that line is not a JSON object."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric of end_to_end (BENCHMARK.json entries with name and
    better) the medians of both sides, the change's wins and the parent's
    quartiles over pairs, each {"parent": result, "change": result}; and
    the attempted and failed operations summed per side."""
    out = {"pairs": len(pairs), "metrics": {}}
    for metric in end_to_end:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        vals = {side: np.array([p[side]["metrics"][name]["value"]
                                for p in pairs], dtype=float)
                for side in SIDES}
        q1, q3 = np.percentile(vals["parent"], [25, 75])
        out["metrics"][name] = {
            "parent_median": float(np.median(vals["parent"])),
            "change_median": float(np.median(vals["change"])),
            "change_wins": int(np.sum(sign * vals["change"]
                                      < sign * vals["parent"])),
            "parent_q1": float(q1), "parent_q3": float(q3),
            "parent_iqr": float(q3 - q1),
            "bound": metric.get("bound")}
    for key in ("attempted", "failed"):
        out[key] = {side: sum(p[side][key] for p in pairs) for side in SIDES}
    return out


def format_summary(workload: str, summary: dict) -> list[str]:
    lines = [f"{workload}: {summary['pairs']} pairs"]
    for name, m in summary["metrics"].items():
        lines.append(
            f"  {name}: parent {m['parent_median']:.6g} change "
            f"{m['change_median']:.6g} wins {m['change_wins']}/"
            f"{summary['pairs']} parent IQR {m['parent_iqr']:.3g} "
            f"[{m['parent_q1']:.6g}, {m['parent_q3']:.6g}]")
    for key in ("attempted", "failed"):
        lines.append(f"  {key}: " + " ".join(
            f"{side} {summary[key][side]}" for side in SIDES))
    return lines


def run_once(command: list[str], tree: str, workload: str, seed: int,
             seconds: str) -> tuple[int, dict | None, str]:
    """Exit code, result object and stderr of one run in tree."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    return proc.returncode, read_result(proc.stdout), proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="tree of the parent commit")
    parser.add_argument("change", help="tree of the change")
    parser.add_argument("--workload", action="append",
                        help="run only this workload of BENCHMARK.json")
    parser.add_argument("--seeds", required=True, help="A-B, or one seed")
    parser.add_argument("--json", help="write every run and summary here")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    unknown = set(args.workload or ()) - set(workloads)
    if unknown:
        parser.error(f"no workload {', '.join(sorted(unknown))} in "
                     "BENCHMARK.json")
    seconds = str(bench["run_seconds"])
    seeds = parse_seeds(args.seeds)
    ok, report = True, []
    for workload in args.workload or workloads:
        runs, pairs = [], []
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {}
            for side in order:
                code, result, err = run_once(bench["command"], trees[side],
                                             workload, seed, seconds)
                runs.append({"seed": seed, "side": side, "exit": code,
                             "result": result})
                if result is not None:
                    pair[side] = result
                if code != 0 or result is None or not result.get("correct"):
                    ok = False
                    print(f"{workload} seed {seed} {side}: exit {code}, "
                          f"correct {result and result.get('correct')}\n"
                          f"{err[-2000:]}", file=sys.stderr)
            if len(pair) == 2:
                pairs.append(pair)
        summary = summarize(pairs, bench["end_to_end"]) if pairs else None
        if summary is not None:
            print("\n".join(format_summary(workload, summary)), flush=True)
        report.append({"workload": workload, "seeds": seeds,
                       "summary": summary, "runs": runs})
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"method": METHOD,
                       "command": [*bench["command"], "--workload", "<w>",
                                   "--seed", "<s>", "--seconds", seconds,
                                   "--trace", "0"],
                       "workloads": report}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
