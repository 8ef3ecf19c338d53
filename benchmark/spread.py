#!/usr/bin/env python3
"""Run each workload on several seeds and print, per end-to-end metric, the
median and the spread the driver computes: (Q3 - Q1) / median, with the
quartiles of statistics.quantiles(values, n=4).

usage: benchmark/spread.py [--runs 10] [--seconds S] [--trace 0|1] [--first-seed 1]
                           [--markdown FILE] [workload ...]

--markdown writes the medians as a table (this is how baseline/ was made).
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    args = sys.argv[1:]
    opts = {"--runs": "10", "--seconds": None, "--trace": "0", "--first-seed": "1", "--markdown": None}
    workloads = []
    while args:
        a = args.pop(0)
        if a in opts:
            opts[a] = args.pop(0)
        else:
            workloads.append(a)
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = opts["--seconds"] or str(bench["run_seconds"])
    kind = "per_layer" if opts["--trace"] == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    worst = 0.0
    table = {}
    for w in workloads or [x["name"] for x in bench["workloads"]]:
        values = {}
        for i in range(int(opts["--runs"])):
            seed = str(int(opts["--first-seed"]) + i)
            cmd = bench["command"] + ["--workload", w, "--seed", seed, "--seconds", seconds, "--trace", opts["--trace"]]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stdout}")
            result = json.loads(p.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({opts['--runs']} seeds, {seconds} s, trace {opts['--trace']})")
        for name, v in values.items():
            med = statistics.median(v)
            if len(v) >= 2 and med:
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / med
            else:
                spread = 0.0
            table.setdefault(name, {})[w] = (med, spread)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = f"bound {bound:.2f}  spread/bound {spread / bound:5.2f}" + ("  <-- over a third" if spread > bound / 3 else "")
            print(f"{name:<36} median {med:>14.4f}  spread {spread:7.4f}  {flag}")
            if os.environ.get("SPREAD_VALUES"):
                print("    " + " ".join(f"{x:.4g}" for x in v))
    print(f"worst spread/bound: {worst:.2f}")
    if opts["--markdown"]:
        names = list(next(iter(table.values())))
        units = {m["name"]: m["unit"] for m in bench[kind]}
        with open(opts["--markdown"], "w") as f:
            f.write(f"Medians over seeds {opts['--first-seed']}..{int(opts['--first-seed']) + int(opts['--runs']) - 1}, "
                    f"{seconds} s windows, `--trace {opts['--trace']}`; in brackets the spread "
                    "(Q3 - Q1) / median over those runs.\n\n")
            f.write("| metric | unit | " + " | ".join(f"`{w}`" for w in names) + " |\n")
            f.write("|---|---|" + "---|" * len(names) + "\n")
            for name, cells in table.items():
                row = " | ".join(f"{cells[w][0]:.4g} [{cells[w][1]:.3f}]" for w in names)
                f.write(f"| `{name}` | {units.get(name, '')} | {row} |\n")


if __name__ == "__main__":
    main()
