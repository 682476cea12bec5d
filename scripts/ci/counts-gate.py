#!/usr/bin/env python3
"""counts-gate.py — the CI perf gate: exact equality of the repo
benchmark's deterministic counts against scripts/ci/counts-seed42.json.

For every workload BENCHMARK.json declares it runs

    go run ./benchmark -workload <w> -seed 42 -trace 1 -out <tmp dir>

reads the JSON object on the last line of standard output and requires
"failed" == 0 and, for each metric in GATED, the very number the
committed file holds. The counts depend on the seed and the code, never
on the machine, so there is no tolerance and no runner-shape pin; a run
that ends without its JSON line fails rather than passing vacuously.

    scripts/ci/counts-gate.py            check; exit 1 names workload and metric
    scripts/ci/counts-gate.py -update    rewrite the committed file from this run

Standard output is one markdown table (CI appends it to the step
summary); the benchmark's own progress and every verdict go to
standard error. Nothing is written inside the repository except the
committed file under -update.
"""
import json
import os
import subprocess
import sys
import tempfile

SEED = 42
GATED = [
    "backend.cands_per_op",
    "backend.hole_cands_per_op",
    "backend.probes_per_op",
    "backend.boxchecks_per_op",
    "backend.results_per_op",
    "engine.join_cands_per_row",
    "engine.join_pairs",
    "engine.topk_rungs_per_op",
    "engine.topk_cands_per_op",
    "engine.shards",
]
# Printed beside the gated counts, never compared: allocation counts
# move with the Go release and the worker pool's scheduling.
REPORTED = ["engine.allocs_per_search", "engine.bytes_per_search"]

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
COMMITTED = os.path.join(ROOT, "scripts", "ci", "counts-seed42.json")


def log(msg):
    print("counts-gate: " + msg, file=sys.stderr, flush=True)


def measure(workload, out_dir):
    """Runs one traced workload; returns its metrics, or None with the reason logged."""
    proc = subprocess.run(
        ["go", "run", "./benchmark", "-workload", workload, "-seed", str(SEED), "-trace", "1", "-out", out_dir],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        failed = result["failed"]
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        log(f"{workload}: run ended without its JSON result line (exit status {proc.returncode})")
        return None
    if failed != 0 or proc.returncode != 0:
        log(f"{workload}: {failed} failed ops of {result.get('attempted')}, exit status {proc.returncode}")
        return None
    missing = [m for m in GATED + REPORTED if m not in metrics]
    if missing:
        log(f"{workload}: result line lacks {', '.join(missing)}")
        return None
    return metrics


def table(workloads, measured, bad):
    rows = ["| metric (seed %d) | %s |" % (SEED, " | ".join(workloads)),
            "|---|" + "---:|" * len(workloads)]
    for m in GATED + REPORTED:
        cells = []
        for w in workloads:
            cell = "run failed" if measured[w] is None else repr(measured[w][m])
            if (w, m) in bad:
                cell = f"**{cell} ≠ {bad[(w, m)]!r}**"
            cells.append(cell)
        label = m if m in GATED else m + " (not gated)"
        rows.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(rows)


def main(args):
    if args not in ([], ["-update"]):
        sys.exit("usage: counts-gate.py [-update]")
    update = bool(args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    with tempfile.TemporaryDirectory(prefix="counts-gate-") as out_dir:
        measured = {w: measure(w, out_dir) for w in workloads}
    ok = all(m is not None for m in measured.values())

    bad = {}
    if update:
        if ok:
            doc = {"seed": SEED, "workloads": {w: {m: measured[w][m] for m in GATED} for w in workloads}}
            with open(COMMITTED, "w") as f:
                json.dump(doc, f, indent=2)
                f.write("\n")
            log("rewrote " + os.path.relpath(COMMITTED, ROOT))
    else:
        with open(COMMITTED) as f:
            doc = json.load(f)
        if doc["seed"] != SEED or sorted(doc["workloads"]) != sorted(workloads):
            log("committed file is for seed %r and workloads %s; rerun with -update" % (doc["seed"], sorted(doc["workloads"])))
            ok = False
        for w in workloads:
            for m in GATED:
                want = doc["workloads"].get(w, {}).get(m)
                if measured[w] is not None and measured[w][m] != want:
                    bad[(w, m)] = want
                    log(f"{w}: {m} = {measured[w][m]!r}, committed {want!r}")

    print(table(workloads, measured, bad))
    if bad or not ok:
        log("FAIL")
        sys.exit(1)
    if not update:
        log(f"ok: {len(workloads) * len(GATED)} counts equal the committed file")


if __name__ == "__main__":
    main(sys.argv[1:])
