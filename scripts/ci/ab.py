#!/usr/bin/env python3
"""ab.py — paired runs of the repo benchmark: a git revision against the
working tree.

    scripts/ci/ab.py [-seed N] <rev> <pairs> [workload...]

builds ./benchmark twice, once from <rev> (extracted with git archive into
a temporary directory) and once from the working tree, with -trimpath so
that equal sources build byte-identical binaries (it says so when they
are), then runs each workload <pairs> times on each side:

    <binary> -workload <w> -seed <N> -seconds <run_seconds> -trace 0

with run_seconds from BENCHMARK.json and N from -seed (default 42), so a
gain read at one seed can be confirmed at another. The two sides alternate, and each
pair swaps which side runs first, so a drift of the machine over time
falls on both. With no workloads named it runs all that BENCHMARK.json
declares.

Standard output is one markdown table: for every workload and end-to-end
metric, the parent's and the change's median [Q1–Q3] over the pairs, the
ratio of the medians (change / parent), a seeded 95 % pair-bootstrap
interval of that ratio, and in how many pairs the change read better
(ties count for neither side). A metric whose change median is worse
than the parent median by more than its BENCHMARK.json bound is marked
WORSE; one whose whole interval lies past the bound is marked PAST BOUND
in the interval column. Both are readings to re-run, not an exit
status. The exit
status is 1 when any run fails: "correct" false, "failed" > 0, a non-zero
exit or no JSON result line. Progress goes to standard error. Nothing is
written inside the repository, and git state is only read.
"""
import io
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

DEFAULT_SEED = 42
# Resamples per bootstrap interval.
BOOTSTRAP = 2000
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def log(msg):
    print("ab: " + msg, file=sys.stderr, flush=True)


def build(src, out):
    """Builds ./benchmark from the module rooted at src into out. With
    -trimpath and no VCS stamp, equal sources give byte-identical
    binaries whichever directory they were built in."""
    subprocess.run(["go", "build", "-trimpath", "-buildvcs=false", "-o", out, "./benchmark"], cwd=src, check=True)


def same_file(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def extract(rev, dest):
    """Writes the tree of rev into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        if hasattr(tarfile, "data_filter"):
            t.extractall(dest, filter="data")
        else:
            t.extractall(dest)


def run(binary, cwd, workload, seed, seconds):
    """Runs one workload; returns its metric values, or None with the reason logged."""
    proc = subprocess.run(
        [binary, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds), "-trace", "0"],
        cwd=cwd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        correct, failed = result["correct"], result["failed"]
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        log(f"{workload}: run ended without its JSON result line (exit status {proc.returncode})")
        return None
    if correct is not True or failed != 0 or proc.returncode != 0:
        log(f"{workload}: correct={correct}, {failed} failed ops of {result.get('attempted')}, exit status {proc.returncode}")
        return None
    return metrics


def spread(xs):
    """Median and quartiles of xs."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3


def interval(pairs, key):
    """The 95 % pair-bootstrap interval of the median ratio (change /
    parent): pairs are drawn with replacement, so the two runs of a pair,
    taken back to back, stay together. The generator is seeded with key,
    so a table reads the same on every print of the same runs."""
    rng = random.Random(key)
    ratios = []
    for _ in range(BOOTSTRAP):
        sample = [rng.choice(pairs) for _ in pairs]
        pm = statistics.median(p for p, _ in sample)
        if pm:
            ratios.append(statistics.median(c for _, c in sample) / pm)
    if len(ratios) < 2:
        return float("nan"), float("nan")
    cuts = statistics.quantiles(ratios, n=40, method="inclusive")
    return cuts[0], cuts[-1]


def fmt(v):
    return f"{v:.4g}"


def rows(workload, metrics, parent, change):
    """Table rows for one workload; the second value is the list of WORSE metrics."""
    out, worse = [], []
    for m in metrics:
        pairs = [(p[m["name"]], c[m["name"]]) for p, c in zip(parent, change)
                 if m["name"] in p and m["name"] in c]
        if not pairs:
            continue
        ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
        (pm, p1, p3), (cm, c1, c3) = spread(ps), spread(cs)
        lower = m["better"] == "lower"
        wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
        ratio = cm / pm if pm else float("nan")
        flag = ""
        if (lower and cm > pm * (1 + m["bound"])) or (not lower and cm < pm * (1 - m["bound"])):
            flag = f" **WORSE** (bound {m['bound']:g})"
            worse.append(m["name"])
        lo, hi = interval(pairs, f"{workload} {m['name']}")
        past = ""
        if (lower and lo > 1 + m["bound"]) or (not lower and hi < 1 - m["bound"]):
            past = " **PAST BOUND**"
        out.append(f"| {workload} | {m['name']} | {fmt(pm)} [{fmt(p1)}–{fmt(p3)}] | "
                   f"{fmt(cm)} [{fmt(c1)}–{fmt(c3)}] | {ratio:.3f}{flag} | {lo:.3f}–{hi:.3f}{past} | "
                   f"{wins}/{len(pairs)} |")
    return out, worse


def main(args):
    # SIGTERM unwinds like Ctrl-C: the running benchmark is killed and
    # the temporary directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    usage = "usage: ab.py [-seed N] <rev> <pairs> [workload...]"
    seed = DEFAULT_SEED
    if args[:1] == ["-seed"]:
        if len(args) < 2 or not args[1].isdigit():
            sys.exit(usage)
        seed, args = int(args[1]), args[2:]
    if len(args) < 2 or not args[1].isdigit() or int(args[1]) < 1:
        sys.exit(usage)
    rev, pairs, chosen = args[0], int(args[1]), args[2:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in chosen if w not in declared]
    if unknown:
        sys.exit("ab.py: unknown workloads %s; BENCHMARK.json declares %s" % (unknown, declared))
    workloads = chosen or declared
    commit = subprocess.run(["git", "rev-parse", "--short", rev + "^{commit}"], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, check=True).stdout.strip()

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        src = os.path.join(tmp, "parent")
        log(f"building {rev} ({commit}) and the working tree; runs at seed {seed}")
        extract(commit, src)
        sides = {"parent": (os.path.join(tmp, "bench-parent"), src),
                 "change": (os.path.join(tmp, "bench-change"), ROOT)}
        for binary, tree in sides.values():
            build(tree, binary)
        if same_file(sides["parent"][0], sides["change"][0]):
            log("the two binaries are byte-identical: every difference below is noise")

        ok = True
        results = {w: {"parent": [], "change": []} for w in workloads}
        for w in workloads:
            for i in range(pairs):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                got = {}
                for side in order:
                    log(f"{w} pair {i + 1}/{pairs}: {side}")
                    got[side] = run(*sides[side], w, seed, spec["run_seconds"])
                if got["parent"] is None or got["change"] is None:
                    ok = False
                    continue
                for side in got:
                    results[w][side].append(got[side])

    lines = [f"| workload | metric | parent {commit} median [Q1–Q3] | change median [Q1–Q3] | ratio | ratio 95 % CI | change better |",
             "|---|---|---:|---:|---:|---:|---:|"]
    worse = []
    for w in workloads:
        r, bad = rows(w, spec["end_to_end"], results[w]["parent"], results[w]["change"])
        lines += r
        worse += [f"{w} {m}" for m in bad]
    print("\n".join(lines))
    if worse:
        log("worse than the parent by more than the bound: " + ", ".join(worse))
    if not ok:
        log("FAIL: a run failed")
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv[1:])
