#!/usr/bin/env python3
"""Same-session A/B of one exptab experiment: a base commit against the
working tree.

    python3 scripts/exptab_ab.py BASE E3 [--rounds 5] [--mode quick|full] [--out DIR]

BASE is any commit git can resolve (`HEAD~1`, a tag, a hash). The
script exports it with `git archive` into `target/exptab_ab/<hash>/`
(reused on later runs), builds `exptab` there and in the working tree
(release, offline), and then runs `exptab <mode> --only <E> --json`
for the two builds in turn, ROUNDS times, swapping which goes first
each round so a change of host speed reaches both alike.

For every numeric cell of the experiment's table it prints the base
and working-tree medians over the rounds and the working tree's ratio
to the base: the median of the per-round ratios, and their min and
max. A ratio is working tree / base, so below 1 is faster for a time
column and slower for a rate column. With `--out DIR` it also writes
`DIR/BENCH_<E>.json` in exptab's own format, each numeric cell the
working tree's median over the rounds (printed with the precision
exptab printed it with).

Only one experiment runs at a time, and nothing else should compile
or run meanwhile: the numbers are timings (wall-clock, or for E3 the
thread's CPU time, which a slower host phase still moves).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def build(tree, target):
    """Build `exptab` from the source tree `tree` into `target`; return the binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "xqse-bench", "--bin", "exptab"],
        cwd=tree, env=env, check=True, stdout=sys.stderr,
    )
    return os.path.join(target, "release", "exptab")


def export(base):
    """The base commit's tree under target/exptab_ab/, exported once."""
    sha = git("rev-parse", "--verify", base + "^{commit}")
    tree = os.path.join(ROOT, "target", "exptab_ab", sha[:12])
    if not os.path.isdir(tree):
        os.makedirs(tree)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"exptab_ab: git archive {sha} failed")
    return sha, tree


def run(exe, mode, exp):
    """One `exptab` run of `exp`; its table as exptab's JSON object."""
    with tempfile.TemporaryDirectory() as out:
        subprocess.run(
            [exe, mode, "--only", exp, "--json", "--out", out],
            check=True, stdout=subprocess.DEVNULL,
        )
        with open(os.path.join(out, f"BENCH_{exp.upper()}.json")) as f:
            return json.load(f)


def number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def decimals(cell):
    return len(cell.split(".", 1)[1]) if "." in cell else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="the commit to compare against")
    ap.add_argument("experiment", help="an exptab experiment id, e.g. E3")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--mode", choices=["quick", "full"], default="quick")
    ap.add_argument("--out", help="write the working tree's medians as BENCH_<E>.json here")
    a = ap.parse_args()

    sha, base_tree = export(a.base)
    exes = {
        "base": build(base_tree, os.path.join(base_tree, "target")),
        "head": build(ROOT, os.path.join(ROOT, "target")),
    }
    tables = {"base": [], "head": []}
    for r in range(a.rounds):
        order = ["base", "head"] if r % 2 == 0 else ["head", "base"]
        for side in order:
            tables[side].append(run(exes[side], a.mode, a.experiment))
        print(f"exptab_ab: round {r + 1}/{a.rounds} done", file=sys.stderr)

    first = tables["head"][0]
    header = first["header"]
    print(f"{first['title']}: {a.rounds} alternating rounds, base {sha[:12]} vs working tree")
    print(f"{'row':>8}  {'column':<20} {'base':>12} {'head':>12} {'ratio':>7} {'min':>7} {'max':>7}")
    medians = []
    for i, row in enumerate(first["rows"]):
        out_row = list(row)
        for j, cell in enumerate(row):
            if j == 0 or number(cell) is None:
                continue
            base = [number(t["rows"][i][j]) for t in tables["base"]]
            head = [number(t["rows"][i][j]) for t in tables["head"]]
            out_row[j] = f"{statistics.median(head):.{decimals(cell)}f}"
            ratios = [h / b for h, b in zip(head, base) if b]
            if not ratios:
                continue
            print(
                f"{row[0]:>8}  {header[j]:<20} {statistics.median(base):>12.4g} "
                f"{statistics.median(head):>12.4g} {statistics.median(ratios):>7.3f} "
                f"{min(ratios):>7.3f} {max(ratios):>7.3f}"
            )
        medians.append(out_row)
    if a.out:
        path = os.path.join(a.out, f"BENCH_{first['id']}.json")
        with open(path, "w") as f:
            f.write(exptab_json(dict(first, rows=medians)))
        print(f"exptab_ab: wrote {path}", file=sys.stderr)


def exptab_json(table):
    """`table` laid out as exptab writes it: one line per row."""
    dump = json.dumps
    rows = ",\n".join("    [" + ", ".join(dump(c) for c in row) + "]" for row in table["rows"])
    return (
        f'{{\n  "id": {dump(table["id"])},\n  "title": {dump(table["title"])},\n'
        f'  "mode": {dump(table["mode"])},\n'
        f'  "header": [{", ".join(dump(h) for h in table["header"])}],\n'
        f'  "rows": [\n{rows}\n  ]\n}}\n'
    )


if __name__ == "__main__":
    main()
