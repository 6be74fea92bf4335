#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It verifies the reference against its closed forms, then runs one real
invocation per workload, shows that its check accepts the output as
produced, and that it rejects the same output with one value corrupted
(a flipped verdict, a witness value off by 1%, map cells flipped with the
counts and the SVG kept consistent).  Exit code 0 when every corruption is
rejected and every genuine output accepted.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile

import checks
import reference
from run import Bench
from workloads import N_ANGLES

FAILURES = []


def report(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def verdict_of(fn) -> bool:
    """True when the check accepts; prints the reason of a rejection."""
    try:
        fn()
    except checks.CheckFailed as exc:
        print(f"     rejected: {exc}")
        return False
    return True


def run_op(bench: Bench, workload: str, sub: str, label: str):
    directory = os.path.join(bench.tmp, workload)
    os.mkdir(directory)
    bench.workload = workload
    op = next(o for o in bench.generate(directory)
              if o.sub == sub and o.case.label == label)
    res = bench.spawn(op.argv())
    return op, res, checks.parse(res.stdout), op.case.reference()


def certify(bench: Bench) -> None:
    op, res, d, ref = run_op(bench, "certify", "check", "example1")
    good = lambda doc, rc=res.rc: checks.check_check(op, rc, doc, ref)  # noqa: E731
    report(verdict_of(lambda: good(d)), "certify: genuine check output accepted")

    flipped = copy.deepcopy(d)
    flipped["overall"] = "NotRankOneConvex"
    for route in flipped["routes"].values():
        route["overall"] = "NotRankOneConvex"
    report(not verdict_of(lambda: good(flipped, 1)),
           "certify: flipped verdict (with matching exit code) rejected")

    shifted = copy.deepcopy(d)
    shifted["f0"]["value"] *= 1.01
    report(not verdict_of(lambda: good(shifted)), "certify: f0 off by 1% rejected")


def search(bench: Bench) -> None:
    op, res, d, ref = run_op(bench, "search", "oracle", "hencky_seeded")
    good = lambda doc, rc=res.rc: checks.check_oracle(op, rc, doc, ref)  # noqa: E731
    report(verdict_of(lambda: good(d)), "search: genuine oracle output accepted")

    off = copy.deepcopy(d)
    off["min_value"] *= 1.01
    report(not verdict_of(lambda: good(off)), "search: witness value off by 1% rejected")

    hidden = copy.deepcopy(d)
    hidden["result"] = "NoViolationFound"
    report(not verdict_of(lambda: good(hidden, 0)),
           "search: violation reported as none (exit 0) rejected")


def map_(bench: Bench) -> None:
    op, res, d, ref = run_op(bench, "map", "scan", "hencky_seeded")
    with open(op.out_csv) as fh:
        csv_text = fh.read()
    with open(op.out_svg) as fh:
        svg_text = fh.read()

    def good(doc, csv, svg):
        checks.check_scan(op, res.rc, doc, ref, csv, svg, N_ANGLES)

    report(verdict_of(lambda: good(d, csv_text, svg_text)),
           "map: genuine scan output accepted")

    # flip the most clearly non-elliptic off-diagonal cell and its mirror to
    # Elliptic, keeping counts, symmetry and the SVG consistent
    n = d["grid"]
    lines = csv_text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    best, cell = 0.0, None
    for k, r in enumerate(rows):
        i, j = divmod(k, n)
        if r[2] == "NonElliptic" and i < j and float(r[3]) < best:
            best, cell = float(r[3]), (i, j)
    i, j = cell
    rects = svg_text.split("\n")
    first_rect = next(k for k, s in enumerate(rects) if 'fill="#' in s and "x=" in s)
    for a, b in ((i, j), (j, i)):
        rows[a * n + b][2] = "Elliptic"
        rects[first_rect + a * n + b] = rects[first_rect + a * n + b].replace(
            "#d1495b", "#3a7ca5")
    csv_bad = "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"
    doc = copy.deepcopy(d)
    doc["counts"]["NonElliptic"] -= 2
    doc["counts"]["Elliptic"] += 2
    report(not verdict_of(lambda: good(doc, csv_bad, "\n".join(rects))),
           "map: two non-elliptic cells relabelled Elliptic rejected")


def main() -> int:
    failures = reference.self_check()
    report(not failures, "reference reproduces its closed forms "
           + ("; ".join(failures) if failures else ""))
    root = os.getcwd()
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        bench = Bench(root, "certify", 0, tmp)
        certify(bench)
        search(bench)
        map_(bench)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
