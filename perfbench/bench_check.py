"""Correctness gate for the benchmark's artifacts.

Each workload's entry in ``data/reference.json`` names one of three checks:

* ``error_table``: every error in errors.csv lies within ``error_factor``
  of the reference value and every rate in rates.csv within ``rate_tol``
  of the reference rate (acceptance criteria 1-3);
* ``quotient_digits``: every quotient and log2 in ratios.csv prints to the
  same 4 digits as the seed's table.md;
* ``quotient_bounds``: a quotient lies within ``tol`` of its reference
  value and its log2 inside ``log2_range`` (acceptance criterion 4).

``csv_max_rel_change`` compares every numeric CSV cell with the seed's
copy in ``data/seed``.  The check functions return a list of problems;
an empty list means the artifacts pass.
"""

from __future__ import annotations

import csv
import math
import os


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _rows(outdir: str, filename: str, problems: list) -> list[dict]:
    path = os.path.join(outdir, filename)
    if not os.path.isfile(path):
        problems.append(f"missing {filename}")
        return []
    return read_csv(path)


def check_error_table(outdir: str, ref: dict, error_factor: float, rate_tol: float) -> list[str]:
    problems: list[str] = []
    errors = _rows(outdir, "errors.csv", problems)
    rates = _rows(outdir, "rates.csv", problems)
    if problems:
        return problems
    ks = [float(r["k"]) for r in errors]
    if ks != [float(k) for k in ref["k"]]:
        problems.append(f"k values {ks} differ from reference {ref['k']}")
        return problems
    for column, values in ref["errors"].items():
        for row, want in zip(errors, values):
            got = float(row.get(column) or "nan")
            if not (want / error_factor <= got <= want * error_factor):
                problems.append(f"{column} at k={row['k']}: {got:.4e}, reference {want:.4e}")
    for column, values in ref["rates"].items():
        if len(rates) != len(values):
            problems.append(f"{column}: {len(rates)} rates, reference has {len(values)}")
            continue
        for row, want in zip(rates, values):
            got = float(row.get(column) or "nan")
            if not abs(got - want) <= rate_tol:
                problems.append(f"{column} at k={row['k']}: {got:.4f}, reference {want}")
    return problems


def _by_n(outdir: str, problems: list) -> dict:
    return {row["n"]: row for row in _rows(outdir, "ratios.csv", problems)}


def check_quotient_digits(outdir: str, ref: dict) -> list[str]:
    problems: list[str] = []
    rows = _by_n(outdir, problems)
    for n, want_row in ref.items():
        row = rows.get(n)
        if row is None:
            problems.append(f"no ratios.csv row for N={n}")
            continue
        for column, want in want_row.items():
            got = row.get(column)
            printed = "missing" if got is None else f"{float(got):.4f}"
            if printed != want:
                problems.append(f"{column} at N={n}: {printed}, seed printed {want}")
    return problems


def check_quotient_bounds(outdir: str, ref: dict) -> list[str]:
    problems: list[str] = []
    rows = _by_n(outdir, problems)
    for n, want_row in ref.items():
        row = rows.get(n)
        if row is None:
            problems.append(f"no ratios.csv row for N={n}")
            continue
        for column, want in want_row.items():
            got = float(row.get(column) or "nan")
            lo, hi = want["log2_range"]
            if not abs(got - want["value"]) <= want["tol"]:
                problems.append(f"{column} at N={n}: {got:.4f}, want {want['value']}+-{want['tol']}")
            elif not lo <= math.log2(got) <= hi:
                problems.append(f"log2 {column} at N={n}: {math.log2(got):.4f}, want [{lo}, {hi}]")
    return problems


def check_config(workload_ref: dict, config: str, outdir: str) -> list[str]:
    """Problems with one configuration's artifacts, judged by its workload's check."""
    ref = workload_ref["configs"][config]
    kind = workload_ref["kind"]
    if kind == "error_table":
        return check_error_table(outdir, ref, workload_ref["error_factor"], workload_ref["rate_tol"])
    if kind == "quotient_digits":
        return check_quotient_digits(outdir, ref)
    if kind == "quotient_bounds":
        return check_quotient_bounds(outdir, ref)
    raise ValueError(f"unknown check kind {kind!r}")


def _cell_change(got: str, want: str) -> float:
    try:
        a, b = float(got), float(want)
    except (TypeError, ValueError):
        return 0.0 if got == want else 1.0
    if a == b:
        return 0.0
    return abs(a - b) / abs(b) if b != 0.0 else 1.0


def csv_max_rel_change(outdir: str, seed_dir: str) -> float:
    """Largest relative change of a CSV cell against the seed's CSVs.

    A missing file, row or cell counts as a change of 1 (100 %).
    """
    worst = 0.0
    for name in sorted(os.listdir(seed_dir)):
        path = os.path.join(outdir, name)
        if not os.path.isfile(path):
            worst = max(worst, 1.0)
            continue
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        with open(os.path.join(seed_dir, name), newline="") as fh:
            want = list(csv.reader(fh))
        if len(got) != len(want):
            worst = max(worst, 1.0)
        for grow, wrow in zip(got, want):
            if len(grow) != len(wrow):
                worst = max(worst, 1.0)
            for g, w in zip(grow, wrow):
                worst = max(worst, _cell_change(g, w))
    return worst
