"""Output checks for the benchmark: representation-independent hashes,
size counters and the pinned values they are compared against.

A hash sorts every label by ``repr`` and writes each coefficient as its
(numerator, denominator) int pair, so ``Fraction(1)`` and ``1`` hash the
same: a change of coefficient type alone never reads as a wrong answer.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def canon(value):
    """A JSON-ready form of an output: numbers become [numerator,
    denominator] pairs, mappings become lists sorted by the repr of their
    keys. Floats are refused, since every output is exact."""
    if isinstance(value, (int, Fraction)):
        return [value.numerator, value.denominator]
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return [[canon(k), canon(v)] for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    raise TypeError(f"inexact or unknown output value {value!r}")


def _columns_digest(columns, degree_of=None) -> str:
    h = hashlib.sha256()
    for src in sorted(columns, key=repr):
        deg = "" if degree_of is None else degree_of[src]
        h.update(f"{src!r}@{deg}:".encode())
        col = columns[src]
        for tgt in sorted(col, key=repr):
            c = col[tgt]
            h.update(f"{tgt!r}={c.numerator}/{c.denominator};".encode())
        h.update(b"\n")
    return h.hexdigest()[:24]


def map_digest(gmap) -> str:
    """Hash of a GradedMap: its source basis with degrees, and every
    nonzero entry. Zero columns still count through the source basis."""
    columns = {label: gmap.entries.get(label, {}) for label in gmap.source.labels()}
    return f"deg{gmap.degree}:" + _columns_digest(columns, gmap.source.degree)


def table_digest(tables) -> str:
    """Hash of structure-map tables {arity: {input tuple: kvec}}."""
    columns = {(n, key): col for n, table in tables.items() for key, col in table.items()}
    return _columns_digest(columns)


def complex_sizes(cx) -> dict:
    """Dimension and nnz of the differential in each degree."""
    dims, nnz = {}, {}
    space, entries = cx.space, cx.d.entries
    for t, labels in space.by_degree.items():
        dims[t] = len(labels)
        nnz[t] = sum(len(entries.get(v, ())) for v in labels)
    return {"dim": dims, "nnz": nnz}


class Checks:
    """Counts output checks (operations) and the ones that failed.

    ``pins`` maps keys to canonical values; with ``pins=None`` nothing is
    compared and every pinned value is only recorded in ``observed``.
    """

    def __init__(self, pins):
        self.pins = pins
        self.attempted = 0
        self.failures = []
        self.observed = {}

    def check(self, name, ok, witness=None):
        self.attempted += 1
        if not ok:
            self.failures.append((name, witness))
        return ok

    def fail(self, name, witness):
        return self.check(name, False, witness)

    def pin(self, key, value):
        try:
            value = canon(value)
        except TypeError as exc:
            return self.fail(f"pin {key}", str(exc))
        self.observed[key] = value
        if self.pins is None:
            return True
        want = self.pins.get(key)
        if want == value:
            return self.check(f"pin {key}", True)
        return self.fail(f"pin {key}", {"want": _short(want), "got": _short(value)})


def _short(value, limit=300):
    text = json.dumps(value)
    return text if len(text) <= limit else text[:limit] + "..."
