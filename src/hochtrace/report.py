"""Validation reports: named checks with witnesses, failure is data.

A certificate that a constructor cannot do without (d*d = 0, a chain-map
check it relies on) raises ``CertificateError`` instead, with the same
two fields as a failed check: its name and its witness."""
from __future__ import annotations


class CertificateError(ValueError):
    """A failed certificate: ``check`` names it, ``witness`` is the first
    input it fails on (with the defect there, where there is one)."""

    def __init__(self, name, witness=None):
        super().__init__(name if witness is None else f"{name}, witness {witness!r}")
        self.check = name
        self.witness = witness


class Report:
    """A list of named checks.  Truthiness = all checks passed."""

    def __init__(self, title):
        self.title = title
        self.checks = []  # (name, ok, witness)

    def record(self, name, ok, witness=None):
        self.checks.append((name, bool(ok), witness))
        return ok

    def record_first_defect(self, name, candidates, defect):
        """Record check ``name``: it fails at the first candidate whose
        defect(candidate) is nonempty, with witness (candidate, defect)."""
        for candidate in candidates:
            value = defect(candidate)
            if value:
                return self.record(name, False, (candidate, value))
        return self.record(name, True)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def __bool__(self):
        return self.ok

    @property
    def first_failure(self):
        for name, ok, witness in self.checks:
            if not ok:
                return name, witness
        return None

    def summary(self) -> str:
        lines = [f"{self.title}: {'PASS' if self.ok else 'FAIL'}"]
        for name, ok, witness in self.checks:
            mark = "ok" if ok else "FAIL"
            line = f"  [{mark}] {name}"
            if witness is not None and not ok:
                line += f"  witness: {witness}"
            lines.append(line)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": name, "ok": ok,
                 **({"witness": repr(witness)} if witness is not None and not ok else {})}
                for name, ok, witness in self.checks
            ],
        }

    def __repr__(self):
        return self.summary()
