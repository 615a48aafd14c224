"""Dimension reports: per-size transversal and orbital counts."""

from __future__ import annotations

from dataclasses import dataclass

from .series import BivariateSeries

CLOSED_FORM = "closed_form"
ENUMERATION = "enumeration"


@dataclass(frozen=True)
class DimReport:
    """Transversal and orbital dimensions for sizes n = 1..order.

    ``transversal[i]`` and ``orbital[i]`` hold the values at n = i + 1.
    ``includes_empty`` marks closed-form orbital series whose constant
    term counts the empty composition; the constant is not stored in the
    ``orbital`` tuple but shows up in the n = 0 row of the bivariate
    table when one is attached.  ``class_sizes`` optionally records the
    cardinality of the underlying scale set per n (enumeration mode).
    """

    transversal: tuple[int, ...]
    orbital: tuple[int, ...]
    method: str
    includes_empty: bool = False
    class_sizes: tuple[int, ...] | None = None
    bivariate_transversal: BivariateSeries | None = None
    bivariate_orbital: BivariateSeries | None = None

    def __post_init__(self):
        if self.method not in (CLOSED_FORM, ENUMERATION):
            raise ValueError(f"unknown method {self.method!r}")
        if len(self.transversal) != len(self.orbital):
            raise ValueError("transversal and orbital lengths differ")
        if self.class_sizes is not None and len(self.class_sizes) != self.order:
            raise ValueError("class_sizes length differs")
        for n in range(1, self.order + 1):
            if self.transversal[n - 1] > self.orbital[n - 1]:
                raise ValueError(f"transversal exceeds orbital at n={n}")
        self._check_row_sums(self.bivariate_transversal, self.transversal, 0)
        constant = 1 if self.includes_empty else 0
        self._check_row_sums(self.bivariate_orbital, self.orbital, constant)

    @staticmethod
    def _check_row_sums(table, univariate, constant):
        if table is None:
            return
        sums = table.at_u1().coeffs
        if sums[0] != constant:
            raise ValueError("bivariate constant term disagrees")
        upto = min(len(univariate), table.order)
        if tuple(sums[1:upto + 1]) != tuple(univariate[:upto]):
            raise ValueError("bivariate row sums disagree with univariate")

    @property
    def order(self) -> int:
        return len(self.transversal)

    def transversal_at(self, n: int) -> int:
        return self.transversal[n - 1]

    def orbital_at(self, n: int) -> int:
        return self.orbital[n - 1]

    def to_json(self) -> dict:
        rows = []
        for n in range(1, self.order + 1):
            row = {
                "n": n,
                "transversal": self.transversal[n - 1],
                "orbital": self.orbital[n - 1],
                "method": self.method,
            }
            if self.class_sizes is not None:
                row["class_size"] = self.class_sizes[n - 1]
            rows.append(row)
        out = {"rows": rows, "includes_empty": self.includes_empty}
        if self.bivariate_transversal is not None:
            out["bivariate_transversal"] = self.bivariate_transversal.to_json()
        if self.bivariate_orbital is not None:
            out["bivariate_orbital"] = self.bivariate_orbital.to_json()
        return out
