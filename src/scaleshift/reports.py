"""Dimension reports: per-size transversal and orbital counts."""

from __future__ import annotations

from .series import BivariateSeries
from .values import Frozen

CLOSED_FORM = "closed_form"
ENUMERATION = "enumeration"


class DimReport(Frozen):
    """Transversal and orbital dimensions for sizes n = 1..order.

    ``transversal[i]`` and ``orbital[i]`` hold the values at n = i + 1.
    ``includes_empty`` marks closed-form orbital series whose constant
    term counts the empty composition; the constant is not stored in the
    ``orbital`` tuple but shows up in the n = 0 row of the bivariate
    table when one is attached.  ``class_sizes`` optionally records the
    cardinality of the underlying scale set per n; the closed forms and the
    enumerators both record it.
    """

    __slots__ = (
        "transversal", "orbital", "method", "includes_empty", "class_sizes",
        "bivariate_transversal", "bivariate_orbital",
    )

    def __init__(
        self,
        transversal: tuple[int, ...],
        orbital: tuple[int, ...],
        method: str,
        includes_empty: bool = False,
        class_sizes: tuple[int, ...] | None = None,
        bivariate_transversal: BivariateSeries | None = None,
        bivariate_orbital: BivariateSeries | None = None,
    ):
        if method not in (CLOSED_FORM, ENUMERATION):
            raise ValueError(f"unknown method {method!r}")
        if len(transversal) != len(orbital):
            raise ValueError("transversal and orbital lengths differ")
        if class_sizes is not None and len(class_sizes) != len(transversal):
            raise ValueError("class_sizes length differs")
        for n, (t, o) in enumerate(zip(transversal, orbital), start=1):
            if t > o:
                raise ValueError(f"transversal exceeds orbital at n={n}")
        self._check_row_sums(bivariate_transversal, transversal, 0)
        self._check_row_sums(bivariate_orbital, orbital, 1 if includes_empty else 0)
        object.__setattr__(self, "transversal", transversal)
        object.__setattr__(self, "orbital", orbital)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "includes_empty", includes_empty)
        object.__setattr__(self, "class_sizes", class_sizes)
        object.__setattr__(self, "bivariate_transversal", bivariate_transversal)
        object.__setattr__(self, "bivariate_orbital", bivariate_orbital)

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
