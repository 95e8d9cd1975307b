"""Paired comparison of two volume series: mean difference, SEM, CI, t, p.

The Student-t CDF and its inverse come from `scipy.special` (`stdtr`,
`stdtrit`), imported in the two functions that call it, so loading the
package does not load scipy. Sample statistics use the n-1 divisor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DataError


@dataclass(frozen=True)
class PairedTestReport:
    """Columns of a paired two-tailed t-test over per-subject differences."""

    n: int
    mean_diff: float
    std_diff: float
    sem: float
    ci95: tuple
    t: float
    df: int
    p: float

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "mean_diff": self.mean_diff,
            "std_diff": self.std_diff,
            "sem": self.sem,
            "ci95_lower": self.ci95[0],
            "ci95_upper": self.ci95[1],
            "t": self.t,
            "df": self.df,
            "p": self.p,
        }

    def text_row(self, label: str) -> str:
        """Fixed-column row: mu, std, SEM, 95% CI, t, df, two-tailed p."""
        return (
            f"{label:<20} {self.mean_diff:>9.1f} {self.std_diff:>8.1f} {self.sem:>7.1f} "
            f"({self.ci95[0]:>7.1f}, {self.ci95[1]:>7.1f}) {self.t:>6.1f} {self.df:>4d} "
            f"{format_p(self.p):>6}"
        )

    @staticmethod
    def text_header() -> str:
        return (
            f"{'Pair':<20} {'mu':>9} {'std.':>8} {'SEM':>7} "
            f"{'95% CI of mu diff.':>18} {'t':>6} {'df':>4} {'p(2t)':>6}"
        )


def format_p(p: float) -> str:
    """Three-decimal truncated p for reports (full precision stays internal)."""
    return f"{math.floor(p * 1000) / 1000:.3f}".lstrip("0") or "0"


# ---------------------------------------------------------------------------
# Student-t distribution


def t_cdf(t: float, df: int) -> float:
    """Student-t cumulative distribution function."""
    from scipy import special

    if df < 1:
        raise DataError("degrees of freedom must be >= 1")
    return float(special.stdtr(df, t))


def t_quantile(p: float, df: int) -> float:
    """Inverse Student-t cumulative distribution function."""
    from scipy import special

    if not (0.0 < p < 1.0):
        raise DataError("p must lie strictly inside (0, 1)")
    if df < 1:
        raise DataError("degrees of freedom must be >= 1")
    return float(special.stdtrit(df, p))


# ---------------------------------------------------------------------------
# Summaries and the paired test


def summary(values) -> tuple[float, float]:
    """(mean, sample std with divisor n-1) of a value list."""
    vals = [float(v) for v in values]
    n = len(vals)
    if n < 2:
        raise DataError("need at least 2 values")
    mean = sum(vals) / n
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var)


def report_from_moments(mean_diff: float, std_diff: float, n: int) -> PairedTestReport:
    """Build the full report from the difference series' mean, std and n."""
    if n < 2:
        raise DataError("need at least 2 pairs")
    df = n - 1
    if std_diff == 0.0:
        # every pair differs by the same amount: no difference at all, or a certain one
        t, p = (math.copysign(math.inf, mean_diff), 0.0) if mean_diff else (0.0, 1.0)
        return PairedTestReport(n, mean_diff, 0.0, 0.0, (mean_diff, mean_diff), t, df, p)
    sem = std_diff / math.sqrt(n)
    t = mean_diff / sem
    t_crit = t_quantile(0.975, df)
    ci = (mean_diff - t_crit * sem, mean_diff + t_crit * sem)
    p = 2.0 * (1.0 - t_cdf(abs(t), df))
    return PairedTestReport(n, mean_diff, std_diff, sem, ci, t, df, min(max(p, 0.0), 1.0))


def paired_t_test(a, b) -> PairedTestReport:
    """Two-tailed paired t-test on the per-index differences a_i - b_i."""
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if len(a) != len(b):
        raise DataError(f"series lengths differ: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise DataError("need at least 2 pairs")
    diffs = [x - y for x, y in zip(a, b)]
    mean_diff, std_diff = summary(diffs)
    return report_from_moments(mean_diff, std_diff, len(diffs))
