import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import t_cdf_by_quadrature

from ssmrecon.errors import DataError
from ssmrecon.stats import (
    PairedTestReport,
    format_p,
    paired_t_test,
    report_from_moments,
    summary,
    t_cdf,
    t_quantile,
)


def series_with_moments(mean, std, n, seed=0):
    """Difference series with exactly the requested sample mean/std (ddof=1)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    z = (z - z.mean()) / z.std(ddof=1)
    return mean + std * z


# ---------------------------------------------------------------------------
# t distribution


def test_cdf_half_at_zero():
    for df in (1, 2, 10, 100, 1000):
        assert t_cdf(0.0, df) == 0.5


def test_cauchy_closed_form():
    # df=1 is Cauchy: F(t) = 1/2 + arctan(t)/pi
    for t in (-3.0, -1.0, 1.0, 2.5):
        assert t_cdf(t, 1) == pytest.approx(0.5 + math.atan(t) / math.pi, abs=1e-12)
    assert t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("df", [1, 2, 5, 34, 200, 1000])
@pytest.mark.parametrize("t", [0.25, 1.0, 2.0322, 5.0, 10.0, 50.0])
def test_cdf_matches_quadrature_oracle(df, t):
    oracle = t_cdf_by_quadrature(t, df)
    assert abs(t_cdf(t, df) - oracle) < 1e-10
    assert abs(t_cdf(-t, df) - (1.0 - oracle)) < 1e-10


@given(t=st.floats(-50, 50), df=st.integers(1, 1000))
@settings(max_examples=60, deadline=None)
def test_cdf_symmetry(t, df):
    assert t_cdf(-t, df) + t_cdf(t, df) == pytest.approx(1.0, abs=1e-12)


def test_cdf_monotone():
    ts = np.linspace(-20, 20, 201)
    for df in (1, 7, 34):
        vals = [t_cdf(float(t), df) for t in ts]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_large_df_approaches_normal():
    for t in (-4.0, -1.0, 0.5, 2.0, 4.0):
        normal = 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
        assert abs(t_cdf(t, 500) - normal) < 1e-3


def test_quantile_basics():
    assert t_quantile(0.5, 10) == 0.0
    assert t_quantile(0.975, 34) == pytest.approx(2.0322, abs=1e-3)


def test_quantile_inverts_cdf():
    rng = np.random.default_rng(1)
    for df in (1, 5, 34, 200):
        for x in rng.uniform(-6, 6, size=8):
            p = t_cdf(float(x), df)
            q = t_quantile(p, df)
            assert q == pytest.approx(float(x), abs=1e-8)
            assert abs(t_cdf(q, df) - p) < 1e-10


def test_quantile_domain_checked():
    with pytest.raises(DataError):
        t_quantile(0.0, 5)
    with pytest.raises(DataError):
        t_cdf(1.0, 0)


# ---------------------------------------------------------------------------
# summary


def test_summary_constant_list():
    assert summary([4.2, 4.2, 4.2]) == (4.2, 0.0)


def test_summary_simple():
    mean, std = summary([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(1.0)


def test_summary_matches_two_pass_oracle():
    rng = np.random.default_rng(2)
    vals = rng.normal(10.0, 3.0, size=40)
    mean, std = summary(vals)
    m = sum(vals) / len(vals)
    s = math.sqrt(sum((v - m) ** 2 for v in vals) / (len(vals) - 1))
    assert mean == pytest.approx(m, abs=1e-12)
    assert std == pytest.approx(s, abs=1e-12)


def test_summary_needs_two_values():
    with pytest.raises(DataError):
        summary([1.0])


# ---------------------------------------------------------------------------
# paired_t_test against the published arithmetic


def test_reference_vector_insignificant_pair():
    diffs = series_with_moments(78.1, 268.4, 35, seed=3)
    report = paired_t_test(diffs, np.zeros(35))
    assert report.sem == pytest.approx(45.4, abs=0.05)
    assert report.t == pytest.approx(1.7, abs=0.05)
    assert report.ci95[0] == pytest.approx(-14.1, abs=0.15)
    assert report.ci95[1] == pytest.approx(170.3, abs=0.15)
    assert report.p == pytest.approx(0.094, abs=0.002)
    assert report.df == 34


def test_reference_vector_significant_pair():
    diffs = series_with_moments(-201.5, 234.8, 35, seed=4)
    report = paired_t_test(diffs, np.zeros(35))
    assert report.sem == pytest.approx(39.7, abs=0.05)
    assert report.t == pytest.approx(-5.1, abs=0.05)
    assert report.ci95[0] == pytest.approx(-282.1, abs=0.15)
    assert report.ci95[1] == pytest.approx(-120.8, abs=0.15)
    assert report.p < 0.001


def test_equal_series_null_result():
    vals = [900.0, 1100.0, 1300.0]
    report = paired_t_test(vals, vals)
    assert report.mean_diff == 0.0
    assert report.t == 0.0
    assert report.p == 1.0


def test_constant_nonzero_difference_is_significant():
    report = paired_t_test([10.0, 20.0, 30.0], [0.0, 10.0, 20.0])
    assert (report.mean_diff, report.std_diff, report.sem, report.ci95) == (10.0, 0.0, 0.0, (10.0, 10.0))
    assert (report.t, report.p) == (math.inf, 0.0)
    assert paired_t_test([0.0, 10.0, 20.0], [10.0, 20.0, 30.0]).t == -math.inf


def test_antisymmetry():
    rng = np.random.default_rng(5)
    a = rng.normal(1000, 100, size=20)
    b = rng.normal(1050, 120, size=20)
    fwd = paired_t_test(a, b)
    rev = paired_t_test(b, a)
    assert rev.mean_diff == pytest.approx(-fwd.mean_diff, abs=1e-9)
    assert rev.t == pytest.approx(-fwd.t, abs=1e-9)
    assert rev.ci95[0] == pytest.approx(-fwd.ci95[1], abs=1e-9)
    assert rev.ci95[1] == pytest.approx(-fwd.ci95[0], abs=1e-9)
    assert rev.p == pytest.approx(fwd.p, abs=1e-12)


def test_shift_invariance():
    rng = np.random.default_rng(6)
    a = rng.normal(1000, 100, size=15)
    b = rng.normal(1050, 120, size=15)
    base = paired_t_test(a, b)
    shifted = paired_t_test(a + 500.0, b + 500.0)
    assert shifted.mean_diff == pytest.approx(base.mean_diff, abs=1e-9)
    assert shifted.t == pytest.approx(base.t, abs=1e-9)
    assert shifted.p == pytest.approx(base.p, abs=1e-12)


def test_input_validation():
    with pytest.raises(DataError):
        paired_t_test([1.0, 2.0], [1.0])
    with pytest.raises(DataError):
        paired_t_test([1.0], [1.0])
    with pytest.raises(DataError):
        report_from_moments(1.0, 1.0, 1)


# ---------------------------------------------------------------------------
# report serialization


def test_report_json_round_trip():
    report = report_from_moments(78.1, 268.4, 35)
    doc = json.loads(report.to_json())
    assert doc["n"] == 35
    assert doc["df"] == 34
    assert doc["mean_diff"] == report.mean_diff
    assert doc["p"] == report.p  # full precision in JSON


def test_report_text_columns():
    report = report_from_moments(78.1, 268.4, 35)
    header = PairedTestReport.text_header()
    row = report.text_row("pair-2")
    assert "SEM" in header and "95% CI" in header and "df" in header
    assert ".094" in row  # truncated three-decimal p
    assert "34" in row


def test_p_formatting_truncates():
    assert format_p(0.09425) == ".094"
    assert format_p(1.36e-05) == ".000"
    assert format_p(1.0) == "1.000"
