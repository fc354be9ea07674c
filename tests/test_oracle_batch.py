"""The batched oracle: a weight of shape (k, len(n)) sums its k rows in one
pass, and each row must equal, bit for bit, the sum of that row alone."""
import itertools
import math
import random
import warnings

import numpy as np
import pytest

from pascal_spiral import (
    CriterionId,
    PascalParams,
    RTauParams,
    SeriesTruncationError,
    SpiralClassParams,
    SummationDivergenceError,
    adaptive_truncation_order,
    discrepancy_report,
    evaluate_criterion,
    oracle_sum,
    pascal_coefficient,
    weight_K,
    weight_S,
)
from pascal_spiral import criteria, summation
from pascal_spiral.criteria import _lhs_closed, _lhs_direct
from pascal_spiral.series import rtau_bound

Q_GRID = (1e-6, 0.3, 0.99)
M_GRID = (1.0 + 1e-7, 1.5, 12.0)
RTAU = RTauParams(tau=0.6 - 1.1j, vartheta=0.35, delta=-0.4)


def _classes(k, seed):
    rng = random.Random(seed)
    return [
        SpiralClassParams(rng.uniform(-1.55, 1.55), rng.uniform(0.0, 0.99), rng.uniform(0.0, 0.99))
        for _ in range(k)
    ]


def _scalar_lhs(cid, p, c, r):
    """Direct lhs of one class from a weight of shape (len(n),): the
    point-by-point reference for the batched _lhs_direct."""
    t = (1.0 - p.q) ** p.m

    def direct(w):
        return t * oracle_sum(w, p)[0]

    if cid in (CriterionId.THETA_IN_S, CriterionId.G_IN_K):
        raw = direct(lambda n: weight_S(n, c))
        return (raw - (1.0 - c.gamma) * (1.0 - t)) / t
    if cid is CriterionId.THETA_IN_K:
        return direct(lambda n: weight_K(n, c))
    if cid is CriterionId.G_IN_S:
        return direct(lambda n: weight_S(n, c) / n)
    if cid is CriterionId.LAMBDA_RTAU_IN_S:
        return direct(lambda n: weight_S(n, c) * rtau_bound(n, r))
    return direct(lambda n: weight_K(n, c) * rtau_bound(n, r))


def _stack(*weights):
    return lambda n: np.array([w(n) for w in weights])


@pytest.mark.parametrize("cid", list(CriterionId))
def test_batch_rows_bit_equal_to_scalar_lhs(cid):
    classes = _classes(7, seed=list(CriterionId).index(cid))
    r = RTAU if cid.needs_rtau else None
    for m, q in itertools.product(M_GRID, Q_GRID):
        p = PascalParams(m, q)
        batch = _lhs_direct(cid, p, classes, r)
        assert len(batch) == len(classes)
        for c, value in zip(classes, batch):
            assert value == _scalar_lhs(cid, p, c, r), (cid, m, q, c)
            lhs = evaluate_criterion(cid, p, c, r).lhs
            assert type(lhs) is float and lhs == value


def test_batch_of_many_rows_runs_in_sub_chunks():
    # 40 rows leave 16384 // 40 = 409 columns per chunk, fewer than the
    # first block's 512; q = 0.99 at m = 12 needs several blocks
    classes = _classes(40, seed=7)
    for q in (0.3, 0.99):
        p = PascalParams(12.0, q)
        weights = [lambda n, c=c: weight_K(n, c) * rtau_bound(n, RTAU) for c in classes]
        values, order_sum = oracle_sum(_stack(*weights), p)
        alone = [oracle_sum(w, p) for w in weights]
        assert values.tolist() == [value for value, _ in alone]
        assert order_sum == sum(order for _, order in alone)
        if q == 0.99:
            assert min(order for _, order in alone) > 512


def test_weight_calls_after_the_first_stay_within_a_sub_chunk():
    widths = []
    batch = _stack(*[lambda n, a=a: n + a for a in range(40)])

    def recorded(n):
        widths.append(n.size)
        return batch(n)

    oracle_sum(recorded, PascalParams(12.0, 0.99))
    # the first call, which tells the number of rows, spans the first block
    assert widths[0] == 513
    assert len(widths) > 5 and max(widths[1:]) == 16384 // 40 + 1


def test_order_sum_is_sum_of_row_orders():
    weights = (lambda n: np.ones_like(n), lambda n: n * n, lambda n: 1.0 / n)
    for m, q in itertools.product(M_GRID, Q_GRID):
        p = PascalParams(m, q)
        values, order_sum = oracle_sum(_stack(*weights), p)
        alone = [oracle_sum(w, p) for w in weights]
        assert values.tolist() == [value for value, _ in alone]
        assert order_sum == sum(order for _, order in alone)


def test_q_zero():
    p = PascalParams(3.0, 0.0)
    assert oracle_sum("one", p) == (0.0, 2)
    values, order_sum = oracle_sum(_stack(np.ones_like, lambda n: n), p)
    assert values.tolist() == [0.0, 0.0] and order_sum == 4
    c = SpiralClassParams(0.3, 0.2, 0.1)
    assert _lhs_direct(CriterionId.THETA_IN_K, p, [c, c, c], None) == [0.0] * 3


def test_zero_weight_row():
    # the n = 2 term of (n-1)(n-2) vanishes and every later weight is cut off
    zero_after_2 = lambda n: (n - 1.0) * (n - 2.0) * (n <= 2)  # noqa: E731
    cut_at_3 = lambda n: 1.0 * (n <= 3)  # noqa: E731
    for m, q in itertools.product(M_GRID, Q_GRID):
        p = PascalParams(m, q)
        weights = (zero_after_2, lambda n: n, cut_at_3)
        values, order_sum = oracle_sum(_stack(*weights), p)
        alone = [oracle_sum(w, p) for w in weights]
        assert values[0] == 0.0
        assert values.tolist() == [value for value, _ in alone]
        assert order_sum == sum(order for _, order in alone)


def test_divergence_names_first_open_row():
    p = PascalParams(1.0, 0.99)
    converges = lambda n: 1.0 * (n <= 2)  # noqa: E731
    weights = (converges, lambda n: 3.0 * np.ones_like(n), lambda n: n)
    assert oracle_sum(converges, p, cap=100)[1] == 3
    with pytest.raises(SummationDivergenceError) as first_alone:
        oracle_sum(weights[1], p, cap=100)
    with pytest.raises(SummationDivergenceError) as batch:
        oracle_sum(_stack(*weights), p, cap=100)
    assert str(batch.value) == str(first_alone.value)
    assert batch.value.last_term == first_alone.value.last_term


def test_empty_class_grid_checks_no_points():
    report = discrepancy_report(xi_grid=(), m_grid=(2.0,), q_grid=(0.5,))
    assert report["points_checked"] == 0
    assert report["flagged_rows"] == []
    assert set(report["flagged_counts"].values()) == {0}


@pytest.mark.parametrize("cid", list(CriterionId))
@pytest.mark.parametrize("k", [0, 1, 18])
def test_closed_batch_bit_equal_to_scalar_closed_forms(cid, k):
    classes = _classes(k, seed=k)
    r = RTAU if cid.needs_rtau else None
    for m, q in itertools.product(M_GRID + (1.0,), (0.0,) + Q_GRID):
        p = PascalParams(m, q)
        for variant in ("paper", "rederived"):
            batch = _lhs_closed(cid, p, classes, r, variant == "rederived")
            scalar = [evaluate_criterion(cid, p, c, r, variant).lhs for c in classes]
            assert all(type(value) is float for value in batch)
            assert batch == scalar, (cid, m, q, variant)


def test_report_calls_sum_Sinv_once_per_batch(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return summation.sum_Sinv(p)

    monkeypatch.setattr(criteria, "sum_Sinv", counted)
    # each sum_Sinv at |m-1| < 1e-4 is a full oracle pass
    report = discrepancy_report(m_grid=(1.0 + 1e-6,), q_grid=(0.3, 0.6))
    assert report["points_checked"] == 6 * 2 * 36
    # integral-in-s and lambda-in-s at each q
    assert len(calls) == 2 * 2
    # over no classes no closed form runs, as point by point
    discrepancy_report(xi_grid=(), m_grid=(1.0 + 1e-6,), q_grid=(0.3, 0.6))
    assert len(calls) == 2 * 2


def test_invalid_class_raises_before_any_sum(monkeypatch):
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return oracle_sum(*args, **kwargs)

    monkeypatch.setattr(criteria, "oracle_sum", recorded)
    monkeypatch.setattr(summation, "oracle_sum", recorded)
    with pytest.raises(ValueError, match="rho"):
        discrepancy_report(m_grid=(1.0 + 1e-6,), q_grid=(0.3,), rho_grid=(0.0, 1.5))
    assert calls == []


def test_underflow_in_closed_batch_raises_float_division_error():
    # (1-q)^(m+1) underflows to 0 at m = 3000; the closed batch raises as
    # the float division of one class does, before any direct sum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
            discrepancy_report(m_grid=(3000.0,), q_grid=(0.3,))


def test_closed_batch_overflows_silently_as_floats_do(monkeypatch):
    # at m = 2000, q = 0.3 theta-in-s and integral-in-k overflow to inf;
    # on floats that is silent, and so it stays on the class batch
    monkeypatch.setattr(criteria, "_lhs_direct", lambda cid, p, cs, r: [0.0] * len(cs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = discrepancy_report(threshold=0.0, m_grid=(2000.0,), q_grid=(0.3,))
    papers = {row["criterion"]: row["paper_lhs"] for row in report["flagged_rows"]}
    assert papers["theta-in-s"] == papers["integral-in-k"] == math.inf


def test_report_errors_surface_in_point_by_point_order():
    one_class_then_bad = dict(xi_grid=(0.0,), gamma_grid=(0.0,), rho_grid=(0.0, 1.5))
    with pytest.raises(ValueError, match="rho"):
        discrepancy_report(m_grid=(2.0,), q_grid=(0.3,), **one_class_then_bad)


def test_discrepancy_report_matches_point_by_point():
    classes = _classes(5, seed=11)
    grids = dict(
        xi_grid=sorted({c.xi for c in classes}),
        gamma_grid=(0.0, 0.6),
        rho_grid=(0.2, 0.9),
        m_grid=(1.0 + 1e-7, 12.0),
        q_grid=(1e-6, 0.99),
        r=RTAU,
    )
    report = discrepancy_report(threshold=0.0, **grids)
    expected = []
    for cid in CriterionId:
        r = RTAU if cid.needs_rtau else None
        for m, q, xi, gamma, rho in itertools.product(
            grids["m_grid"], grids["q_grid"], grids["xi_grid"], grids["gamma_grid"], grids["rho_grid"]
        ):
            direct = _scalar_lhs(cid, PascalParams(m, q), SpiralClassParams(xi, gamma, rho), r)
            expected.append((cid.value, m, q, xi, gamma, rho, direct))
    rows = report["flagged_rows"]
    assert report["points_checked"] == len(expected)
    assert all(type(row["direct_lhs"]) is float for row in rows)
    got = {tuple(row[k] for k in ("criterion", "m", "q", "xi", "gamma", "rho")): row["direct_lhs"] for row in rows}
    for *key, direct in expected:
        if tuple(key) in got:
            assert got[tuple(key)] == direct, key


def _loop_truncation_order(p, threshold, radius, cap):
    """The term-by-term truncation rule, kept as the reference for the
    blocked adaptive_truncation_order."""
    if p.q == 0.0:
        return 2
    m, q = p.m, p.q
    term = pascal_coefficient(2, p) * radius**2
    n = 2
    while n <= cap:
        rhat = radius * q * (n + m - 1.0) / n
        if rhat < 1.0 and term * rhat / (1.0 - rhat) < threshold:
            return n
        term *= rhat
        n += 1
    raise SeriesTruncationError(term, cap)


def test_truncation_order_matches_term_by_term_rule():
    rng = random.Random(3)
    for _ in range(300):
        m = rng.choice((1.0, 1.0 + 10 ** rng.uniform(-8, -1), 10 ** rng.uniform(0, 1.5)))
        q = rng.choice((0.0, 10 ** rng.uniform(-7, -1), rng.uniform(0.05, 0.999)))
        p = PascalParams(m, q)
        radius = rng.choice((1.0, 0.995, rng.uniform(0.01, 1.0)))
        threshold = 10 ** rng.uniform(-16, -2)
        cap = rng.choice((100_000, 1, 2, 50, 513, 3000))
        try:
            expected = _loop_truncation_order(p, threshold, radius, cap)
        except SeriesTruncationError as exc:
            with pytest.raises(SeriesTruncationError) as info:
                adaptive_truncation_order(p, threshold, radius, cap)
            assert str(info.value) == str(exc)
            assert info.value.last_term == exc.last_term
        else:
            assert adaptive_truncation_order(p, threshold, radius, cap) == expected
