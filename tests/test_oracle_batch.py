"""The batched oracle: a weight of shape (k, len(n)) sums its k rows in one
pass, and each row must equal, bit for bit, the sum of that row alone.  A
batch of classes, one class included, sums its criterion's two basis rows
once and combines them per class; its values are checked bit for bit
against that combination and, with the one-row values, against a 40-digit
sum.  A report stacks every criterion's rows at one (m, q) in one sum, and
each criterion's values must equal, bit for bit, those of its sum alone."""
import itertools
import math
import random
import warnings

import mpmath
import numpy as np
import pytest

from pascal_spiral import (
    CriterionId,
    PascalParams,
    RTauParams,
    SpiralClassParams,
    SummationDivergenceError,
    adaptive_truncation_order,
    critical_q,
    discrepancy_report,
    evaluate_criterion,
    oracle_sum,
    pascal_coefficients,
    weight_K,
    weight_S,
)
from pascal_spiral import criteria, summation
from pascal_spiral.criteria import _columns, _lhs_closed, _lhs_direct
from pascal_spiral.series import TRUNCATION_CAP, order_blocks, rtau_bound
from test_known_defects import FLAT, _ten_terms
from test_oracle_doomed import _full_walk

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


def _slope(c):
    """A of weight_S(n) = A(n-1) + B, B = 1 - gamma."""
    return (1.0 - c.rho) * c.sec_xi + c.rho * (1.0 - c.gamma)


def _basis(cid, r):
    """The rows b0(n) and b1(n) of cid's direct weight A*b0(n) + B*b1(n),
    each product in the order weight_S and weight_K take it."""
    if cid in (CriterionId.THETA_IN_S, CriterionId.G_IN_K):
        return lambda n: n - 1.0, np.ones_like
    if cid is CriterionId.THETA_IN_K:
        return lambda n: n * (n - 1.0), lambda n: n
    if cid is CriterionId.G_IN_S:
        return lambda n: (n - 1.0) / n, lambda n: 1.0 / n
    if cid is CriterionId.LAMBDA_RTAU_IN_S:
        return lambda n: (n - 1.0) * rtau_bound(n, r), lambda n: rtau_bound(n, r)
    return lambda n: n * (n - 1.0) * rtau_bound(n, r), lambda n: n * rtau_bound(n, r)


def _moment_lhs(cid, p, c, r):
    """Direct lhs of the class c as a batch gives it: the two basis rows,
    each summed alone and combined as A*M0 + B*M1."""
    t = (1.0 - p.q) ** p.m
    m0, m1 = (t * oracle_sum(w, p)[0] for w in _basis(cid, r))
    b = 1.0 - c.gamma
    value = _slope(c) * m0 + b * m1
    if cid in (CriterionId.THETA_IN_S, CriterionId.G_IN_K):
        return (value - b * (1.0 - t)) / t
    return value


def _stack(*weights):
    return lambda n: np.array([w(n) for w in weights])


@pytest.mark.parametrize("cid", list(CriterionId))
def test_batch_rows_bit_equal_to_scalar_lhs(cid):
    # one class on its floats, one row: the scalar lhs; a batch of any
    # size: the combination of the two basis sums
    classes = _classes(7, seed=list(CriterionId).index(cid))
    r = RTAU if cid.needs_rtau else None
    for m, q in itertools.product(M_GRID, Q_GRID):
        p = PascalParams(m, q)
        for c in classes[:2]:
            lhs = evaluate_criterion(cid, p, c, r).lhs
            assert type(lhs) is float and lhs == _scalar_lhs(cid, p, c, r), (cid, m, q, c)
        for k in (1, 2, len(classes)):
            batch = _lhs_direct((cid,), p, _columns(classes[:k]), r)[0]
            assert len(batch) == k
            for c, value in zip(classes, batch):
                moment = _moment_lhs(cid, p, c, r)
                assert type(value) is float and value == moment, (cid, m, q, k, c)


def test_one_class_stays_on_floats(monkeypatch):
    # evaluate_criterion and critical_q hand their class to _lhs_direct and
    # _lhs_closed as it is: no columns are built, and each lhs is [float]
    def refused(classes):
        raise AssertionError("columns built for one class")

    returned = []

    def recorded(lhs, per_criterion):
        def wrapped(*args, **kwargs):
            values = lhs(*args, **kwargs)
            if per_criterion:
                # one criterion, one value list
                assert len(values) == 1
                returned.append(values[0])
            else:
                returned.append(values)
            return values
        return wrapped

    monkeypatch.setattr(criteria, "_columns", refused)
    monkeypatch.setattr(criteria, "_lhs_direct", recorded(_lhs_direct, True))
    monkeypatch.setattr(criteria, "_lhs_closed", recorded(_lhs_closed, False))
    c, p = SpiralClassParams(0.4, 0.3, 0.2), PascalParams(1.5, 0.3)
    for cid in CriterionId:
        r = RTAU if cid.needs_rtau else None
        for variant in ("paper", "rederived", "direct"):
            evaluate_criterion(cid, p, c, r, variant)
    assert len(returned) == 6 * 3
    critical_q(CriterionId.THETA_IN_K, "direct", 2.0, c)
    assert len(returned) > 6 * 3
    assert all(len(values) == 1 and type(values[0]) is float for values in returned)


def _mp_basis_sums(m, q, r):
    """The raw sums of every criterion's basis rows b0, b1 (_basis), by
    mpmath at 40 digits: {cid: (sum of b0(n) c_n, sum of b1(n) c_n)} with
    c_n = C(n+m-2, m-1) q^(n-1), summed from n = 2 until a geometric bound
    on the rest of every sum is below 1e-24 of it."""
    m, q = mpmath.mpf(m), mpmath.mpf(q)
    bound = 2 * abs(mpmath.mpmathify(r.tau)) * (1 - mpmath.mpf(r.delta))
    # every basis weight is at most n^2 * top
    top = max(1, bound)
    rows = {
        CriterionId.THETA_IN_S: (lambda n, R: n - 1, lambda n, R: 1),
        CriterionId.THETA_IN_K: (lambda n, R: n * (n - 1), lambda n, R: n),
        CriterionId.G_IN_S: (lambda n, R: (n - 1) / n, lambda n, R: 1 / n),
        CriterionId.LAMBDA_RTAU_IN_S: (lambda n, R: (n - 1) * R, lambda n, R: R),
        CriterionId.LAMBDA_RTAU_IN_K: (lambda n, R: n * (n - 1) * R, lambda n, R: n * R),
    }
    sums = {cid: [mpmath.mpf(0), mpmath.mpf(0)] for cid in rows}
    n, c = 2, m * q
    while True:
        nn = mpmath.mpf(n)
        R = bound / (1 + mpmath.mpf(r.vartheta) * (nn - 1))
        for cid, (b0, b1) in rows.items():
            sums[cid][0] += b0(nn, R) * c
            sums[cid][1] += b1(nn, R) * c
        # the term ratio of n^2 c_n, which decreases in n, bounds the rest
        rho = q * (nn + m - 1) / nn * ((nn + 1) / nn) ** 2
        if rho < 1 and nn * nn * top * c * rho / (1 - rho) < mpmath.mpf(10) ** -24 * min(
            min(pair) for pair in sums.values()
        ):
            break
        c *= q * (nn + m - 1) / nn
        n += 1
    sums[CriterionId.G_IN_K] = sums[CriterionId.THETA_IN_S]
    return sums


def test_direct_paths_agree_with_a_40_digit_sum():
    # the one-row values of evaluate_criterion and the two-row values of a
    # batch, of all classes and of each alone, against the same lhs summed
    # at 40 digits, relative to |lhs|; rtau is scaled by 1 + vartheta(n-1)
    # with vartheta 0.35, and sec(xi) reaches 1e4 at xi = -1.5707.
    # theta-in-s and integral-in-k are held on the scale of max(1, |lhs|):
    # their (values - B(1-t))/t step cancels at small q (the strict xfail
    # test_direct_theta_in_s_lhs_is_accurate_at_small_q)
    classes = _classes(7, seed=5) + [SpiralClassParams(-1.5707, 0.0, 0.0), SpiralClassParams(0.0, 0.99, 0.99)]
    with mpmath.workdps(40):
        for m, q in itertools.product(M_GRID, Q_GRID):
            p = PascalParams(m, q)
            sums = _mp_basis_sums(m, q, RTAU)
            t = (1 - mpmath.mpf(q)) ** m
            for cid in CriterionId:
                r = RTAU if cid.needs_rtau else None
                batch = _lhs_direct((cid,), p, _columns(classes), r)[0]
                for c, value in zip(classes, batch):
                    a = (1 - mpmath.mpf(c.rho)) * mpmath.sec(c.xi) + c.rho * (1 - mpmath.mpf(c.gamma))
                    b = 1 - mpmath.mpf(c.gamma)
                    ref = t * (a * sums[cid][0] + b * sums[cid][1])
                    if cid in (CriterionId.THETA_IN_S, CriterionId.G_IN_K):
                        ref = (ref - b * (1 - t)) / t
                        scale = 1e-13 * max(1.0, abs(float(ref)))
                    else:
                        scale = 1e-13 * abs(float(ref))
                    scalar = evaluate_criterion(cid, p, c, r).lhs
                    [[alone]] = _lhs_direct((cid,), p, _columns([c]), r)
                    for got in (value, scalar, alone):
                        assert abs(got - ref) <= scale, (cid, m, q, c, got, ref)


def test_direct_lhs_below_one_is_accurate_relative_to_itself():
    # the direct theta-in-k lhs 4.8e-5 at m = 12, q = 1e-6, against the ten
    # terms that carry it; the stop rule is relative below 1 as above it
    lhs = evaluate_criterion(CriterionId.THETA_IN_K, PascalParams(12.0, 1e-6), FLAT).lhs
    want = (1.0 - 1e-6) ** 12 * _ten_terms(12.0, 1e-6, lambda n: n * n)
    assert math.isclose(lhs, want, rel_tol=1e-13)


@pytest.mark.parametrize("xi_grid, gamma_grid, rho_grid", [
    ((0.0,), (0.25,), (0.3,)),
    ((0.0, 0.5), (0.25,), (0.3,)),
    ((0.0, 0.5, 1.0), (0.25,), (0.3,)),
    (criteria.DEFAULT_XI_GRID, criteria.DEFAULT_GAMMA_GRID, criteria.DEFAULT_RHO_GRID),
], ids=["1-class", "2-classes", "3-classes", "36-classes"])
def test_report_sums_every_criterion_once_per_point(monkeypatch, xi_grid, gamma_grid, rho_grid):
    rows, calls = [], []

    def recorded(weight, p, *args, **kwargs):
        rows.append(len(np.atleast_2d(weight(np.array([2.0, 3.0])))))
        return oracle_sum(weight, p, *args, **kwargs)

    def recorded_direct(cids, p, cs, r):
        calls.append(cids)
        return _lhs_direct(cids, p, cs, r)

    monkeypatch.setattr(criteria, "oracle_sum", recorded)
    monkeypatch.setattr(criteria, "_lhs_direct", recorded_direct)
    classes = dict(xi_grid=xi_grid, gamma_grid=gamma_grid, rho_grid=rho_grid)
    report = discrepancy_report(m_grid=(1.5, 3.0), q_grid=(0.3, 0.9), **classes)
    assert report["points_checked"] == 6 * 2 * 2 * len(xi_grid) * len(gamma_grid) * len(rho_grid)
    # one sum per (m, q) over every criterion's rows: two basis rows per
    # criterion at any number of classes, and none of integral-in-k's own,
    # which takes theta-in-s's rows
    assert calls == [tuple(CriterionId)] * (2 * 2)
    assert rows == [5 * 2] * (2 * 2)
    rows.clear()
    calls.clear()
    report = discrepancy_report(m_grid=(1.5, 3.0), q_grid=(0.3, 0.9), **dict(classes, xi_grid=()))
    assert report["points_checked"] == 0 and rows == [] and calls == []


@pytest.mark.parametrize("k", [1, 2, 7])
def test_all_criteria_sum_equals_each_criterion_alone(k):
    # every row of the stacked sum stops where, and equals what, it would
    # alone; integral-in-k takes theta-in-s's rows
    classes = _classes(k, seed=20 + k)
    cids = tuple(CriterionId)
    for m, q in itertools.product(M_GRID, Q_GRID):
        p = PascalParams(m, q)
        for c in [_columns(classes)] + ([classes[0]] if k == 1 else []):
            together = _lhs_direct(cids, p, c, RTAU)
            assert _lhs_direct(cids[::-1], p, c, RTAU) == together[::-1]
            assert len(together) == len(cids)
            for cid, values in zip(cids, together):
                r = RTAU if cid.needs_rtau else None
                assert all(type(value) is float for value in values)
                assert values == _lhs_direct((cid,), p, c, r)[0], (cid, m, q, k)


def test_every_closed_form_runs_before_the_first_direct_sum(monkeypatch):
    events = []

    def recorded_closed(cid, p, cs, r, rederived):
        events.append(("closed", cid, p.m, p.q))
        return _lhs_closed(cid, p, cs, r, rederived)

    def recorded_direct(cids, p, cs, r):
        events.append(("direct", cids, p.m, p.q))
        return _lhs_direct(cids, p, cs, r)

    monkeypatch.setattr(criteria, "_lhs_closed", recorded_closed)
    monkeypatch.setattr(criteria, "_lhs_direct", recorded_direct)
    m_grid, q_grid = (1.5, 3.0), (0.3, 0.9, 0.6)
    discrepancy_report(m_grid=m_grid, q_grid=q_grid)
    points = list(itertools.product(m_grid, q_grid))
    closed = [("closed", cid, m, q) for cid in CriterionId for m, q in points]
    direct = [("direct", tuple(CriterionId), m, q) for m, q in points]
    assert events == closed + direct


def test_batch_of_many_rows_equals_its_rows_alone():
    # 40 rows at m = 12 and q = 0.99 stop past the first 512-order block;
    # the rows n - 1 and 1/n at m = 2, q = 0.999 stop at orders 38,900 and
    # 32,253, in two different 16384-order blocks
    many = [lambda n, c=c: weight_K(n, c) * rtau_bound(n, RTAU) for c in _classes(40, seed=7)]
    two = [lambda n: n - 1.0, lambda n: 1.0 / n]
    for weights, m, q in ((many, 12.0, 0.3), (many, 12.0, 0.99), (two, 2.0, 0.999)):
        p = PascalParams(m, q)
        batch = _stack(*weights)
        values, order_sum = oracle_sum(batch, p)
        alone = [oracle_sum(w, p) for w in weights]
        assert values.tolist() == [value for value, _ in alone]
        assert order_sum == sum(order for _, order in alone)
        # the sub-chunked walk, whose running sum carries from chunk to chunk
        walked, walked_order_sum = _full_walk(batch, p)
        assert values.tolist() == walked.tolist() and order_sum == walked_order_sum
        if q == 0.99:
            assert min(order for _, order in alone) > 512
    assert [order for _, order in alone] == [38900, 32253]


def test_weight_is_called_once_per_block():
    widths = []
    batch = _stack(*[lambda n, a=a: n + a for a in range(40)])

    def recorded(n):
        widths.append(n.size)
        return batch(n)

    oracle_sum(recorded, PascalParams(12.0, 0.99))
    # one call on n0..hi for each block of order_blocks, up to the block in
    # which the last row stops
    blocks = [hi - n0 + 1 for n0, hi in order_blocks(TRUNCATION_CAP)]
    assert widths == blocks[: len(widths)] == [513, 1025, 2049, 4097]


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
    assert oracle_sum(np.ones_like, p) == (0.0, 2)
    values, order_sum = oracle_sum(_stack(np.ones_like, lambda n: n), p)
    assert values.tolist() == [0.0, 0.0] and order_sum == 4
    c = SpiralClassParams(0.3, 0.2, 0.1)
    assert _lhs_direct((CriterionId.THETA_IN_K,), p, _columns([c, c, c]), None) == [[0.0] * 3]
    assert _lhs_direct(tuple(CriterionId), p, _columns([c, c, c]), RTAU) == [[0.0] * 3] * 6


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
            batch = _lhs_closed(cid, p, _columns(classes), r, variant == "rederived")
            scalar = [evaluate_criterion(cid, p, c, r, variant).lhs for c in classes]
            assert all(type(value) is float for value in batch)
            assert batch == scalar, (cid, m, q, variant)


def test_report_calls_sum_Sinv_once_per_batch(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return summation.sum_Sinv(p)

    monkeypatch.setattr(criteria, "sum_Sinv", counted)
    # one sum_Sinv per (criterion, m, q) batch, not one per class
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
    monkeypatch.setattr(criteria, "_lhs_direct", lambda cids, p, cs, r: [[0.0] * len(cs.gamma)] * len(cids))
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
    # the direct value of every point is the combination of its batch's
    # basis sums, in reports over twenty classes, two and one
    xis = sorted({c.xi for c in _classes(5, seed=11)})
    for xi_grid, gamma_grid, rho_grid in (
        (xis, (0.0, 0.6), (0.2, 0.9)), (xis[:2], (0.6,), (0.2,)), (xis[:1], (0.6,), (0.2,))
    ):
        grids = dict(
            xi_grid=xi_grid,
            gamma_grid=gamma_grid,
            rho_grid=rho_grid,
            m_grid=(1.0 + 1e-7, 12.0),
            q_grid=(1e-6, 0.99),
            r=RTAU,
        )
        report = discrepancy_report(threshold=0.0, **grids)
        classes = [SpiralClassParams(*c) for c in itertools.product(xi_grid, gamma_grid, rho_grid)]
        expected = []
        for cid in CriterionId:
            r = RTAU if cid.needs_rtau else None
            for m, q, c in itertools.product(grids["m_grid"], grids["q_grid"], classes):
                direct = _moment_lhs(cid, PascalParams(m, q), c, r)
                expected.append((cid.value, m, q, c.xi, c.gamma, c.rho, direct))
        rows = report["flagged_rows"]
        assert report["points_checked"] == len(expected)
        assert all(type(row["direct_lhs"]) is float for row in rows)
        got = {tuple(row[k] for k in ("criterion", "m", "q", "xi", "gamma", "rho")): row["direct_lhs"] for row in rows}
        assert got
        for *key, direct in expected:
            if tuple(key) in got:
                assert got[tuple(key)] == direct, key


def _loop_truncation_order(p, threshold, radius, cap):
    """The term-by-term truncation rule, kept as the reference for the
    blocked adaptive_truncation_order."""
    if p.q == 0.0:
        return 2
    m, q = p.m, p.q
    term = float(pascal_coefficients(p, 2)[0]) * radius**2
    n = 2
    while n <= cap:
        rhat = radius * q * (n + m - 1.0) / n
        if rhat < 1.0 and term * rhat / (1.0 - rhat) < threshold:
            return n
        term *= rhat
        n += 1
    raise SummationDivergenceError(term, cap)


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
        except SummationDivergenceError as exc:
            with pytest.raises(SummationDivergenceError) as info:
                adaptive_truncation_order(p, threshold, radius, cap)
            assert str(info.value) == str(exc)
            assert info.value.last_term == exc.last_term
        else:
            assert adaptive_truncation_order(p, threshold, radius, cap) == expected
