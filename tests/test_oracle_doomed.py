"""The oracle's early stop: a sum whose coefficient ratio at the cap is >= 1
can never meet its tail bound, so oracle_sum raises at once what the full
block walk raises, and carries the coefficient through the blocks only when
the error's last term is read."""
import random

import numpy as np
import pytest

from pascal_spiral import (
    CriterionId,
    PascalParams,
    SpiralClassParams,
    SummationDivergenceError,
    oracle_sum,
    weight_K,
    weight_S,
)
from pascal_spiral import criteria, summation
from pascal_spiral.criteria import _columns
from pascal_spiral.scan import Q_MAX, critical_q
from pascal_spiral.series import (
    TAIL_THRESHOLD,
    TRUNCATION_CAP,
    coefficient_blocks,
    geometric_tail,
    order_blocks,
    rtau_bound,
    RTauParams,
)
from pascal_spiral.summation import WEIGHTS, _DOOMED_RATIO

CAPS = (100, 1000, TRUNCATION_CAP)
RTAU = RTauParams(tau=0.6 - 1.1j, vartheta=0.35, delta=-0.4)


def _full_walk(weight, p: PascalParams, cap: int = TRUNCATION_CAP):
    """The block walk without the early stop: every row's stop test at every
    order up to the cap, in the same blocks as oracle_sum, each cut into
    sub-chunks of 16384 // k columns whose running sum carries from chunk to
    chunk.  An independent reference for oracle_sum's one cumsum per block."""
    w = WEIGHTS[weight] if isinstance(weight, str) else weight
    m, q = p.m, p.q
    k, orders, total, coeff, last_term = 0, [0], 0.0, m * q, [m * q]
    for n0, hi in order_blocks(cap):
        size = hi - n0
        n = np.arange(float(n0), float(hi + 1))
        ratios = q * (n + m - 1.0) / n
        factors = np.empty(size)
        factors[0] = coeff
        factors[1:] = ratios[: size - 1]
        coeffs = np.cumprod(factors)
        w_block = None
        if not k:
            w_block = np.asarray(w(n), dtype=float)
            scalar = w_block.ndim == 1
            w_block = w_block.reshape(-1, size + 1)
            k = left = w_block.shape[0]
            if not k:
                return np.empty(0), 0
            values, orders = [0.0] * k, [0] * k
            chunk = max(1, 16384 // k)
        for j0 in range(0, size, chunk):
            j1 = min(j0 + chunk, size)
            if w_block is None:
                w_ext = np.asarray(w(n[j0 : j1 + 1]), dtype=float).reshape(k, -1)
            else:
                w_ext = w_block[:, j0 : j1 + 1]
            wn, wnext = w_ext[:, :-1], w_ext[:, 1:]
            terms = wn * coeffs[j0:j1]
            if j0:
                run = np.cumsum(np.concatenate((run[:, -1:], terms), axis=1), axis=1)[:, 1:]
            else:
                run = np.cumsum(terms, axis=1)
            prefix = total + run
            wratio = np.where(wnext == 0.0, 1.0, np.inf)
            np.divide(wnext, wn, out=wratio, where=wn != 0.0)
            rhat = ratios[j0:j1] * np.maximum(wratio, 1.0)
            done = geometric_tail(terms, rhat) < TAIL_THRESHOLD * np.maximum(1.0, np.abs(prefix))
            for i in range(k):
                j = int(done[i].argmax())
                if not orders[i] and done[i, j]:
                    values[i], orders[i] = prefix[i, j], n0 + j0 + j
                    left -= 1
            if not left:
                if scalar:
                    return float(values[0]), orders[0]
                return np.array(values), sum(orders)
        total = prefix[:, -1:]
        coeff = float(coeffs[-1] * ratios[size - 1])
        last_term = np.abs(terms[:, -1])
    raise SummationDivergenceError(float(last_term[orders.index(0)]), cap)


def _outcome(fn, weight, p, cap) -> str:
    """The result or raised divergence as text; float repr is exact, and
    makes a NaN last_term equal to itself."""
    try:
        value, order = fn(weight, p, cap)
    except SummationDivergenceError as exc:
        return repr(("raised", str(exc), exc.last_term, exc.order))
    return repr(("value", np.asarray(value).tolist(), order))


def _cap_ratio(p, cap):
    return p.q * (cap + p.m - 1.0) / cap


def _classes(k, rng):
    return [
        SpiralClassParams(rng.uniform(-1.5, 1.5), rng.uniform(0.0, 0.99), rng.uniform(0.0, 0.99))
        for _ in range(k)
    ]


def _weights(rng):
    """Scalar, k-row and zero-row weights, among them the criteria's own."""
    c = _classes(1, rng)[0]
    cols = _columns(_classes(5, rng))
    return [
        "one",
        "rising2",
        "inv_n",
        lambda n: weight_S(n, c) / n,
        lambda n: weight_K(n, cols) * rtau_bound(n, RTAU),
        lambda n: np.array([np.zeros_like(n), 1.0 / n, n * n]),
        lambda n: np.empty((0, len(n))),
    ]


def _doomed_params(rng, cap):
    """(m, q) with m - 1 in [1e-4, 30] and q between cap / (cap + m - 1),
    where the coefficient ratio at the cap is 1, and 1; the coefficients
    stay well inside the float range up to the cap."""
    m = 1.0 + 10.0 ** rng.uniform(-4.0, 1.5)
    q_one = cap / (cap + m - 1.0)
    return PascalParams(m, q_one + (1.0 - q_one) * rng.uniform(0.01, 0.99))


@pytest.mark.parametrize("cap", CAPS)
def test_doomed_sums_raise_what_the_full_walk_raises(cap):
    rng = random.Random(cap)
    for _ in range(12):
        p = _doomed_params(rng, cap)
        assert _cap_ratio(p, cap) >= _DOOMED_RATIO
        for weight in _weights(rng):
            got = _outcome(oracle_sum, weight, p, cap)
            assert got == _outcome(_full_walk, weight, p, cap), (p, cap)
            assert got.startswith("('raised'") or got == repr(("value", [], 0))


def test_doomed_sum_at_large_m_under_errstate():
    # the raw coefficients pass the float range long before the cap, so
    # both walks overflow; the raised message, last_term and order agree
    for cap in CAPS:
        p = PascalParams(3000.0, 0.99)
        assert _cap_ratio(p, cap) >= _DOOMED_RATIO
        for weight in _weights(random.Random(cap)):
            with np.errstate(over="ignore", invalid="ignore"):
                got = _outcome(oracle_sum, weight, p, cap)
                assert got == _outcome(_full_walk, weight, p, cap)


def test_seeded_sweep_equals_the_full_walk():
    """Convergent and doomed sums alike, many with early coefficient ratios
    above 1 that fall below 1 before the cap."""
    rng = random.Random(6)
    for _ in range(150):
        p = PascalParams(1.0 + 10.0 ** rng.uniform(-8.0, 1.7), rng.uniform(0.0, 0.999))
        cap = rng.choice(CAPS)
        weight = rng.choice(_weights(rng))
        assert _outcome(oracle_sum, weight, p, cap) == _outcome(_full_walk, weight, p, cap)


class _Spy:
    def __init__(self, weight):
        self.weight, self.calls = weight, []

    def __call__(self, n):
        self.calls.append((float(n[0]), float(n[-1])))
        return self.weight(n)


@pytest.mark.parametrize("cap", CAPS)
def test_doomed_sum_evaluates_its_weight_on_the_last_block_only(cap):
    last_n0 = list(order_blocks(cap))[-1][0]
    spy = _Spy(lambda n: np.array([1.0 / n, n]))
    with pytest.raises(SummationDivergenceError):
        oracle_sum(spy, PascalParams(2.0, 1.0 - 1e-9), cap)
    assert len(spy.calls) == 1
    lo, hi = spy.calls[0]
    assert last_n0 <= lo <= hi <= cap + 1


def test_cap_ratio_just_below_one_takes_the_full_walk():
    cap, m = 1000, 4.0
    q = cap / (cap + m - 1.0) * (1.0 - 1e-12)
    p = PascalParams(m, q)
    assert _cap_ratio(p, cap) < 1.0
    spy = _Spy(WEIGHTS["n_minus_1"])
    got = _outcome(oracle_sum, spy, p, cap)
    assert spy.calls[0] == (2.0, 514.0)  # the first block: the full walk
    assert got == _outcome(_full_walk, "n_minus_1", p, cap)
    assert got.startswith("('raised'")  # at ratio 1 - 1e-12 the bound stays unmet


class _BlockSpy:
    """Stands in for coefficient_blocks in summation; records, per call, q
    and the number of blocks consumed so far."""

    def __init__(self):
        self.walks = []

    def __call__(self, m, q, *args):
        walk = [q, 0]
        self.walks.append(walk)
        return self._count(walk, coefficient_blocks(m, q, *args))

    @staticmethod
    def _count(walk, blocks):
        for block in blocks:
            walk[1] += 1
            yield block


@pytest.fixture
def block_spy(monkeypatch):
    spy = _BlockSpy()
    monkeypatch.setattr(summation, "coefficient_blocks", spy)
    return spy


@pytest.mark.parametrize("cap", CAPS)
def test_discarded_doomed_error_consumes_no_block(cap, block_spy):
    p = PascalParams(2.0, 1.0 - 1e-9)
    with pytest.raises(SummationDivergenceError) as info:
        oracle_sum("n_minus_1", p, cap)
    assert block_spy.walks == []
    # reading the last term walks every block once, and only once
    info.value.last_term
    str(info.value)
    assert block_spy.walks == [[p.q, len(list(order_blocks(cap)))]]


def _read_last_term_first(fn, weight, p, cap) -> str:
    try:
        value, order = fn(weight, p, cap)
    except SummationDivergenceError as exc:
        last_term = exc.last_term
        return repr(("raised", str(exc), last_term, exc.order))
    return repr(("value", np.asarray(value).tolist(), order))


@pytest.mark.parametrize("cap", CAPS)
def test_last_term_read_before_str_equals_the_full_walk(cap):
    rng = random.Random(cap + 1)
    for _ in range(6):
        p = _doomed_params(rng, cap)
        for weight in _weights(rng):
            got = _read_last_term_first(oracle_sum, weight, p, cap)
            assert got == _outcome(_full_walk, weight, p, cap), (p, cap)


def test_deferred_walk_runs_under_the_error_state_of_the_raise():
    # at m = 3000 the raw coefficients overflow before the cap; the sum
    # raises under errstate and its last term is read outside it, where a
    # RuntimeWarning is an error (pyproject.toml), so an overflow warning
    # from the deferred walk would fail the read
    p = PascalParams(3000.0, 0.99)
    for cap in CAPS:
        for weight in _weights(random.Random(cap)):
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    oracle_sum(weight, p, cap)
                except SummationDivergenceError as exc:
                    error = exc
                else:
                    continue
                want = _outcome(_full_walk, weight, p, cap)
            last_term = error.last_term
            assert repr(("raised", str(error), last_term, error.order)) == want


@pytest.mark.parametrize("state", ["raise", "warn"])
def test_a_read_that_raises_raises_the_same_again(state):
    # at m = 3000 the raw coefficients overflow before the cap: under
    # over="raise" the walk raises FloatingPointError, under over="warn" a
    # RuntimeWarning, an error here (pyproject.toml); each read walks again
    p = PascalParams(3000.0, 0.99)
    with np.errstate(over=state):
        with pytest.raises(SummationDivergenceError) as info:
            oracle_sum("n_minus_1", p)
    expected = FloatingPointError if state == "raise" else RuntimeWarning
    for read in (lambda e: e.last_term, str, lambda e: e.last_term):
        with pytest.raises(expected, match="overflow"):
            read(info.value)


def test_direct_critical_q_walks_no_block_at_q_max(block_spy, monkeypatch):
    sampled = []

    def recording_oracle_sum(weight, p, *args):
        sampled.append(p.q)
        return oracle_sum(weight, p, *args)

    monkeypatch.setattr(criteria, "oracle_sum", recording_oracle_sum)
    critical_q(CriterionId.THETA_IN_S, "direct", 2.5, SpiralClassParams(0.0, 0.0, 0.0))
    assert Q_MAX in sampled
    assert [q for q, _ in block_spy.walks if q == Q_MAX] == []
    assert any(blocks for q, blocks in block_spy.walks if q < Q_MAX)
