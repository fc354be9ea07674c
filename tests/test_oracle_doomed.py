"""oracle_sum equals an independent full block walk, value, order and
raised divergence alike, including on sums that cannot converge: a sum whose
coefficient ratio at the cap is >= 1 (a doomed sum) can never meet its tail
bound, so it walks every block up to the cap and raises there, as any other
unmet sum does."""
import math
import random
import sys

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

CAPS = (100, 1000, TRUNCATION_CAP)
RTAU = RTauParams(tau=0.6 - 1.1j, vartheta=0.35, delta=-0.4)


def _full_walk(weight, p: PascalParams, cap: int = TRUNCATION_CAP):
    """The block walk written apart from oracle_sum: every row's stop test at
    every order up to the cap, in the same blocks as oracle_sum, each cut into
    sub-chunks of 16384 // k columns whose running sum carries from chunk to
    chunk.  An independent reference for oracle_sum's one cumsum per block,
    on its documented rule tail < TAIL_THRESHOLD max(float_min, |partial|)
    with float_min the smallest normal float."""
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
            w_block = np.asarray(weight(n), dtype=float)
            scalar = w_block.ndim == 1
            w_block = w_block.reshape(-1, size + 1)
            k = left = w_block.shape[0]
            values, orders = [0.0] * k, [0] * k
            chunk = max(1, 16384 // k)
        for j0 in range(0, size, chunk):
            j1 = min(j0 + chunk, size)
            if w_block is None:
                w_ext = np.asarray(weight(n[j0 : j1 + 1]), dtype=float).reshape(k, -1)
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
            floor = sys.float_info.min
            done = geometric_tail(terms, rhat) < TAIL_THRESHOLD * np.maximum(floor, np.abs(prefix))
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


def _outcome(fn, weight, p, cap) -> tuple[str, float | None]:
    """The result or raised divergence as text, float repr being exact, and
    apart from it the divergence's last term (None for a result)."""
    try:
        value, order = fn(weight, p, cap)
    except SummationDivergenceError as exc:
        return repr(("raised", str(exc), exc.order)), exc.last_term
    return repr(("value", np.asarray(value).tolist(), order)), None


def _same_outcome(weight, p, cap) -> str:
    """oracle_sum's outcome, checked against the full walk's: a value and
    order bit for bit, a message and order exactly, and a last term to 1e-9
    relative (inf and NaN as they are, by repr)."""
    got, got_term = _outcome(oracle_sum, weight, p, cap)
    want, want_term = _outcome(_full_walk, weight, p, cap)
    assert got == want, (p, cap)
    if want_term is None or not math.isfinite(want_term):
        assert repr(got_term) == repr(want_term), (p, cap)
    else:
        assert math.isclose(got_term, want_term, rel_tol=1e-9), (p, cap)
    return got


def _cap_ratio(p, cap):
    return p.q * (cap + p.m - 1.0) / cap


def _classes(k, rng):
    return [
        SpiralClassParams(rng.uniform(-1.5, 1.5), rng.uniform(0.0, 0.99), rng.uniform(0.0, 0.99))
        for _ in range(k)
    ]


def _weights(rng):
    """Scalar and k-row weights, among them the identities' and the
    criteria's own."""
    c = _classes(1, rng)[0]
    cols = _columns(_classes(5, rng))
    return [
        np.ones_like,
        lambda n: (n - 1.0) * (n - 2.0),
        lambda n: 1.0 / n,
        lambda n: weight_S(n, c) / n,
        lambda n: weight_K(n, cols) * rtau_bound(n, RTAU),
        lambda n: np.array([np.zeros_like(n), 1.0 / n, n * n]),
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
        assert _cap_ratio(p, cap) >= 1.0
        for weight in _weights(rng):
            assert _same_outcome(weight, p, cap).startswith("('raised'")


def test_doomed_sum_at_large_m_under_errstate():
    # the raw coefficients pass the float range long before the cap, so
    # the full walk overflows; the raised message, last_term and order agree
    for cap in CAPS:
        p = PascalParams(3000.0, 0.99)
        assert _cap_ratio(p, cap) >= 1.0
        for weight in _weights(random.Random(cap)):
            with np.errstate(over="ignore", invalid="ignore"):
                _same_outcome(weight, p, cap)


def test_seeded_sweep_equals_the_full_walk():
    """Convergent and doomed sums alike, many with early coefficient ratios
    above 1 that fall below 1 before the cap."""
    rng = random.Random(6)
    for _ in range(150):
        p = PascalParams(1.0 + 10.0 ** rng.uniform(-8.0, 1.7), rng.uniform(0.0, 0.999))
        cap = rng.choice(CAPS)
        weight = rng.choice(_weights(rng))
        _same_outcome(weight, p, cap)


class _Spy:
    def __init__(self, weight):
        self.weight, self.calls = weight, []

    def __call__(self, n):
        self.calls.append((float(n[0]), float(n[-1])))
        return self.weight(n)


def test_cap_ratio_just_below_one_takes_the_full_walk():
    cap, m = 1000, 4.0
    q = cap / (cap + m - 1.0) * (1.0 - 1e-12)
    p = PascalParams(m, q)
    assert _cap_ratio(p, cap) < 1.0
    spy = _Spy(lambda n: n - 1.0)
    got = _same_outcome(spy, p, cap)
    assert spy.calls[0] == (2.0, 514.0)  # the first block: the full walk
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


@pytest.mark.parametrize("state", ["raise", "warn"])
def test_doomed_last_term_past_the_float_range_is_inf(state):
    # at m = 3000 the raw coefficients pass the float range long before the
    # cap; the walk keeps that overflow to itself, which would otherwise
    # raise FloatingPointError under over="raise" and a RuntimeWarning, an
    # error here (pyproject.toml), under over="warn"
    p = PascalParams(3000.0, 0.99)
    with np.errstate(over=state):
        with pytest.raises(SummationDivergenceError) as info:
            oracle_sum(lambda n: n - 1.0, p)
        assert info.value.last_term == math.inf
        assert str(info.value).endswith("(last term magnitude inf)")


def test_direct_critical_q_walks_no_block_at_q_max(block_spy, monkeypatch):
    # the direct sum at Q_MAX is past the oracle's reach, so scan._margin
    # calls no oracle there, at m = 2.5 as at m = 1.00005, where the sum
    # would walk every block up to the cap before it raised
    sampled = []

    def recording_oracle_sum(weight, p, *args):
        sampled.append(p.q)
        return oracle_sum(weight, p, *args)

    monkeypatch.setattr(criteria, "oracle_sum", recording_oracle_sum)
    for m in (2.5, 1.00005):
        sampled.clear()
        block_spy.walks.clear()
        critical_q(CriterionId.THETA_IN_S, "direct", m, SpiralClassParams(0.0, 0.0, 0.0))
        assert sampled and Q_MAX not in sampled, m
        assert [q for q, _ in block_spy.walks if q == Q_MAX] == [], m
        assert any(blocks for q, blocks in block_spy.walks if q < Q_MAX), m
