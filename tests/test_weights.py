import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_copson.weights import (Cone, ListWeight, PowerWeight, SeqWindow, _fill_range,
                                   _range, codomain_values, codomain_weight_at,
                                   envelope_down,
                                   envelope_up, quotient_norm_weighted,
                                   sup_norm_weighted, weight_at,
                                   weight_from_csv, weight_from_json,
                                   weight_to_json, weight_values)


def test_weight_at_examples():
    assert weight_at(PowerWeight(-1.0), 3) == 3.0
    assert weight_at(PowerWeight(0.0), 7) == 1.0
    assert weight_at(ListWeight((3, 1, 2)), 5) == 0.0  # zero padding


def test_weight_at_power_is_k_to_minus_alpha():
    w = PowerWeight(0.5)
    for k in (1, 2, 10, 10**6):
        assert weight_at(w, k) == pytest.approx(k ** -0.5, rel=1e-15)
    assert weight_at(PowerWeight(2.0), 10) == pytest.approx(0.01, rel=1e-15)


def test_codomain_side_is_n_to_plus_alpha():
    # the same PowerWeight plays v_n = n**alpha on the codomain side
    assert codomain_weight_at(PowerWeight(1.0), 5) == 5.0
    assert codomain_weight_at(PowerWeight(-0.5), 4) == pytest.approx(0.5)


@pytest.mark.parametrize("w", [PowerWeight(0.37), PowerWeight(-1.5),
                               ListWeight((3.0, 1.0, 2.0, 5.0))])
@pytest.mark.parametrize("first, K", [(1, 6), (2, 3), (4, 3), (5, 2), (9, 1)])
def test_values_from_a_first_row_are_a_slice_of_the_whole(w, first, K):
    # scans ask for one block of rows at a time; the values must be the
    # same bits as the corresponding slice of rows 1..first+K-1
    end = first + K - 1
    assert np.array_equal(weight_values(w, K, first), weight_values(w, end)[first - 1:])
    assert np.array_equal(codomain_values(w, K, first), codomain_values(w, end)[first - 1:])
    with pytest.raises(ValueError):
        weight_values(w, K, 0)


@pytest.mark.parametrize("end", [8191, 8192, 8193])
@pytest.mark.parametrize("K", [1, 256, 8190])
def test_ramp_fed_values_match_the_filled_path(end, K):
    # power values at first..end - 1 (end = first + K) read the float ramp
    # up to its last entry 8191 and fill a range past it: the bits of
    # k**-a and n**b over a filled range, either way and with or without out
    first = end - K
    filled = _fill_range(np.empty(K), first)
    np.testing.assert_array_equal(_range(first, K), filled)
    for a in (0.6, -1.3):
        want_u = np.power(filled, -a)
        want_v = np.power(filled, a)
        np.testing.assert_array_equal(weight_values(PowerWeight(a), K, first), want_u)
        np.testing.assert_array_equal(codomain_values(PowerWeight(a), K, first), want_v)
        out = np.full(K, np.nan)
        assert weight_values(PowerWeight(a), K, first, out=out) is out
        np.testing.assert_array_equal(out, want_u)
        out = np.full(K, np.nan)
        assert codomain_values(PowerWeight(a), K, first, out=out) is out
        np.testing.assert_array_equal(out, want_v)


def test_ramps_are_read_only():
    view = _range(1, 256)
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0] = 0.0
    assert _range(8000, 300).flags.writeable   # filled past the ramp


def test_list_weight_array_is_the_tuple_read_only():
    raw = np.array([3.0, 0.0, 2.5, 1.0])
    w = ListWeight(raw)
    L = w.length
    assert not w.array.flags.writeable
    with pytest.raises(ValueError):
        w.array[0] = 1.0
    assert raw.flags.writeable   # the caller's array is copied, not frozen
    assert w.array.dtype == np.float64 and w.array.tolist() == list(w.values)
    for first in (1, L, L + 3):
        want = [w.values[k - 1] if k <= L else 0.0 for k in range(first, first + 5)]
        assert weight_values(w, 5, first).tolist() == want
        assert codomain_values(w, 5, first).tolist() == want
    # repr, == and hash read the tuple alone
    same = ListWeight((3, 0, 2.5, 1))
    assert w == same and hash(w) == hash(same)
    assert repr(w) == "ListWeight(values=(3.0, 0.0, 2.5, 1.0))"


def test_validation():
    with pytest.raises(ValueError):
        ListWeight((1.0, -0.5))
    with pytest.raises(ValueError):
        ListWeight(())
    with pytest.raises(ValueError):
        PowerWeight(math.inf)
    with pytest.raises(ValueError):
        weight_at(PowerWeight(1.0), 0)


def test_sup_norm_examples():
    assert sup_norm_weighted(SeqWindow(1, (1, -2, 1)), PowerWeight(0.0)) == 2.0
    assert sup_norm_weighted(SeqWindow(1, (1, 1, 1)), PowerWeight(1.0)) == 3.0
    assert sup_norm_weighted(SeqWindow(1, (0.0, 0.0)), PowerWeight(2.0)) == 0.0


def test_quotient_norm_examples():
    assert quotient_norm_weighted(SeqWindow(1, (0, 5)), ListWeight((0, 1))) == 5.0
    assert quotient_norm_weighted(SeqWindow(1, (1, 5)), ListWeight((0, 1))) == math.inf
    assert quotient_norm_weighted(SeqWindow(1, (2, 2, 2)), PowerWeight(1.0)) == 6.0


def test_envelope_down_examples():
    assert np.allclose(envelope_down(ListWeight((3, 1, 2)), 3), [3, 1, 1])
    assert np.allclose(envelope_down(PowerWeight(2.0), 3), [1, 0.25, 1 / 9])
    assert np.allclose(envelope_down(PowerWeight(-1.0), 3), [1, 1, 1])


def test_envelope_up_examples():
    assert np.allclose(envelope_up(PowerWeight(1.0), 3), [0, 0, 0])
    assert np.allclose(envelope_up(PowerWeight(-1.0), 3), [1, 2, 3])
    assert np.allclose(envelope_up(ListWeight((3, 1, 2)), 3), [1, 1, 2])


@given(st.lists(st.floats(0, 10), min_size=1, max_size=30), st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_envelope_shape_properties(vals, K):
    u = ListWeight(tuple(vals))
    down = envelope_down(u, K)
    up = envelope_up(u, K)
    uv = weight_values(u, K)
    assert np.all(np.diff(down) <= 1e-15)
    assert np.all(down <= uv + 1e-15)
    assert np.all(up <= uv + 1e-15)
    m = min(K, u.length)
    assert np.all(np.diff(up[:m]) >= -1e-15)  # nondecreasing on the horizon


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=25))
@settings(max_examples=150, deadline=None)
def test_envelope_idempotence(vals):
    u = ListWeight(tuple(vals))
    K = u.length
    once = envelope_down(u, K)
    twice = envelope_down(ListWeight(tuple(once)), K)
    assert np.array_equal(once, twice)
    up1 = envelope_up(u, K)
    up2 = envelope_up(ListWeight(tuple(up1)), K)
    assert np.array_equal(up1, up2)


@given(st.lists(st.floats(0.01, 5.0), min_size=2, max_size=20),
       st.lists(st.floats(0.0, 3.0), min_size=2, max_size=20))
@settings(max_examples=150, deadline=None)
def test_minorant_norm_lemma(uvals, xraw):
    # for nonincreasing x, the domain norm sees only the nonincreasing
    # minorant of the weight; dually for nondecreasing x
    L = min(len(uvals), len(xraw))
    u = ListWeight(tuple(uvals[:L]))
    x_down = tuple(sorted(xraw[:L], reverse=True))
    lhs = quotient_norm_weighted(SeqWindow(1, x_down), u)
    rhs = quotient_norm_weighted(
        SeqWindow(1, x_down), ListWeight(tuple(envelope_down(u, L))))
    assert lhs == pytest.approx(rhs, rel=1e-14, abs=0)
    x_up = tuple(sorted(xraw[:L]))
    lhs = quotient_norm_weighted(SeqWindow(1, x_up), u)
    rhs = quotient_norm_weighted(
        SeqWindow(1, x_up), ListWeight(tuple(envelope_up(u, L))))
    assert lhs == pytest.approx(rhs, rel=1e-14, abs=0)


def test_quotient_norm_homogeneous_power_of_two():
    x = SeqWindow(1, (0.3, 1.7, 0.0, 2.2))
    u = ListWeight((1.0, 0.5, 0.0, 2.0))
    base = quotient_norm_weighted(x, u)
    for c in (0.5, 2.0, 8.0):
        scaled = SeqWindow(1, tuple(c * t for t in x.values))
        assert quotient_norm_weighted(scaled, u) == c * base


def test_serialization_roundtrip(tmp_path):
    for w in (PowerWeight(0.75), ListWeight((1.0, 0.0, 2.5))):
        assert weight_from_json(weight_to_json(w)) == w
    obj = json.loads(weight_to_json(PowerWeight(0.5)))
    assert obj == {"kind": "power", "alpha": 0.5}
    path = tmp_path / "w.csv"
    path.write_text("1.5\n0\n2\n")
    assert weight_from_csv(str(path)) == ListWeight((1.5, 0.0, 2.0))
    with pytest.raises(ValueError):
        weight_from_json('{"kind": "nope"}')


def test_window_accessors():
    x = SeqWindow(3, (5.0, 6.0))
    assert x.end == 4
    assert x.at(3) == 5.0 and x.at(4) == 6.0
    assert x.at(1) == 0.0 and x.at(10) == 0.0
    assert [c.value for c in Cone] == ["all", "nonneg", "nonincr", "nondecr"]
