"""Weight sequences, weighted l-infinity norms, and monotone minorants.

Two weighted "norms" appear throughout the package, both allowed to take the
value +inf:

    codomain side:  ||y||_{l_inf(v)} = sup_n |y_n| * v_n
    domain side:    ||x||_{d(u)}     = sup_k |x_k| / u_k

with the convention 0/0 = 0 on the domain side (a zero entry over a zero
weight contributes nothing; a nonzero entry over a zero weight forces +inf).

A ``PowerWeight(alpha)`` plays two roles, matching its standard use in the
power-weighted inequalities: as a *domain* weight it is u_k = k**(-alpha), as
a *codomain* weight it is v_n = n**(+alpha).  ``weight_at`` returns the domain
value; ``codomain_weight_at`` the codomain value.  A ``ListWeight`` is the
same sequence in both roles and defines an L-truncated problem: suprema over
rows and sums over columns run over 1..L.

Power values over a run first..first+K-1 are the powers of that run as
floats: a read-only slice of a ramp of 0..8191 while it holds them
(``_range``), so a scan's first blocks form no range at all, and a range
filled into the output past it; the bits are the same either way.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "Cone",
    "PowerWeight",
    "ListWeight",
    "Weight",
    "SeqWindow",
    "weight_at",
    "weight_values",
    "codomain_weight_at",
    "codomain_values",
    "envelope_down",
    "envelope_up",
    "power_envelope",
    "truncation_length",
    "sup_norm_weighted",
    "quotient_norm_weighted",
    "weight_to_json",
    "weight_from_json",
    "weight_from_csv",
]

from enum import Enum


class Cone(Enum):
    """Cones of real sequences on which operator norms are taken."""

    ALL = "all"          # all real sequences
    NONNEG = "nonneg"    # nonnegative sequences
    NONINCR = "nonincr"  # nonnegative, nonincreasing
    NONDECR = "nondecr"  # nonnegative, nondecreasing

    # Members compare by identity, so they may hash by it too: Enum's own
    # __hash__ is a Python call, paid on every dict lookup keyed by a cone
    # (several per norm query).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class PowerWeight:
    """Power weight with parameter alpha: k**(-alpha) as a domain weight,
    n**(+alpha) as a codomain weight."""

    alpha: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")


@dataclass(frozen=True)
class ListWeight:
    """Explicit nonnegative weights w_1..w_L; defines an L-truncated problem.

    ``array`` holds the same values as a read-only float64 array, built
    once; ``repr``, ``==`` and ``hash`` read the tuple ``values`` alone."""

    values: tuple[float, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("ListWeight needs at least one value")
        arr = np.array(self.values, dtype=float)   # a copy: never the caller's array
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("ListWeight values must be finite and >= 0")
        arr.flags.writeable = False
        object.__setattr__(self, "values", tuple(float(x) for x in arr))
        object.__setattr__(self, "array", arr)

    @property
    def length(self) -> int:
        return len(self.values)


Weight = Union[PowerWeight, ListWeight]


@dataclass(frozen=True)
class SeqWindow:
    """A finite window x_start..x_{start+len-1} of a sequence, zero outside."""

    start: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.start < 1:
            raise ValueError("window start must be >= 1")
        object.__setattr__(self, "values", tuple(float(x) for x in self.values))

    @property
    def end(self) -> int:
        return self.start + len(self.values) - 1

    def at(self, k: int) -> float:
        if self.start <= k <= self.end:
            return self.values[k - self.start]
        return 0.0


def _power_vals(alpha: float, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """k**-alpha over the float array k, written into out (which may be k)."""
    # libm pow is exact for integer exponents and uniformly accurate otherwise
    return np.power(k, -alpha, out=out)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# 0.0, 1.0, 2.0, ...: the head that _fill_range doubles, read-only.  A
# scan's first two blocks (rows 1..256 and 257..4096), and their columns one
# wider on each side, are slices of it (``_range``), with no fill at all.
_RAMP = _read_only(np.arange(8192, dtype=float))


def _fill_range(out: np.ndarray, first: int) -> np.ndarray:
    """first, first+1, ... written into the 1-D float array out (returned):
    the ramp plus first, then doubled in place, so no temporary is made.
    Exact below 2**53."""
    w = min(out.size, _RAMP.size)
    np.add(_RAMP[:w], first, out=out[:w])
    while w < out.size:
        m = min(w, out.size - w)
        np.add(out[:m], w, out=out[w:w + m])
        w += m
    return out


def _range(first: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """The floats first, first+1, ..., first+count-1 (first >= 0): a
    read-only slice of the ramp when it holds them, else written into out
    (a new array when None) by ``_fill_range``."""
    if first + count <= _RAMP.size:
        return _RAMP[first:first + count]
    return _fill_range(np.empty(count) if out is None else out, first)


def weight_at(w: Weight, k: int) -> float:
    """Domain weight value u_k (k >= 1).  ListWeight is zero-padded past L."""
    if k < 1:
        raise ValueError("index must be >= 1")
    if isinstance(w, PowerWeight):
        return float(k) ** (-w.alpha)
    if k <= w.length:
        return w.values[k - 1]
    return 0.0


def _list_vals(w: ListWeight, out: np.ndarray, first: int) -> np.ndarray:
    lo, hi = min(first - 1, w.length), min(first - 1 + out.size, w.length)
    out[: hi - lo] = w.array[lo:hi]
    out[hi - lo:] = 0.0
    return out


def weight_values(w: Weight, K: int, first: int = 1,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Domain values u_first..u_{first+K-1} as an array (ListWeight
    zero-padded); by default u_1..u_K.  Written into the float array out
    of length K when given."""
    if first < 1:
        raise ValueError("first row must be >= 1")
    out = np.empty(K) if out is None else out
    if isinstance(w, PowerWeight):
        return _power_vals(w.alpha, _range(first, K, out), out)
    return _list_vals(w, out, first)


def codomain_weight_at(w: Weight, n: int) -> float:
    """Codomain weight value v_n (n >= 1): n**alpha for PowerWeight."""
    if n < 1:
        raise ValueError("index must be >= 1")
    if isinstance(w, PowerWeight):
        return float(n) ** w.alpha
    if n <= w.length:
        return w.values[n - 1]
    return 0.0


def codomain_values(w: Weight, N: int, first: int = 1,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Codomain values v_first..v_{first+N-1} as an array (ListWeight
    zero-padded); by default v_1..v_N.  Written into the float array out
    of length N when given."""
    if first < 1:
        raise ValueError("first row must be >= 1")
    out = np.empty(N) if out is None else out
    if isinstance(w, PowerWeight):
        return np.power(_range(first, N, out), w.alpha, out=out)
    return _list_vals(w, out, first)


def truncation_length(w: Weight) -> int | None:
    """Length L of the truncated problem a ListWeight defines, None for power."""
    return w.length if isinstance(w, ListWeight) else None


def power_envelope(u: PowerWeight, up: bool) -> PowerWeight | None:
    """The greatest nonincreasing (up False) or nondecreasing (up True)
    minorant of u_k = k**-alpha, as a power weight, None when it is 0.
    Nonincreasing: k**-max(alpha, 0), since an increasing u has the
    running minimum u_1 = 1.  Nondecreasing: u itself when alpha <= 0, and
    0 when alpha > 0, since every tail of u has infimum 0."""
    if up:
        return u if u.alpha <= 0 else None
    return u if u.alpha >= 0 else PowerWeight(0.0)


def envelope_down(u: Weight, K: int) -> np.ndarray:
    """Greatest nonincreasing minorant on 1..K: (u_down)_k = min_{j<=k} u_j.

    For a ListWeight the running minimum includes the zero padding past L, so
    the envelope is 0 there; within 1..L it is the plain running minimum.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if isinstance(u, PowerWeight):
        return weight_values(power_envelope(u, up=False), K)
    return np.minimum.accumulate(weight_values(u, K))


def envelope_up(u: Weight, K: int) -> np.ndarray:
    """Greatest nondecreasing minorant on 1..K: (u_up)_k = inf_{j>=k} u_j.

    The infimum runs over the weight's own horizon: the infinite tail for a
    PowerWeight (``power_envelope``), and j in k..L for a ListWeight in
    truncated-problem mode.  Entries past L are 0 (no values there).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if isinstance(u, PowerWeight):
        env = power_envelope(u, up=True)
        return np.zeros(K) if env is None else weight_values(env, K)
    L = u.length
    suff = np.minimum.accumulate(u.array[::-1])[::-1]
    out = np.zeros(K)
    m = min(K, L)
    out[:m] = suff[:m]
    return out


def sup_norm_weighted(x: SeqWindow, v: Weight) -> float:
    """||x||_{l_inf(v)} = sup_n |x_n| v_n over the window (0 outside)."""
    if not x.values:
        return 0.0
    n = np.arange(x.start, x.end + 1)
    if isinstance(v, PowerWeight):
        vv = np.power(n.astype(float), v.alpha)
    else:
        vv = weight_values(v, x.end)[n - 1]  # zero past L
    return float(np.max(np.abs(np.asarray(x.values)) * vv))


def quotient_norm_weighted(x: SeqWindow, u: Weight) -> float:
    """||x||_{d(u)} = sup_k |x_k| / u_k with 0/0 = 0; +inf when some x_k != 0
    sits over u_k = 0.  Implemented as explicit branches, never relying on
    floating-point division semantics."""
    best = 0.0
    for k in range(x.start, x.end + 1):
        xk = abs(x.at(k))
        uk = weight_at(u, k)
        if uk == 0.0:
            if xk != 0.0:
                return math.inf
            continue
        best = max(best, xk / uk)
    return best


def weight_to_json(w: Weight) -> str:
    if isinstance(w, PowerWeight):
        return json.dumps({"kind": "power", "alpha": w.alpha})
    return json.dumps({"kind": "list", "values": list(w.values)})


def weight_from_json(text: str) -> Weight:
    obj = json.loads(text)
    kind = obj.get("kind")
    if kind == "power":
        return PowerWeight(float(obj["alpha"]))
    if kind == "list":
        return ListWeight(tuple(float(x) for x in obj["values"]))
    raise ValueError(f"unknown weight kind: {kind!r}")


def weight_from_csv(path: str) -> ListWeight:
    """Read a ListWeight from a CSV file with one value per line."""
    vals: list[float] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            vals.append(float(row[0]))
    return ListWeight(tuple(vals))
