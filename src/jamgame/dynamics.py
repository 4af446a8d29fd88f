"""Agent state evolution under the consensus protocol and the disagreement objective.

All state arithmetic is exact: equal utilities along different solver branches must
compare equal, which float summation order would break. Traces hold Fractions. The
consensus update (`consensus_update`) and the disagreement (`state_difference`) are
generic over the number type, so the game's step cache runs the same two rules on
integers: numerators over a per-window denominator, with the weights as numerators
over their common denominator (the update is linear, so both denominators stay
outside). The solver's search and a run's committed steps (`StepCache.commit`) both
go through that integer kernel; a run converts back to Fractions once per value its
trace records. `consensus_step` is the Fraction form of the update, which the
brute-force oracle steps with. Every trace and tie-break is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .network import Edge, Graph

State = tuple[Fraction, ...]
MAX_DECIMAL_EXPONENT = 100_000


def as_fraction(value) -> Fraction:
    """Coerce ints, floats, strings like '3/2' or '1.5e-3', and Fractions to exact Fraction.

    A decimal string's exponent is built as a whole power of ten, so one
    of magnitude above MAX_DECIMAL_EXPONENT is refused rather than built.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not numeric values here")
    if isinstance(value, str):
        marker, exponent = value.lower().rpartition("e")[1:]
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        too_long = len(digits) > len(str(MAX_DECIMAL_EXPONENT))  # read no huge exponent as an int
        if marker and digits.isdecimal() and (too_long or int(digits) > MAX_DECIMAL_EXPONENT):
            raise ValueError(f"decimal exponent of magnitude above {MAX_DECIMAL_EXPONENT}")
    if isinstance(value, (int, float, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact number")


def make_state(values) -> State:
    return tuple(as_fraction(v) for v in values)


@dataclass(frozen=True)
class Weights:
    """Symmetric consensus weights a_ij on canonical vertex pairs of 1..n.

    Every weight is positive and every row sum stays strictly below 1, so the
    update is a contraction toward agreement on any surviving subgraph. That
    the weights sit on a graph's edges is checked where the two meet, in
    `game.Game`.
    """

    n: int
    by_edge: dict[Edge, Fraction]

    def __post_init__(self) -> None:
        row_sums = {i: Fraction(0) for i in range(1, self.n + 1)}
        for (i, j), a in self.by_edge.items():
            if not (1 <= i < j <= self.n):
                raise ValueError(f"weight on non-canonical edge ({i}, {j})")
            if a <= 0:
                raise ValueError(f"weight on edge ({i}, {j}) must be positive, got {a}")
            row_sums[i] += a
            row_sums[j] += a
        for i, s in row_sums.items():
            if s >= 1:
                raise ValueError(f"row {i} weight sum {s} is not strictly below 1")

    @classmethod
    def uniform(cls, g: Graph, value=None) -> Weights:
        """Equal weight on every base edge; default value 1/n."""
        a = Fraction(1) / g.n if value is None else as_fraction(value)
        return cls(g.n, {e: a for e in g.sorted_edges})


def consensus_step(x: State, g: Graph, w: Weights) -> State:
    """One synchronous update x_i += sum over surviving neighbors of a_ij (x_j - x_i)."""
    if len(x) != g.n or w.n != g.n:
        raise ValueError("state, graph, and weights must agree on agent count")
    return consensus_update(x, [(e, w.by_edge[e]) for e in g.edges if e in w.by_edge])


def consensus_update(x, weighted_edges, scale=1) -> tuple:
    """The consensus update with weights given as numerators over `scale`.

    Each of `weighted_edges` is ((i, j), a): agents i and j (1-based) are
    connected and a/scale is their weight. The result is the updated state
    times `scale`: x_i*scale + sum of a*(x_j - x_i). Generic over the number
    type: with Fraction weights and scale 1 it is the update itself, and with
    integer numerators x over s and integer weights it gives the updated
    numerators over s*scale.
    """
    out = list(x) if scale == 1 else [v * scale for v in x]
    for (i, j), a in weighted_edges:
        diff = a * (x[j - 1] - x[i - 1])
        out[i - 1] += diff
        out[j - 1] -= diff
    return tuple(out)


def state_difference(x):
    """Total pairwise disagreement sum over i<j of (x_i - x_j)^2; 0 iff all equal.

    Generic over the number type: Fractions give a Fraction, integer
    numerators over s give the disagreement's numerator over s^2.
    """
    n = len(x)
    total = x[0] - x[0] if n else Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            d = x[i] - x[j]
            total += d * d
    return total


def detect_clusters(x: State, tol) -> tuple[frozenset[int], ...]:
    """Agent sets by single linkage on sorted states, ordered by smallest member: a gap > tol splits clusters."""
    tol = as_fraction(tol)
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    order = sorted(range(len(x)), key=lambda i: (x[i], i))
    groups: list[list[int]] = []
    prev = None
    for idx in order:
        if prev is None or x[idx] - prev > tol:
            groups.append([idx + 1])
        else:
            groups[-1].append(idx + 1)
        prev = x[idx]
    groups.sort(key=min)
    return tuple(frozenset(g) for g in groups)
