"""Node weight distributions and the sampling distributions they induce.

A network of N nodes is described by a normalized stake vector (the node
weights).  A sampling weight function f, m -> m ** alpha with alpha >= 0
(`WeightFunction`), maps weights to sampling propensities, which after
normalization give the probability that a query hits each node; a
`SamplingDistribution` carries the f that made it.  Splitting a node replaces
it by r positive parts that sum to its weight; `SplitSpec` holds where the
parts land (`parts`, `part`) and when a split is valid (`check`), which for
probabilities split in place reads the f they carry.  Weights, probabilities
and split fractions are all vectors of masses summing to 1 (`_unit_sum`).
"""

from __future__ import annotations

import contextlib
import csv
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError

NORM_TOL = 1e-12
_FSUM_SLICE = 1 << 16  # values per extraction slice: bounds its temporaries


def _fsum(values) -> float:
    """Exactly rounded sum of a 1-d vector, with the bits of `math.fsum` over
    a list of its values; keeps Zipf tails from losing mass.

    It sums by error-free extraction (Rump, Ogita and Oishi, "Accurate
    floating-point summation part I", SIAM J. Sci. Comput. 31(1), 2008): in
    a slice of n values below 2**e in magnitude, sigma = 2**(e +
    bit_length(n)) splits x exactly into q = (x + sigma) - sigma and x - q.
    The q are multiples of ulp(sigma) / 2 that sum below sigma, so numpy sums
    them exactly; the remainders go round again, and `math.fsum` rounds the
    partial sums once.  `math.fsum` itself sums vectors with a non-finite
    value or large enough to overflow, and zero totals, whose sign it decides.
    """
    x = np.ascontiguousarray(values, dtype=float)
    limit, parts = 2.0 ** 1000 / max(1, x.size), []
    buf = np.empty((2, min(x.size, _FSUM_SLICE)))  # r and q of every slice
    for start in range(0, x.size, _FSUM_SLICE):
        n = min(_FSUM_SLICE, x.size - start)
        r, q, width = buf[0, :n], buf[1, :n], n.bit_length()
        r[:] = x[start:start + n]
        while True:
            top = float(np.max(np.abs(r, out=q)))
            if not top <= limit:  # NaN, inf or too large
                return math.fsum(memoryview(x))
            if top == 0.0:
                break
            sigma = math.ldexp(1.0, math.frexp(top)[1] + width)
            np.add(r, sigma, out=q)
            q -= sigma
            parts.append(float(np.sum(q)))
            r -= q
    total = math.fsum(parts)
    return total if total != 0.0 else math.fsum(memoryview(x))


def _masses(values, what: str) -> np.ndarray:
    """values as a float vector, refused unless 1-d, non-empty, finite and >= 0."""
    iterable = np.iterable(values) and not isinstance(values, np.ndarray)
    x = np.asarray(list(values) if iterable else values, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InvalidParameterError(f"{what} must be a non-empty 1-d vector")
    # two reductions, no N-length mask: a NaN makes min() NaN, an inf max() inf
    if not (x.min() >= 0 and math.isfinite(x.max())):
        raise InvalidParameterError(f"{what} must be finite and non-negative")
    return x


def _unit_sum(values, what: str) -> np.ndarray:
    """`_masses(values, what)`, refused unless they sum to 1 within NORM_TOL."""
    x = _masses(values, what)
    total = float(x.sum())  # only checked: no output depends on its rounding
    if abs(total - 1.0) > NORM_TOL:
        raise InvalidParameterError(f"{what} sum to {total!r}, not 1")
    return x


def _normalized(values, what: str) -> np.ndarray:
    """values over their exactly rounded total, refused unless `_masses` takes
    them and the total is positive and within float64."""
    x = _masses(values, what)
    try:
        total = _fsum(x)
    except OverflowError:
        raise InvalidParameterError(f"{what} sum past the largest float64; scale them down"
                                    ) from None
    if total <= 0:
        raise InvalidParameterError(f"{what} must have positive total mass")
    return x / total


# ---------------------------------------------------------------------------
# sampling weight functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightFunction:
    """The sampling/averaging weight function m -> m ** alpha, alpha finite and
    >= 0: identity is alpha = 1, constant-one alpha = 0.  No other callables."""

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise InvalidParameterError(f"weight exponent must be finite and >= 0: {self.alpha}")

    @property
    def name(self) -> str:
        return {1: "identity", 0: "constant-one"}.get(self.alpha, f"power({self.alpha:g})")

    def apply(self, m: np.ndarray) -> np.ndarray:
        """A fresh array, never m itself: alpha = 1 keeps m's bits, 0 gives ones."""
        return np.asarray(m, dtype=float) ** self.alpha

    @classmethod
    def parse(cls, text: str) -> "WeightFunction":
        t = text.strip().lower()
        if t in ("id", "identity"):
            return IDENTITY
        if t in ("1", "one", "const", "constant-one", "constant_one"):
            return CONSTANT_ONE
        if t.startswith("power"):
            try:
                return cls(float(t[len("power"):].strip("():= ")))
            except ValueError:
                pass
        raise InvalidParameterError(
            f"cannot parse weight function {text!r}; "
            "expected 'identity', 'constant-one' or 'power:ALPHA', ALPHA finite and >= 0"
        )


IDENTITY = WeightFunction(1.0)
CONSTANT_ONE = WeightFunction(0.0)


def power(alpha: float) -> WeightFunction:
    return WeightFunction(alpha)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WeightDistribution:
    """Normalized node weights, dense, 0-based indexing.

    Finite vectors stand in for infinite-support weight sequences: every node
    beyond the vector is implicitly weight zero.
    """

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _unit_sum(self.weights, "weights"))

    @classmethod
    def from_raw(cls, values) -> "WeightDistribution":
        """Normalize raw non-negative stakes into a weight distribution."""
        return cls(_normalized(values, "weights"))

    @property
    def size(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True, eq=False)
class SamplingDistribution:
    """Per-node sampling probabilities plus the weight function f that made
    them from node weights; probabilities given directly count as identity's."""

    probs: np.ndarray
    f: WeightFunction = IDENTITY

    def __post_init__(self):
        p = _unit_sum(self.probs, "probs")
        object.__setattr__(self, "probs", p)
        if p.max() > 1:
            raise InvalidParameterError("probs must lie in [0, 1]")

    @classmethod
    def from_probs(cls, values) -> "SamplingDistribution":
        """Build directly from probabilities (normalizing tiny rounding slack)."""
        return cls(_normalized(values, "probs"))

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @cached_property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.probs))


def _check_count(value, what: str = "count", least=-math.inf) -> int:
    """value as an int by the one count rule, refused below least: an integer
    or a whole-number spelling (1e3, 20.0) is read exactly, and a boolean, a
    fraction or a non-finite number is refused, since int() would cut it."""
    number = math.nan  # a boolean is an int to Python, but no count
    if not isinstance(value, (bool, np.bool_)):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            number = float(value)
        with contextlib.suppress(TypeError, ValueError):  # exact for integers of any length
            number = int(value) if isinstance(value, str) else operator.index(value)
    if not (isinstance(number, int) or number.is_integer()):  # nor are inf and nan
        raise InvalidParameterError(f"{what} takes whole numbers, got {value!r}")
    if number < least:
        raise InvalidParameterError(f"{what} must be >= {least}, got {int(number)}")
    return int(number)


def _check_k(k, support=math.inf) -> int:
    """k by the count rule, refused unless 1 <= k <= support, the count of
    nodes a run can draw: past it, sampling would never terminate."""
    k = _check_count(k, "k")
    if k < 1:
        raise InvalidParameterError(f"k={k} must be >= 1")
    if k > support:
        raise InvalidParameterError(
            f"k={k} exceeds support size {support}; sampling would never terminate"
        )
    return k


def _check_node(i, size: int, what: str = "node") -> int:
    """i by the count rule, refused unless it indexes one of `size` nodes."""
    i = _check_count(i, what)
    if not (0 <= i < size):
        raise InvalidParameterError(f"{what} {i} out of range for {size} nodes")
    return i


@dataclass(frozen=True, eq=False)
class SplitSpec:
    """An r-way split of one node into positive fractions of its weight."""

    node: int
    fractions: np.ndarray

    def __post_init__(self):
        x = _unit_sum(self.fractions, "split fractions")
        object.__setattr__(self, "fractions", x)
        if bool((x == 0).any()):
            raise InvalidParameterError("all split fractions must be > 0")
        object.__setattr__(self, "node", _check_count(self.node, "split node index", 0))

    @classmethod
    def equal(cls, node: int, r: int) -> "SplitSpec":
        """Split ``node`` into r equal parts: the gain-maximizing split at k = 2
        only (at Zipf 1.1, N = 1000, k = 20, (0.2, 0.8) beats halves)."""
        r = _check_count(r, "split arity r", 1)
        return cls(node, np.full(r, 1.0 / r))

    @property
    def r(self) -> int:
        return int(self.fractions.size)

    @property
    def parts(self) -> range:
        """Post-split indices of the parts, which take the node's slot in order."""
        return range(self.node, self.node + self.r)

    @cached_property
    def cum(self) -> np.ndarray:
        """Cumulative fractions: part j owns the uniforms in [cum[j-1], cum[j])."""
        cum = np.cumsum(self.fractions)
        cum[-1] = 1.0  # guard against rounding shortfall on the last part
        return cum

    def part(self, u) -> np.ndarray:
        """Offset (0 .. r-1) of the part that each uniform in [0, 1) selects."""
        return np.searchsorted(self.cum, u, side="right")

    @staticmethod
    def check_in_place(f: WeightFunction) -> None:
        """Refuse f unless sampling probabilities made by f and split in place
        keep the fractions: only a linear f (alpha 1) keeps the pre- and
        post-split normalizers equal."""
        if f.alpha != 1:
            raise InvalidParameterError(
                "splitting sampling probabilities in place requires the identity "
                f"weight function (got {f.name}); use independent estimation instead"
            )

    def check(self, masses: np.ndarray, f: WeightFunction = IDENTITY) -> float:
        """The split node's mass, refusing an f that `check_in_place` refuses
        or a node out of range or of zero mass.  Weights themselves split
        under the default."""
        self.check_in_place(f)
        _check_node(self.node, masses.size, "split node")
        mass = float(masses[self.node])
        if mass <= 0.0:
            raise InvalidParameterError(f"cannot split node {self.node}: it has zero mass")
        return mass


@dataclass(frozen=True)
class ZipfParams:
    """Zipf rank-frequency law parameters: exponent s >= 0 over n nodes."""

    s: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count(self.n, "Zipf n", 1))
        if not (math.isfinite(self.s) and self.s >= 0):
            raise InvalidParameterError("Zipf exponent s must be finite and >= 0")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def zipf_weights(params: ZipfParams) -> WeightDistribution:
    """Weight of the rank-j node proportional to 1/j**s, ranks 1..n.

    s = 0 gives uniform weights; s > 1 concentrates mass on the top ranks.
    Output is non-increasing in rank by construction.
    One vector is raised and normalized in place, with the bits of
    ``from_raw(ranks ** -s)``: its entries lie in [0, 1] and the first is 1,
    so nothing in them is for `from_raw` to refuse.
    """
    x = np.arange(1, params.n + 1, dtype=float)
    x **= -params.s
    x /= _fsum(x)
    return WeightDistribution(x)


def sampling_distribution(w: WeightDistribution, f: WeightFunction = IDENTITY
                          ) -> SamplingDistribution:
    """Normalize f(weights) into per-node sampling probabilities, dividing
    the fresh image that `f.apply` returns in place; w is left as it is."""
    image = f.apply(w.weights)
    total = _fsum(image)
    if total <= 0:
        raise InvalidParameterError(
            f"weight function {f.name} maps every weight to zero"
        )
    image /= total
    return SamplingDistribution(image, f)


def apply_split(w: WeightDistribution, split: SplitSpec):
    """Replace one node by its split parts; total mass is preserved.

    Returns the enlarged distribution (size N + r - 1, parts occupying the
    split node's slot in order) and the parts' indices, `split.parts`.
    """
    parts = split.check(w.weights) * split.fractions
    new_weights = np.concatenate(
        [w.weights[:split.node], parts, w.weights[split.node + 1:]]
    )
    return WeightDistribution(new_weights), split.parts


def load_weights_csv(path) -> WeightDistribution:
    """Read raw stakes from a CSV with a ``weight`` column; normalized on load.
    A file that cannot be opened, read or decoded as UTF-8 is invalid."""
    values = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "weight" not in reader.fieldnames:
                raise InvalidParameterError(f"{path}: expected a 'weight' column")
            for row in reader:
                cell = row["weight"]
                if cell is None or cell.strip() == "":
                    continue
                try:
                    values.append(float(cell))
                except ValueError as exc:
                    raise InvalidParameterError(f"{path}: bad weight value {cell!r}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read weights CSV {path}: {exc}") from None
    if not values:
        raise InvalidParameterError(f"{path}: no weight rows found")
    return WeightDistribution.from_raw(values)
