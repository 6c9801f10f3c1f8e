"""Node weight distributions and the sampling distributions they induce.

A network of N nodes is described by a normalized stake vector (the node
weights).  A sampling weight function f maps weights to sampling propensities,
which after normalization give the probability that a query hits each node.
Splitting a node replaces it by r positive parts that sum to its weight;
`SplitSpec` holds where the parts land (`parts`, `part`) and when a split is
valid (`check`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, UnsupportedConfigurationError

NORM_TOL = 1e-12


def _fsum(values) -> float:
    """Exactly rounded sum of a 1-d vector; keeps Zipf tails from losing mass.

    `math.fsum` iterates the float64 buffer itself, so no list of Python
    floats is built; it sees the values a list of them would hold, so the
    sum has the same bits.
    """
    return math.fsum(memoryview(np.ascontiguousarray(values, dtype=float)))


def _masses(values, what: str) -> np.ndarray:
    """values as a float vector, refused unless 1-d, non-empty, finite and >= 0."""
    x = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InvalidParameterError(f"{what} must be a non-empty 1-d vector")
    if not np.isfinite(x).all() or bool((x < 0).any()):
        raise InvalidParameterError(f"{what} must be finite and non-negative")
    return x


# ---------------------------------------------------------------------------
# sampling weight functions
# ---------------------------------------------------------------------------

_KINDS = ("identity", "constant-one", "power")


@dataclass(frozen=True)
class WeightFunction:
    """One member of the closed family of sampling/averaging weight functions.

    Supported kinds: ``identity`` (propensity equals the weight),
    ``constant-one`` (every node equally likely regardless of weight) and
    ``power`` (propensity ``m ** alpha``).  Arbitrary callables are
    deliberately not accepted.
    """

    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameterError(f"unknown weight function kind: {self.kind!r}")
        if self.kind == "power" and not (math.isfinite(self.alpha) and self.alpha > 0):
            raise InvalidParameterError("power weight function needs alpha > 0")

    @property
    def name(self) -> str:
        if self.kind == "power":
            return f"power({self.alpha:g})"
        return self.kind

    def apply(self, m: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return np.asarray(m, dtype=float)
        if self.kind == "constant-one":
            return np.ones_like(m, dtype=float)
        return np.asarray(m, dtype=float) ** self.alpha

    @classmethod
    def parse(cls, text: str) -> "WeightFunction":
        t = text.strip().lower()
        if t in ("id", "identity"):
            return IDENTITY
        if t in ("1", "one", "const", "constant-one", "constant_one"):
            return CONSTANT_ONE
        if t.startswith("power"):
            inner = t[len("power"):].strip("():= ")
            try:
                return cls("power", float(inner))
            except ValueError:
                pass
        raise InvalidParameterError(
            f"cannot parse weight function {text!r}; "
            "expected 'identity', 'constant-one' or 'power:ALPHA'"
        )


IDENTITY = WeightFunction("identity")
CONSTANT_ONE = WeightFunction("constant-one")


def power(alpha: float) -> WeightFunction:
    return WeightFunction("power", alpha)


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
        w = _masses(self.weights, "weights")
        object.__setattr__(self, "weights", w)
        total = float(w.sum())  # only checked: no output depends on its rounding
        if abs(total - 1.0) > NORM_TOL:
            raise InvalidParameterError(
                f"weights sum to {total!r}, not 1; use WeightDistribution.from_raw"
            )

    @classmethod
    def from_raw(cls, values) -> "WeightDistribution":
        """Normalize raw non-negative stakes into a weight distribution."""
        w = _masses(values, "weights")
        total = _fsum(w)
        if total <= 0:
            raise InvalidParameterError("weights must have positive total mass")
        return cls(w / total)

    @property
    def size(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True, eq=False)
class SamplingDistribution:
    """Per-node sampling probabilities plus the identifier of the f that made them."""

    probs: np.ndarray
    source_f: str = "identity"

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size < 1:
            raise InvalidParameterError("probs must be a non-empty 1-d vector")
        if not np.isfinite(p).all() or bool((p < 0).any()) or bool((p > 1).any()):
            raise InvalidParameterError("probs must lie in [0, 1]")
        total = float(p.sum())
        if abs(total - 1.0) > NORM_TOL:
            raise InvalidParameterError(f"probs sum to {total!r}, not 1")

    @classmethod
    def from_probs(cls, values, source_f: str = "identity") -> "SamplingDistribution":
        """Build directly from probabilities (normalizing tiny rounding slack)."""
        p = _masses(values, "probs")
        total = _fsum(p)
        if total <= 0:
            raise InvalidParameterError("probabilities must have positive total mass")
        return cls(p / total, source_f=source_f)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @cached_property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.probs))


def _check_k(p: SamplingDistribution, k) -> int:
    """k as an int, refused unless 1 <= k <= the support size of p."""
    k = int(k)
    if k < 1:
        raise InvalidParameterError(f"k={k} must be >= 1")
    if k > p.support_size:
        raise InvalidParameterError(
            f"k={k} exceeds support size {p.support_size}; sampling would never terminate"
        )
    return k


def _check_node(p: SamplingDistribution, i) -> int:
    """i as an int, refused unless it indexes a node of p."""
    i = int(i)
    if not (0 <= i < p.size):
        raise InvalidParameterError(f"node {i} out of range for {p.size} nodes")
    return i


@dataclass(frozen=True, eq=False)
class SplitSpec:
    """An r-way split of one node into positive fractions of its weight."""

    node: int
    fractions: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.fractions, dtype=float)
        object.__setattr__(self, "fractions", x)
        object.__setattr__(self, "node", int(self.node))
        if x.ndim != 1 or x.size < 1:
            raise InvalidParameterError("fractions must be a non-empty 1-d vector")
        if not np.isfinite(x).all() or bool((x <= 0).any()):
            raise InvalidParameterError("all split fractions must be > 0")
        total = float(x.sum())
        if abs(total - 1.0) > NORM_TOL:
            raise InvalidParameterError(f"split fractions sum to {total!r}, not 1")
        if self.node < 0:
            raise InvalidParameterError("split node index must be >= 0")

    @classmethod
    def equal(cls, node: int, r: int) -> "SplitSpec":
        """Split ``node`` into r equal parts (the gain-maximizing split)."""
        if r < 1:
            raise InvalidParameterError("split arity r must be >= 1")
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

    def check(self, masses: np.ndarray, source_f: str = "identity") -> float:
        """The split node's mass, refusing a node out of range or of zero mass.

        Sampling probabilities split in place keep the fractions only under
        the identity weight function (`source_f`), the one f whose pre- and
        post-split normalizers coincide.
        """
        if source_f != "identity":
            raise UnsupportedConfigurationError(
                "splitting sampling probabilities in place requires the identity "
                f"weight function (got {source_f}); use independent estimation instead"
            )
        if not (0 <= self.node < masses.size):
            raise InvalidParameterError(
                f"split node {self.node} out of range for {masses.size} nodes"
            )
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
        if self.n < 1:
            raise InvalidParameterError("Zipf law needs n >= 1 nodes")
        if not (math.isfinite(self.s) and self.s >= 0):
            raise InvalidParameterError("Zipf exponent s must be finite and >= 0")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def zipf_weights(params: ZipfParams) -> WeightDistribution:
    """Weight of the rank-j node proportional to 1/j**s, ranks 1..n.

    s = 0 gives uniform weights; s > 1 concentrates mass on the top ranks.
    Output is non-increasing in rank by construction.
    """
    ranks = np.arange(1, params.n + 1, dtype=float)
    return WeightDistribution.from_raw(ranks ** (-params.s))


def sampling_distribution(w: WeightDistribution, f: WeightFunction = IDENTITY
                          ) -> SamplingDistribution:
    """Normalize f(weights) into per-node sampling probabilities."""
    image = f.apply(w.weights)
    total = _fsum(image)
    if total <= 0:
        raise InvalidParameterError(
            f"weight function {f.name} maps every weight to zero"
        )
    return SamplingDistribution(image / total, source_f=f.name)


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
    """Read raw stakes from a CSV with a ``weight`` column; normalized on load."""
    values = []
    with open(path, newline="") as fh:
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
    if not values:
        raise InvalidParameterError(f"{path}: no weight rows found")
    return WeightDistribution.from_raw(values)
