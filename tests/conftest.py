import numpy as np
from scipy.stats import chi2


def chisquare_gof_pvalue(observed: dict, index: tuple, probs: np.ndarray, n_runs: int,
                         residual: float = 0.0, min_expected: float = 5.0) -> float:
    """Goodness-of-fit p-value of counts keyed v or (ell, v) against a law's
    index columns and probabilities, pooling low-expectation bins in key order
    into a tail bin.  Anything but a tuple of index arrays and a probability
    array of one length is refused: sorted() of an array would sort its
    values, not its keys, and pool the wrong bins."""
    if not (isinstance(index, tuple) and index and isinstance(probs, np.ndarray)
            and all(isinstance(c, np.ndarray) and c.shape == probs.shape for c in index)):
        raise TypeError("expected a law's index columns and its probability array")
    columns = [column.tolist() for column in index]
    keys = columns[0] if len(columns) == 1 else list(zip(*columns))
    cells = sorted(zip(keys, probs.tolist()))
    exp = [n_runs * q for _, q in cells]
    obs = [float(observed.get(key, 0)) for key, _ in cells]
    # everything beyond the modelled support goes into one tail bin
    tail_obs = float(n_runs) - sum(obs)
    tail_exp = n_runs * residual
    bins = list(zip(obs, exp)) + [(tail_obs, tail_exp)]
    pooled_obs = pooled_exp = 0.0
    merged = []
    for o, e in bins:
        pooled_obs += o
        pooled_exp += e
        if pooled_exp >= min_expected:
            merged.append((pooled_obs, pooled_exp))
            pooled_obs = pooled_exp = 0.0
    if pooled_exp > 0 and merged:
        o, e = merged[-1]
        merged[-1] = (o + pooled_obs, e + pooled_exp)
    if len(merged) < 2:
        raise ValueError("not enough bins for a chi-square test")
    stat = sum((o - e) ** 2 / e for o, e in merged)
    return float(chi2.sf(stat, len(merged) - 1))


def chisquare_two_sample_pvalue(a: dict, b: dict, min_count: float = 5.0) -> float:
    """Equal-size two-sample chi-square p-value over pooled integer bins."""
    keys = sorted(set(a) | set(b))
    bins = [(float(a.get(key, 0)), float(b.get(key, 0))) for key in keys]
    merged = []
    pa = pb = 0.0
    for oa, ob in bins:
        pa += oa
        pb += ob
        if pa + pb >= 2 * min_count:
            merged.append((pa, pb))
            pa = pb = 0.0
    if (pa + pb) > 0 and merged:
        oa, ob = merged[-1]
        merged[-1] = (oa + pa, ob + pb)
    if len(merged) < 2:
        raise ValueError("not enough bins for a chi-square test")
    stat = sum((oa - ob) ** 2 / (oa + ob) for oa, ob in merged if oa + ob > 0)
    return float(chi2.sf(stat, len(merged) - 1))


def counts_of(values) -> dict:
    out: dict = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out
