"""Energy-score-based per-module rank allocation.

Each linear module gets a candidacy score
    nu = (E_{r_max} - E_{r_min}) / E_{r_target}
from the spectrum of its *pre-trained* weight, where E_r is the energy
(sum of squared singular values) of the top r components. Modules are
sorted by ascending nu; the first 1/S quantile receives the largest
candidate rank, the next quantile the second largest, and so on, so the
mean assigned rank equals the target.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from .accounting import KINDS
from .errors import ConfigError
from .svd import energy_score, svd

_MODULE_RE = re.compile(r"^L(\d+)\.(\w+)$")


@dataclass(frozen=True)
class RankBudget:
    ranks: tuple[int, ...]  # strictly ascending candidate ranks
    target: int  # required mean rank

    def __post_init__(self):
        ranks = tuple(self.ranks)
        object.__setattr__(self, "ranks", ranks)
        if not ranks or ranks[0] < 1:
            raise ConfigError("candidate ranks must be positive")
        if any(a >= b for a, b in zip(ranks, ranks[1:])):
            raise ConfigError(f"candidate ranks must be strictly ascending: {ranks}")
        if sum(ranks) != self.target * len(ranks):
            raise ConfigError(
                f"candidate ranks {ranks} do not average to target {self.target}"
            )


@dataclass
class ModuleScore:
    module: str
    layer: int
    kind: str
    e_lo: float  # energy at the smallest candidate rank
    e_hi: float  # energy at the largest candidate rank
    e_target: float
    score: float  # candidacy score nu


@dataclass
class RankPlan:
    ranks: dict[str, int]  # module -> assigned rank
    mean_rank: float
    order: list[str] = field(default_factory=list)  # module ids, ascending nu


def parse_module_id(module):
    """Extract (layer, kind) from ids shaped like 'L3.ffn1'; fall back to (0, id)."""
    m = _MODULE_RE.match(module)
    if m:
        return int(m.group(1)), m.group(2).lower()
    return 0, module


def _kind_index(kind):
    return KINDS.index(kind) if kind in KINDS else len(KINDS)


def score_from_sigma(module, sigma, budget):
    sigma = np.asarray(sigma, dtype=np.float64)
    r_lo, r_hi = budget.ranks[0], budget.ranks[-1]
    if r_hi > sigma.shape[0]:
        raise ConfigError(
            f"module {module!r}: largest candidate rank {r_hi} exceeds "
            f"spectrum length {sigma.shape[0]}"
        )
    e_lo = energy_score(sigma, r_lo)
    e_hi = energy_score(sigma, r_hi)
    e_target = energy_score(sigma, budget.target)
    if e_target == 0.0:
        raise ConfigError(
            f"module {module!r}: no energy in the top {budget.target} singular "
            "values, so its candidacy score is undefined"
        )
    layer, kind = parse_module_id(module)
    return ModuleScore(
        module=module,
        layer=layer,
        kind=kind,
        e_lo=e_lo,
        e_hi=e_hi,
        e_target=e_target,
        score=(e_hi - e_lo) / e_target,
    )


def score_modules(weights, budget, decompositions=None):
    """Spectra and candidacy scores for a {module id: weight matrix} map.

    `decompositions`, if given, holds `svd` of each weight by module id,
    and scoring reuses them instead of decomposing again. Every module's
    shape is checked against the largest candidate rank first.
    """
    for module, w in weights.items():
        if budget.ranks[-1] > min(np.shape(w)):
            raise ConfigError(
                f"module {module!r}: rank {budget.ranks[-1]} exceeds min dim {min(np.shape(w))}"
            )
    scores = []
    for module, w in weights.items():
        dec = svd(w) if decompositions is None else decompositions[module]
        scores.append(score_from_sigma(module, dec.sigma, budget))
    return scores


def allocate(scores, budget, reverse=False):
    """Quantile rank assignment over modules sorted by ascending score.

    Quantile q (0-indexed, boundaries floor(qL/S)..floor((q+1)L/S)) gets
    the q-th largest candidate rank; `reverse` flips the assignment so the
    highest-scoring modules get the largest ranks instead (ablation mode).
    """
    if not scores:
        raise ConfigError("no modules to allocate ranks for")
    seen = set()
    for m in scores:
        if m.module in seen:
            raise ConfigError(f"module {m.module!r} is scored more than once")
        seen.add(m.module)
    ordered = sorted(scores, key=lambda m: (m.score, m.layer, _kind_index(m.kind)))
    n = len(ordered)
    s = len(budget.ranks)
    by_quantile = list(reversed(budget.ranks))
    if reverse:
        by_quantile = list(budget.ranks)
    ranks = {}
    for q in range(s):
        lo = q * n // s
        hi = (q + 1) * n // s
        for m in ordered[lo:hi]:
            ranks[m.module] = by_quantile[q]
    mean = sum(ranks.values()) / n
    return RankPlan(ranks=ranks, mean_rank=mean, order=[m.module for m in ordered])

