"""Energy-score-based per-module rank allocation.

Each linear module gets a candidacy score
    nu = (E_{r_max} - E_{r_min}) / E_{r_target}
from the spectrum of its *pre-trained* weight, where E_r is the energy
(sum of squared singular values) of the top r components. Modules are
sorted by ascending nu; the first 1/S quantile receives the largest
candidate rank, the next quantile the second largest, and so on. The mean
assigned rank equals the target only when S divides the module count:
10 modules with ranks (4, 8, 12) and target 8 get 7.6 (8.4 reversed).
"""

import re
from dataclasses import dataclass, field

import numpy as np

from .accounting import KINDS
from .errors import ConfigError
from .svd import check_rank, energy_score
# Unused here; perfbench's self-test checks that its tracer also wraps this
# module's binding of `svd`.
from .svd import svd  # noqa: F401

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
    r_lo, r_hi = budget.ranks[0], check_rank(budget.ranks[-1], sigma.shape, module)
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


def score_modules(decompositions, budget):
    """Candidacy scores for a {module id: `svd` of its weight} map, in its
    order: the one LaMDA++ scoring of `lamda analyze` and a lamda++ run."""
    return [score_from_sigma(module, dec.sigma, budget) for module, dec in decompositions.items()]


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

