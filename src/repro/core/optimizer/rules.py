"""Rule-based seeker ranking (paper §VII-B).

Derived from the apriori complexity analysis of the SQL implementations:

* **Rule 1** -- the KW seeker always executes first (one index scan,
  smallest |Q|).
* **Rule 2** -- the MC seeker always executes last (x index scans, x-1
  hash joins, plus application-level validation).
* **Rule 3** -- SC is prioritised over C (one scan vs three).

Within a rule tier (same seeker type), the learned cost model breaks the
tie; with an untrained model the heuristic fallback applies. Sorting is
stable, so equal estimates keep plan order -- determinism matters for
reproducing the optimizer experiments.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

from ...index.stats import LakeStatistics
from ..seekers import SEEKER_RULE_RANK, Seeker
from .cost_model import CostModel


def rule_rank(seeker: Seeker) -> int:
    """The rule tier of a seeker type (lower executes earlier)."""
    return SEEKER_RULE_RANK.get(seeker.kind, len(SEEKER_RULE_RANK))


def rank_seekers(
    named_seekers: Sequence[tuple[str, Seeker]],
    cost_model: CostModel,
    stats: Union[LakeStatistics, Callable[[], LakeStatistics]],
) -> list[str]:
    """Execution order for the seekers of one execution group: rule tier
    first, learned cost estimate second (stable). *stats* may be a
    zero-argument callable; it is called only when there are at least
    two seekers to order."""
    if len(named_seekers) < 2:
        return [name for name, _ in named_seekers]
    if callable(stats):
        stats = stats()
    decorated = [
        (rule_rank(seeker), cost_model.estimate(seeker, stats), position, name)
        for position, (name, seeker) in enumerate(named_seekers)
    ]
    decorated.sort(key=lambda item: (item[0], item[1], item[2]))
    return [name for _, _, _, name in decorated]
