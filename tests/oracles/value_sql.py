"""The SC and KW queries as SQL, kept as the reference oracle for
``value_partials``: the seeker's own ``sql(rewrite)`` -- Listing 1's
``GROUP BY TableId, ColumnId`` / the §VI ``GROUP BY TableId``, each with
``COUNT(DISTINCT CellValue)``, ``ORDER BY overlap DESC`` and ``LIMIT`` --
run through ``Database.execute``, its rows wrapped as a ranked partial."""

from typing import Optional

from repro.core.results import ResultList, SeekerPartials, merge_partials, ranked_partials
from repro.core.seekers import OVERFETCH, Rewrite, SeekerContext, SingleColumnSeeker
from repro.index.alltables import ALLTABLES


def partials(
    seeker, context: SeekerContext, rewrite: Optional[Rewrite] = None
) -> SeekerPartials:
    """The ranked groups the statement returns, cut at its ``LIMIT``."""
    sql = seeker.sql(rewrite).format(index=ALLTABLES)
    result = context.db.execute(sql, seeker.params(rewrite))
    fetch = seeker.k * OVERFETCH if isinstance(seeker, SingleColumnSeeker) else seeker.k
    return ranked_partials(result.rows, fetch)


def execute(seeker, context: SeekerContext, rewrite: Optional[Rewrite] = None) -> ResultList:
    return merge_partials([partials(seeker, context, rewrite)], seeker.k)
