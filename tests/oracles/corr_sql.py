"""The C query as SQL, kept as the reference oracle for
``correlation_partials``: the seeker's own ``sql(rewrite)`` -- Listing
3's keys/nums self-join with ``GROUP BY``, ``HAVING``, ``ORDER BY qcr
DESC`` and ``LIMIT`` -- run through ``Database.execute``, its rows
wrapped as a ranked partial."""

from typing import Optional

from repro.core.results import ResultList, SeekerPartials, merge_partials, ranked_partials
from repro.core.seekers import Rewrite, SeekerContext
from repro.index.alltables import ALLTABLES


def partials(
    seeker, context: SeekerContext, rewrite: Optional[Rewrite] = None
) -> SeekerPartials:
    """The ranked groups the statement returns, cut at its ``LIMIT``."""
    sql = seeker.sql(rewrite).format(index=ALLTABLES)
    result = context.db.execute(sql, seeker.params(rewrite))
    return ranked_partials(result.rows, seeker.fetch)


def execute(seeker, context: SeekerContext, rewrite: Optional[Rewrite] = None) -> ResultList:
    return merge_partials([partials(seeker, context, rewrite)], seeker.k)
