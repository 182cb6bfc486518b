"""ConCORD's content-sharing query interface (paper Fig 3).

Eight operations, named once in :data:`OPS` and implemented once on
:class:`QueryInterface`; every one answers with a :class:`QueryResult`.
Node-wise queries (``num_copies``, ``entities``) are answered by the single
home shard of the queried hash.  Collective queries (``sharing``,
``intra_sharing``, ``inter_sharing``, ``degree_of_sharing``,
``num_shared_content``, ``shared_content``) aggregate information across
shards; they can execute *distributed* (every shard scans its slice,
results combine over a reduction tree — constant latency as the system
grows, Fig 9) or *single-node* (one node holds everything — latency linear
in total hashes).  :class:`ReferenceModel` is the brute-force oracle the
tests and the benchmark compare against.
"""

from repro.queries.interface import OPS, QueryInterface, QueryOp, QueryResult
from repro.queries.reference import ReferenceModel

__all__ = ["OPS", "QueryInterface", "QueryOp", "QueryResult", "ReferenceModel"]
