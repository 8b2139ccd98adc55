"""repro -- a reproduction of *Optimal Aggregation Algorithms for
Middleware* (Fagin, Lotem, Naor; PODS 2001).

The library implements the paper's model and every algorithm it
analyses:

* the middleware substrate (``m`` sorted lists, sorted/random access,
  middleware cost ``s*cS + r*cR``) -- :mod:`repro.middleware`;
* monotone aggregation functions with the paper's property taxonomy --
  :mod:`repro.aggregation`;
* TA, TA-theta, TAZ, NRA, CA, FA and the related-work baselines --
  :mod:`repro.core`;
* synthetic and adversarial workloads -- :mod:`repro.datagen`;
* the instance-optimality measurement harness -- :mod:`repro.analysis`;
* mutable backends and continuously-maintained top-k views --
  :mod:`repro.middleware.mutable` and :mod:`repro.views`;
* the concurrent query service and its wire client --
  :mod:`repro.server`.

Quick start::

    from repro import ThresholdAlgorithm, AVERAGE, datagen

    db = datagen.uniform(n=10_000, m=3, seed=7)
    result = ThresholdAlgorithm().run_on(db, AVERAGE, k=10)
    print(result.summary())

Standing queries::

    from repro import LiveView, MutableColumnarDatabase, MIN

    live = MutableColumnarDatabase.from_database(db)
    view = LiveView(live, ThresholdAlgorithm, MIN, k=10,
                    on_event=print)
    live.update_grade(42, 0, 0.99)   # callbacks fire iff the top-k
    live.delete(7)                   # result actually changed

The curated public surface is ``repro.__all__``.
"""

from . import (
    aggregation,
    analysis,
    core,
    datagen,
    middleware,
    resilience,
    server,
    services,
)
from .aggregation import (
    AVERAGE,
    MAX,
    MEDIAN,
    MIN,
    PRODUCT,
    SUM,
    AggregationFunction,
    make_aggregation,
)
from .core import (
    ApproximateThresholdAlgorithm,
    CombinedAlgorithm,
    FaginAlgorithm,
    IntermittentAlgorithm,
    MaxAlgorithm,
    NaiveAlgorithm,
    NoRandomAccessAlgorithm,
    QuickCombine,
    RestrictedSortedAccessTA,
    StreamCombine,
    ThresholdAlgorithm,
    TopKResult,
)
from .middleware import (
    AccessSession,
    CostModel,
    ColumnarDatabase,
    Database,
    GradedSource,
    ListCapabilities,
    MutableColumnarDatabase,
    MutableDatabase,
    MutableShardedDatabase,
    MutationEvent,
    ShardedDatabase,
    assemble_database,
)
from .server import (
    QueryService,
    QueryServiceClient,
    QuerySpec,
)
from .views import LiveView, ViewEvent

__version__ = "1.1.0"

__all__ = [
    "aggregation",
    "analysis",
    "core",
    "datagen",
    "middleware",
    "resilience",
    "server",
    "services",
    "AVERAGE",
    "MAX",
    "MEDIAN",
    "MIN",
    "PRODUCT",
    "SUM",
    "AggregationFunction",
    "make_aggregation",
    "ApproximateThresholdAlgorithm",
    "CombinedAlgorithm",
    "FaginAlgorithm",
    "IntermittentAlgorithm",
    "MaxAlgorithm",
    "NaiveAlgorithm",
    "NoRandomAccessAlgorithm",
    "QuickCombine",
    "RestrictedSortedAccessTA",
    "StreamCombine",
    "ThresholdAlgorithm",
    "TopKResult",
    "AccessSession",
    "CostModel",
    "Database",
    "ColumnarDatabase",
    "ShardedDatabase",
    "MutableDatabase",
    "MutableColumnarDatabase",
    "MutableShardedDatabase",
    "MutationEvent",
    "LiveView",
    "ViewEvent",
    "QueryService",
    "QueryServiceClient",
    "QuerySpec",
    "GradedSource",
    "ListCapabilities",
    "assemble_database",
    "__version__",
]
