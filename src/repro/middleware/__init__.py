"""Middleware substrate: databases, access modes, costs, and sources.

The substrate realises the paper's model (Sections 1-2): a database is
``m`` sorted lists over ``N`` objects; algorithms may only *sorted-access*
(pop the next entry of a list, cost ``cS``) or *random-access* (fetch a
named object's grade, cost ``cR``) through an accounted
:class:`~repro.middleware.access.AccessSession`.
"""

from .access import (
    AccessSession,
    AccessStats,
    ListCapabilities,
    SortedBatch,
)
from .cost import (
    UNIT_COSTS,
    AdmissionPolicy,
    BillingLedger,
    CostModel,
    QueryBill,
    QueryBudget,
)
from .database import (
    ColumnarDatabase,
    Database,
    ListMergeCursor,
    ShardedDatabase,
    shard_bounds_for,
)
from .errors import (
    AccessError,
    AdmissionError,
    CapabilityError,
    DatabaseError,
    ListLostError,
    MiddlewareError,
    QueryCancelledError,
    RemoteServiceError,
    ReplicaGroupExhaustedError,
    ServiceTimeoutError,
    ServiceTransientError,
    ServiceUnavailableError,
    UnknownListError,
    UnknownObjectError,
    UnknownQueryError,
    UnknownViewError,
    WildGuessError,
    WireFormatError,
    connection_error_to_service_error,
)
from .mutable import (
    MutableColumnarDatabase,
    MutableDatabase,
    MutableShardedDatabase,
    MutationEvent,
)
from .serialization import (
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
)
from .sources import GradedSource, ScoredCollection, assemble_database
from .trace import RANDOM, SORTED, AccessEvent, AccessTrace

__all__ = [
    "AccessSession",
    "AccessStats",
    "ListCapabilities",
    "CostModel",
    "QueryBudget",
    "QueryBill",
    "BillingLedger",
    "AdmissionPolicy",
    "UNIT_COSTS",
    "Database",
    "ColumnarDatabase",
    "ShardedDatabase",
    "MutableDatabase",
    "MutableColumnarDatabase",
    "MutableShardedDatabase",
    "MutationEvent",
    "ListMergeCursor",
    "shard_bounds_for",
    "SortedBatch",
    "MiddlewareError",
    "DatabaseError",
    "AccessError",
    "CapabilityError",
    "WildGuessError",
    "UnknownObjectError",
    "UnknownListError",
    "RemoteServiceError",
    "ServiceTimeoutError",
    "ServiceTransientError",
    "ServiceUnavailableError",
    "ReplicaGroupExhaustedError",
    "ListLostError",
    "WireFormatError",
    "QueryCancelledError",
    "AdmissionError",
    "UnknownQueryError",
    "UnknownViewError",
    "connection_error_to_service_error",
    "GradedSource",
    "ScoredCollection",
    "assemble_database",
    "encode_message",
    "decode_message",
    "encode_frame",
    "decode_frame",
    "AccessEvent",
    "AccessTrace",
    "SORTED",
    "RANDOM",
]
