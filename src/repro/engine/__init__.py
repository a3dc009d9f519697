"""The recommender engine and front end (Figure 9).

The engine answers recommendation queries from the computation results
TencentRec keeps in TDStore; the front end preprocesses user queries,
applies application-level filters, and feeds impression/click events
back into the data stream.
"""

from repro.engine.engine import RecommenderEngine, EngineConfig
from repro.engine.front_end import RecommenderFrontEnd, QueryLog

__all__ = [
    "RecommenderEngine",
    "EngineConfig",
    "RecommenderFrontEnd",
    "QueryLog",
]
