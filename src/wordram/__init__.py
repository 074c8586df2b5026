"""Word-RAM integer data structures.

Dynamic one-dimensional range reporting with fast queries, data-stream
perfect hashing, a space-efficient dynamic Bloomier filter, and bit-probe
schemes for the greater-than problem, plus the primitives they share.
"""

from .bloomier import BloomierConfig, BloomierFilter
from .gtgame import BitMemory, GreaterThanScheme, probe_bounds, sweep
from .perfecthash import PerfectHash, PerfectHashConfig, RebuildRequired
from .predecessor import PredecessorSet
from .rangereport import RangeConfig, RangeReporter
from .wordops import NodeName, lca_depth, map_node, msb

__version__ = "0.1.0"

__all__ = [
    "BitMemory",
    "BloomierConfig",
    "BloomierFilter",
    "GreaterThanScheme",
    "NodeName",
    "PerfectHash",
    "PerfectHashConfig",
    "PredecessorSet",
    "RangeConfig",
    "RangeReporter",
    "RebuildRequired",
    "lca_depth",
    "map_node",
    "msb",
    "probe_bounds",
    "sweep",
    "__version__",
]
