"""pickylab: exact character theory and local subgroup structure at desk scale.

Permutation groups with exact character tables (cyclotomic values), Brauer
p-block partitions, Sylow/normalizer/subnormalizer machinery, picky-element
detection, fast symmetric-group character evaluation, and a harness that
checks a battery of theorem- and conjecture-shaped statements with exact
arithmetic and structured witnesses.
"""

from .errors import (
    EngineDefect,
    InvalidArgument,
    ParseError,
    PickylabError,
    ScaleExceeded,
)

__all__ = [
    "EngineDefect",
    "InvalidArgument",
    "ParseError",
    "PickylabError",
    "ScaleExceeded",
]

__version__ = "0.1.0"
