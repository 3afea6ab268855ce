"""The runs' random streams: the standard library's Mersenne Twister.

``default_rng`` is the one place that turns a seed into a stream.  An int
or a str seeds a ``random.Random``; a str is seeded through SHA-512, not
``hash()``, so a stream does not depend on ``PYTHONHASHSEED``.  A stream
is read only through ``random()``, one double in [0, 1) per coordinate
(``trigcalc.sample_max``), so a numpy ``Generator`` passed in its place
draws its own doubles the same way.
"""

from __future__ import annotations

import random


def default_rng(seed: int | str | random.Random) -> random.Random:
    """``random.Random(seed)`` for an int or a str; a generator (the standard
    library's or numpy's) is returned as it is."""
    if isinstance(seed, (int, str)):
        return random.Random(seed)
    return seed
