"""Access to the data files shipped with the package."""

from __future__ import annotations

from importlib import resources

from . import InputError, read_utf8
# datum executes on first attribute access: spec names and texts do not run it
from . import datum

__all__ = [
    "DATUM_NAMES", "ORACLE_SPEC_NAMES", "bundled_datum", "oracle_spec_text",
]

#: Rank-1 kind suite plus the two worked multi-root examples.
DATUM_NAMES = (
    "rank1_u", "rank1_tu", "rank1_a", "rank1_rt", "rank1_ri", "rank1_n",
    "sl3_so12", "product_a1a1",
)

ORACLE_SPEC_NAMES = (
    "torus", "torus_normalizer", "horospherical",
    "product_diag_q5", "product_diag_q7",
)


def _data_root():
    return resources.files("weylorb") / "data"


def datum_text(name: str) -> str:
    if name not in DATUM_NAMES:
        raise KeyError(f"no bundled datum named {name!r}")
    return read_utf8((_data_root() / f"{name}.json").read_bytes(), name, InputError)


def bundled_datum(name: str) -> datum.OrbitDatum:
    """Load a bundled datum by name.

    >>> bundled_datum("rank1_u").open_orbit().id
    'y'
    """
    return datum.loads(datum_text(name))


def oracle_spec_text(name: str) -> str:
    if name not in ORACLE_SPEC_NAMES:
        raise KeyError(f"no bundled oracle spec named {name!r}")
    return read_utf8((_data_root() / "oracle" / f"{name}.json").read_bytes(), name, InputError)
