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

#: Each kind of bundled file: its names, and its file under data/ by name.
_KINDS = {"datum": (DATUM_NAMES, "{}.json"),
          "oracle spec": (ORACLE_SPEC_NAMES, "oracle/{}.json")}


def text(kind: str, name: str) -> str:
    """The text of the bundled file of kind ("datum" or "oracle spec")
    named name; KeyError for a name that is not of that kind."""
    names, file = _KINDS[kind]
    if name not in names:
        raise KeyError(f"no bundled {kind} named {name!r}")
    data = (resources.files("weylorb") / "data" / file.format(name)).read_bytes()
    return read_utf8(data, name, InputError)


def datum_text(name: str) -> str:
    return text("datum", name)


def bundled_datum(name: str) -> datum.OrbitDatum:
    """Load a bundled datum by name.

    >>> bundled_datum("rank1_u").open_orbit().id
    'y'
    """
    return datum.loads(datum_text(name))


def oracle_spec_text(name: str) -> str:
    return text("oracle spec", name)
