"""Exact combinatorics of minimal-parabolic orbit families.

Root systems and Weyl groups in simple-root coordinates, orbit data with
six raise-cell kinds and lattice compatibility rules, the induced action
of simple reflections with braid and stabilizer checks, a mod-2 Hecke
module, and a finite-field brute-force oracle that infers orbit data
from point counts over several primes.

Each module names what the package re-exports in its own ``__all__``.
Every layer module is placed in ``sys.modules`` on import, but its source
is compiled and executed only on first attribute access, so a command
pays only for the layers it runs.
"""

import importlib.util
import sys
from itertools import dropwhile

__version__ = "0.1.0"


class InputError(Exception):
    """Input or arguments that weylorb refuses; the command line exits 2.
    Each layer's refusal derives from it, next to its ValueError or
    RuntimeError base."""


def check_digits(token, limit: int, error: type[InputError], what: str) -> None:
    """Refuse, with error, a token whose run of digits after its sign and
    leading zeros is longer than limit's, before int() reads it: no valid
    value has that many digits, and int() stops at 4,300.  The refusal
    names the count, not the digits."""
    run = str(token).strip().lstrip("+-").lstrip("0")
    n = len(run) - len("".join(dropwhile(str.isdecimal, run)))
    if n > len(str(limit)):
        raise error(f"{what} has {n} digits, past the limit {limit}")


def clip(token, width: int = 32) -> str:
    """repr(token), cut after width characters: what a refusal quotes of a
    token."""
    text = repr(token)
    return text if len(text) <= width else text[:width] + "..."


def read_utf8(data: bytes, name, error: type[InputError]) -> str:
    """data as strict UTF-8 with universal newlines, as open() reads a text
    file; bytes that are not UTF-8 are refused, with error, naming name and
    the first bad byte.  Files, bundled data and stdin all read through it."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{name} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


#: Layer modules, each after the layers it imports from: ``__getattr__``
#: searches them in this order, so a lookup runs few layers beyond its own.
_LAYERS = ("coxeter", "datum", "bundled", "action", "hecke", "oracle")


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


coxeter, datum, bundled, action, hecke, oracle = map(_lazy, _LAYERS)


def __getattr__(name: str):
    if name == "__all__":
        return ([n for layer in _LAYERS for n in globals()[layer].__all__]
                + ["InputError", "__version__"])
    for layer in _LAYERS:
        module = globals()[layer]
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
