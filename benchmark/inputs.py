"""Seeded inputs for the benchmark workloads.

Everything here is derived from the workload seed alone, so one seed
always gives the same files.  The program under test never sees the
seed: it only reads the files written here.  The generators change the
output of a command but not the amount of work it does:

* oracle specs are conjugated by a random g in GL_k(F_q), which keeps
  |G|, |H|, the point count and every orbit size;
* flag raise dimensions are drawn once per conjugacy class of simple
  roots, so the Weyl group and the number of cells stay fixed;
* mutants follow the three arity-preserving operations of the acceptance
  mutation sweep (rank bump, dimension swap, kind flip).
"""

from __future__ import annotations

import copy
import hashlib
import json
import random

#: name -> (|W|, conjugacy classes of simple roots (1-based),
#: number of positive root lines in each class).
SYSTEMS = {
    "A1": (2, [[1]], [1]),
    "A2": (6, [[1, 2]], [3]),
    "A1xA1": (4, [[1], [2]], [1, 1]),
    "B2": (8, [[1], [2]], [2, 2]),
    "BC2": (8, [[1], [2]], [2, 2]),
    "G2": (12, [[1], [2]], [3, 3]),
    "B3": (48, [[1, 2], [3]], [6, 3]),
    "F4": (1152, [[1, 2], [3, 4]], [12, 12]),
    "B5": (3840, [[1, 2, 3, 4], [5]], [20, 5]),
}

MUTATION_OPS = ("rank-bump", "dim-swap", "kind-flip")
KIND_FLIPS = {"U": ("RI", "N"), "RI": ("U",), "N": ("U",),
              "TU": ("RT",), "RT": ("TU",)}
ROLES = {"U": ("y", "z"), "TU": ("y", "z1", "z2"), "A": ("y",),
         "RT": ("y", "z1", "z2"), "RI": ("y", "z"), "N": ("y", "z")}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- flag data ---------------------------------------------------------------

def raise_dims(system: str, rng: random.Random) -> list[int]:
    """One raise dimension per conjugacy class of simple roots."""
    _, classes, _ = SYSTEMS[system]
    dims = [0] * sum(len(c) for c in classes)
    for cls in classes:
        n = rng.randint(1, 5)
        for i in cls:
            dims[i - 1] = n
    return dims


def open_dim(system: str, dims: list[int]) -> int:
    """Dimension of the open orbit of the flag datum: the sum of the
    raise dimensions over all positive root lines."""
    _, classes, lines = SYSTEMS[system]
    return sum(dims[cls[0] - 1] * n for cls, n in zip(classes, lines))


# -- arithmetic mod q -------------------------------------------------------

def primitive_root(q: int) -> int:
    factors = {p for p in range(2, q) if (q - 1) % p == 0
               and all(p % d for d in range(2, p))}
    return next(r for r in range(2, q)
                if all(pow(r, (q - 1) // p, q) != 1 for p in factors))


def inverse_mod(m: list[list[int]], q: int) -> list[list[int]] | None:
    """Inverse of m over F_q by Gauss-Jordan elimination, None if singular."""
    k = len(m)
    aug = [[x % q for x in row] + [int(i == j) for j in range(k)]
           for i, row in enumerate(m)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], q - 2, q)
        aug[col] = [x * inv % q for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % q for x, y in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def _mul(a, b, q):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) % q
             for j in range(len(b[0]))] for i in range(len(a))]


def random_invertible(k: int, q: int, rng: random.Random):
    while True:
        g = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
        g_inv = inverse_mod(g, q)
        if g_inv is not None:
            return g, g_inv


# -- oracle specs ------------------------------------------------------------

def conjugate_spec(obj: dict, q: int, rng: random.Random) -> dict:
    """The spec with every generator replaced by g M g^-1 mod q, pinned
    to q.  A spec already pinned to another prime is refused."""
    if obj["q"] not in (None, q):
        raise ValueError(f"spec {obj['name']} is pinned to q = {obj['q']}")
    g, g_inv = random_invertible(obj["dimension"], q, rng)
    out = copy.deepcopy(obj)
    out["q"] = q
    gens = out["generators"]
    for block in ("G", "B", "H"):
        gens[block] = [_mul(_mul(g, m, q), g_inv, q) for m in gens[block]]
    gens["P"] = {a: [_mul(_mul(g, m, q), g_inv, q) for m in mats]
                 for a, mats in gens.get("P", {}).items()}
    return out


def _elementary(k: int, i: int, j: int) -> list[list[int]]:
    m = [[int(r == c) for c in range(k)] for r in range(k)]
    m[i][j] = 1
    return m


def _diag(k: int, i: int, t: int) -> list[list[int]]:
    return [[(t if r == i else 1) if r == c else 0 for c in range(k)]
            for r in range(k)]


def bruhat_spec(k: int, q: int) -> dict:
    """G = GL_k(F_q) with H = B upper triangular: the B-orbits on G/B are
    the Bruhat cells, one per w in S_k, of size q^l(w)."""
    r = primitive_root(q)
    upper = [_elementary(k, i, i + 1) for i in range(k - 1)]
    lower = [_elementary(k, i + 1, i) for i in range(k - 1)]
    borel = [_diag(k, i, r) for i in range(k)] + upper
    return {
        "name": f"bruhat_gl{k}",
        "root_system": f"A{k - 1}",
        "q": q,
        "dimension": k,
        "generators": {
            "G": upper + lower + [_diag(k, 0, r)],
            "B": borel,
            "H": borel,
            "P": {str(a + 1): borel + [lower[a]] for a in range(k - 1)},
        },
    }


def torus_spec(q: int) -> dict:
    """G = GL2(F_q), H = the diagonal torus; the bundled torus spec with
    its torus generators replaced by a primitive root mod q, so that G
    is all of GL2 at any prime."""
    r = primitive_root(q)
    t1, t2 = _diag(2, 0, r), _diag(2, 1, r)
    upper, lower = _elementary(2, 0, 1), _elementary(2, 1, 0)
    return {
        "name": "torus",
        "root_system": "A1",
        "q": q,
        "dimension": 2,
        "generators": {"G": [upper, lower, t1], "B": [t1, t2, upper],
                       "H": [t1, t2], "P": {"1": [upper, lower, t1]}},
    }


def gl_order(k: int, q: int) -> int:
    out = 1
    for i in range(k):
        out *= q**k - q**i
    return out


# -- mutants and words -------------------------------------------------------

def mutate(obj: dict, op: str, rng: random.Random) -> dict:
    """One seeded mutation of a datum object; the datum must have a cell
    of a kind other than A."""
    obj = copy.deepcopy(obj)
    targets = [(a, i) for a, cells in sorted(obj["cells"].items())
               for i, c in enumerate(cells) if c["kind"] != "A"]
    alpha, i = rng.choice(targets)
    cell = obj["cells"][alpha][i]
    by_id = {o["id"]: o for o in obj["orbits"]}
    if op == "rank-bump":
        by_id[cell[rng.choice(ROLES[cell["kind"]])]]["rk"] += 1
    elif op == "dim-swap":
        y, z = by_id[cell["y"]], by_id[cell.get("z", cell.get("z1"))]
        y["dim"], z["dim"] = z["dim"], y["dim"]
    elif op == "kind-flip":
        cell["kind"] = rng.choice(KIND_FLIPS[cell["kind"]])
    else:
        raise ValueError(f"unknown mutation {op!r}")
    return obj


def sigma(obj: dict, alpha: int, orbit: str) -> str:
    """The cell involution of a datum object, computed independently of
    the program."""
    for cell in obj["cells"].get(str(alpha), ()):
        if orbit not in [cell[r] for r in ROLES[cell["kind"]]]:
            continue
        kind = cell["kind"]
        if kind == "U":
            return cell["z"] if orbit == cell["y"] else cell["y"]
        if kind in ("TU", "RT") and orbit in (cell["z1"], cell["z2"]):
            return cell["z2"] if orbit == cell["z1"] else cell["z1"]
        return orbit
    raise KeyError(f"orbit {orbit} is in no cell for alpha {alpha}")


def act_word(obj: dict, rng: random.Random) -> tuple[str, str, str]:
    """A random word of fixed length 5 (so the work does not depend on the
    seed) and start orbit, with the expected image."""
    rank = obj["root_system"]["rank"]
    word = [rng.randint(1, rank) for _ in range(5)]
    start = rng.choice(sorted(o["id"] for o in obj["orbits"]))
    x = start
    for alpha in word:
        x = sigma(obj, alpha, x)
    return ".".join(map(str, word)), start, x


def write_json(path, obj) -> str:
    """Write obj as JSON and return the digest of the bytes written."""
    data = (json.dumps(obj, indent=1, sort_keys=True) + "\n").encode()
    path.write_bytes(data)
    return digest(data)
