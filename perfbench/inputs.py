"""Seeded benchmark inputs: letter-permuted golden-mean families.

The four base families are built here, independently of the package:
``g1`` (golden mean, rank 1), ``g3`` (g1 x g1, rank 2), ``t3`` (g3 x g1,
rank 3, 8 letters) and ``t4`` (g3 x g3, rank 4, 16 letters).  Each is
relabelled by a permutation drawn from the workload seed, applied to the
rows and columns of every matrix at once.  A simultaneous relabelling
keeps validity, every count and every spectral quantity, so the reference
values in ``references.json`` hold for every seed, while the enumeration
order and the bytes of every output change with the seed.
"""

import json
import random

GOLDEN = ((1, 1), (1, 0))

# Vertex potential on g1, by base letter; permuted along with g1.
G1_POTENTIAL = {"0": 0.5, "1": -0.25}


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _kron(a, b):
    nb = len(b)
    dim = len(a) * nb
    return [[a[i // nb][j // nb] * b[i % nb][j % nb] for j in range(dim)]
            for i in range(dim)]


def _tensor(fa, fb):
    """Directions of fa act on the first letter component, those of fb on
    the second; letters are joined with a dot."""
    ia, ib = _identity(len(fa["alphabet"])), _identity(len(fb["alphabet"]))
    return {
        "rank": fa["rank"] + fb["rank"],
        "alphabet": [f"{a}.{b}" for a in fa["alphabet"] for b in fb["alphabet"]],
        "matrices": [_kron(m, ib) for m in fa["matrices"]]
                    + [_kron(ia, m) for m in fb["matrices"]],
    }


def base_families():
    g1 = {"rank": 1, "alphabet": ["0", "1"],
          "matrices": [[list(row) for row in GOLDEN]]}
    g3 = _tensor(g1, g1)
    return {"g1": g1, "g3": g3, "t3": _tensor(g3, g1), "t4": _tensor(g3, g3)}


def permute(family, perm):
    """Relabel so that new letter i is old letter perm[i]."""
    return {
        "rank": family["rank"],
        "alphabet": [family["alphabet"][p] for p in perm],
        "matrices": [[[m[a][b] for b in perm] for a in perm]
                     for m in family["matrices"]],
    }


def generate(seed):
    """Permuted families and the g1 vertex potential for one workload seed.

    Returns (families, potential) as JSON-ready dicts.  Each family draws
    its permutation from its own stream, so adding a family later leaves
    the others unchanged.
    """
    families = {}
    perms = {}
    for name, fam in base_families().items():
        perm = list(range(len(fam["alphabet"])))
        random.Random(f"rankshift-bench:{seed}:{name}").shuffle(perm)
        families[name] = permute(fam, perm)
        perms[name] = perm
    g1 = families["g1"]
    potential = {
        "window": [0],
        "default": 0.0,
        "entries": [
            {"word": {"shape": [0], "labels": [i]},
             "value": G1_POTENTIAL[letter]}
            for i, letter in enumerate(g1["alphabet"])
        ],
    }
    return families, potential


def write_inputs(seed, directory):
    """Write every family and the potential as JSON files; returns a map
    from input name to path."""
    families, potential = generate(seed)
    paths = {}
    for name, data in [*families.items(), ("pot", potential)]:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths
