"""Canonical example families used in docs and tests."""

from .matrices import Alphabet, MatrixFamily, matrix_identity


def golden_mean():
    """Rank 1, two letters, transitions [[1,1],[1,0]]: no letter 1 twice
    in a row.  Entropy log((1+sqrt 5)/2)."""
    return MatrixFamily(
        rank=1,
        alphabet=Alphabet(("0", "1")),
        matrices=(((1, 1), (1, 0)),),
    )


def full_shift(n=2):
    """Rank 1 full shift on n letters: every transition allowed."""
    ones = ((1,) * n,) * n
    return MatrixFamily(rank=1, alphabet=Alphabet(range(n)), matrices=(ones,))


def identity_family(letters=3, rank=2):
    """rank commuting copies of the identity: every word is constant."""
    ident = matrix_identity(letters)
    return MatrixFamily(
        rank=rank,
        alphabet=Alphabet(range(letters)),
        matrices=tuple(ident for _ in range(rank)),
    )


def tensor_product(fam_a, fam_b, sep="."):
    """Tensor of two families: letters are pairs, directions of fam_a act on
    the first component, directions of fam_b on the second.  The resulting
    rank is rank_a + rank_b and entropies add."""
    na, nb = len(fam_a.alphabet), len(fam_b.alphabet)
    alphabet = Alphabet(
        f"{a}{sep}{b}" for a in fam_a.alphabet for b in fam_b.alphabet)

    def kron(m, n):
        dim_m, dim_n = len(m), len(n)
        return tuple(
            tuple(
                m[i // dim_n][j // dim_n] * n[i % dim_n][j % dim_n]
                for j in range(dim_m * dim_n)
            )
            for i in range(dim_m * dim_n)
        )

    ia, ib = matrix_identity(na), matrix_identity(nb)
    mats = tuple(kron(m, ib) for m in fam_a.matrices) + tuple(
        kron(ia, m) for m in fam_b.matrices
    )
    return MatrixFamily(
        rank=fam_a.rank + fam_b.rank, alphabet=alphabet, matrices=mats
    )


def tensor_golden():
    """Rank 2 tensor of two golden mean shifts: four letters, entropy of the
    diagonal direction is 2 log((1+sqrt 5)/2)."""
    return tensor_product(golden_mean(), golden_mean())
