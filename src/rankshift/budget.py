"""Work guards.

Enumeration and exact arithmetic can blow up combinatorially, so every
operation that walks a word list or builds huge integers takes an optional
Budget and fails fast with a BudgetExceeded error carrying an estimate of
the work it refused to do.

A Budget is a NamedTuple: it hashes in C, and the sweep tables key their
plans by it.
"""

from typing import NamedTuple


class Budget(NamedTuple):
    # volume(box) * log2(alphabet size): bits needed to index raw labelings
    max_enum_bits: float = 256.0
    # predicted word count * box volume: touched lattice points during a sweep
    max_enum_nodes: int = 10_000_000
    # decimal digits allowed for entries of exact matrix power products
    max_exact_digits: int = 1_000_000


DEFAULT = Budget()
