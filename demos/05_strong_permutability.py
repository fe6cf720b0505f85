"""Constructive strong permutability: quotients and case analysis.

Over a chain, or over the truncation on [1,2], any finite set of values can
be protected by a congruence with few classes.  Mapping a long matrix tuple
through the quotient forces two factors to share an image, and swapping them
provably preserves the product.  Over [1,z] with z > 2 a small case analysis
handles the triangular-pattern subsemigroups directly.

Run:  python demos/05_strong_permutability.py   (about 15 seconds)
"""

from fractions import Fraction as F

from bipermute import (
    Atom,
    apply_perm_product,
    chain,
    chain_congruence,
    check_axioms,
    kerperm_bound,
    kerperm_find_swap,
    seq_product,
    trunc,
    trunc12_congruence,
    verify_congruence,
    xperm_bound,
    xperm_find,
)
from bipermute.quotients import chain_class_bound, trunc12_class_bound
from bipermute.sampling import derive_rng, sample_matrix

# A protecting congruence of a chain: singletons plus the runs between them.
q = chain_congruence(chain(10), [Atom(3), Atom(7)])
print("classes of the chain congruence:", q.classes)
print("lawful quotient:", check_axioms(q.quotient_semiring()).passed)
report = verify_congruence(q)  # exact, on a skeleton: here every atom of the 10-element chain
print(f"congruence verified ({report.mode}):", report.passed)

# The [1,2] truncation admits the same construction because products of
# interval elements all saturate to 2.
q12 = trunc12_congruence([F(3, 2)])
print("\nclasses over [1,2]:", [type(c).__name__ for c in q12.classes])
report = verify_congruence(q12)  # exact on an infinite carrier: class ends and three points per gap
print(f"congruence verified ({report.mode}):", report.passed)

# The pigeonhole finder at work on a full-scale tuple over a 40-chain:
rng = derive_rng(2024, "strong-demo")
desc = chain(40)
length = kerperm_bound(chain_class_bound(2), 2)
print(f"\ndrawing {length} random 2x2 matrices over a 40-element chain...")
seq = [sample_matrix(desc, 2, rng) for _ in range(length)]
w = kerperm_find_swap(seq)
print("found swap at positions:", [i for i, v in enumerate(w.perm) if v != i])
print("swapped product equals the original:",
      apply_perm_product(seq, w.perm) == seq_product(seq))

t12 = trunc(1, 2)
length = kerperm_bound(trunc12_class_bound(2), 2)
print(f"\nsame over the [1,2] truncation at length {length}...")
seq = [sample_matrix(t12, 2, rng) for _ in range(length)]
w = kerperm_find_swap(seq)
print("swap positions:", [i for i, v in enumerate(w.perm) if v != i], "verified:",
      apply_perm_product(seq, w.perm) == seq_product(seq))

# The triangular patterns over [1,3] permute already at length 2*ceil(z)+5:
z = 3
desc = trunc(1, z)
k = xperm_bound(z)
print(f"\ntriangular pattern over [1,{z}], k={k}:")
from bipermute.matrices import FULL, Matrix
from bipermute.sampling import sample_scalar
from bipermute.scalars import NEG_INF

for trial in range(3):
    seq = [Matrix.make(desc, FULL, [[0, sample_scalar(desc, rng)], [NEG_INF, sample_scalar(desc, rng)]])
           for _ in range(k)]
    w = xperm_find(seq)
    print(f"  trial {trial}: case {w.strategy!r} swaps {[i for i, v in enumerate(w.perm) if v != i]}")
