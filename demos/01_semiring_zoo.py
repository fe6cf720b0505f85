"""A tour of the bipotent semiring families and their exact arithmetic.

Run:  python demos/01_semiring_zoo.py
"""

from fractions import Fraction as F

from bipermute import (
    Atom,
    NEG_INF,
    boolean,
    chain,
    check_axioms,
    classify_monogenic,
    element_order,
    nat_max,
    noidentity_obstruction,
    noidentity_semiring,
    srk_add,
    srk_mul,
    tropical,
    trunc,
    trunc_nat,
    trunc_neg_nat,
)

# Every semiring here has "max of a total order" as its addition, so a + b is
# always one of its arguments.  Multiplication varies by family.
t = tropical()
print("tropical:  3 + 5 =", srk_add(t, 3, 5), "   3 * 5 =", srk_mul(t, 3, 5))
print("tropical:  -inf absorbs:", srk_mul(t, NEG_INF, 100))

t13 = trunc(1, 3)
print("\ntruncated [1,3]:  3/2 * 2 =", srk_mul(t13, F(3, 2), 2), "(sums clip at 3)")
print("truncated [1,3]:  0 is the identity:", srk_mul(t13, 0, F(5, 2)))
print("order of the carrier: -inf < 0 < 1 <= ... <= 3;  0 <= 1 as 0 + 1 = 1:", srk_add(t13, 0, 1) == 1)

tn4 = trunc_neg_nat(4)
print("\nnegative naturals truncated at -4:  -3 * -2 =", srk_mul(tn4, -3, -2))

ch = chain(5)
print("chain of 5:  max/min of atoms:", srk_add(ch, Atom(1), Atom(3)), srk_mul(ch, Atom(1), Atom(3)))

# Multiplicative order = number of distinct powers.  Powers are monotone, so
# a finite order stabilizes (period one) and has a closed form, ceil(y/a) in
# a truncation at y; the unbounded families certify infinitude.
print("\norders:")
print("  1 in [1, 5/2]:", element_order(trunc(1, F(5, 2)), 1))   # 1, 2, 5/2
print("  1/4 in [0, 1]:", element_order(trunc(0, 1), F(1, 4)))   # 1/4, 1/2, 3/4, 1
print("  1 in {1..10^12}:", element_order(trunc_nat(10**12), 1))  # no power is computed
print("  2 in naturals:", element_order(nat_max(), 2))

# Every subsemiring generated by one element is one of four shapes.
print("\nmonogenic classes:")
for desc, a, label in [
    (tropical(), 1, "1 in the tropicals"),
    (tropical(), -1, "-1 in the tropicals"),
    (trunc(1, 3), 1, "1 in [1,3]"),
    (trunc_neg_nat(5), -2, "-2 in the truncated negatives"),
    (boolean(), Atom(1), "true in the booleans"),
]:
    print(f"  {label}: {classify_monogenic(desc, a)}")

# The semiring laws are checked on every case of a carrier of at most 64
# elements, and on seeded draws otherwise; the report says which.
print("\naxioms:")
for desc, label in [(boolean(), "boolean"), (trunc(1, 2), "[1,2]")]:
    report = check_axioms(desc, seed=1, trials=2000)
    print(f"  {label}, {report.mode}:", report.passed)

# A zero can always be adjoined to a commutative bipotent semiring, but an
# identity cannot: the 3-element semiring below embeds in no bipotent
# semiring with identity, whichever place in the order the identity takes.
# Each placement gives a 4-element table, and the law checker finds the law
# it breaks; dist_left at (x, y, z) means x*(y+z) != x*y + x*z.
print("\nthe 3-element obstruction (a <= b <= c, mixed products are b):")
print("  lawful:", check_axioms(noidentity_semiring()).passed)
for placement, failed in noidentity_obstruction().placements:
    print(f"  placing {placement}: {failed.name} fails at ({', '.join(failed.counterexample)})")
