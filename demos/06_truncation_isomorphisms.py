"""Which truncated tropical semirings are secretly the same?

Every truncation on a rational interval [x, y] is isomorphic to one of four
canonical targets, and the isomorphism is an explicit piecewise linear map
with exact rational coefficients.

Run:  python demos/06_truncation_isomorphisms.py
"""

from fractions import Fraction as F

from bipermute import apply_iso, classify_truncated, element_order, max_element_order, trunc, verify_iso

for x, y in [(0, 7), (2, 4), (2, 5), (3, 7), (1, 3), (2, 6)]:
    cl = classify_truncated(x, y)
    label = cl.canonical if cl.ratio is None else f"T1({cl.ratio})"
    print(f"[{x},{y}] ~ {label}   via {len(cl.map.segments)} linear piece(s)")

# The only case that needs more than a rescaling: 2x < y < 3x maps through
# three pieces onto [1, 5/2].  Watch the interval [3,7] fold:
cl = classify_truncated(3, 7)
for z in (3, 4, 5, 6, 7):
    print(f"  phi({z}) = {apply_iso(cl.map, z)}")
report = verify_iso(cl.map, cl.source, cl.target, seed=1, trials=2000)
print("verified as an isomorphism on 2000 exact pairs:", report.passed)

# The canonical classes are genuinely different, and element orders tell most
# of them apart.  In [0,1] the element 1/n has order n, so orders are unbounded
# (each is the closed form ceil(1/a), so no power is computed):
print()
print("orders of 1/n in [0,1]:", {f"1/{n}": element_order(trunc(0, 1), F(1, n)).order for n in (2, 10, 50, 10**12)})

# In [1,y] the largest order is ceil(y), which separates different ceilings:
print("max element orders:", {str(y): max_element_order(y) for y in (2, F(5, 2), 3, F(7, 2), 4)})

# Classes with the same ceiling, such as [1,5/2] and [1,3], get different
# canonical labels; what separates them is the rigidity of isomorphisms on
# dyadic rationals, an analytic argument that no check here makes.
print("labels of [1,5/2] and [1,3]:", classify_truncated(1, F(5, 2)).canonical_label(),
      classify_truncated(1, 3).canonical_label())
