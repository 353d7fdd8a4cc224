"""Walk through the invariants of three forms cutting out a finite scheme.

Run:  python3 demos/walkthrough_qci.py
"""

from qci import PrimeField, QciInput, analyze_qci, parse_poly, verify_resolution

F = PrimeField(32003)


def show(label, fa, fb, fc):
    Q = QciInput.of(parse_poly(fa, F), parse_poly(fb, F), parse_poly(fc, F))
    rep = analyze_qci(Q)
    print(f"== {label}: ({fa}, {fb}, {fc})")
    if rep.refusal:
        print("   refused:", rep.refusal)
        print()
        return None, None
    print(f"   degrees {rep.degrees}  t = {rep.t}  r = {rep.r}  gamma = {rep.gamma}")
    print(f"   c2 at r = {rep.c2_at_r}  splits = {rep.splits}")
    b = rep.bounds_i
    print(f"   bounds: {b.lower} <= t <= {b.upper}  "
          f"(lower {'ok' if b.lower_ok else 'VIOLATED'}, "
          f"upper {'ok' if b.upper_ok else 'VIOLATED'})")
    if rep.bounds_ii.applicable:
        print(f"   sharpened upper bound: t <= {rep.bounds_ii.bound}")
    cls = rep.classification
    print(f"   class: {cls.tag}" + (f" (case {cls.case})" if cls.case else ""))
    if cls.resolution:
        u, v = cls.resolution
        print(f"   resolution shifts: u = {list(u)}, v = {list(v)}  "
              f"verified = {rep.resolution_verified}")
    print()
    return Q, cls


# one reduced point, the smallest scheme there is
Q, cls = show("a single point", "x", "y^2", "y*z")

# the predicted resolution is checked against the computed saturation;
# a perturbed candidate must fail the same check
print("negative control on the resolution verifier:")
print("   predicted", cls.resolution, "->", verify_resolution(Q, cls.resolution))
wrong = ((2, 2, 3), cls.resolution[1])
print("   perturbed", wrong, "->", verify_resolution(Q, wrong))
print()

# the three coordinate points, cut out by the partials of xyz
Q, cls = show("coordinate triangle", "y*z", "x*z", "x*y")

# a false resolution with the right Euler characteristic, which agrees
# with the saturation from k*-1 on; the check reads every degree from 0,
# and in degree 1 it predicts a linear form through the three points
print("negative control on the coordinate triangle:")
print("   predicted", cls.resolution, "->", verify_resolution(Q, cls.resolution))
false = ((4,), (1, 3))
print("   false    ", false, "->", verify_resolution(Q, false))
print()

# a triple whose third form lies in the ideal of the first two
show("complete intersection", "x^2 + y*z", "x^3 + x*y*z", "x^3 + y^3 + z^3")

# degenerate inputs are refused, not mangled
show("no common zero", "x", "y", "z")
show("common line", "x*z", "y*z", "x*z + y*z")
