"""Tour of the closure families: moments, metrics, flatness, and the
equation of state.

Prints the first few closure polynomials of every family in normal
variables, shows the metric signature, runs the exact identity check
that certifies each bracket is of constant-metric form, and closes a
two-stream moment hierarchy from its observed moments.
"""

from fractions import Fraction

from hydroclosures import (BurbyClosure, FourFieldClosure, GenericClosure,
                           MultiDeltaClosure, WaterbagClosure, check_flatness,
                           equation_of_state)

F = Fraction

families = [
    MultiDeltaClosure(2),
    WaterbagClosure([F(1), F(1), F(-2)]),
    BurbyClosure(3),
    FourFieldClosure(F(1, 2)),
]

for c in families:
    print(f"=== {c.name} (N = {c.N}, signature {c.metric.signature}) ===")
    for n in range(1, min(2 * c.nu_count + 2, 6)):
        print(f"  mu_{n} = {c.mu(n).to_text(c.nu_names)}")
    report = check_flatness(c)
    print(f"  flatness: {len(report.checks)} identities, "
          f"{'all hold' if report.ok else 'FAILED'}")
    print()

# The whole hierarchy is generated by the single cubic mu_2: seeding the
# recurrence with (mu_2, g) of any family reproduces its moment sequence.
c = BurbyClosure(3)
gen = GenericClosure(c.mu(2), c.metric)
print("mu_2 generator check (level-3 family):",
      all(gen.mu(n) == c.mu(n) for n in range(1, 6)))

# The equation of state: the observed mu_1, mu_2 of two streams, here at
# (xi2, eta2) = (0.4, 0.9), fix the closed moments mu_3..mu_5.
closed = equation_of_state(MultiDeltaClosure(2), [0.36, 0.324])
print("two-stream closure, mu_3..mu_5 =", [round(v, 12) for v in closed])
