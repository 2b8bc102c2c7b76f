"""Default comparison tolerances, threaded through every numeric check.

Exact-arithmetic code paths (rational weights, integer-scaled flow) do not
consume these; they exist for float inputs and solver round-off.
"""

TAU_METRIC = 1e-9
TAU_WEIGHT = 1e-9
TAU_SOLVER = 1e-8

# Ceiling for checks whose exact-arithmetic path should land on literal zero;
# float-valued variants of the same checks must stay under this.
EXACT_TOL = 1e-12

# Cap on distance-table entries (carrier size squared) for product spaces.
MAX_TABLE_ENTRIES = 1_000_000

# Work budget of the exact transport engine: support pairs m * n per solve.
MAX_SUPPORT_PAIRS = 32_768

# Common multiset sizes: the largest that ``auto`` sends to the assignment
# route, the cap of that route, and the cap of the D! brute-force oracle.
AUTO_ASSIGNMENT_SIZE = 256
MAX_ASSIGNMENT_SIZE = 2048
MAX_BRUTE_SIZE = 8

# Largest sample a single draw may ask for (``sample --size``, study sizes),
# and the most entries ``repeat_embedding`` and ``multiset_from_measure`` build.
MAX_SAMPLE_SIZE = 1_000_000

# Budgets of the randomized checks: trials of one check (the law suite takes
# about 9 ms a trial), the dimension of a convex algebra (a dim x dim matrix
# a trial: 512 KiB, about 5 ms at the cap), and the points of a random space
# (the 17 integer points of [-8, 8] that its grids draw from).
MAX_TRIALS = 10_000
MAX_ALGEBRA_DIM = 256
MAX_RANDOM_POINTS = 17
