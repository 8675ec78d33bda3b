"""Every numerical threshold that decides a verdict, a branch, a kept row or an error.

The sentence above each entry says what it guards; two entries with equal
values stay apart when they guard different comparisons.  The values are
absolute, in the units of the quantity compared.  Budgets (node, neuron and
iteration caps) are not tolerances and stay with the code they bound.  This
module imports nothing from certnn.
"""

# HiGHS's primal and dual feasibility tolerance, which every LP runs with: the
# slack of polytope.contains_set, and ten times it is the least rise
# above a row that lets the ray facet proof of polytope._ray_facets (one ray per
# row, at the inner ellipsoid's support point) keep the row without an LP.
LP_FEAS_TOL = 1e-7

# A bound at most g_i + CONTAIN_TOL lies within facet i of U, X_in, X or R_as
# in every containment check of verify, whose one rule verify._cutoffs holds;
# its other use pads the state rows X_1_out + CONTAIN_TOL of the reach search.
# It is below LP_FEAS_TOL, so an LP answer off by its tolerance can still pass.
CONTAIN_TOL = 1e-9

# verify_stability takes the sup-norm of the equilibrium-region bias, and of
# the gap between the equilibrium gain and -K_ref, as zero up to RESIDUAL_TOL.
RESIDUAL_TOL = 1e-6

# The slack of Polytope.contains_point, which decides whether R_as holds the
# origin (else the stability set is empty) and which rollout seeds lie in X_in.
POINT_TOL = 1e-9

# Branch and bound counts a binary within INTEGRALITY_TOL of 0 or 1 as integral
# and stops branching at a node whose binaries all are.
INTEGRALITY_TOL = 1e-6

# A row whose maximum over the other rows is at most its offset plus
# REDUNDANCY_TOL is redundant: remove_redundant drops it, and
# max_positively_invariant takes it as no cut.  In the point cut test of
# polytope._point_cuts, a point of the set that exceeds a row's offset by more
# than REDUNDANCY_TOL proves the row to cut without an LP.
REDUNDANCY_TOL = 1e-9

# polytope._slab_bounds bounds a symmetric set by the slabs of the n rows that a
# pivoted QR of its scaled rows picks only while the last diagonal entry of
# that QR exceeds SLAB_RANK_TOL times the first: below it the picked rows are
# near dependent, as when the set holds a line, and the bounds would be huge
# or lost to rounding.
SLAB_RANK_TOL = 1e-6

# control.lqr rejects Q as not positive semidefinite when its least eigenvalue
# is below -PSD_TOL.
PSD_TOL = 1e-10

# network.retrofit_lqr raises RankDeficient when the residual of its equality
# constraints exceeds RETROFIT_TOL * (1 + max |K|).
RETROFIT_TOL = 1e-8
