"""Every numerical threshold that decides a verdict, a branch, a kept row or an error.

The sentence above each entry says what it guards; two entries with equal
values stay apart when they guard different comparisons.  The values are
absolute, in the units of the quantity compared.  Budgets (node, neuron and
iteration caps) are not tolerances and stay with the code they bound.  This
module imports nothing from certnn.
"""

# HiGHS's primal and dual feasibility tolerance, which every LP runs with: the
# default slack of polytope.contains_set, and ten times it is the least rise
# above a row that lets the ray facet proof of polytope._ray_facets (rays along
# the row normals and at the inner ellipsoid's support points) keep the row
# without an LP.
LP_FEAS_TOL = 1e-7

# A proven upper bound at most g_i + CONTAIN_TOL lies within facet i of U, X_in
# or R_as in every containment check of verify; it is below LP_FEAS_TOL, so an
# LP answer off by its tolerance can still pass a facet.
CONTAIN_TOL = 1e-9

# verify_stability takes the sup-norm of the equilibrium-region bias, and of
# the gap between the equilibrium gain and -K_ref, as zero up to RESIDUAL_TOL.
RESIDUAL_TOL = 1e-6

# The default slack of Polytope.contains_point, which decides whether R_as holds
# the origin or the stability set is empty.
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

# control.lqr rejects Q as not positive semidefinite when its least eigenvalue
# is below -PSD_TOL.
PSD_TOL = 1e-10

# network.retrofit_lqr raises RankDeficient when the residual of its equality
# constraints exceeds RETROFIT_TOL * (1 + max |K|).
RETROFIT_TOL = 1e-8

# vertices_2d takes two facet lines whose 2x2 determinant is below PARALLEL_TOL
# in absolute value as parallel and does not intersect them.
PARALLEL_TOL = 1e-12

# vertices_2d keeps an intersection of two facet lines as a vertex when it
# violates no row of the polytope by more than VERTEX_TOL.
VERTEX_TOL = 1e-7

# vertices_2d merges two vertices closer than DUPLICATE_VERTEX_TOL in the
# Euclidean norm into one.
DUPLICATE_VERTEX_TOL = 1e-8
