"""Solver for the 2D anisotropic edge-plasma potential model.

Two discretizations of one nonlinear evolution problem: a coupled
micro-macro scheme in (phi, q) that stays well-posed as the parallel
resistivity eta tends to zero, and the single-field scheme that carries
1/eta, with verification studies as library drivers and a command line tool.

Each name is imported from its module; the package root defines only
``__version__``.  ``geometry``: configs and the grid; ``stencils``: the
difference stencils; ``assembly``: system matrices and right-hand sides;
``linsolve``: LU factorization and condition estimates; ``timeloop``: state
and stepping; ``manufactured``: exact solutions; ``verification``: norms and
studies; ``cli``: the command line tool; ``errors``: the exceptions.
"""

__version__ = "0.1.0"
