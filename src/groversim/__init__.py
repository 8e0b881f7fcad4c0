"""State-vector simulator, analytics and verification suite for Grover search.

The public API is the modules (``groversim.grover``, ``groversim.states``, ...);
the package itself re-exports nothing.
"""

__version__ = "0.1.0"
