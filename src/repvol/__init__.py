"""Volume lower bounds for links via replicant tangle decompositions.

The pieces fit together like this: ``words`` reduces cyclic words to exact
rational combinations of constant words, ``pieces`` builds and compares the
gluing complexes that replicate tangles, ``bounds`` holds the volume
database and turns certified decompositions into numeric lower bounds,
``arborescent`` classifies arborescent tangles by the replicant sizes that
make them hyperbolic, ``graphs`` validates reflection graphs and traces
faces of embedded graphs, and ``cli`` wires it all to a command line.
"""

__version__ = "0.1.0"


class InvariantViolation(AssertionError):
    """A library self-check failed: a bug in repvol, not bad input.

    Raised explicitly rather than through ``assert``, so ``python -O``
    keeps the checks; the CLI reports it with exit code 4.
    """
