"""Volume lower bounds for links via replicant tangle decompositions.

The pieces fit together like this: ``words`` reduces cyclic words to exact
rational combinations of constant words, ``pieces`` builds and compares the
gluing complexes that replicate tangles, ``bounds`` holds the volume
database and turns certified decompositions into numeric lower bounds,
``arborescent`` classifies arborescent tangles by the replicant sizes that
make them hyperbolic, ``graphs`` validates reflection graphs and traces
faces of embedded graphs, and ``cli`` wires it all to a command line.

What more than one layer reads lives here, so that importing one layer
does not import another only for a name: the tangle families and ambient
manifolds of the volume table, and the base classes the command line
maps to exit codes: ``LimitExceeded`` (2), ``Uncertified`` (3) and
``InvariantViolation`` (4).
"""

__version__ = "0.1.0"

FAMILIES = ("rational-square", "integer-cylindrical", "reciprocal-saucer")
AMBIENTS = ("TxI", "SolidTorus", "S3", "S2xS1")


class InvariantViolation(AssertionError):
    """A library self-check failed: a bug in repvol, not bad input.

    Raised explicitly rather than through ``assert``, so ``python -O``
    keeps the checks; the CLI reports it with exit code 4.
    """


class LimitExceeded(RuntimeError):
    """A proven work bound or a size limit was reached.

    The base of ``words.NonTermination``, ``graphs.GroupTooLarge`` and
    ``pieces.SizeExceeded``; the CLI reports it with exit code 2.
    """


class Uncertified(ValueError):
    """A piece could not be certified hyperbolic, so no bound is given.

    The base of ``bounds.UncertifiedTangle``; the CLI reports it with exit
    code 3.
    """
