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
manifolds of the volume table; ``COPY_LIMIT``, the most copies a lattice,
replicant or reflection group may hold; ``JSON_LAYOUT``, how every JSON
document is laid out; ``shape_refusal``, the shape rules of bracelets,
lattices and cylinder stacks; and the base classes the command line maps
to exit codes: ``LimitExceeded`` (2), ``Uncertified`` (3) and
``InvariantViolation`` (4).  No layer imports another at module
level, so a process compiles only the layers its command runs.
"""

__version__ = "0.1.0"

FAMILIES = ("rational-square", "integer-cylindrical", "reciprocal-saucer")
AMBIENTS = ("TxI", "SolidTorus", "S3", "S2xS1")

# Most copies a lattice, replicant or reflection group may hold.  Each
# check reads it here when it runs, so one patch reaches all three.
COPY_LIMIT = 10 ** 6

# The json.JSONEncoder keywords of every document repvol writes, so that
# repeated runs are byte-identical.
JSON_LAYOUT = {"indent": 2, "sort_keys": True}


def shape_refusal(arrangement, count, rows=0, cols=0):
    """Why a bracelet, lattice or cylinder stack of this size cannot
    close up, or None.

    ``pieces`` raises the message as ``OddLength``, ``OddDimension`` or
    ``PieceError``, and ``bounds.parse_link_spec`` as
    ``ArrangementInvalid``.
    """
    if arrangement == "bracelet" and (count < 2 or count % 2):
        return ("a bracelet needs an even number of tangles, at least two, "
                "got %d" % count)
    if arrangement == "lattice" and (rows < 2 or cols < 2 or rows % 2
                                     or cols % 2):
        return ("lattice dimensions must be even and at least 2 x 2, got "
                "%d x %d" % (rows, cols))
    if arrangement == "cylinder-stack" and not count:
        return "a cylinder stack needs at least one tangle"
    return None


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
