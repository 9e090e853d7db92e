"""Exception hierarchy shared by the whole package."""


class GrunbaumError(Exception):
    """Base class for all package errors."""


# -- embedding construction ------------------------------------------------

class LoopEdge(GrunbaumError):
    """A vertex lists itself as a neighbour."""


class ParallelEdge(GrunbaumError):
    """A neighbour appears twice in one rotation."""


class AsymmetricAdjacency(GrunbaumError):
    """v appears in u's rotation but u not in v's."""


class Disconnected(GrunbaumError):
    """The underlying graph is not connected."""


class NotSimple(GrunbaumError):
    """A generator produced loops or parallel edges."""


# -- embedding surgery -----------------------------------------------------

class NotACycle(GrunbaumError):
    """A dart sequence does not form a closed cycle."""


class SideNotADisk(GrunbaumError):
    """The requested side of a cycle is not an open disk."""


class FaceNotTriangle(GrunbaumError):
    """Stellation requires a triangular face."""


# -- colorings -------------------------------------------------------------

class NotTriangulation(GrunbaumError):
    """An operation requires every face to be a triangle."""


class ColoringIncomplete(GrunbaumError):
    """A total edge coloring was expected."""


class ImproperVertexColoring(GrunbaumError):
    """Vertex coloring assigns equal colors to adjacent vertices."""


class SeedNotInColors(GrunbaumError):
    """Kempe seed edge is not colored with either chain color."""


class MixedTriple(GrunbaumError):
    """A square carries three distinct colors and has no type."""


class BadParity(GrunbaumError):
    """Cycle color multiplicities violate the parity requirement."""


# -- solving ---------------------------------------------------------------

class BudgetExceeded(GrunbaumError):
    """Node or time budget exhausted before an answer was reached."""


class ChromaticUnknown(BudgetExceeded):
    """Budget exhausted before a chromatic number was settled.

    ``at_least`` is the lower bound proved so far.
    """

    def __init__(self, message: str, at_least: int):
        super().__init__(message)
        self.at_least = at_least


class NotAGridLabeling(GrunbaumError):
    """Edge roles are missing or inconsistent with a grid structure."""


class NotARefinement(GrunbaumError):
    """The target embedding does not refine the host."""


class NoTableEntry(GrunbaumError):
    """No case-table entry matches an observed signature combination."""


class ClassificationAnomaly(GrunbaumError):
    """Zero or several critical patterns matched a six-chromatic graph."""


class VerificationFailed(GrunbaumError):
    """A coloring built by the pipeline failed its final check."""


class UnknownId(GrunbaumError):
    """Requested catalog or figure id does not exist."""
