"""Sparsity-pattern definitions.

The paper compares five weight-sparsity patterns (Figure 3 plus the balanced
pattern of Section 2.2); :class:`PatternKind` enumerates them.  Membership of
the paper's own pattern is checked by :func:`repro.sparse.validate.is_shflbw`:
*a matrix is Shfl-BW sparse iff some row permutation groups its rows into
groups of ``V`` rows with identical column support.*
"""

from __future__ import annotations

import enum

__all__ = ["PatternKind"]


class PatternKind(str, enum.Enum):
    """The weight-sparsity patterns discussed in the paper."""

    DENSE = "dense"
    UNSTRUCTURED = "unstructured"
    BLOCKWISE = "blockwise"
    VECTORWISE = "vectorwise"
    SHFLBW = "shflbw"
    BALANCED = "balanced"

    @property
    def uses_tensor_core(self) -> bool:
        """Whether kernels for this pattern can map onto tensor cores."""
        return self in (
            PatternKind.DENSE,
            PatternKind.BLOCKWISE,
            PatternKind.VECTORWISE,
            PatternKind.SHFLBW,
            PatternKind.BALANCED,
        )

    @property
    def needs_block_size(self) -> bool:
        """Whether the pattern is parameterised by a block / vector size V."""
        return self in (PatternKind.BLOCKWISE, PatternKind.VECTORWISE, PatternKind.SHFLBW)

    @classmethod
    def parse(cls, name: str) -> "PatternKind":
        """Parse a user-facing pattern name (tolerant of hyphens / case).

        Punctuation that commonly appears in pattern spellings is stripped,
        so ``"2:4"``, ``"2-in-4"`` and ``"Shfl-BW"`` all resolve.
        """
        key = (
            name.strip()
            .lower()
            .replace("-", "")
            .replace("_", "")
            .replace(" ", "")
            .replace(":", "")
        )
        aliases = {
            "dense": cls.DENSE,
            "unstructured": cls.UNSTRUCTURED,
            "random": cls.UNSTRUCTURED,
            "blockwise": cls.BLOCKWISE,
            "bw": cls.BLOCKWISE,
            "vectorwise": cls.VECTORWISE,
            "vw": cls.VECTORWISE,
            "shflbw": cls.SHFLBW,
            "shuffledblockwise": cls.SHFLBW,
            "balanced": cls.BALANCED,
            "2in4": cls.BALANCED,
            "24": cls.BALANCED,
        }
        if key not in aliases:
            raise ValueError(f"unknown sparsity pattern {name!r}")
        return aliases[key]
