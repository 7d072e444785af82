"""Tests for the pattern definitions."""

import pytest

from repro.core.pattern import PatternKind


class TestPatternKind:
    def test_parse_aliases(self):
        assert PatternKind.parse("Shfl-BW") is PatternKind.SHFLBW
        assert PatternKind.parse("bw") is PatternKind.BLOCKWISE
        assert PatternKind.parse("VW") is PatternKind.VECTORWISE
        assert PatternKind.parse("2in4") is PatternKind.BALANCED
        assert PatternKind.parse("random") is PatternKind.UNSTRUCTURED

    @pytest.mark.parametrize(
        ("spelling", "expected"),
        [
            # Every documented spelling of every pattern, with the
            # punctuation variants users actually type.  "2:4" used to raise
            # because the alias normalisation did not strip colons.
            ("dense", PatternKind.DENSE),
            ("unstructured", PatternKind.UNSTRUCTURED),
            ("Random", PatternKind.UNSTRUCTURED),
            ("block-wise", PatternKind.BLOCKWISE),
            ("block_wise", PatternKind.BLOCKWISE),
            ("BW", PatternKind.BLOCKWISE),
            ("vector wise", PatternKind.VECTORWISE),
            ("vw", PatternKind.VECTORWISE),
            ("shfl-bw", PatternKind.SHFLBW),
            ("Shuffled Block-Wise", PatternKind.SHFLBW),
            ("balanced", PatternKind.BALANCED),
            ("2:4", PatternKind.BALANCED),
            ("2in4", PatternKind.BALANCED),
            ("2-in-4", PatternKind.BALANCED),
            ("2 in 4", PatternKind.BALANCED),
            ("24", PatternKind.BALANCED),
        ],
    )
    def test_parse_all_alias_spellings(self, spelling, expected):
        assert PatternKind.parse(spelling) is expected

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            PatternKind.parse("diagonal")
