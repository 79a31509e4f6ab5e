"""The computed cells of the fast reference tables, pinned as ``gfgm reproduce`` prints them.

``data/reference_computed.csv`` holds the ``computed`` column of
``gfgm reproduce <table> --out`` for every table except ``var-bounds-d100``
(slow; its cells are pinned by acceptance criterion 7).  A refactor of the
aggregation stack must leave every one of these strings unchanged.
"""

import csv
from pathlib import Path

from gfgm import reference

CELLS = Path(__file__).parent / "data" / "reference_computed.csv"


def test_computed_cells_unchanged():
    with open(CELLS, newline="") as fh:
        pinned = [(row["table"], row["cell"], row["computed"]) for row in csv.DictReader(fh)]
    tables = dict.fromkeys(table for table, _, _ in pinned)
    got = [
        (table, cell.key, f"{cell.computed:.10g}")
        for table in tables
        for cell in reference.diff_table(table).cells
    ]
    assert len(pinned) == 152
    assert got == pinned
