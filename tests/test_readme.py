"""The README's statement table lists the catalog as ``catalog()`` gives it."""

from pathlib import Path

from opmeanlab.statements import catalog

README = Path(__file__).resolve().parent.parent / "README.md"
HEADER = "| id | statement | multi | unital | hypotheses (label of a violation) |"


def _cells(row: str) -> list:
    """The cells of a markdown table row, with ``\\|`` unescaped."""
    cells = row.strip().removeprefix("|").removesuffix("|").replace("\\|", "\0").split("|")
    return [cell.strip().replace("\0", "|") for cell in cells]


def _statement_rows() -> list:
    lines = README.read_text().splitlines()
    start = lines.index(HEADER) + 2  # past the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(_cells(line))
    return rows


def test_table_matches_catalog():
    expected = [
        [
            f"`{info.statement_id}`",
            info.summary,
            "yes" if info.multi else "",
            ", ".join(f"`{role}`" for role in info.unital),
            "; ".join(label for label, _ in info.hypotheses),
        ]
        for info in catalog()
    ]
    assert _statement_rows() == expected
