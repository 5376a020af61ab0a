"""The figures README.md quotes from the exact oracle are the oracle's."""

from fractions import Fraction
from pathlib import Path

from qdialogue.harness import exact_oracle

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else None]


def test_relation_to_the_paper_quotes_the_exact_oracle():
    rows = {}
    for line in section("Relation to the paper").splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0] in ("original", "modified"):
            protocol, strategy, detection, eve = cells
            rows[protocol, strategy] = (Fraction(detection), None if eve == "n/a" else Fraction(eve))
    assert set(rows) == {(protocol, strategy) for protocol in ("original", "modified")
                         for strategy in ("measure-resend", "bell-substitution")}
    for (protocol, strategy), quoted in rows.items():
        result = exact_oracle(protocol, strategy)
        assert quoted == (result.detection_probability, result.eve_alice_accuracy_exact)
