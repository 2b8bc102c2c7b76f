import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block after a README heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_states_what_it_computes():
    # Run the tour, then evaluate every line whose comment starts with a
    # number and compare it with that number.
    block = _python_block("## Library tour")
    namespace: dict = {}
    exec(block, namespace)
    stated = {}
    for line in block.splitlines():
        match = re.match(r"(\S.*?)\s+#\s*(-?\d+(?:\.\d+)?)\b", line)
        if match:
            stated[match[1]] = eval(match[1], namespace), float(match[2])
    assert set(stated) == {"result.cost", "result.gap", "w1_dual_value(p, q, result.dual)"}
    for expression, (value, number) in stated.items():
        assert value == number, expression
