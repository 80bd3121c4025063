"""The README's Python blocks run as written, in order, in one namespace."""
import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) >= 3
    namespace = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    # the quickstart's tyler-kronpca call starts from a chen_tyler that needs more than 500 steps
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1 and "chen_tyler did not converge" in messages[0], messages
