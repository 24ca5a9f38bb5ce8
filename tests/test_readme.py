"""The README's library claims: its Python examples run, its re-exports exist."""

import inspect
import re
from pathlib import Path

import pytest

import waveparticle
from waveparticle import channels, experiments, measures, nonlocality, states

README = Path(__file__).resolve().parents[1] / "README.md"
LIBRARY_LAYERS = (states, channels, measures, nonlocality, experiments)


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks, "README has no python block"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


@pytest.mark.parametrize("module", LIBRARY_LAYERS, ids=lambda m: m.__name__)
def test_library_layer_is_re_exported(module):
    public = [name for name, obj in vars(module).items()
              if not name.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__]
    assert public
    for name in public:
        assert name in waveparticle.__all__, name
        assert getattr(waveparticle, name) is getattr(module, name)
