"""The library surface that the benchmark's worker and traced replay call.

Both reach kgalign through a module object named ``kg`` and read a
PipelineConfig named ``cfg``. A library change that drops or renames what they
use would otherwise show only when the benchmark runs.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import kgalign
from kgalign import PipelineConfig

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def dotted(node) -> str | None:
    """``kg.matio.save_json`` for an attribute chain on a name, with a leading
    ``self.`` dropped; None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts = [node.id, *reversed(parts)]
    return ".".join(parts[1:] if parts[0] == "self" else parts)


@pytest.mark.parametrize("name", ["replay.py", "worker.py"])
def test_benchmark_uses_existing_names_and_keywords(name):
    tree = ast.parse((BENCH / name).read_text(encoding="utf-8"))
    config_names = {f.name for f in dataclasses.fields(PipelineConfig)} | set(dir(PipelineConfig))
    missing = []
    for node in ast.walk(tree):
        chain = dotted(node.func if isinstance(node, ast.Call) else node)
        if chain is None or "." not in chain:
            continue
        base, attr, *_ = chain.split(".")
        if base == "cfg" and attr not in config_names:
            missing.append(chain)
        if base != "kg":
            continue
        obj = kgalign
        for part in chain.split(".")[1:]:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(chain)
        elif isinstance(node, ast.Call):
            params = inspect.signature(obj).parameters
            if all(p.kind != p.VAR_KEYWORD for p in params.values()):
                missing += [f"{chain}({kw.arg}=)" for kw in node.keywords
                            if kw.arg is not None and kw.arg not in params]
    assert missing == []
