"""The in-process rows of ``bench/record.py``: each row's setup runs and its
timed expression compiles, and every name the expression reads is bound by
the setup, so a row that imports a moved or renamed helper fails here, not
at the next recording."""

import ast
import builtins
import importlib.util
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parents[1] / "bench" / "record.py"
_spec = importlib.util.spec_from_file_location("bench_record", RECORD)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


@pytest.mark.parametrize("name", record.CALLS)
def test_each_row_sets_up_and_compiles(name):
    setup, call = record.CALLS[name]
    compile(record._TIMER.format(setup=setup, call=call), name, "exec")
    namespace = {}
    exec(setup, namespace)
    nodes = list(ast.walk(ast.parse(call)))
    bound = {node.id for node in nodes if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
    read = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(read - bound - namespace.keys() - vars(builtins).keys()) == []
