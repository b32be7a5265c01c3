import ast
import io
import os
import pathlib
import re
import subprocess
import sys
import tokenize

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_states_its_results():
    """Run the README's library quickstart, statement by statement, and check
    each expression whose comment, on its last line or the line after,
    states its value as a Python literal before any ":"."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    comments = {
        tok.start[0]: tok.string.lstrip("# ")
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    lines = block.splitlines()
    namespace, stated = {}, []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        end = stmt.end_lineno
        comment = comments.get(end)
        if comment is None and end < len(lines) and lines[end].lstrip().startswith("#"):
            # lines[end] is the line after the statement
            comment = comments[end + 1]
        try:
            literal = ast.literal_eval(comment.split(":")[0])
        except (AttributeError, SyntaxError, ValueError):  # no comment, or not a literal
            continue
        assert value == literal, (ast.get_source_segment(block, stmt), comment)
        stated.append(literal)
    assert stated == [True, [], [], True, (9, 3, 9, 3, True)]
