"""The package's runtime dependencies stay numpy and click.

Every module of ``src/stancewatch`` may import only the standard library
and those two, found by walking each file's syntax tree, and
``pyproject.toml`` declares exactly those two as dependencies. A process
that imports the command line and trains and classifies through it loads
no scipy module: importing ``scipy.special`` alone adds about 20 MB to
every process's resident memory.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNTIME = {"numpy", "click"}


def top_level_imports(path: Path) -> set[str]:
    """Top-level module names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library_and_the_runtime_two():
    sources = sorted((ROOT / "src" / "stancewatch").glob("*.py"))
    assert sources
    allowed = sys.stdlib_module_names | RUNTIME
    outside = {(p.name, name) for p in sources for name in top_level_imports(p) - allowed}
    assert outside == set()


def test_pyproject_declares_exactly_the_runtime_two():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert block is not None
    declared = re.findall(r'"\s*([A-Za-z0-9_.-]+)', block.group(1))
    assert sorted(declared) == sorted(RUNTIME)


NO_SCIPY_RUN = """
import sys
from pathlib import Path

from click.testing import CliRunner

from stancewatch.cli import main

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0].startswith("scipy"))

print("import", scipy_modules())
from stancewatch.corpus import write_jsonl
from stancewatch.synth import generate_corpus, generate_labeled

work = Path(sys.argv[1])
write_jsonl(generate_labeled(per_class=8, seed=7), work / "labeled.jsonl")
write_jsonl(generate_corpus(days=3, per_day=10, seed=8, spike_days=(1,)), work / "corpus.jsonl")
model = ["--set", "d_model=8", "--set", "n_layers=1", "--set", "n_heads=2", "--set", "max_len=16",
         "--set", "epochs=1", "--set", "vocab_max_size=200"]
out = str(work / "out")
runner = CliRunner()
for args in (
    ["build-vocab", "--labeled", str(work / "labeled.jsonl"), "--out", out, *model],
    ["train", "--labeled", str(work / "labeled.jsonl"), "--out", out, *model],
    ["classify", "--corpus", str(work / "corpus.jsonl"), "--vocab", out + "/vocab.txt",
     "--checkpoint", out + "/model.ckpt", "--out", out],
):
    result = runner.invoke(main, [*args, "--quiet"], catch_exceptions=False)
    assert result.exit_code == 0, result.output
print("run", scipy_modules())
"""


def test_train_and_classify_load_no_scipy(tmp_path):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    result = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["import []", "run []"]
    assert (tmp_path / "out" / "classified.jsonl").stat().st_size > 0
