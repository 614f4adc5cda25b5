"""The benchmark's tracer wraps functions by name; each name must exist and
stay on the training path.

``perfbench/tracer.py`` reports a vanished name only as a ``missing metric``
line in a traced run, and a name the layer stops calling only as a per-layer
metric that reads 0.  These tests read its ``TARGETS`` table (without
importing the module), resolve every entry in the package, check that a
``tubalgcn train`` and ``tubalgcn eval`` call every one of them, and count
the calls one gradient pass makes to the names behind the per-layer
metrics, so a refactor that drops, renames or routes around a traced
function fails here instead.

Two more checks keep the package's surface honest: every top-level
function and class in ``src/tubalgcn`` is reachable from the program, not
only from tests, and the package exports exactly its modules' ``__all__``
names.  Only ``training`` splits a dataset, so the split rule lives in one
module.  The last ones keep the README's command lines in step with the
command-line parser, run its Python examples and hold the calls it writes
out to the signatures of the functions it names.
"""

import ast
import importlib
import inspect
import re
import shlex
import sys
from pathlib import Path

import pytest
from scipy import sparse

import tubalgcn
from tubalgcn import cli
from tubalgcn.data import SynthSpec, generate_synthetic, serialize_dataset, split_dataset
from tubalgcn.training import TRANSFORM_CHOICES, TrainConfig, build_aux, compute_gradients, init_params, link_batch

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE_MODULES = ("tensor3", "transforms", "gtcn", "head_loss", "data", "training")


def tracer_targets() -> dict:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TARGETS table")


def test_every_traced_name_resolves_to_a_callable():
    targets = tracer_targets()
    assert targets
    missing = []
    for span, (module, qualname) in targets.items():
        owner = importlib.import_module(f"tubalgcn.{module}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(span)
    assert not missing, f"traced names not defined in tubalgcn: {missing}"


# The traced names whose call counts per gradient pass the per-layer metrics rest on.
PER_LAYER_SPANS = ("tensor3.m_transform", "gtcn.apply_activation", "gtcn.activation_grad")


def count_calls(monkeypatch, spans) -> dict:
    """Wrap each span's function in every ``tubalgcn`` namespace that binds
    it, or a method in its class, as the tracer does, and return the live
    call counts."""
    targets = tracer_targets()
    counts = dict.fromkeys(spans, 0)
    modules = [m for k, m in list(sys.modules.items()) if k == "tubalgcn" or k.startswith("tubalgcn.")]
    for span in spans:
        module, qualname = targets[span]
        owner = importlib.import_module(f"tubalgcn.{module}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)

        def counting(*args, _span=span, _fn=original, **kwargs):
            counts[_span] += 1
            return _fn(*args, **kwargs)

        if path:
            monkeypatch.setattr(owner, attr, counting)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counting)
    return counts


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("transform", TRANSFORM_CHOICES)
def test_gradient_pass_calls_the_traced_names_per_layer(monkeypatch, transform, n_layers):
    # T = 3 runs the Haar branch padded to 4 slots.
    ds = split_dataset(generate_synthetic(SynthSpec(n=6, t=3, density=0.8, seed=1)), seed=1)
    config = TrainConfig(embedding_dim=3, transform=transform, n_layers=n_layers)
    aux = build_aux(ds, config)
    params = init_params(ds, config)
    batch = link_batch(ds, ds.train_idx)
    counts = count_calls(monkeypatch, PER_LAYER_SPANS)
    compute_gradients(params, aux, batch)
    layers = n_layers * len(config.branch_kinds())
    # Per layer and branch: the forward transforms of the input (Z = Â E in
    # the first layer, X after it), W and the inverse, the backward ones of
    # g_S, g_W and the input's gradient; one activation and one derivative.
    # The identity branch's transforms are m_transform calls too, with no GEMM.
    assert counts == {"tensor3.m_transform": 6 * layers, "gtcn.apply_activation": layers, "gtcn.activation_grad": layers}


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("transform", TRANSFORM_CHOICES)
def test_gradient_pass_makes_one_first_layer_sparse_product_each_way(monkeypatch, transform, n_layers):
    # The first layer runs on the raw Â stack shared by every branch: one
    # CSR product forward (Z = Â E) and one CSC product backward (Âᵀ g_Z,
    # on the transposed view) per pass.  Each later layer of each branch
    # adds one of each on its transformed blocks.
    ds = split_dataset(generate_synthetic(SynthSpec(n=6, t=3, density=0.8, seed=1)), seed=1)
    config = TrainConfig(embedding_dim=3, transform=transform, n_layers=n_layers)
    aux = build_aux(ds, config)
    params = init_params(ds, config)
    batch = link_batch(ds, ds.train_idx)
    counts = {}
    for cls in (sparse.csr_array, sparse.csc_array):
        counts[cls.__name__] = 0

        def counting(self, other, _name=cls.__name__, _fn=cls.__matmul__):
            counts[_name] += 1
            return _fn(self, other)

        monkeypatch.setattr(cls, "__matmul__", counting)
    compute_gradients(params, aux, batch)
    each_way = 1 + (n_layers - 1) * len(config.branch_kinds())
    assert counts == {"csr_array": each_way, "csc_array": each_way}


def test_train_then_eval_calls_every_traced_name(monkeypatch, tmp_path):
    data, ckpt = tmp_path / "g.tsv", tmp_path / "m.npz"
    serialize_dataset(generate_synthetic(SynthSpec(n=6, t=3, density=0.8, seed=1)), data)
    counts = count_calls(monkeypatch, list(tracer_targets()))
    flags = ["--data", str(data), "--checkpoint", str(ckpt)]
    assert cli.main(["train", *flags, "--max-epochs", "2", "--embedding-dim", "3", "--report", str(tmp_path / "t.txt")]) == 0
    assert cli.main(["eval", *flags, "--report", str(tmp_path / "e.txt")]) == 0
    assert [span for span, n in counts.items() if n == 0] == []


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("transform", TRANSFORM_CHOICES)
def test_build_aux_builds_and_preprocesses_the_adjacency_once(monkeypatch, transform, n_layers):
    # Every branch shares the one Â stack, and the ensemble's blocks one pass over its tubes.
    ds = split_dataset(generate_synthetic(SynthSpec(n=6, t=3, density=0.8, seed=1)), seed=1)
    counts = count_calls(monkeypatch, ("data.build_adjacency", "gtcn.preprocess_adjacency"))
    build_aux(ds, TrainConfig(embedding_dim=3, transform=transform, n_layers=n_layers))
    assert counts == {"data.build_adjacency": 1, "gtcn.preprocess_adjacency": 1}


def referenced_names(node) -> set:
    """The names and attribute names a syntax tree mentions."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_function_and_class_is_reachable_from_the_program():
    # Roots: cli.main, every module-level statement of the package other than
    # a def, a class, an import or __all__ (such as training.FIELD_CHOICES), and
    # every name perfbench mentions.  A def or class reaches the names its
    # body mentions.  Names are matched across modules, so a name defined
    # twice is reached when either is; tests are not roots.
    defs, roots = {}, {"main"}
    for path in sorted((ROOT / "src" / "tubalgcn").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) and "__all__" not in referenced_names(node):
                roots |= referenced_names(node)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        roots |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n for node in defs.get(name, ()) for n in referenced_names(node))
    assert sorted(set(defs) - reached) == []


def test_the_package_exports_every_module_public_name():
    missing = [
        f"{module}.{name}"
        for module in PACKAGE_MODULES
        for name in importlib.import_module(f"tubalgcn.{module}").__all__
        if getattr(tubalgcn, name, None) is not getattr(sys.modules[f"tubalgcn.{module}"], name)
    ]
    assert missing == []


def test_only_training_calls_split_dataset():
    # train, evaluate and grad_check split what they are given with the
    # config's split seed; no other module makes a split of its own.
    callers = [
        path.name
        for path in sorted((ROOT / "src" / "tubalgcn").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and "split_dataset" in referenced_names(node.func)
    ]
    assert callers and set(callers) == {"training.py"}


def readme_command_lines() -> list:
    """Every ``tubalgcn ...`` command line in README.md: the lines of its
    fenced blocks, backslash continuations joined, and its inline code spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.S | re.M)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines + re.findall(r"`(tubalgcn [^`]*)`", text) if line.startswith("tubalgcn ")]


def test_every_readme_command_line_parses():
    lines = readme_command_lines()
    assert len(lines) >= 7
    bad = []
    for line in lines:
        try:
            cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            bad.append(line)
    assert bad == []


def readme_python_blocks() -> list:
    """The body of every ```python block in README.md."""
    return re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S | re.M)


def test_every_readme_python_block_runs(tmp_path, monkeypatch):
    # In an empty directory, for the files the blocks write.
    blocks = readme_python_blocks()
    assert blocks
    monkeypatch.chdir(tmp_path)
    for k, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {k}", "exec"), {})


def readme_calls() -> list:
    """Every ``name(a, b, ...)`` in an inline code span of README.md whose
    arguments are all bare identifiers, as (name, [a, b, ...])."""
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S | re.M)
    calls = []
    for span in re.findall(r"`([^`]+)`", text):
        for name, args in re.findall(r"([A-Za-z_][\w.]*)\(([^()]*)\)", span):
            args = [a.strip() for a in args.split(",")]
            if all(a.isidentifier() for a in args):
                calls.append((name, args))
    return calls


def test_readme_signatures_match_the_code():
    # A call of an exported callable names its leading parameters, in order,
    # and every parameter that has no default.
    exported = {name for module in PACKAGE_MODULES for name in importlib.import_module(f"tubalgcn.{module}").__all__}
    checked, bad = 0, []
    for name, args in readme_calls():
        last = name.rsplit(".", 1)[-1]
        if last not in exported or not callable(getattr(tubalgcn, last)):
            continue
        checked += 1
        signature = inspect.signature(getattr(tubalgcn, last))
        params = list(signature.parameters.values())
        required = {p.name for p in params if p.default is p.empty}
        if args != [p.name for p in params[: len(args)]] or not required <= set(args):
            bad.append(f"{name}({', '.join(args)}) vs {last}{signature}")
    assert checked >= 10
    assert bad == []
