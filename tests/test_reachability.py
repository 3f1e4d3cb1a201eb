"""Every module under tilemaker_ray/ must be importable from a tiling
entry point: the CLI, the four pipelines, the tile server, the sinks,
the spatial join, or a module the driver contract imports.

The import graph is read with ``ast`` only (no module is imported, no
Ray), following imports at any depth, including the ones inside
functions. A module left out of the graph is code no tile path can
run; delete it rather than keep it alive through its own tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "tilemaker_ray"
ROOTS = ["__main__", "pipelines.flagship", "pipelines.osm",
         "pipelines.incremental", "pipelines.resumable", "serve",
         "sinks.*", "stages.spatial_join"]
# Modules that only the driver contract (__ray_entry__.py) reaches:
# the LLM-data and media operators still waiting to be cut.
DRIVER_ONLY = {f"{PKG}.ops.{m}" for m in ("bpe", "dedup", "sampling",
                                          "jpeg", "png", "multimodal")}


def _modules() -> dict[str, Path]:
    out = {}
    for p in (ROOT / PKG).rglob("*.py"):
        parts = list(p.relative_to(ROOT).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = p
    return out


def _imports(path: Path, name: str, mods: dict[str, Path]) -> set[str]:
    """Fully qualified modules that ``name`` (at ``path``) imports,
    plus the packages they sit in."""
    pkg = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = pkg.split(".")[:len(pkg.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            # `from pkg import mod` names a submodule
            found.update(f"{base}.{a.name}" for a in node.names)
    out = set()
    for m in found:
        parts = m.split(".")
        out.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return out & set(mods)


def _reachable(mods: dict[str, Path], roots: set[str]) -> set[str]:
    seen, todo = set(), list(roots)
    while todo:
        m = todo.pop()
        if m in seen:
            continue
        seen.add(m)
        todo.extend(_imports(mods[m], m, mods) - seen)
    return seen


def _tile_roots(mods: dict[str, Path]) -> set[str]:
    roots = set()
    for r in ROOTS:
        if r.endswith(".*"):
            prefix = f"{PKG}.{r[:-2]}."
            roots.update(m for m in mods if m.startswith(prefix))
        else:
            roots.add(f"{PKG}.{r}")
    return roots


def _roots(mods: dict[str, Path]) -> set[str]:
    return _tile_roots(mods) | _imports(ROOT / "__ray_entry__.py",
                                        "__ray_entry__", mods)


def test_roots_exist():
    mods = _modules()
    missing = sorted(r for r in _roots(mods) if r not in mods)
    assert not missing, missing


def test_every_module_is_reachable_from_a_tile_path():
    mods = _modules()
    dead = sorted(set(mods) - _reachable(mods, _roots(mods)))
    assert not dead, f"modules no tiling entry point imports: {dead}"


def test_driver_only_modules_are_listed():
    """Ratchet: a module that no tiling entry point imports, and that
    only the driver contract keeps alive, must be one of DRIVER_ONLY.
    A new driver-only module fails here. Each cut of an operator group
    removes its modules from DRIVER_ONLY; once the set is empty,
    ``__ray_entry__`` leaves the roots and every module must be
    reachable from ROOTS alone."""
    mods = _modules()
    driver_only = set(mods) - _reachable(mods, _tile_roots(mods))
    assert driver_only <= DRIVER_ONLY, sorted(driver_only - DRIVER_ONLY)


def test_driver_contract_reads_nothing_outside_the_repository():
    """No string constant in __ray_entry__.py names a path under the
    reference checkout (conftest.REFERENCE): each queries() entry runs
    on in-repo code and the driver's own sf inputs."""
    from conftest import REFERENCE

    tree = ast.parse((ROOT / "__ray_entry__.py").read_text())
    bad = sorted(n.value for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)
                 and n.value.startswith(REFERENCE))
    assert not bad, bad
